package main

import (
	"fmt"
	"math/rand"
	"slices"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/wal"
)

// workers is the parallel engine's pool size.
const workers = 2

// workload is one named set of generated inputs. Everything it holds is
// derived from the seed; build turns it into a pipeline.
type workload interface {
	// requests is the number of requests a run sends, warm-up included.
	requests() int
	// txns is the number of transactions a request carries.
	txns() int
	// items lists every data item, the recorder's item table.
	items() []string
	partition() []state.ItemSet
	// expected is the final state the inputs imply: the initial state
	// plus one for every increment a program performs.
	expected() state.DB
	// build constructs the certifier, gate, journal and engine. A
	// non-nil tracer wraps each layer boundary.
	build(tr *tracer) (pipeline, error)
}

// pipeline is one constructed certification pipeline.
type pipeline interface {
	// prepare assembles request i's programs; it is not timed.
	prepare(i int)
	// execute sends the prepared request and waits for its result.
	execute() (*exec.Result, error)
	// programs returns the prepared request's programs.
	programs() []*program.Program
	// final returns the state after the last request.
	final() state.DB
	// verify runs the pipeline's own end-of-run checks.
	verify() error
	close() error
}

// workloadByName builds the named workload's inputs for the given
// number of requests.
func workloadByName(name string, seed int64, requests int) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "batch-durable":
		return newBatchDurable(rng, requests), nil
	case "batch-fresh":
		return newBatchFresh(rng, requests), nil
	case "tick-mixed":
		return newTickMixed(rng, seed, requests), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// incr parses the increment statement "item := item + 1".
func incr(item string) program.Stmt {
	stmts, err := program.ParseStmts(fmt.Sprintf("%s := %s + 1;", item, item))
	if err != nil {
		panic(err) // item names are generated, so this is a bug
	}
	return stmts[0]
}

// read parses the statement "let v := item", one read of item.
func read(item string) program.Stmt {
	stmts, err := program.ParseStmts(fmt.Sprintf("let v := %s;", item))
	if err != nil {
		panic(err)
	}
	return stmts[0]
}

// programPool hands out reusable program values, so assembling a
// request allocates nothing. The engines do not keep programs once a
// request returns.
type programPool struct {
	progs []program.Program
	byID  map[int]*program.Program
	list  []*program.Program
}

func newProgramPool(n int) *programPool {
	p := &programPool{progs: make([]program.Program, n), byID: make(map[int]*program.Program, n)}
	for i := range p.progs {
		p.progs[i].Name = "T"
	}
	return p
}

func (p *programPool) reset() {
	clear(p.byID)
	p.list = p.list[:0]
}

// add registers program j of the request under id with the given body.
func (p *programPool) add(j, id int, body ...program.Stmt) {
	pr := &p.progs[j]
	pr.Body = append(pr.Body[:0], body...)
	p.byID[id] = pr
	p.list = append(p.list, pr)
}

// uniformState assigns each item a seeded value in [0, 1000).
func uniformState(rng *rand.Rand, items []string) state.DB {
	db := make(state.DB, len(items))
	for _, it := range items {
		db.Set(it, state.Int(rng.Int63n(1000)))
	}
	return db
}

// expectedAfter adds one to initial for every item in incs.
func expectedAfter(initial state.DB, incs map[string]int64) state.DB {
	want := initial.Clone()
	for it, n := range incs {
		want.Set(it, state.Int(initial.MustGet(it).AsInt()+n))
	}
	return want
}

// ---- batch-durable ----

const (
	durableConjuncts = 16
	durablePerConj   = 256
	durableBatch     = 64
)

// batchDurable is the journaled batch workload: 64-transaction batches
// of programs that increment three distinct items drawn uniformly from
// a fixed 4096-item store, certified by the optimistic gate over one
// monitor and journaled with a record-at-a-time fsync.
type batchDurable struct {
	names   []string
	part    []state.ItemSet
	initial state.DB
	incs    []program.Stmt
	picks   [][3]int32
}

func newBatchDurable(rng *rand.Rand, requests int) *batchDurable {
	w := &batchDurable{}
	for c := 0; c < durableConjuncts; c++ {
		set := state.NewItemSet()
		for k := 0; k < durablePerConj; k++ {
			it := fmt.Sprintf("k%04d", c*durablePerConj+k)
			w.names = append(w.names, it)
			w.incs = append(w.incs, incr(it))
			set.Add(it)
		}
		w.part = append(w.part, set)
	}
	w.initial = uniformState(rng, w.names)
	w.picks = make([][3]int32, requests*durableBatch)
	for i := range w.picks {
		p := &w.picks[i]
		for j := range p {
			it := int32(rng.Intn(len(w.names)))
			for slices.Contains(p[:j], it) {
				it = int32(rng.Intn(len(w.names)))
			}
			p[j] = it
		}
	}
	return w
}

func (w *batchDurable) requests() int              { return len(w.picks) / durableBatch }
func (w *batchDurable) txns() int                  { return durableBatch }
func (w *batchDurable) items() []string            { return w.names }
func (w *batchDurable) partition() []state.ItemSet { return w.part }

func (w *batchDurable) expected() state.DB {
	incs := make(map[string]int64)
	for _, p := range w.picks {
		for _, k := range p {
			incs[w.names[k]]++
		}
	}
	return expectedAfter(w.initial, incs)
}

func (w *batchDurable) build(tr *tracer) (pipeline, error) {
	mon := core.NewMonitor(w.part)
	var cert sched.Certifier = mon
	backend := wal.NewMemBackend()
	var b wal.Backend = backend
	if tr != nil {
		cert = &tracedMonitor{Monitor: mon, tr: tr}
		b = &tracedBackend{MemBackend: backend, tr: tr}
	}
	gate := sched.NewOptimisticCertifyOver(cert, &sched.RoundRobin{}, nil)
	// Zero-value options: every record is synced before it is
	// acknowledged.
	writer, err := wal.NewWriter(b, wal.Options{})
	if err != nil {
		return nil, err
	}
	var jn sched.Journal = writer
	var bg exec.BatchGate = gate
	if tr != nil {
		jn = &tracedJournal{Writer: writer, tr: tr}
		bg = &tracedGate{OptimisticCertify: gate, tr: tr}
	}
	gate.AttachJournal(jn)
	eng := exec.NewParallelEngine(exec.ParallelConfig{Initial: w.initial, Gate: bg, Workers: workers})
	return &batchPipe{w: w, eng: eng, pool: newProgramPool(durableBatch), writer: writer, backend: backend, part: w.part}, nil
}

// batchPipe drives a parallel engine one batch per request; it serves
// both batch workloads.
type batchPipe struct {
	w interface {
		// body appends transaction t's statements to dst.
		body(dst []program.Stmt, t int) []program.Stmt
	}
	stmtBuf []program.Stmt
	eng     *exec.ParallelEngine
	pool    *programPool

	// The journal, when the workload has one.
	writer  *wal.Writer
	backend *wal.MemBackend
	part    []state.ItemSet
}

func (w *batchDurable) body(dst []program.Stmt, t int) []program.Stmt {
	p := w.picks[t]
	return append(dst, w.incs[p[0]], w.incs[p[1]], w.incs[p[2]])
}

func (p *batchPipe) prepare(i int) {
	p.pool.reset()
	n := len(p.pool.progs)
	for j := 0; j < n; j++ {
		t := i*n + j
		p.stmtBuf = p.w.body(p.stmtBuf[:0], t)
		p.pool.add(j, t+1, p.stmtBuf...)
	}
}

func (p *batchPipe) execute() (*exec.Result, error) {
	return p.eng.ExecuteBatch(p.pool.byID)
}

func (p *batchPipe) programs() []*program.Program { return p.pool.list }
func (p *batchPipe) final() state.DB              { return p.eng.Store().Snapshot() }

// verify recovers a monitor from the written log, which must be PWSR.
func (p *batchPipe) verify() error {
	if p.writer == nil {
		return nil
	}
	if err := p.writer.Close(); err != nil {
		return fmt.Errorf("close journal: %w", err)
	}
	p.writer = nil
	mon, _, err := wal.Recover(p.backend, p.part)
	if err != nil {
		return fmt.Errorf("recover journal: %w", err)
	}
	if !mon.PWSR() {
		return fmt.Errorf("recovered monitor is not PWSR: %v", mon.Violation())
	}
	return nil
}

func (p *batchPipe) close() error {
	if p.writer == nil {
		return nil
	}
	err := p.writer.Close()
	p.writer = nil
	return err
}

// ---- batch-fresh ----

const (
	freshHot   = 4
	freshBatch = 16
)

// batchFresh is the growing-key batch workload: every transaction reads
// one of four hot items and increments an item no earlier transaction
// touched, through the sharded gate (two shards over two conjuncts)
// with no journal.
type batchFresh struct {
	names   []string
	part    []state.ItemSet
	initial state.DB
	incs    []program.Stmt
	hotRead []program.Stmt
	hot     []uint8
}

func newBatchFresh(rng *rand.Rand, requests int) *batchFresh {
	w := &batchFresh{part: []state.ItemSet{state.NewItemSet(), state.NewItemSet()}}
	n := requests * freshBatch
	for h := 0; h < freshHot; h++ {
		it := fmt.Sprintf("h%d", h)
		w.names = append(w.names, it)
		w.hotRead = append(w.hotRead, read(it))
		w.part[h%2].Add(it)
	}
	for t := 0; t < n; t++ {
		it := fmt.Sprintf("f%06d", t)
		w.names = append(w.names, it)
		w.incs = append(w.incs, incr(it))
		w.part[t%2].Add(it)
	}
	w.initial = uniformState(rng, w.names)
	w.hot = make([]uint8, n)
	for t := range w.hot {
		w.hot[t] = uint8(rng.Intn(freshHot))
	}
	return w
}

func (w *batchFresh) requests() int              { return len(w.hot) / freshBatch }
func (w *batchFresh) txns() int                  { return freshBatch }
func (w *batchFresh) items() []string            { return w.names }
func (w *batchFresh) partition() []state.ItemSet { return w.part }

func (w *batchFresh) body(dst []program.Stmt, t int) []program.Stmt {
	return append(dst, w.hotRead[w.hot[t]], w.incs[t])
}

func (w *batchFresh) expected() state.DB {
	incs := make(map[string]int64, len(w.incs))
	for _, it := range w.names[freshHot:] {
		incs[it]++
	}
	return expectedAfter(w.initial, incs)
}

func (w *batchFresh) build(tr *tracer) (pipeline, error) {
	gate := sched.NewParallelCertify(w.part, 2, &sched.RoundRobin{}, nil)
	var bg exec.BatchGate = gate
	if tr != nil {
		bg = &tracedParallelGate{ParallelCertify: gate, tr: tr}
	}
	eng := exec.NewParallelEngine(exec.ParallelConfig{Initial: w.initial, Gate: bg, Workers: workers})
	return &batchPipe{w: w, eng: eng, pool: newProgramPool(freshBatch)}, nil
}

// ---- tick-mixed ----

const (
	tickItems     = 2048
	tickConjuncts = 16
	tickTxns      = 32 // per request
	tickReaders   = 4  // declared read-only per request
	tickRWItems   = 2
	tickScan      = 8
	tickZipfS     = 1.2
	tickZipfRange = 256
)

// tickMixed is the tick-engine workload: requests of 32 transactions,
// 28 incrementing two Zipf-skewed items and 4 declared read-only
// scanning eight, under the optimistic gate with a seeded random inner
// policy. Each request draws its ranks over a window of the item space
// at a seeded offset, so the hot items move between requests.
type tickMixed struct {
	seed    int64
	names   []string
	part    []state.ItemSet
	initial state.DB
	incs    []program.Stmt
	reads   []program.Stmt
	// rw[i*rwPerReq+j] and ro[i*tickReaders+j] are the item indices of
	// request i's programs; begin holds the readers' begin ticks.
	rw    [][tickRWItems]int32
	ro    [][tickScan]int32
	begin []int
}

const rwPerReq = tickTxns - tickReaders

func newTickMixed(rng *rand.Rand, seed int64, requests int) *tickMixed {
	w := &tickMixed{seed: seed}
	for c := 0; c < tickConjuncts; c++ {
		w.part = append(w.part, state.NewItemSet())
	}
	for k := 0; k < tickItems; k++ {
		it := fmt.Sprintf("z%04d", k)
		w.names = append(w.names, it)
		w.incs = append(w.incs, incr(it))
		w.reads = append(w.reads, read(it))
		w.part[k%tickConjuncts].Add(it)
	}
	w.initial = uniformState(rng, w.names)
	zipf := rand.NewZipf(rng, tickZipfS, 1, tickZipfRange-1)
	// distinct fills dst with distinct items of the window at base.
	distinct := func(base int, dst []int32) {
		draw := func() int32 { return int32((base + int(zipf.Uint64())) % tickItems) }
		for j := range dst {
			it := draw()
			for slices.Contains(dst[:j], it) {
				it = draw()
			}
			dst[j] = it
		}
	}
	for i := 0; i < requests; i++ {
		base := rng.Intn(tickItems)
		for j := 0; j < rwPerReq; j++ {
			var p [tickRWItems]int32
			distinct(base, p[:])
			w.rw = append(w.rw, p)
		}
		for j := 0; j < tickReaders; j++ {
			var p [tickScan]int32
			distinct(base, p[:])
			w.ro = append(w.ro, p)
			w.begin = append(w.begin, rng.Intn(rwPerReq*2*tickRWItems+1))
		}
	}
	return w
}

func (w *tickMixed) requests() int              { return len(w.rw) / rwPerReq }
func (w *tickMixed) txns() int                  { return tickTxns }
func (w *tickMixed) items() []string            { return w.names }
func (w *tickMixed) partition() []state.ItemSet { return w.part }

func (w *tickMixed) expected() state.DB {
	incs := make(map[string]int64)
	for _, p := range w.rw {
		for _, k := range p {
			incs[w.names[k]]++
		}
	}
	return expectedAfter(w.initial, incs)
}

func (w *tickMixed) build(tr *tracer) (pipeline, error) {
	mon := core.NewMonitor(w.part)
	var cert sched.Certifier = mon
	if tr != nil {
		cert = &tracedMonitor{Monitor: mon, tr: tr}
	}
	gate := sched.NewOptimisticCertifyOver(cert, sched.NewRandom(w.seed), nil)
	var pol exec.Policy = gate
	if tr != nil {
		pol = &tracedGate{OptimisticCertify: gate, tr: tr}
	}
	return &tickPipe{
		w:     w,
		cfg:   exec.Config{Initial: w.initial, Policy: pol, ReadOnly: make(map[int]bool), ROBegin: make(map[int]int)},
		pool:  newProgramPool(tickTxns),
		state: w.initial,
	}, nil
}

// tickPipe sends one exec.Run per request, each starting from the state
// the previous one left.
type tickPipe struct {
	w       *tickMixed
	cfg     exec.Config
	pool    *programPool
	state   state.DB
	stmtBuf []program.Stmt
}

func (p *tickPipe) prepare(i int) {
	p.pool.reset()
	clear(p.cfg.ReadOnly)
	clear(p.cfg.ROBegin)
	body := p.stmtBuf[:0]
	for j := 0; j < rwPerReq; j++ {
		body = body[:0]
		for _, k := range p.w.rw[i*rwPerReq+j] {
			body = append(body, p.w.incs[k])
		}
		p.pool.add(j, i*tickTxns+j+1, body...)
	}
	for j := 0; j < tickReaders; j++ {
		body = body[:0]
		for _, k := range p.w.ro[i*tickReaders+j] {
			body = append(body, p.w.reads[k])
		}
		id := i*tickTxns + rwPerReq + j + 1
		p.pool.add(rwPerReq+j, id, body...)
		p.cfg.ReadOnly[id] = true
		p.cfg.ROBegin[id] = p.w.begin[i*tickReaders+j]
	}
	p.stmtBuf = body
	p.cfg.Programs = p.pool.byID
	p.cfg.Initial = p.state
}

func (p *tickPipe) execute() (*exec.Result, error) {
	res, err := exec.Run(p.cfg)
	if err != nil {
		return nil, err
	}
	p.state = res.Final
	return res, nil
}

func (p *tickPipe) programs() []*program.Program { return p.pool.list }
func (p *tickPipe) final() state.DB              { return p.state }
func (p *tickPipe) verify() error                { return nil }
func (p *tickPipe) close() error                 { return nil }
