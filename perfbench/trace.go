package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/sched"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// spanKind names one timed call at a layer boundary.
type spanKind uint8

const (
	spanAdmit spanKind = iota
	spanPick
	spanAdmitSequence
	spanCommit
	spanAdmissible
	spanObserve
	spanRetract
	spanAppend
	spanBarrier
	spanWrite
	spanSync
	numSpanKinds
)

// layer is the pipeline layer a span kind belongs to.
type layer uint8

const (
	layerSched layer = iota
	layerCore
	layerWal
	numLayers
)

var spanInfo = [numSpanKinds]struct {
	name  string
	layer layer
}{
	spanAdmit:         {"sched.admit", layerSched},
	spanPick:          {"sched.pick", layerSched},
	spanAdmitSequence: {"core.admit_sequence", layerCore},
	spanCommit:        {"core.commit", layerCore},
	spanAdmissible:    {"core.admissible", layerCore},
	spanObserve:       {"core.observe", layerCore},
	spanRetract:       {"core.retract", layerCore},
	spanAppend:        {"wal.append", layerWal},
	spanBarrier:       {"wal.barrier", layerWal},
	spanWrite:         {"wal.write", layerWal},
	spanSync:          {"wal.sync", layerWal},
}

// span is one recorded call: its request, its own id, the id of the
// span that caused it (-1 for a top-level span), and its interval in
// nanoseconds since the tracer started.
type span struct {
	Round  int    `json:"round"`
	Req    int32  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// openSpan is a span whose call has not returned yet.
type openSpan struct {
	kind  spanKind
	id    int32
	start int64
	child int64 // nanoseconds covered by direct children
}

// kindStats aggregates every span of one kind.
type kindStats struct {
	calls int64
	total int64 // inclusive nanoseconds
	self  int64 // nanoseconds minus direct children
}

// tracer records spans in memory. It takes no lock: calls into the
// traced layers never overlap in time — the batch engine admits under
// its commit lock and the tick engine calls its policy from one
// goroutine — and a request returns only after its engine goroutines
// are done, so one stack of open spans describes the nesting and every
// access is ordered by the engine's own synchronization.
type tracer struct {
	round int
	base  time.Time
	req   int32
	next  int32
	stack []openSpan

	kinds [numSpanKinds]kindStats
	// top is the time covered by top-level spans; subtracted from the
	// request wall time it leaves the engine's own time.
	top int64
	// reqAdmit[i] is the inclusive time of request i's sched.admit
	// spans, and reqAdmitN[i] their count.
	reqAdmit  []int64
	reqAdmitN []int64

	keep  int // spans retained for the dump at most
	spans []span
}

func newTracer(round, requests, keep int) *tracer {
	return &tracer{
		round:     round,
		base:      time.Now(),
		reqAdmit:  make([]int64, requests),
		reqAdmitN: make([]int64, requests),
		keep:      keep,
	}
}

// setRequest tags the spans that follow with request i.
func (t *tracer) setRequest(i int) { t.req = int32(i) }

// reset drops the aggregates, so they cover only what follows.
func (t *tracer) reset() {
	t.kinds = [numSpanKinds]kindStats{}
	t.top = 0
}

func (t *tracer) begin(k spanKind) {
	t.stack = append(t.stack, openSpan{kind: k, id: t.next, start: int64(time.Since(t.base))})
	t.next++
}

func (t *tracer) end() {
	now := int64(time.Since(t.base))
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	d := now - s.start
	ks := &t.kinds[s.kind]
	ks.calls++
	ks.total += d
	ks.self += d - s.child
	parent := int32(-1)
	if n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].id
	} else {
		t.top += d
	}
	if s.kind == spanAdmit {
		t.reqAdmit[t.req] += d
		t.reqAdmitN[t.req]++
	}
	if len(t.spans) < t.keep {
		t.spans = append(t.spans, span{Round: t.round, Req: t.req, ID: s.id, Parent: parent, Name: spanInfo[s.kind].name, Start: s.start, End: now})
	}
}

// layerSelf returns the self time of every span of layer l.
func (t *tracer) layerSelf(l layer) int64 {
	var ns int64
	for k, ks := range t.kinds {
		if spanInfo[k].layer == l {
			ns += ks.self
		}
	}
	return ns
}

// meanUS returns the mean inclusive time of the given kinds in µs
// (0 when none was called).
func (t *tracer) meanUS(kinds ...spanKind) float64 {
	var calls, total int64
	for _, k := range kinds {
		calls += t.kinds[k].calls
		total += t.kinds[k].total
	}
	if calls == 0 {
		return 0
	}
	return float64(total) / float64(calls) / 1e3
}

// dumpSpans writes spans as JSON lines.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The wrappers below time one layer boundary each. Each embeds the
// concrete type it wraps and overrides only the timed methods, so every
// optional interface the pipeline type-asserts (WatermarkReporter,
// Restarter, Canceler, Healer, SnapshotCutter, the reporters) stays
// visible: hiding one would run a different program.

// tracedGate times the abort-capable gate's admissions and picks.
type tracedGate struct {
	*sched.OptimisticCertify
	tr *tracer
}

func (g *tracedGate) AdmitTxn(ops []txn.Op) error {
	g.tr.begin(spanAdmit)
	defer g.tr.end()
	return g.OptimisticCertify.AdmitTxn(ops)
}

func (g *tracedGate) Pick(pending []*exec.Request, v *exec.View) int {
	g.tr.begin(spanPick)
	defer g.tr.end()
	return g.OptimisticCertify.Pick(pending, v)
}

// tracedParallelGate times the sharded gate's admissions; the batch
// engine never calls Pick.
type tracedParallelGate struct {
	*sched.ParallelCertify
	tr *tracer
}

func (g *tracedParallelGate) AdmitTxn(ops []txn.Op) error {
	g.tr.begin(spanAdmit)
	defer g.tr.end()
	return g.ParallelCertify.AdmitTxn(ops)
}

// tracedMonitor is a sched.Certifier timing the monitor's lifecycle
// calls.
type tracedMonitor struct {
	*core.Monitor
	tr *tracer
}

func (m *tracedMonitor) AdmitSequence(ops []txn.Op) (bool, *core.Violation) {
	m.tr.begin(spanAdmitSequence)
	defer m.tr.end()
	return m.Monitor.AdmitSequence(ops)
}

func (m *tracedMonitor) Commit(txnID int) {
	m.tr.begin(spanCommit)
	defer m.tr.end()
	m.Monitor.Commit(txnID)
}

func (m *tracedMonitor) Admissible(o txn.Op) bool {
	m.tr.begin(spanAdmissible)
	defer m.tr.end()
	return m.Monitor.Admissible(o)
}

func (m *tracedMonitor) Observe(o txn.Op) *core.Violation {
	m.tr.begin(spanObserve)
	defer m.tr.end()
	return m.Monitor.Observe(o)
}

func (m *tracedMonitor) Retract(txnID int) {
	m.tr.begin(spanRetract)
	defer m.tr.end()
	m.Monitor.Retract(txnID)
}

// tracedJournal is a sched.Journal timing the writer's appends and
// barriers.
type tracedJournal struct {
	*wal.Writer
	tr *tracer
}

func (j *tracedJournal) LogObserve(o txn.Op) {
	j.tr.begin(spanAppend)
	defer j.tr.end()
	j.Writer.LogObserve(o)
}

func (j *tracedJournal) LogCommit(txnID int) {
	j.tr.begin(spanAppend)
	defer j.tr.end()
	j.Writer.LogCommit(txnID)
}

func (j *tracedJournal) LogRetract(txnID int) {
	j.tr.begin(spanAppend)
	defer j.tr.end()
	j.Writer.LogRetract(txnID)
}

func (j *tracedJournal) LogCompact(reclaimed []int, stats core.CompactStats, ops int) {
	j.tr.begin(spanAppend)
	defer j.tr.end()
	j.Writer.LogCompact(reclaimed, stats, ops)
}

func (j *tracedJournal) Barrier() error {
	j.tr.begin(spanBarrier)
	defer j.tr.end()
	return j.Writer.Barrier()
}

// tracedBackend hands out segment files whose writes and syncs are
// timed.
type tracedBackend struct {
	*wal.MemBackend
	tr *tracer
}

func (b *tracedBackend) Create(name string) (wal.File, error) {
	f, err := b.MemBackend.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, tr: b.tr}, nil
}

type tracedFile struct {
	wal.File
	tr *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	f.tr.begin(spanWrite)
	defer f.tr.end()
	return f.File.Write(p)
}

func (f *tracedFile) Sync() error {
	f.tr.begin(spanSync)
	defer f.tr.end()
	return f.File.Sync()
}

// spanPath names the span dump of one traced run.
func spanPath(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}
