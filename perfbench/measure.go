package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/program"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// pass is one measured run of a workload: several timed constructions
// of the pipeline, untimed warm-up requests, the timed requests, and
// the correctness checks.
type pass struct {
	setup []float64 // seconds per construction

	attempted, committed, failed int
	timedTxns                    int // committed in the timed requests
	lat                          []time.Duration
	wall                         time.Duration // sum of timed request times
	cpu                          time.Duration // user+sys over timed requests
	allocs                       uint64
	gcCycles                     uint64
	gcShare                      float64
	heapLive                     uint64

	// Engine counters summed over the timed requests.
	retries, aborts, wasted int
	mvVersions              int // retained versions after the last request
	// Gate counters over the timed requests.
	log         exec.LogStats
	compactions int
	liveTxns    int
	probeHits   int64
	probeTotal  int64

	interpret   time.Duration // RunInIsolation of every timed program
	interpreted int

	tr     *tracer
	digest uint64 // of the recorded schedule
	final  state.DB
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/live:bytes",
}

// readRuntime samples runtimeNames.
func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func u64(s []metrics.Sample, i int) uint64 {
	if s[i].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[i].Value.Uint64()
}

func f64(s []metrics.Sample, i int) float64 {
	if s[i].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[i].Value.Float64()
}

// runPass measures one pass. A non-nil tracer wraps the layer
// boundaries; dir receives the recorded schedule while the pass runs.
func runPass(w workload, warmup, setupReps int, tr *tracer, dir string) (*pass, error) {
	ps := &pass{tr: tr}
	var p pipeline
	for k := 0; k < setupReps; k++ {
		// Collect before each construction, so each starts from the
		// same heap instead of paying for its predecessors' garbage.
		runtime.GC()
		t0 := time.Now()
		q, err := w.build(tr)
		ps.setup = append(ps.setup, time.Since(t0).Seconds())
		if err != nil {
			return ps, fmt.Errorf("build pipeline: %w", err)
		}
		if p != nil {
			if err := p.close(); err != nil {
				return ps, fmt.Errorf("close pipeline: %w", err)
			}
		}
		p = q
	}
	defer p.close()

	rec, err := newRecorder(dir, w.items())
	if err != nil {
		return ps, err
	}
	defer rec.close()

	n := w.requests()
	var before, last exec.Metrics
	var rt0 []metrics.Sample
	for i := 0; i < n; i++ {
		timed := i >= warmup
		if i == warmup {
			before = last
			runtime.GC() // start every timed phase from a collected heap
			rt0 = readRuntime()
			if tr != nil {
				tr.reset()
			}
		}
		p.prepare(i)
		if tr != nil {
			tr.setRequest(i)
		}
		ps.attempted += w.txns()
		c0 := cpuTime()
		t0 := time.Now()
		res, err := p.execute()
		d := time.Since(t0)
		c1 := cpuTime()
		if err != nil {
			ps.failed += w.txns()
			return ps, fmt.Errorf("request %d: %w", i, err)
		}
		got := len(res.Metrics.PerTxn)
		ps.committed += got
		if got != w.txns() {
			ps.failed += w.txns() - got
			return ps, fmt.Errorf("request %d committed %d of %d transactions", i, got, w.txns())
		}
		last = res.Metrics
		if timed {
			ps.timedTxns += got
			ps.lat = append(ps.lat, d)
			ps.wall += d
			ps.cpu += c1 - c0
			ps.retries += res.Metrics.Retries
			ps.aborts += res.Metrics.Aborts
			ps.wasted += res.Metrics.WastedOps
			if tr != nil {
				ps.interpret += interpretTime(p.programs(), i*w.txns())
				ps.interpreted += len(p.programs())
			}
		}
		if err := rec.add(res.Schedule.Ops()); err != nil {
			return ps, err
		}
	}
	rt1 := readRuntime()
	ps.allocs = u64(rt1, 0) - u64(rt0, 0)
	ps.gcCycles = u64(rt1, 1) - u64(rt0, 1)
	if busy := (f64(rt1, 3) - f64(rt0, 3)) - (f64(rt1, 4) - f64(rt0, 4)); busy > 0 {
		ps.gcShare = (f64(rt1, 2) - f64(rt0, 2)) / busy
	}
	ps.mvVersions = last.MV.Versions
	ps.log = exec.LogStats{
		Records:  last.Log.Records - before.Log.Records,
		LogBytes: last.Log.LogBytes - before.Log.LogBytes,
		Fsyncs:   last.Log.Fsyncs - before.Log.Fsyncs,
	}
	ps.compactions = last.Compactions - before.Compactions
	ps.liveTxns = last.LiveTxns
	ps.probeHits = last.ProbeHits - before.ProbeHits
	ps.probeTotal = ps.probeHits + (last.ProbeMisses - before.ProbeMisses) +
		(last.ProbeInvalidations - before.ProbeInvalidations)

	// Live heap with the pipeline still reachable, after a collection.
	runtime.GC()
	ps.heapLive = u64(readRuntime(), 5)
	runtime.KeepAlive(p)

	return ps, check(w, p, rec, ps)
}

// interpretTime times Interp.RunInIsolation on each program, from a
// state holding just the items it names.
func interpretTime(progs []*program.Program, firstID int) time.Duration {
	in := program.NewInterp()
	var total time.Duration
	for k, pr := range progs {
		db := make(state.DB)
		for it := range pr.DataItems() {
			db.Set(it, state.Int(1))
		}
		t0 := time.Now()
		_, _, err := in.RunInIsolation(pr, db, firstID+k+1)
		total += time.Since(t0)
		if err != nil {
			panic(err) // the same program just committed
		}
	}
	return total
}

// checkChunk is the number of requests CheckPWSR sees at once.
const checkChunk = 16

// check verifies the pass's outputs outside the timed loop: the final
// state equals the increments the inputs imply, the concatenated
// committed schedule is PWSR over the partition, and the pipeline's own
// checks hold.
//
// The schedule is checked a few requests at a time. Requests never
// overlap — each returns before the next is sent — so every conflict
// edge between transactions of different requests points from the
// earlier request to the later one, a cycle cannot leave one request,
// and the concatenation is PWSR exactly when every chunk is. Checking
// it whole would build conflict graphs quadratic in the accesses per
// item.
func check(w workload, p pipeline, rec *recorder, ps *pass) error {
	ps.final = p.final()
	if want := w.expected(); !ps.final.Equal(want) {
		for it, v := range want {
			if got, ok := ps.final.Get(it); !ok || !got.Equal(v) {
				return fmt.Errorf("final state: %s = %v, want %v", it, got, v)
			}
		}
		return fmt.Errorf("final state holds %d items, want %d", len(ps.final), len(want))
	}
	err := rec.chunks(checkChunk, func(s *txn.Schedule) error {
		if rep := core.CheckPWSR(s, w.partition()); !rep.PWSR {
			for _, set := range rep.PerSet {
				if !set.Serializable {
					return fmt.Errorf("committed schedule is not PWSR: conjunct %d has cycle %v", set.Conjunct, set.Cycle)
				}
			}
			return fmt.Errorf("committed schedule is not PWSR")
		}
		return nil
	})
	ps.digest = rec.digest
	if err != nil {
		return err
	}
	return p.verify()
}

// percentile returns the nearest-rank p-th percentile of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median returns the median of xs.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
