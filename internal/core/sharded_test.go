package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/experiments"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// sameViolation asserts two violations agree on nil-ness, conjunct,
// flagged operation, and witness cycle.
func sameViolation(t *testing.T, trial int, got, want *core.Violation) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("trial %d: sharded %v vs monitor %v", trial, got, want)
	}
	if got == nil {
		return
	}
	if got.Conjunct != want.Conjunct || got.Op != want.Op {
		t.Fatalf("trial %d: sharded flagged C%d %v, monitor C%d %v",
			trial, got.Conjunct, got.Op, want.Conjunct, want.Op)
	}
	if !slices.Equal(got.Cycle, want.Cycle) {
		t.Fatalf("trial %d: sharded cycle %v vs monitor cycle %v", trial, got.Cycle, want.Cycle)
	}
}

// sameEdges asserts every conjunct's conflict edges agree.
func sameEdges(t *testing.T, trial, conjuncts int, sm *core.ShardedMonitor, m *core.Monitor) {
	t.Helper()
	for e := 0; e < conjuncts; e++ {
		if got, want := sm.ConflictEdges(e), m.ConflictEdges(e); !slices.Equal(got, want) {
			t.Fatalf("trial %d: conjunct %d edges %v (sharded) vs %v (monitor)", trial, e, got, want)
		}
	}
}

// TestShardedMonitorDifferential is the sharding refactor's safety
// net: fed from one goroutine, a ShardedMonitor at every shard count
// 1..8 must agree with Monitor operation for operation across random
// Observe/Retract interleavings — verdicts, flagged operations,
// witness cycles, Admissible probes, op counts, and per-conjunct
// conflict edges.
func TestShardedMonitorDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	violations := 0
	for trial := 0; trial < 200; trial++ {
		nItems := 1 + rng.Intn(6)
		items := make([]string, nItems)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		s := randomSchedule(rng, 10+rng.Intn(60), 2+rng.Intn(5), items)
		partition := randomPartition(rng, items, trial%3 == 0)
		shards := 1 + trial%8

		mon := core.NewMonitor(partition)
		sm := core.NewShardedMonitor(partition, shards)
		for _, o := range s.Ops() {
			// Probe a few candidates before admitting: Admissible must
			// agree and must not perturb either monitor.
			for p := 0; p < 2; p++ {
				probe := txn.R(1+rng.Intn(6), items[rng.Intn(nItems)], 0)
				if rng.Intn(2) == 0 {
					probe = txn.W(probe.Txn, probe.Entity, 0)
				}
				if got, want := sm.Admissible(probe), mon.Admissible(probe); got != want {
					t.Fatalf("trial %d: Admissible(%v) = %v (sharded) vs %v (monitor)", trial, probe, got, want)
				}
			}
			vGot := sm.Observe(o)
			vWant := mon.Observe(o)
			sameViolation(t, trial, vGot, vWant)
			if sm.Ops() != mon.Ops() {
				t.Fatalf("trial %d: ops %d (sharded) vs %d (monitor)", trial, sm.Ops(), mon.Ops())
			}
			if vWant != nil {
				violations++
				break
			}
			// Occasionally retract a transaction that has run, then
			// compare the repaired states.
			if rng.Intn(8) == 0 {
				victim := 1 + rng.Intn(6)
				sm.Retract(victim)
				mon.Retract(victim)
				if sm.Ops() != mon.Ops() {
					t.Fatalf("trial %d: post-retract ops %d vs %d", trial, sm.Ops(), mon.Ops())
				}
				sameEdges(t, trial, len(partition), sm, mon)
			}
		}
		if sm.PWSR() != mon.PWSR() {
			t.Fatalf("trial %d: PWSR %v vs %v", trial, sm.PWSR(), mon.PWSR())
		}
		if sm.PWSR() {
			sameEdges(t, trial, len(partition), sm, mon)
		} else {
			// Sticky: both keep returning the first violation, and
			// nothing is admissible any more.
			o := s.Ops()[0]
			sameViolation(t, trial, sm.Observe(o), mon.Observe(o))
			if sm.Admissible(o) {
				t.Fatalf("trial %d: violated sharded monitor admitted %v", trial, o)
			}
		}
	}
	if violations < 20 {
		t.Fatalf("only %d violating trials; differential coverage too thin", violations)
	}
}

// TestShardedMonitorBatchDifferential forces the epoch/fence pipeline
// on (tiny threshold and epochs) and asserts ObserveAll matches the
// sequential Monitor verdict on random schedules: same outcome, same
// flagged operation and conjunct, same witness cycle.
func TestShardedMonitorBatchDifferential(t *testing.T) {
	defer core.SetShardedBatchThreshold(core.SetShardedBatchThreshold(8))
	defer core.SetShardedEpochSize(core.SetShardedEpochSize(16))
	rng := rand.New(rand.NewSource(72))
	violations := 0
	for trial := 0; trial < 200; trial++ {
		nItems := 2 + rng.Intn(8)
		items := make([]string, nItems)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		s := randomSchedule(rng, 20+rng.Intn(120), 2+rng.Intn(6), items)
		partition := randomPartition(rng, items, trial%3 == 0)
		shards := 1 + trial%8

		mon := core.NewMonitor(partition)
		sm := core.NewShardedMonitor(partition, shards)
		var vWant *core.Violation
		for _, o := range s.Ops() {
			if vWant = mon.Observe(o); vWant != nil {
				break
			}
		}
		vGot := sm.ObserveAll(s)
		sameViolation(t, trial, vGot, vWant)
		if sm.Ops() != mon.Ops() {
			t.Fatalf("trial %d: ops %d (pipelined) vs %d (sequential)", trial, sm.Ops(), mon.Ops())
		}
		if vWant != nil {
			violations++
			continue
		}
		sameEdges(t, trial, len(partition), sm, mon)
	}
	if violations < 20 {
		t.Fatalf("only %d violating trials; differential coverage too thin", violations)
	}
}

// TestShardedMonitorConcurrent is the -race stress test: concurrent
// observers on disjoint shards, with Admissible probes and
// Retract/re-observe churn mixed in. Because each item group is
// touched by exactly one goroutine, the final per-conjunct conflict
// edges are deterministic and must equal a sequential Monitor fed the
// same per-group call sequences. The workload is the shared PERF6
// low-contention grid (experiments.NewShardedGrid).
func TestShardedMonitorConcurrent(t *testing.T) {
	const workers, itemsPer, opsPer = 8, 6, 400
	grid := experiments.NewShardedGrid(workers, itemsPer, opsPer, 81)
	partition, streams := grid.Partition, grid.Groups
	for _, shards := range []int{2, 8} {
		sm := core.NewShardedMonitor(partition, shards)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000 + w)))
				for i, o := range streams[w] {
					// The retract/replay churn below reorders per-item
					// histories, so later stream ops can become
					// inadmissible; gate them like a certifying
					// scheduler would. The group's state evolves only
					// under this goroutine, so the probe verdict is
					// deterministic and the sequential reference can
					// mirror the skips exactly.
					if sm.Admissible(o) {
						if v := sm.Observe(o); v != nil {
							t.Errorf("worker %d: violation on certified admission: %v", w, v)
							return
						}
					}
					// Occasionally roll our own transaction back out and
					// replay it; the monitor must repair under concurrency.
					if i > 0 && rng.Intn(64) == 0 {
						victim := streams[w][rng.Intn(i)].Txn
						sm.Retract(victim)
						for _, ro := range streams[w][:i+1] {
							if ro.Txn == victim {
								if v := sm.Observe(ro); v != nil {
									t.Errorf("worker %d: replay violation %v", w, v)
									return
								}
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if !sm.PWSR() {
			t.Fatalf("shards=%d: concurrent feed violated: %v", shards, sm.Violation())
		}
		// Sequential reference: same per-group call sequences, one
		// group after another (retracted-and-replayed transactions end
		// up in the same per-item orders, so edges must agree).
		mon := core.NewMonitor(partition)
		for w := 0; w < workers; w++ {
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i, o := range streams[w] {
				if mon.Admissible(o) {
					if v := mon.Observe(o); v != nil {
						t.Fatalf("reference violation %v", v)
					}
				}
				if i > 0 && rng.Intn(64) == 0 {
					victim := streams[w][rng.Intn(i)].Txn
					mon.Retract(victim)
					for _, ro := range streams[w][:i+1] {
						if ro.Txn == victim {
							mon.Observe(ro)
						}
					}
				}
			}
		}
		sameEdges(t, shards, len(partition), sm, mon)
		total := 0
		for _, st := range sm.ShardStats() {
			total += int(st.Observes)
		}
		if total == 0 {
			t.Fatalf("shards=%d: no observes recorded in shard stats", shards)
		}
	}
}

// freshKeyUniverse builds a partition of n conjuncts over items the
// stream will introduce one by one: a fifth of the items lie outside
// every conjunct, a fifth lie in two conjuncts from opposite halves of
// the partition (so on different shards whenever there are at least
// two), and the rest lie in one conjunct.
func freshKeyUniverse(rng *rand.Rand, n, items int) ([]state.ItemSet, []string) {
	partition := make([]state.ItemSet, n)
	for e := range partition {
		partition[e] = state.NewItemSet()
	}
	names := make([]string, items)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
		switch r := rng.Intn(5); {
		case r == 0:
		case r == 1:
			partition[rng.Intn(n/2)].Add(names[i])
			partition[n/2+rng.Intn(n-n/2)].Add(names[i])
		default:
			partition[rng.Intn(n)].Add(names[i])
		}
	}
	return partition, names
}

// TestShardedMonitorFreshKeyDifferential drives a sharded monitor and
// a Monitor with a stream that keeps introducing never-seen items —
// items in one conjunct, in two conjuncts on different shards, and
// outside every conjunct — through Observe, AdmitSequence, and
// Admissible, with Commit/Compact/Retract churn and a short automatic
// compaction interval. After every step the two must agree on
// verdicts, witness cycles, Ops(), LiveTxns(), LiveTxnIDs(), and
// InFlightTxnIDs(), and periodically on every conjunct's conflict
// edges. It runs at 1, 2, and 8 shards and at the 64-shard clamp: 70
// shards asked over 70 conjuncts must give Shards() == 64, since
// routes and transaction footprints are one-bit-per-shard masks.
func TestShardedMonitorFreshKeyDifferential(t *testing.T) {
	configs := []struct{ conjuncts, shards int }{{8, 1}, {8, 2}, {8, 8}, {70, 70}}
	trials, steps := 12, 200
	if testing.Short() {
		trials = 4
	}
	rng := rand.New(rand.NewSource(73))
	violations, denials, reclaimed := 0, 0, 0
	for _, cfg := range configs {
		for trial := 0; trial < trials; trial++ {
			partition, names := freshKeyUniverse(rng, cfg.conjuncts, 2*steps)
			mon := core.NewMonitor(partition)
			sm := core.NewShardedMonitor(partition, cfg.shards)
			if want := min(cfg.shards, 64); sm.Shards() != want {
				t.Fatalf("Shards() = %d for %d requested over %d conjuncts, want %d", sm.Shards(), cfg.shards, cfg.conjuncts, want)
			}
			mon.SetAutoCompact(5)
			sm.SetAutoCompact(5)
			tag := fmt.Sprintf("conjuncts=%d shards=%d trial %d", cfg.conjuncts, cfg.shards, trial)

			seen := 0 // names[:seen] have been fed; names[seen] is never-seen
			item := func() string {
				if seen == 0 || (seen < len(names) && rng.Intn(5) < 3) {
					seen++
					return names[seen-1]
				}
				return names[max(0, seen-12)+rng.Intn(min(seen, 12))]
			}
			op := func(id int, it string) txn.Op {
				if rng.Intn(2) == 0 {
					return txn.R(id, it, 0)
				}
				return txn.W(id, it, 0)
			}
			nextID := 1
			var open []int
			pickOpen := func() (int, int) {
				k := rng.Intn(len(open))
				return k, open[k]
			}

		steps:
			for step := 0; step < steps; step++ {
				switch r := rng.Intn(20); {
				case r < 7: // observe one operation of an open transaction
					if len(open) < 3 && rng.Intn(2) == 0 {
						open = append(open, nextID)
						nextID++
					}
					if len(open) == 0 {
						continue
					}
					_, id := pickOpen()
					o := op(id, item())
					if rng.Intn(2) == 0 { // gated, like a certifying scheduler
						ok := mon.Admissible(o)
						if got := sm.Admissible(o); got != ok {
							t.Fatalf("%s: Admissible(%v) = %v (sharded) vs %v (monitor)", tag, o, got, ok)
						}
						if !ok {
							denials++
							continue
						}
					}
					vWant := mon.Observe(o)
					sameViolation(t, step, sm.Observe(o), vWant)
					if vWant != nil {
						violations++
						sameViolation(t, step, sm.Observe(o), mon.Observe(o))
						break steps
					}
				case r < 12: // admit a whole new transaction
					id := nextID
					nextID++
					ops := make([]txn.Op, 1+rng.Intn(3))
					for i := range ops {
						ops[i] = op(id, item())
					}
					okWant, vWant := mon.AdmitSequence(ops)
					okGot, vGot := sm.AdmitSequence(ops)
					if okGot != okWant {
						t.Fatalf("%s: AdmitSequence(%v) = %v (sharded) vs %v (monitor)", tag, ops, okGot, okWant)
					}
					sameViolation(t, step, vGot, vWant)
					if !okWant {
						denials++
					} else if rng.Intn(2) == 0 {
						mon.Commit(id)
						sm.Commit(id)
					} else {
						open = append(open, id)
					}
				case r < 15 && len(open) > 0: // commit
					k, id := pickOpen()
					open = append(open[:k], open[k+1:]...)
					mon.Commit(id)
					sm.Commit(id)
				case r < 17 && len(open) > 0: // retract
					k, id := pickOpen()
					open = append(open[:k], open[k+1:]...)
					mon.Retract(id)
					sm.Retract(id)
				case r < 18: // manual compaction
					n := mon.Compact()
					if got := sm.Compact(); got != n {
						t.Fatalf("%s: Compact reclaimed %d (sharded) vs %d (monitor)", tag, got, n)
					}
					reclaimed += n
				default: // probe a never-seen and a recent item
					id := nextID
					if len(open) > 0 {
						_, id = pickOpen()
					}
					probes := []string{names[min(seen, len(names)-1)]}
					if seen > 0 {
						probes = append(probes, names[seen-1])
					}
					for _, it := range probes {
						o := op(id, it)
						if got, want := sm.Admissible(o), mon.Admissible(o); got != want {
							t.Fatalf("%s: Admissible(%v) = %v (sharded) vs %v (monitor)", tag, o, got, want)
						}
					}
				}
				if sm.Ops() != mon.Ops() || sm.LiveTxns() != mon.LiveTxns() {
					t.Fatalf("%s step %d: ops/live %d/%d (sharded) vs %d/%d (monitor)",
						tag, step, sm.Ops(), sm.LiveTxns(), mon.Ops(), mon.LiveTxns())
				}
				if got, want := sm.LiveTxnIDs(), mon.LiveTxnIDs(); !slices.Equal(got, want) {
					t.Fatalf("%s step %d: live ids %v (sharded) vs %v (monitor)", tag, step, got, want)
				}
				if got, want := sm.InFlightTxnIDs(), mon.InFlightTxnIDs(); !slices.Equal(got, want) {
					t.Fatalf("%s step %d: in-flight ids %v (sharded) vs %v (monitor)", tag, step, got, want)
				}
				if step%16 == 0 {
					sameEdges(t, step, len(partition), sm, mon)
				}
			}
			if sm.PWSR() {
				sameEdges(t, trial, len(partition), sm, mon)
			}
		}
	}
	if violations == 0 || denials == 0 || reclaimed == 0 {
		t.Fatalf("thin coverage: %d violations, %d denials, %d reclaimed transactions", violations, denials, reclaimed)
	}
}

// TestShardedRoutingFlat pins the cost of routing as flat in the
// number of distinct keys seen: heap bytes allocated per fresh-key
// AdmitSequence+Commit on two shards, after 4k, 16k, and 64k distinct
// keys, must stay within 2× of the cost after 1k. Bytes allocated
// (runtime.MemStats.TotalAlloc) do not depend on the host; each
// reading is the median over short windows, so an occasional table
// growth or compaction pass inside one window does not decide it.
// A route or transaction table that copies itself per new entry costs
// O(keys) per transaction and fails at the first checkpoint. Race
// instrumentation allocates, so the test skips under -race.
func TestShardedRoutingFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const (
		window  = 64
		windows = 15
		maxKeys = 64 << 10
	)
	names := make([]string, maxKeys+window*windows)
	partition := []state.ItemSet{state.NewItemSet("hot"), state.NewItemSet()}
	for i := range names {
		names[i] = fmt.Sprintf("k%d", i)
		partition[i%2].Add(names[i])
	}
	sm := core.NewShardedMonitor(partition, 2)
	id := 0
	ops := make([]txn.Op, 2)
	admit := func() {
		id++
		ops[0], ops[1] = txn.R(id, "hot", 0), txn.W(id, names[id-1], 0)
		if ok, v := sm.AdmitSequence(ops); !ok || v != nil {
			t.Fatalf("txn %d: AdmitSequence = %v, %v", id, ok, v)
		}
		sm.Commit(id)
	}
	bytesPerTxn := func() float64 {
		var ms runtime.MemStats
		per := make([]float64, windows)
		for w := range per {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			for i := 0; i < window; i++ {
				admit()
			}
			runtime.ReadMemStats(&ms)
			per[w] = float64(ms.TotalAlloc-before) / window
		}
		slices.Sort(per)
		return per[windows/2]
	}
	for id < 1<<10 {
		admit()
	}
	base := bytesPerTxn()
	for _, keys := range []int{4 << 10, 16 << 10, maxKeys} {
		for id < keys {
			admit()
		}
		if got := bytesPerTxn(); got > 2*base {
			t.Fatalf("after %d distinct keys: %.0f B/txn, more than 2× the %.0f B/txn after 1k", keys, got, base)
		} else {
			t.Logf("after %d distinct keys: %.0f B/txn (%.0f B/txn after 1k)", keys, got, base)
		}
	}
}
