package exec_test

import (
	"fmt"
	"strings"
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/fault"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
)

// serialReference runs the workload through the tick engine under a
// Serial inner policy gated by ParallelCertify: ascending-id serial
// execution with full certification — exactly the schedule the batch
// executor's commit pipeline promises to reproduce.
func serialReference(t *testing.T, w *gen.Workload, shards int) (*exec.Result, *sched.ParallelCertify) {
	t.Helper()
	gate := sched.NewParallelCertify(w.DataSets, shards, &sched.Serial{}, nil)
	res, err := exec.Run(exec.Config{
		Programs: w.Programs,
		Initial:  w.Initial,
		Policy:   gate,
		DataSets: w.DataSets,
	})
	if err != nil {
		t.Fatalf("serial reference: %v", err)
	}
	return res, gate
}

// TestParallelEngineDifferential is the decision-safety proof of the
// block-parallel batch executor: for generated workloads across every
// style, the parallel engine at worker counts 1..8 must produce the
// exact schedule, final state, and certifier verdict of an
// ascending-id serial run through the tick engine. Run under -race at
// GOMAXPROCS=1 and 8 by the Makefile's check target, this pins both
// determinism (speculation and retries never leak into outcomes) and
// the PWSR-by-construction argument (the gate's sharded monitor ends
// healthy with the same surviving-op count).
func TestParallelEngineDifferential(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2 + trial%3, Programs: 6 + trial%5, MovesPerProgram: 2 + trial%3,
			Style: gen.Style(trial % 3), Seed: int64(900 + trial),
		})
		want, refGate := serialReference(t, w, 4)
		for workers := 1; workers <= 8; workers++ {
			gate := sched.NewParallelCertify(w.DataSets, 4, &sched.Serial{}, nil)
			res, err := exec.RunParallel(exec.ParallelConfig{
				Initial: w.Initial,
				Gate:    gate,
				Workers: workers,
			}, w.Programs)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if res.Schedule.String() != want.Schedule.String() {
				t.Fatalf("trial %d workers=%d: schedule diverged from serial reference\nparallel: %s\nserial:   %s",
					trial, workers, res.Schedule, want.Schedule)
			}
			if !res.Final.Equal(want.Final) {
				t.Fatalf("trial %d workers=%d: final state diverged", trial, workers)
			}
			sm := gate.ShardedMonitor()
			if !sm.PWSR() || sm.Violation() != nil {
				t.Fatalf("trial %d workers=%d: batch certifier unhealthy: %v", trial, workers, sm.Violation())
			}
			if refOps := refGate.ShardedMonitor().Ops(); sm.Ops() != refOps {
				t.Fatalf("trial %d workers=%d: certifier holds %d ops, serial reference %d", trial, workers, sm.Ops(), refOps)
			}
			if res.Metrics.Ticks != want.Metrics.Ticks {
				t.Fatalf("trial %d workers=%d: %d ticks, serial reference %d", trial, workers, res.Metrics.Ticks, want.Metrics.Ticks)
			}
			if res.Metrics.Shards == nil {
				t.Fatalf("trial %d workers=%d: gate shard stats not harvested", trial, workers)
			}
		}
	}
}

// TestParallelEngineRetryExhaustion is the bounded-livelock regression:
// a maximally conflicting batch (every program read-modify-writes the
// same item) must terminate at every speculative-retry budget — the
// commit-turn re-execution against the frozen store is the liveness
// guarantee, not the budget — with total re-executions bounded by
// budget+1 per transaction and outcomes identical to the serial
// reference regardless of how much speculation was wasted.
func TestParallelEngineRetryExhaustion(t *testing.T) {
	const n = 24
	programs := make(map[int]*program.Program, n)
	for i := 1; i <= n; i++ {
		programs[i] = program.MustParse(fmt.Sprintf("program T%d {\n  x := x + 1;\n}\n", i))
	}
	partition := []state.ItemSet{state.NewItemSet("x")}
	initial := state.Ints(map[string]int64{"x": 0})

	want, _ := serialReference(t, &gen.Workload{
		Programs: programs, Initial: initial, DataSets: partition,
	}, 1)

	for _, budget := range []int{-1, 1, 5} {
		gate := sched.NewParallelCertify(partition, 1, &sched.Serial{}, nil)
		res, err := exec.RunParallel(exec.ParallelConfig{
			Initial:    initial,
			Gate:       gate,
			Workers:    8,
			MaxRetries: budget,
		}, programs)
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		if res.Schedule.String() != want.Schedule.String() {
			t.Fatalf("budget=%d: schedule diverged from serial reference", budget)
		}
		if !res.Final.Equal(want.Final) {
			t.Fatalf("budget=%d: final state diverged", budget)
		}
		if v, ok := res.Final.Get("x"); !ok || v.AsInt() != n {
			t.Fatalf("budget=%d: x = %v, want %d", budget, v, n)
		}
		spec := budget
		if spec < 0 {
			spec = 0
		}
		if limit := n * (spec + 1); res.Metrics.Retries > limit {
			t.Fatalf("budget=%d: %d retries exceeds the bound %d", budget, res.Metrics.Retries, limit)
		}
		if budget >= 1 && res.Metrics.Conflicts == 0 && res.Metrics.Retries == 0 {
			// Not fatal determinism-wise, but on a contended batch with 8
			// workers some speculation should normally be wasted; only log
			// so single-core CI stays green.
			t.Logf("budget=%d: no conflicts observed (single-core interleaving?)", budget)
		}
	}
}

// TestParallelEngineProgramError pins failure semantics: a program
// erroring against the authoritative serial-prefix state fails the
// batch with the same exec: T<id> error shape Run produces, and
// transactions committed before it stay committed.
func TestParallelEngineProgramError(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse("program T1 {\n  a := a + 1;\n}\n"),
		2: program.MustParse("program T2 {\n  b := missing + 1;\n}\n"),
	}
	partition := []state.ItemSet{state.NewItemSet("a", "b")}
	gate := sched.NewParallelCertify(partition, 1, &sched.Serial{}, nil)
	eng := exec.NewParallelEngine(exec.ParallelConfig{
		Initial: state.Ints(map[string]int64{"a": 0, "b": 0}),
		Gate:    gate,
		Workers: 4,
	})
	_, err := eng.ExecuteBatch(programs)
	if err == nil || !strings.Contains(err.Error(), "exec: T2:") || !strings.Contains(err.Error(), "has no value") {
		t.Fatalf("batch error = %v, want exec: T2 missing-item error", err)
	}
	if v, _, ok := eng.Store().Get("a"); !ok || v.AsInt() != 1 {
		t.Fatalf("committed prefix lost: a = %v", v)
	}
}

// TestParallelEngineCommitInjection pins the commit-turn injection
// point's contract: injected commit faults (lost speculative attempts
// and latency) cost only retries — the injected run produces the exact
// schedule, final state, and certifier verdict of the uninjected twin.
func TestParallelEngineCommitInjection(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 2, Programs: 6, MovesPerProgram: 3, Style: gen.StyleFixed, Seed: 905,
	})
	want, refGate := serialReference(t, w, 4)
	inj := fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		{Site: "engine", Op: fault.OpCommit, From: 2, Count: 3, Kind: fault.KindError, Msg: "lost attempt"},
		{Site: "engine", Op: fault.OpCommit, From: 1, Count: 2, Kind: fault.KindLatency, Latency: 100},
	}})
	gate := sched.NewParallelCertify(w.DataSets, 4, &sched.Serial{}, nil)
	eng := exec.NewParallelEngine(exec.ParallelConfig{Initial: w.Initial, Gate: gate, Workers: 4})
	eng.SetFaultInjector(inj, "engine")
	res, err := eng.ExecuteBatch(w.Programs)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Fired() == 0 {
		t.Fatal("commit plan never fired")
	}
	if res.Metrics.Retries == 0 {
		t.Fatal("injected commit faults cost no retries")
	}
	if res.Schedule.String() != want.Schedule.String() {
		t.Fatalf("commit faults changed the schedule\ninjected: %s\nserial:   %s", res.Schedule, want.Schedule)
	}
	if !eng.Store().Snapshot().Equal(want.Final) {
		t.Fatal("commit faults changed the final state")
	}
	sm := gate.ShardedMonitor()
	if !sm.PWSR() || sm.Ops() != refGate.ShardedMonitor().Ops() {
		t.Fatalf("commit faults changed the certifier state: PWSR=%v ops=%d want %d",
			sm.PWSR(), sm.Ops(), refGate.ShardedMonitor().Ops())
	}
}
