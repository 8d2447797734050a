package exec_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"pwsr"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// cancelAfter is a batch gate that cancels its context once n
// admissions have gone through, so a batch stops at a fixed committed
// prefix: the commit turn checks the context before every admission.
type cancelAfter struct {
	exec.BatchGate
	n      int
	cancel context.CancelFunc
}

func (g *cancelAfter) AdmitTxn(ops []txn.Op) error {
	if err := g.BatchGate.AdmitTxn(ops); err != nil {
		return err
	}
	if g.n--; g.n == 0 {
		g.cancel()
	}
	return nil
}

// TestExecuteBatchFinalContract pins who materializes the final state:
// a reusable engine's ExecuteBatch leaves Result.Final nil (its state
// is read through Store()), while the one-shot RunParallel and
// RunParallelCtx — completed or cancelled mid-batch — and the facade's
// pwsr.RunParallel fill Final with exactly the state a
// NewParallelEngine's store holds after the same work.
func TestExecuteBatchFinalContract(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 2, Programs: 8, MovesPerProgram: 3, Style: gen.StyleFixed, Seed: 1401,
	})
	cfg := func(g exec.BatchGate) exec.ParallelConfig {
		return exec.ParallelConfig{Initial: w.Initial, Gate: g, Workers: 2}
	}
	newGate := func() exec.BatchGate { return sched.NewParallelCertify(w.DataSets, 2, &sched.Serial{}, nil) }

	eng := exec.NewParallelEngine(cfg(newGate()))
	res, err := eng.ExecuteBatch(w.Programs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != nil {
		t.Fatalf("ExecuteBatch returned Final with %d items, want nil", len(res.Final))
	}
	want := eng.Store().Snapshot()
	if len(want) != len(w.Initial) || want.Equal(w.Initial) {
		t.Fatalf("store after the batch = %v, want every initial item, updated", want)
	}

	full, err := exec.RunParallel(cfg(newGate()), w.Programs)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Final.Equal(want) {
		t.Fatalf("RunParallel Final = %v, want %v", full.Final, want)
	}
	withCtx, err := exec.RunParallelCtx(context.Background(), cfg(newGate()), w.Programs)
	if err != nil {
		t.Fatal(err)
	}
	if !withCtx.Final.Equal(want) {
		t.Fatalf("RunParallelCtx Final = %v, want %v", withCtx.Final, want)
	}
	facade, err := pwsr.RunParallel(cfg(newGate()), w.Programs)
	if err != nil {
		t.Fatal(err)
	}
	if !facade.Final.Equal(want) {
		t.Fatalf("pwsr.RunParallel Final = %v, want %v", facade.Final, want)
	}

	// Cancelled after three commits: the partial Result's Final is the
	// committed prefix, the same state an engine's store holds after
	// the same three commits.
	const prefix = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := exec.RunParallelCtx(ctx, cfg(&cancelAfter{newGate(), prefix, cancel}), w.Programs)
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("cancelled RunParallelCtx = %v, want ErrCanceled", err)
	}
	if partial == nil {
		t.Fatal("cancelled RunParallelCtx returned no partial Result")
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	ref := exec.NewParallelEngine(cfg(&cancelAfter{newGate(), prefix, cancel2}))
	refRes, err := ref.ExecuteBatchCtx(ctx2, w.Programs)
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("cancelled ExecuteBatchCtx = %v, want ErrCanceled", err)
	}
	if refRes == nil || refRes.Final != nil {
		t.Fatalf("cancelled ExecuteBatchCtx Result = %+v, want a partial Result with nil Final", refRes)
	}
	if got := len(partial.Metrics.PerTxn); got != prefix {
		t.Fatalf("cancelled run committed %d transactions, want %d", got, prefix)
	}
	if wantPartial := ref.Store().Snapshot(); !partial.Final.Equal(wantPartial) || partial.Final.Equal(want) {
		t.Fatalf("cancelled RunParallelCtx Final = %v, want the %d-commit prefix %v", partial.Final, prefix, wantPartial)
	}
}

// TestExecuteBatchFlatInStoreSize pins a batch's cost as independent
// of the store's size: the median heap bytes allocated by one
// 16-transaction ExecuteBatch through ParallelCertify, on stores of
// 16k and 64k items, must stay within 2× of the figure on a 1k-item
// store. Every batch touches the same 17 items; only the untouched
// rest of the store grows. Bytes allocated
// (runtime.MemStats.TotalAlloc) do not depend on the host, and the
// median over batches keeps one compaction or table growth from
// deciding it. A batch that copies the store (say, into its Result)
// costs O(items) and fails at 16k. Race instrumentation allocates, so
// the test skips under -race.
func TestExecuteBatchFlatInStoreSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const (
		batch   = 16
		warm    = 4
		batches = 15
	)
	// Batch b is transactions b*16+1 .. b*16+16; transaction id adds
	// the hot item to k(id mod 16). Parsed once, outside every window.
	programs := make([]map[int]*program.Program, warm+batches)
	for b := range programs {
		programs[b] = make(map[int]*program.Program, batch)
		for i := 1; i <= batch; i++ {
			id := b*batch + i
			programs[b][id] = program.MustParse(fmt.Sprintf("program T%d {\n  k%d := k%d + hot;\n}\n", id, id%batch, id%batch))
		}
	}
	bytesPerBatch := func(items int) float64 {
		initial := state.Ints(map[string]int64{"hot": 1})
		for i := 0; i < items; i++ {
			initial[fmt.Sprintf("k%d", i)] = state.Int(0)
		}
		partition := []state.ItemSet{state.NewItemSet("hot"), state.NewItemSet()}
		for i := 0; i < batch; i++ {
			partition[i%2].Add(fmt.Sprintf("k%d", i))
		}
		eng := exec.NewParallelEngine(exec.ParallelConfig{
			Initial: initial,
			Gate:    sched.NewParallelCertify(partition, 2, &sched.Serial{}, nil),
			Workers: 2,
		})
		var ms runtime.MemStats
		per := make([]float64, 0, batches)
		for b, ps := range programs {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if _, err := eng.ExecuteBatch(ps); err != nil {
				t.Fatalf("%d items, batch %d: %v", items, b, err)
			}
			runtime.ReadMemStats(&ms)
			if b >= warm {
				per = append(per, float64(ms.TotalAlloc-before))
			}
		}
		if v, _, _ := eng.Store().Get("k0"); v.AsInt() != int64(len(programs)) {
			t.Fatalf("%d items: k0 = %v, want %d", items, v, len(programs))
		}
		slices.Sort(per)
		return per[len(per)/2]
	}
	base := bytesPerBatch(1 << 10)
	for _, items := range []int{16 << 10, 64 << 10} {
		if got := bytesPerBatch(items); got > 2*base {
			t.Fatalf("store of %d items: %.0f B/batch, more than 2× the %.0f B/batch at 1k", items, got, base)
		} else {
			t.Logf("store of %d items: %.0f B/batch (%.0f B/batch at 1k)", items, got, base)
		}
	}
}
