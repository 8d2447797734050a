package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/wal"
)

// TestWrappersKeepEveryMethod checks that each traced wrapper exposes
// every method of the type it wraps, so no optional interface the
// pipeline type-asserts disappears under tracing.
func TestWrappersKeepEveryMethod(t *testing.T) {
	backend := wal.NewMemBackend()
	file, err := backend.Create("probe")
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct{ wrapper, inner any }{
		{&tracedGate{}, &sched.OptimisticCertify{}},
		{&tracedParallelGate{}, &sched.ParallelCertify{}},
		{&tracedMonitor{}, &core.Monitor{}},
		{&tracedJournal{}, &wal.Writer{}},
		{&tracedBackend{}, &wal.MemBackend{}},
		{&tracedFile{File: file}, file},
	}
	for _, p := range pairs {
		wt, it := reflect.TypeOf(p.wrapper), reflect.TypeOf(p.inner)
		for i := 0; i < it.NumMethod(); i++ {
			m := it.Method(i)
			wm, ok := wt.MethodByName(m.Name)
			if !ok {
				t.Errorf("%v lacks %v.%s", wt, it, m.Name)
				continue
			}
			// Compare signatures without the receiver.
			if a, b := wm.Type, m.Type; a.NumIn() != b.NumIn() || a.NumOut() != b.NumOut() {
				t.Errorf("%v.%s has a different signature", wt, m.Name)
			}
		}
	}
}

// TestWrappersSatisfyOptionalInterfaces names the optional interfaces
// the engines, gates and journal type-assert.
func TestWrappersSatisfyOptionalInterfaces(t *testing.T) {
	gates := []any{&tracedGate{}, &tracedParallelGate{}}
	for _, g := range gates {
		for _, iface := range []any{
			(*exec.Policy)(nil), (*exec.BatchGate)(nil), (*exec.Restarter)(nil),
			(*exec.Canceler)(nil), (*exec.Drainer)(nil), (*exec.WatermarkReporter)(nil),
			(*exec.CompactionReporter)(nil), (*exec.ProbeReporter)(nil),
			(*exec.LogReporter)(nil), (*exec.HealthReporter)(nil), (*exec.PolicyCloner)(nil),
		} {
			if it := reflect.TypeOf(iface).Elem(); !reflect.TypeOf(g).Implements(it) {
				t.Errorf("%T does not implement %v", g, it)
			}
		}
	}
	if _, ok := any(&tracedParallelGate{}).(exec.ShardReporter); !ok {
		t.Error("tracedParallelGate does not implement exec.ShardReporter")
	}
	var _ sched.Certifier = &tracedMonitor{}
	var j any = &tracedJournal{}
	if _, ok := j.(sched.Journal); !ok {
		t.Error("tracedJournal is not a sched.Journal")
	}
	if _, ok := j.(sched.Healer); !ok {
		t.Error("tracedJournal is not a sched.Healer")
	}
	if _, ok := j.(sched.SnapshotCutter); !ok {
		t.Error("tracedJournal is not a sched.SnapshotCutter")
	}
	if _, ok := j.(io.Closer); !ok {
		t.Error("tracedJournal is not an io.Closer")
	}
	if _, ok := j.(interface{ Stats() wal.Stats }); !ok {
		t.Error("tracedJournal does not report Stats")
	}
	var _ wal.Backend = &tracedBackend{}
	var _ wal.File = &tracedFile{}
}

// TestTracedRunMatchesUntraced runs each workload on a small seed with
// and without tracing: both passes must pass their checks and commit
// the same schedule and final state.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for name, sp := range specs {
		t.Run(name, func(t *testing.T) {
			w, err := workloadByName(name, 7, sp.warmup+4)
			if err != nil {
				t.Fatal(err)
			}
			base, err := runPass(w, sp.warmup, 2, nil, t.TempDir())
			if err != nil {
				t.Fatalf("untraced pass: %v", err)
			}
			tr := newTracer(0, w.requests(), 16)
			traced, err := runPass(w, sp.warmup, 2, tr, t.TempDir())
			if err != nil {
				t.Fatalf("traced pass: %v", err)
			}
			if base.digest != traced.digest {
				t.Error("traced schedule differs from the untraced one")
			}
			if !base.final.Equal(traced.final) {
				t.Error("traced final state differs from the untraced one")
			}
			if base.failed != 0 || base.committed != base.attempted {
				t.Errorf("untraced pass committed %d of %d, failed %d", base.committed, base.attempted, base.failed)
			}
			var spans int64
			for _, k := range tr.kinds {
				spans += k.calls
			}
			if spans == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}

// skewed reports an expected final state one off on one item, so its
// pass must fail the state check.
type skewed struct{ workload }

func (s skewed) expected() state.DB {
	want := s.workload.expected()
	for it, v := range want {
		want.Set(it, state.Int(v.AsInt()+1))
		break
	}
	return want
}

func TestCheckFailsOnMismatch(t *testing.T) {
	sp := specs["batch-durable"]
	w, err := workloadByName("batch-durable", 3, sp.warmup+2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runPass(skewed{w}, sp.warmup, 1, nil, t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "final state") {
		t.Fatalf("pass with a wrong expected state returned %v", err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errs strings.Builder
	if code := run([]string{"--workload", "nope", "--out", t.TempDir()}, &out, &errs); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("unknown workload printed a result: %q", out.String())
	}
}

// TestMetricsMatchBenchmarkFile runs each mode once, briefly, and checks
// that it prints exactly the metrics BENCHMARK.json names, with their
// units.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bench struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
	for trace, want := range map[string][]entry{"0": bench.EndToEnd, "1": bench.PerLayer} {
		var out, errs strings.Builder
		args := []string{"--workload", "batch-durable", "--seed", "5", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}
		if code := run(args, &out, &errs); code != 0 {
			t.Fatalf("trace %s exited %d: %s", trace, code, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %s: correct %v attempted %d failed %d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s prints %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
		}
		for _, e := range want {
			if m, ok := res.Metrics[e.Name]; !ok || m.Unit != e.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %q", trace, e.Name, m, e.Unit)
			}
		}
	}
}
