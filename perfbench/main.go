// Command perfbench measures the certification pipeline end to end and
// layer by layer: TPL programs interpreted (program), run by the tick or
// block-parallel engine (exec), admitted through a certification gate
// (sched) over a PWSR monitor (core), and journaled (wal).
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One client sends requests in a closed loop: an ExecuteBatch call or an
// exec.Run call, the next one only after the previous returns. The seed
// determines every input; --seconds sets the amount of work (a fixed
// transaction count per second of nominal run time), not a deadline.
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the run makes an untraced pass
// and a traced pass over the same inputs and reports the per-layer
// metrics. Every pass checks its outputs; a mismatch sets "correct" to
// false and the exit code to 1. README.md describes the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"time"
)

// spec fixes a workload's run shape.
type spec struct {
	reqTxns   int     // transactions per request
	perSecond int     // timed transactions per --seconds
	warmup    int     // untimed requests before the timed ones
	tailPct   float64 // the latency_tail_ms percentile
	setupReps int     // constructions timed for setup_s, per round
	rounds    int     // independent rounds a run is split into
}

var specs = map[string]spec{
	"batch-durable": {reqTxns: durableBatch, perSecond: 20480, warmup: 16, tailPct: 99, setupReps: 11, rounds: 7},
	"batch-fresh":   {reqTxns: freshBatch, perSecond: 1666, warmup: 8, tailPct: 99, setupReps: 11, rounds: 10},
	"tick-mixed":    {reqTxns: tickTxns, perSecond: 8960, warmup: 20, tailPct: 99, setupReps: 11, rounds: 7},
}

// ledgerTolerance is how far the traced layer self times may sum from
// the untraced request time, as a share of the latter.
const ledgerTolerance = 0.25

// tracedRounds is the number of rounds a traced run makes.
const tracedRounds = 2

// spanKeep bounds the spans a traced run keeps for its dump.
const spanKeep = 1 << 16

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: batch-durable, batch-fresh or tick-mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "nominal run length; sets the amount of work")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	out := fs.String("out", ".bench_build", "directory for the recorded schedule and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q seconds %d trace %d\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	// The timed work is split into rounds, each a fresh pipeline over
	// its own inputs. Rates, sizes and per-layer metrics are medians over
	// the rounds, so a transient slowdown of the host moves one round,
	// not the result; percentiles pool every round's samples (sampled).
	timed := max(1, *seconds*sp.perSecond/(sp.reqTxns*sp.rounds))
	rounds := sp.rounds
	if *trace == 1 {
		// Per-layer metrics have no bound to hold, so a traced run makes
		// rounds of the same size but fewer of them.
		rounds = tracedRounds
	}
	res := result{Correct: true}
	var e2e, layers []map[string]metric
	var spans []span
	var w workload
	// Every timed request latency and construction time of the run.
	var lats []time.Duration
	var setups []float64
	for r := 0; r < rounds && res.Correct; r++ {
		var err error
		w, err = workloadByName(*name, *seed*1000+int64(r), sp.warmup+timed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		base, err := runPass(w, sp.warmup, sp.setupReps, nil, *out)
		res.Attempted += base.attempted
		res.Failed += base.failed
		if err != nil {
			res.Correct = false
			fmt.Fprintf(stderr, "perfbench: round %d: %v\n", r, err)
			break
		}
		lats = append(lats, base.lat...)
		setups = append(setups, base.setup...)
		if *trace == 0 {
			e2e = append(e2e, endToEnd(base))
			continue
		}
		tr := newTracer(r, w.requests(), spanKeep/rounds)
		traced, err := runPass(w, sp.warmup, sp.setupReps, tr, *out)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		if err == nil && traced.digest != base.digest {
			err = fmt.Errorf("traced schedule differs from the untraced one")
		}
		if err != nil {
			res.Correct = false
			fmt.Fprintf(stderr, "perfbench: round %d, traced: %v\n", r, err)
			break
		}
		layers = append(layers, perLayer(sp, base, traced))
		spans = append(spans, tr.spans...)
	}
	if res.Correct {
		if *trace == 0 {
			res.Metrics = medians(e2e)
			maps.Copy(res.Metrics, sampled(sp, lats, setups))
		} else {
			res.Metrics = medians(layers)
			if r := res.Metrics["ledger.reconcile_ratio"].Value; math.Abs(r-1) > ledgerTolerance {
				fmt.Fprintf(stderr, "perfbench: layer self times sum to %.2f of the untraced request time, outside ±%g\n", r, ledgerTolerance)
			}
			if err := dumpSpans(spanPath(*out, *name, *seed), spans); err != nil {
				fmt.Fprintln(stderr, "perfbench: span dump:", err)
			}
		}
	}
	n := len(lats)
	fmt.Fprintf(stdout, "# workload=%s seed=%d rounds=%d requests/round=%d timed=%d txns/request=%d tail=p%g samples_beyond_tail=%d\n",
		*name, *seed, rounds, w.requests(), n, sp.reqTxns, sp.tailPct, n-int(math.Ceil(float64(n)*sp.tailPct/100)))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// medians takes each metric's median over the rounds.
func medians(rounds []map[string]metric) map[string]metric {
	out := make(map[string]metric, len(rounds[0]))
	for k, m := range rounds[0] {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = r[k].Value
		}
		out[k] = metric{median(xs), m.Unit}
	}
	return out
}

// endToEnd reports the rates and sizes a client of the pipeline sees in
// one round.
func endToEnd(ps *pass) map[string]metric {
	txns := float64(ps.timedTxns)
	return map[string]metric{
		"throughput_tps": {txns / ps.wall.Seconds(), "1/s"},
		"cpu_us_per_txn": {float64(ps.cpu) / 1e3 / txns, "us"},
		"allocs_per_txn": {float64(ps.allocs) / txns, "count"},
		"heap_live_mb":   {float64(ps.heapLive) / (1 << 20), "MiB"},
	}
}

// sampled reports the latency percentiles over every timed request of
// the run and the median over every timed construction. A percentile
// taken per round and then its median over the rounds would rest on the
// few slowest requests of each round; the run's p99 rests on a hundred.
func sampled(sp spec, lats []time.Duration, setups []float64) map[string]metric {
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"latency_p50_ms":  {ms(percentile(lats, 50)), "ms"},
		"latency_tail_ms": {ms(percentile(lats, sp.tailPct)), "ms"},
	}
}

// perLayer reports the traced pass's spans and the untraced pass's
// counts. Timings come from the traced pass; counts, which tracing does
// not change, from the untraced one.
func perLayer(sp spec, base, traced *pass) map[string]metric {
	tr := traced.tr
	txns := float64(traced.timedTxns)
	usPerTxn := func(ns int64) float64 { return float64(ns) / 1e3 / txns }
	btxns := float64(base.timedTxns)
	perTxn := func(n float64) float64 { return n / btxns }

	execSelf := int64(traced.wall) - tr.top
	ledger := execSelf
	for l := layer(0); l < numLayers; l++ {
		ledger += tr.layerSelf(l)
	}
	untracedPerTxn := float64(base.wall) / btxns
	execs := btxns + float64(base.retries+base.aborts)
	var hitRatio float64
	if base.probeTotal > 0 {
		hitRatio = float64(base.probeHits) / float64(base.probeTotal)
	}
	return map[string]metric{
		"program.interpret_us_per_txn": {float64(traced.interpret) / 1e3 / float64(traced.interpreted), "us"},

		"exec.self_us_per_txn":    {usPerTxn(execSelf), "us"},
		"exec.retries_per_txn":    {perTxn(float64(base.retries)), "count"},
		"exec.useful_exec_ratio":  {btxns / execs, "ratio"},
		"exec.aborts_per_txn":     {perTxn(float64(base.aborts)), "count"},
		"exec.wasted_ops_per_txn": {perTxn(float64(base.wasted)), "count"},
		"exec.mv_versions":        {float64(base.mvVersions), "count"},

		"sched.self_us_per_txn":    {usPerTxn(tr.layerSelf(layerSched)), "us"},
		"sched.admit_us":           {tr.meanUS(spanAdmit), "us"},
		"sched.admit_growth":       {admitGrowth(tr, sp.warmup), "ratio"},
		"sched.pick_us":            {tr.meanUS(spanPick), "us"},
		"sched.pick_calls_per_txn": {float64(tr.kinds[spanPick].calls) / txns, "count"},

		"core.self_us_per_txn":   {usPerTxn(tr.layerSelf(layerCore)), "us"},
		"core.admit_sequence_us": {tr.meanUS(spanAdmitSequence), "us"},
		"core.commit_us":         {tr.meanUS(spanCommit), "us"},
		"core.admissible_us":     {tr.meanUS(spanAdmissible), "us"},
		"core.compactions":       {float64(base.compactions), "count"},
		"core.live_txns":         {float64(base.liveTxns), "count"},
		"core.probe_hit_ratio":   {hitRatio, "ratio"},

		"wal.self_us_per_txn": {usPerTxn(tr.layerSelf(layerWal)), "us"},
		"wal.append_us":       {tr.meanUS(spanAppend), "us"},
		"wal.barrier_us":      {tr.meanUS(spanBarrier), "us"},
		"wal.write_us":        {tr.meanUS(spanWrite), "us"},
		"wal.sync_us":         {tr.meanUS(spanSync), "us"},
		"wal.records_per_txn": {perTxn(float64(base.log.Records)), "count"},
		"wal.bytes_per_txn":   {perTxn(float64(base.log.LogBytes)), "B"},
		"wal.fsyncs_per_txn":  {perTxn(float64(base.log.Fsyncs)), "count"},

		"runtime.gc_cpu_share":       {base.gcShare, "ratio"},
		"runtime.gc_cycles_per_ktxn": {float64(base.gcCycles) * 1000 / btxns, "count"},

		"ledger.reconcile_ratio": {float64(ledger) / txns / untracedPerTxn, "ratio"},
		"trace.overhead_ratio":   {(txns / traced.wall.Seconds()) / (btxns / base.wall.Seconds()), "ratio"},
	}
}

// admitGrowth is the mean admission time over the last tenth of the
// timed requests divided by that over the first tenth (0 without
// admissions).
func admitGrowth(tr *tracer, warmup int) float64 {
	n := len(tr.reqAdmit) - warmup
	k := max(1, n/10)
	mean := func(from, to int) float64 {
		var ns, calls int64
		for i := from; i < to; i++ {
			ns += tr.reqAdmit[i]
			calls += tr.reqAdmitN[i]
		}
		if calls == 0 {
			return 0
		}
		return float64(ns) / float64(calls)
	}
	first := mean(warmup, warmup+k)
	if first == 0 {
		return 0
	}
	return mean(len(tr.reqAdmit)-k, len(tr.reqAdmit)) / first
}
