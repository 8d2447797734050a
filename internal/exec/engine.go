// Package exec implements the concurrent execution engine: a set of
// transaction programs run as coroutines against a shared store, with a
// pluggable interleaving policy deciding which program's next operation
// is granted at each step. The engine records the resulting schedule
// with values — the object the paper's theory studies — along with
// virtual-clock metrics (waits, turnaround) used by the performance
// experiments.
//
// Every program goroutine blocks after requesting an operation until the
// engine grants it, and the engine waits until every live program has a
// pending request before asking the policy to pick. Execution is
// therefore deterministic for deterministic policies.
//
// # Abort and restart semantics
//
// A policy implementing the optional Restarter extension can resolve a
// stall by sacrificing a victim instead of killing the run. Because
// writes are granted operations — applied to the shared store the
// moment the policy grants them, not buffered to commit time — aborting
// a transaction means erasing an attempt that has already touched
// shared state. The engine makes the erasure exact:
//
//   - the attempt's granted operations are expunged from the recorded
//     schedule (positions are reassigned, metrics count them as wasted);
//   - its writes are undone through per-item write histories: an item
//     whose latest surviving write belongs to another transaction keeps
//     that value, otherwise the value (and LastWriter) roll back to the
//     previous surviving writer or the initial state;
//   - any live transaction that read one of the victim's written values
//     is aborted with it (cascading), recursively, since its execution
//     consumed state that is being erased;
//   - a victim whose written value was read by a transaction that
//     already finished is pinned — finished transactions are durable
//     and cannot be cascaded — so such a victim is ineligible
//     (View.AbortClosure reports eligibility).
//
// After the erasure every aborted program restarts as a fresh goroutine
// with a fresh access-discipline cache: it re-reads current values and
// may take different branches than its aborted attempt. The recorded
// schedule therefore contains exactly the operations of surviving
// attempts and replays value-consistently against the initial state, as
// if the aborted attempts had never run.
package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"

	"pwsr/internal/program"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// ErrStall is returned when the policy cannot grant any pending request
// (a deadlock under blocking policies such as the delayed-read gate).
var ErrStall = errors.New("exec: no grantable request (stall)")

// errAborted is delivered to program goroutines whose run is being
// cancelled after a stall or a failure elsewhere.
var errAborted = errors.New("exec: transaction aborted")

// errRestart is delivered to a victim's pending request to unwind its
// goroutine before the engine expunges the attempt and respawns it.
var errRestart = errors.New("exec: transaction restarting")

// Request is a pending operation request from a program.
type Request struct {
	TxnID  int
	Action txn.Action
	Entity string
	Value  state.Value // proposed value, for writes
	reply  chan replyMsg
}

// String renders the request like an operation without a value for
// reads.
func (r *Request) String() string {
	if r.Action == txn.ActionRead {
		return fmt.Sprintf("r%d(%s, ?)", r.TxnID, r.Entity)
	}
	return fmt.Sprintf("w%d(%s, %s)", r.TxnID, r.Entity, r.Value)
}

type replyMsg struct {
	value state.Value
	err   error
}

// AccessDecl declares the items a transaction may read and write, used
// by conservative locking policies. Writes are implicitly readable.
type AccessDecl struct {
	Reads  state.ItemSet
	Writes state.ItemSet
}

// DeclareAccess derives a conservative access declaration from a
// program: assignment targets are writes, every other mentioned item a
// read.
func DeclareAccess(p *program.Program) AccessDecl {
	all := p.DataItems()
	writes := writeTargets(p)
	return AccessDecl{Reads: all.Diff(writes), Writes: writes}
}

func writeTargets(p *program.Program) state.ItemSet {
	writes := state.NewItemSet()
	locals := state.NewItemSet()
	var visit func(stmts []program.Stmt)
	visit = func(stmts []program.Stmt) {
		for _, s := range stmts {
			switch n := s.(type) {
			case *program.Let:
				locals.Add(n.Name)
			case *program.Assign:
				if !locals.Contains(n.Target) {
					writes.Add(n.Target)
				}
			case *program.If:
				visit(n.Then)
				visit(n.Else)
			case *program.While:
				visit(n.Body)
			}
		}
	}
	visit(p.Body)
	return writes
}

// Restarter is an optional Policy extension: a policy that resolves
// stalls by aborting and restarting a victim transaction (the
// optimistic reading of certification — sched.OptimisticCertify is the
// canonical implementation). When every pending request is ungrantable
// (Pick returned -1) and the policy implements Restarter, the engine
// asks for a victim instead of failing with ErrStall; the victim and
// its cascade closure (see View.AbortClosure) are aborted per the
// package's abort semantics and respawned, and the run continues.
type Restarter interface {
	Policy
	// Victim returns the index (into pending) of the transaction to
	// abort and restart, or -1 to give up and let the run fail with
	// ErrStall. Implementations should only return transactions whose
	// View.AbortClosure is eligible.
	Victim(pending []*Request, v *View) int
	// TxnAborted notifies the policy that a transaction's attempt was
	// erased — called once per closure member, after its operations
	// were expunged and its store effects undone, before its program
	// respawns. Certifying policies retract the transaction from their
	// monitor here.
	TxnAborted(id int, v *View)
}

// View is the engine state a policy may consult when picking.
type View struct {
	// Store is the current database state. Policies must not mutate it.
	Store state.DB
	// Ops is the schedule recorded so far.
	Ops txn.Seq
	// Live reports transactions still executing.
	Live map[int]bool
	// Finished reports transactions that have completed.
	Finished map[int]bool
	// LastWriter maps each item to the transaction that last wrote it
	// (0 = initial state). Used by the delayed-read gate.
	LastWriter map[string]int
	// Access is the declared access set per transaction (may be empty
	// for policies that do not need it).
	Access map[int]AccessDecl
	// DataSets is the conjunct partition d1, …, dl (for predicate-wise
	// policies; may be nil).
	DataSets []state.ItemSet
	// Clock is the number of operations granted so far.
	Clock int

	// readersOf maps a writer to the transactions that read one of its
	// written values (the wrote-to relation abort cascades follow).
	readersOf map[int]map[int]bool
}

// AbortClosure returns the set of transactions (sorted, id included)
// that must abort together if id is aborted: every live transaction
// that — directly or transitively — read a value written by a member.
// The second result is false when id is not live or when some member's
// written value was read by a finished transaction (finished
// transactions are durable, so such a victim is pinned and ineligible).
func (v *View) AbortClosure(id int) ([]int, bool) {
	if !v.Live[id] {
		return nil, false
	}
	closure := []int{id}
	seen := map[int]bool{id: true}
	for i := 0; i < len(closure); i++ {
		for r := range v.readersOf[closure[i]] {
			if seen[r] {
				continue
			}
			if v.Finished[r] {
				return nil, false
			}
			seen[r] = true
			closure = append(closure, r)
		}
	}
	sort.Ints(closure)
	return closure, true
}

// PassTick may be returned by Policy.Pick to let one clock tick elapse
// without granting any operation — modelling coordination latency (e.g.
// a global lock manager's cross-site round trips). All pending
// transactions accrue wait time during a passed tick.
const PassTick = -2

// maxConsecutivePasses bounds runaway PassTick loops.
const maxConsecutivePasses = 1 << 20

// Policy decides the interleaving: given the pending requests (one per
// live transaction, sorted by transaction id), it returns the index of
// the request to grant, -1 if none can be granted now (a stall), or
// PassTick to burn one clock tick.
type Policy interface {
	// Pick selects the next request. Lock-based policies acquire their
	// locks inside Pick.
	Pick(pending []*Request, v *View) int
	// TxnFinished notifies that a transaction completed (for lock
	// release).
	TxnFinished(id int, v *View)
}

// ShardStat is one certification shard's admission counters, as
// reported by a policy backed by a sharded certifier
// (sched.ParallelCertify over core.ShardedMonitor).
type ShardStat struct {
	// Shard is the shard index.
	Shard int
	// Conjuncts is the number of conjuncts the shard owns.
	Conjuncts int
	// Observes counts operations fed to the shard's graphs.
	Observes int64
	// Probes counts admissibility probes the shard evaluated.
	Probes int64
	// Denials counts probes the shard rejected.
	Denials int64
}

// ShardReporter is an optional Policy extension: a policy whose
// certifier is sharded reports per-shard admission counters, which the
// engine copies into Metrics.Shards at the end of a run.
type ShardReporter interface {
	Policy
	// ShardStats snapshots the per-shard counters.
	ShardStats() []ShardStat
}

// CompactStats is a certifying policy's transaction-lifecycle
// counters, as reported by a policy whose certifier commits finished
// transactions and compacts them away (the sched certification gates
// over core.Monitor/core.ShardedMonitor).
type CompactStats struct {
	// Compactions counts compaction passes the certifier ran.
	Compactions int
	// ReclaimedTxns counts transactions physically reclaimed from
	// certification state.
	ReclaimedTxns int
	// ReclaimedOps counts certifier access-log entries reclaimed.
	ReclaimedOps int
	// LiveTxns is the certifier's resident transaction count when the
	// snapshot was taken.
	LiveTxns int
}

// CompactionReporter is an optional Policy extension: a certifying
// policy with transaction lifecycle reports its compaction counters,
// which the engine copies into Metrics at the end of a run.
type CompactionReporter interface {
	Policy
	// CompactionStats snapshots the lifecycle counters.
	CompactionStats() CompactStats
}

// ProbeStats is a certifying policy's admission probe-cache counters:
// Hits are Admissible probes answered from a still-valid memoized
// verdict, Misses are first-time probes, and Invalidations are probes
// whose cached verdict a generation move invalidated (recomputed and
// re-cached).
type ProbeStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
}

// ProbeReporter is an optional Policy extension: a certifying policy
// whose monitor memoizes Admissible verdicts reports the cache
// counters, which the engine copies into Metrics at the end of a run.
type ProbeReporter interface {
	Policy
	// ProbeStats snapshots the probe-cache counters.
	ProbeStats() ProbeStats
}

// LogStats is a journaled certifying policy's durability counters, as
// reported by a gate whose certifier writes a write-ahead lifecycle
// log (sched.AttachJournal over internal/wal).
type LogStats struct {
	// Records is the number of lifecycle records appended.
	Records int64
	// LogBytes counts every byte handed to the log backend.
	LogBytes int64
	// Fsyncs counts the backend syncs (group commit amortizes these
	// across records).
	Fsyncs int64
	// Snapshots counts completed snapshot cuts.
	Snapshots int64
	// Retries counts retried backend writes and syncs.
	Retries int64
	// RecoveryReplays is the number of lifecycle events replayed to
	// rebuild the certifier before this run (0 for a fresh log).
	RecoveryReplays int64
}

// LogReporter is an optional Policy extension: a certifying policy
// with an attached write-ahead journal reports its durability
// counters, which the engine copies into Metrics at the end of a run.
type LogReporter interface {
	Policy
	// LogStats snapshots the durability counters.
	LogStats() LogStats
}

// Metrics aggregates virtual-clock measurements of a run. The clock
// ticks once per granted operation.
type Metrics struct {
	// Ticks is the total number of clock ticks (granted operations).
	Ticks int
	// Waits is the total number of (transaction, tick) pairs where a
	// transaction had a request pending but another was granted.
	Waits int
	// Aborts counts aborted transaction attempts (cascade members
	// included, each restart attempt separately).
	Aborts int
	// Restarts counts program respawns after aborts.
	Restarts int
	// WastedOps counts granted operations later expunged by aborts —
	// the work the optimistic policy threw away.
	WastedOps int
	// PerTxn maps transaction id to its metrics.
	PerTxn map[int]*TxnMetrics
	// Shards holds per-shard certification counters when the policy
	// implements ShardReporter; nil otherwise.
	Shards []ShardStat
	// Compactions, ReclaimedTxns, ReclaimedOps, and LiveTxns report the
	// certifier's transaction-lifecycle counters at the end of the run
	// when the policy implements CompactionReporter; zero otherwise.
	// LiveTxns is the certifier's residual population — for a policy
	// reused across sequential runs it measures what the stream's
	// history still costs, the number the compactor keeps bounded.
	Compactions   int
	ReclaimedTxns int
	ReclaimedOps  int
	LiveTxns      int
	// ProbeHits, ProbeMisses, and ProbeInvalidations report the
	// certifier's admission probe-cache counters at the end of the run
	// when the policy implements ProbeReporter; zero otherwise. The
	// hit fraction is the share of scheduler-tick re-probes the cache
	// absorbed.
	ProbeHits          int64
	ProbeMisses        int64
	ProbeInvalidations int64
	// Health reports the gate's degradation/failover state at the end
	// of the run when the policy implements HealthReporter; zero
	// otherwise.
	Health Health
	// Log reports the certifier's write-ahead journal counters at the
	// end of the run when the policy implements LogReporter; zero
	// otherwise (including a journaled gate with no journal attached).
	Log LogStats
	// Retries counts program re-executions in a ParallelEngine batch:
	// speculative retries after failed version validations plus the
	// at-most-one authoritative re-execution at each commit turn.
	// Always zero under Run.
	Retries int
	// Conflicts counts failed version validations in a ParallelEngine
	// batch — each one is a conflicting commit the optimistic check
	// caught. Always zero under Run.
	Conflicts int
	// ROTxns counts declared read-only transactions served from
	// multiversion snapshots (never denied, never aborted); ROOps
	// counts the snapshot reads they performed. Snapshot reads do not
	// consume clock ticks: Ticks keeps counting read-write grants (and
	// passed ticks under Run) only.
	ROTxns int
	ROOps  int
	// MV is the multiversion store's retention accounting at the end
	// of the run, populated by the engines that run one (ParallelEngine
	// always, Run when read-only transactions are declared).
	MV VersionStats
}

// TxnMetrics is per-transaction timing.
type TxnMetrics struct {
	// Start is the clock value when the transaction's first operation
	// was granted.
	Start int
	// End is the clock value after the transaction's last operation.
	End int
	// Waits is the number of ticks this transaction spent with a
	// pending but ungranted request.
	Waits int
	// Ops is the number of granted operations of the surviving attempt.
	Ops int
	// Aborts is the number of times this transaction's attempt was
	// aborted and restarted.
	Aborts int
	// WastedOps counts this transaction's expunged operations.
	WastedOps int
}

// Turnaround is End - Start: the transaction's makespan in ticks.
func (m *TxnMetrics) Turnaround() int { return m.End - m.Start }

// Config configures a concurrent run.
type Config struct {
	// Programs maps transaction ids to the programs to execute.
	Programs map[int]*program.Program
	// Initial is the starting database state.
	Initial state.DB
	// Policy picks the interleaving.
	Policy Policy
	// Interp configures program execution; nil means NewInterp().
	Interp *program.Interp
	// DataSets optionally supplies the conjunct partition to policies.
	DataSets []state.ItemSet
	// Access optionally overrides the per-transaction access
	// declarations; missing entries are derived with DeclareAccess.
	Access map[int]AccessDecl
	// MaxAborts bounds the total aborted attempts of a run before the
	// engine gives up with ErrStall (a livelock backstop for Restarter
	// policies); 0 means the default of 65536.
	MaxAborts int
	// ReadOnly declares transactions served from multiversion
	// snapshots instead of the tick loop: a declared transaction never
	// requests grants, never reaches the Policy (or the certification
	// gate inside it), and can neither be denied, blocked, nor
	// aborted. It reads, atomically, the state produced by the
	// engine's sealed committed prefix — the longest prefix of the
	// recorded schedule all of whose operations belong to finished
	// transactions that lie entirely inside it — and its operations
	// are spliced into the result schedule at that prefix's offset
	// (see mvread.go for the combined-schedule PWSR argument). A
	// declared program whose text writes a shared item fails the run
	// with ErrReadOnlyWrite before anything executes. Each id must
	// name a Programs entry.
	ReadOnly map[int]bool
	// ROBegin optionally schedules when each declared read-only
	// transaction acquires its snapshot, in clock ticks: the reader is
	// served at the first scheduling round whose clock has reached its
	// begin tick (missing or ≤ 0 means at run start; a tick beyond the
	// run's end means after the last writer finishes). Spreading begin
	// ticks lets tests and workloads exercise snapshots of mid-run
	// prefixes.
	ROBegin map[int]int
}

// Result is the outcome of a concurrent run.
type Result struct {
	// Schedule is the recorded schedule.
	Schedule *txn.Schedule
	// Final is the database state after the run. A reusable
	// ParallelEngine's ExecuteBatch leaves it nil — that engine's state
	// is read through ParallelEngine.Store() instead; Run, RunMany, and
	// RunParallel fill it.
	Final state.DB
	// Metrics are the virtual-clock measurements.
	Metrics Metrics
}

type event struct {
	req  *Request
	done bool
	id   int
	err  error
}

// writeRec is one layer of an item's write history: who wrote the value
// (writer 0 marks the pre-first-write layer) and whether the item
// existed at all (had=false only on an initial layer of an item absent
// from the initial state). Aborts peel a transaction's layers out and
// restore the surviving top.
type writeRec struct {
	writer int
	val    state.Value
	had    bool
}

// chanAccessor adapts the engine's request channel to the program
// Accessor interface. Each program goroutine owns one request struct
// and one reply channel for its whole attempt: the engine is done with
// a request before it replies (it is removed from the pending set
// first, and policies must not retain the pending slice across Pick
// calls), so the next operation can safely reuse them — the admission
// round trip allocates nothing in steady state.
type chanAccessor struct {
	id     int
	events chan<- event
	req    Request
	reply  chan replyMsg
}

func newChanAccessor(id int, events chan<- event) *chanAccessor {
	return &chanAccessor{id: id, events: events, reply: make(chan replyMsg)}
}

// Read implements program.Accessor.
func (c *chanAccessor) Read(item string) (state.Value, error) {
	c.req = Request{TxnID: c.id, Action: txn.ActionRead, Entity: item, reply: c.reply}
	c.events <- event{req: &c.req}
	rep := <-c.reply
	return rep.value, rep.err
}

// Write implements program.Accessor.
func (c *chanAccessor) Write(item string, v state.Value) error {
	c.req = Request{TxnID: c.id, Action: txn.ActionWrite, Entity: item, Value: v, reply: c.reply}
	c.events <- event{req: &c.req}
	rep := <-c.reply
	return rep.err
}

// Run executes the configured programs concurrently and returns the
// recorded schedule, final state, and metrics. It is RunCtx without a
// cancellation point.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cancellation and deadline support. When ctx ends
// mid-run the engine settles instead of killing the run: transactions
// in flight are aborted through the same erasure machinery a policy
// victim uses — their attempts are expunged from the schedule, their
// writes undone, and the policy notified through Canceler.TxnCanceled
// (falling back to Restarter.TxnAborted), so a certifying gate
// retracts and journals each one exactly as a completed run that
// aborted them would. The rare transaction whose written value a
// finished transaction already consumed cannot be erased (see the
// package comment on pinning; the cascadeless gates never produce
// one) and is retired as committed with its partial prefix instead.
//
// RunCtx then returns the partial Result — the committed schedule that
// survives, replayable against Initial — alongside a typed
// ErrCanceled- or ErrDeadline-wrapped error. Declared read-only
// transactions not yet served at the cancellation point are skipped.
// Cancellation is detected between scheduling steps, so exactly the
// grants journaled before the detection point are kept: never a
// partial one.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(cfg.Programs) == 0 {
		return nil, errors.New("exec: no programs")
	}
	if err := CancelError(ctx); err != nil {
		return nil, err
	}
	interp := cfg.Interp
	if interp == nil {
		interp = program.NewInterp()
	}

	roList, err := roIDs(cfg.ReadOnly, cfg.Programs)
	if err != nil {
		return nil, err
	}
	isRO := make(map[int]bool, len(roList))
	for _, id := range roList {
		isRO[id] = true
	}

	access := make(map[int]AccessDecl, len(cfg.Programs))
	for id, p := range cfg.Programs {
		if a, ok := cfg.Access[id]; ok {
			access[id] = a
		} else {
			access[id] = DeclareAccess(p)
		}
	}

	v := &View{
		Store:      cfg.Initial.Clone(),
		Live:       make(map[int]bool, len(cfg.Programs)),
		Finished:   make(map[int]bool, len(cfg.Programs)),
		LastWriter: make(map[string]int),
		Access:     access,
		DataSets:   cfg.DataSets,
		readersOf:  make(map[int]map[int]bool),
	}

	events := make(chan event)
	spawn := func(id int) {
		go func(id int, p *program.Program) {
			err := interp.Run(p, newChanAccessor(id, events))
			events <- event{done: true, id: id, err: err}
		}(id, cfg.Programs[id])
	}
	ids := make([]int, 0, len(cfg.Programs))
	for id := range cfg.Programs {
		if isRO[id] {
			continue // served from snapshots, never ticked
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		v.Live[id] = true
		spawn(id)
	}

	metrics := Metrics{PerTxn: make(map[int]*TxnMetrics, len(cfg.Programs))}
	for _, id := range ids {
		metrics.PerTxn[id] = &TxnMetrics{Start: -1}
	}
	for _, id := range roList {
		metrics.PerTxn[id] = &TxnMetrics{Start: -1}
	}
	pending := make(map[int]*Request, len(ids))
	var ops []txn.Op
	var runErr error

	// Abort-support state: per-item write histories (bottom entry is the
	// pre-first-write value, writer 0), the reads-from relation, and the
	// items each transaction wrote.
	maxAborts := cfg.MaxAborts
	if maxAborts <= 0 {
		maxAborts = 1 << 16
	}
	writeHist := make(map[string][]writeRec)
	readsFrom := make(map[int]map[int]bool)
	writesOf := make(map[int][]string)

	// Multiversion read-path state (allocated only when read-only
	// transactions are declared): mv is the snapshot source, mvQ the
	// operation count of the sealed committed prefix published into it,
	// and roResults the completed readers awaiting the end-of-run
	// splice. The sealed prefix is immutable: its owners are finished,
	// finished transactions are never aborted (View.AbortClosure pins
	// them), and expunging a live transaction's operations can only
	// touch positions at or beyond mvQ — a live transaction's first
	// operation bounds every seal.
	var mv *VersionedStore
	var mvQ int
	var roResults []roResult
	roServed := make(map[int]bool, len(roList))
	// lastPos maps each transaction to its newest operation's position
	// in ops. It is maintained incrementally — updated as operations
	// are appended and rebuilt when an abort expunges and renumbers the
	// schedule — so advanceMV never rescans the whole schedule.
	var lastPos map[int]int
	if len(roList) > 0 {
		mv = NewVersionedStore(cfg.Initial)
		lastPos = make(map[int]int, len(cfg.Programs))
	}

	// advanceMV seals the longest transaction-closed finished prefix
	// of the recorded schedule and publishes its writes into the
	// multiversion store as one fresh stamp: the snapshot at that
	// stamp is exactly the replay of ops[0:mvQ) — committed state no
	// abort can retract.
	advanceMV := func() {
		maxPos, cut := -1, mvQ
		for i := mvQ; i < len(ops); i++ {
			o := ops[i]
			if !v.Finished[o.Txn] {
				break // a live owner's operation bounds every seal
			}
			if p := lastPos[o.Txn]; p > maxPos {
				maxPos = p
			}
			if maxPos <= i {
				cut = i + 1
			}
		}
		if cut == mvQ {
			return
		}
		writes := make(map[string]state.Value)
		for _, o := range ops[mvQ:cut] {
			if o.Action == txn.ActionWrite {
				writes[o.Entity] = o.Value
			}
		}
		mv.commit(writes)
		mvQ = cut
	}

	// serveRO runs one declared reader to completion against a pinned
	// snapshot of the sealed prefix. A program error is authoritative:
	// the snapshot is a consistent committed state.
	serveRO := func(id int) error {
		advanceMV()
		sn := mv.Acquire()
		acc := &snapshotAccessor{sn: sn, id: id}
		err := interp.Run(cfg.Programs[id], acc)
		sn.Release()
		if err != nil {
			return fmt.Errorf("exec: T%d: %w", id, err)
		}
		roResults = append(roResults, roResult{id: id, anchor: mvQ, order: len(roResults), ops: acc.ops})
		tm := metrics.PerTxn[id]
		tm.Start, tm.End, tm.Ops = v.Clock, v.Clock, len(acc.ops)
		metrics.ROTxns++
		metrics.ROOps += len(acc.ops)
		return nil
	}

	// serveDueROs serves every not-yet-served reader whose begin tick
	// the clock has reached (all of them when final).
	serveDueROs := func(final bool) error {
		for _, id := range roList {
			if roServed[id] {
				continue
			}
			if !final && cfg.ROBegin[id] > v.Clock {
				continue
			}
			roServed[id] = true
			if err := serveRO(id); err != nil {
				return err
			}
		}
		return nil
	}

	// abort cancels all outstanding work after an error: pending
	// requests get error replies; remaining events are drained until
	// every live transaction reports done.
	abort := func() {
		for len(v.Live) > 0 {
			for id, r := range pending {
				r.reply <- replyMsg{err: errAborted}
				delete(pending, id)
			}
			ev := <-events
			if ev.done {
				delete(v.Live, ev.id)
				continue
			}
			pending[ev.req.TxnID] = ev.req
		}
	}

	// eraseAttempts erases the closure members' attempts per the
	// package's abort semantics: unwind their goroutines, expunge their
	// operations from the schedule, undo their writes, drop their
	// reads-from bookkeeping, and notify the policy. It must only be
	// called when every live transaction is parked on a pending request.
	// With byCancel set the policy is notified through
	// Canceler.TxnCanceled when implemented (the transactions are gone,
	// not retried); otherwise through Restarter.TxnAborted.
	eraseAttempts := func(closure []int, byCancel bool) {
		in := make(map[int]bool, len(closure))
		for _, id := range closure {
			in[id] = true
		}
		// Unwind the members' goroutines. Everyone else is parked, so
		// until the members exit only they produce events.
		for _, id := range closure {
			r := pending[id]
			delete(pending, id)
			r.reply <- replyMsg{err: errRestart}
		}
		await := len(closure)
		for await > 0 {
			ev := <-events
			// Nothing but the members can emit while everyone else is
			// parked; handle stray events defensively all the same.
			switch {
			case ev.done && in[ev.id]:
				await--
			case ev.done:
				delete(v.Live, ev.id)
				v.Finished[ev.id] = true
				metrics.PerTxn[ev.id].End = v.Clock
				cfg.Policy.TxnFinished(ev.id, v)
			default:
				pending[ev.req.TxnID] = ev.req
			}
		}
		// Expunge the members' operations from the recorded schedule.
		kept := ops[:0]
		for _, o := range ops {
			if in[o.Txn] {
				metrics.WastedOps++
				metrics.PerTxn[o.Txn].WastedOps++
				metrics.PerTxn[o.Txn].Ops--
				continue
			}
			o.Pos = len(kept)
			kept = append(kept, o)
		}
		ops = kept
		v.Ops = ops
		// The expunge renumbered every surviving operation at or beyond
		// the victims' positions; rebuild the last-position index (the
		// abort already paid an O(n) schedule rewrite).
		if mv != nil {
			clear(lastPos)
			for i, o := range ops {
				lastPos[o.Txn] = i
			}
		}
		// Undo their store effects: peel their write-history layers and
		// restore each touched item's surviving top.
		for _, id := range closure {
			for _, item := range writesOf[id] {
				hist := writeHist[item]
				filtered := hist[:0]
				for _, rec := range hist {
					if !in[rec.writer] {
						filtered = append(filtered, rec)
					}
				}
				writeHist[item] = filtered
				top := filtered[len(filtered)-1] // the writer-0 bottom always survives
				if top.had {
					v.Store.Set(item, top.val)
				} else {
					delete(v.Store, item)
				}
				v.LastWriter[item] = top.writer
			}
			delete(writesOf, id)
		}
		// Drop the members' reads-from bookkeeping.
		for _, id := range closure {
			for w := range readsFrom[id] {
				delete(v.readersOf[w], id)
			}
			delete(readsFrom, id)
			delete(v.readersOf, id)
		}
		ra, _ := cfg.Policy.(Restarter)
		cc, _ := cfg.Policy.(Canceler)
		for _, id := range closure {
			metrics.Aborts++
			metrics.PerTxn[id].Aborts++
			switch {
			case byCancel && cc != nil:
				cc.TxnCanceled(id, v)
			case ra != nil:
				ra.TxnAborted(id, v)
			}
		}
	}

	// abortAndRestart erases the victim's attempt (and its cascade
	// closure) per the package's abort semantics and respawns the
	// programs. It must only be called at a stall, when every live
	// transaction is parked on a pending request.
	abortAndRestart := func(victim int) error {
		closure, ok := v.AbortClosure(victim)
		if !ok {
			return fmt.Errorf("victim T%d is pinned by a finished reader", victim)
		}
		eraseAttempts(closure, false)
		for _, id := range closure {
			spawn(id)
			metrics.Restarts++
		}
		return nil
	}

	// cancelRun settles a cancelled run. It is called between
	// scheduling steps; transactions that complete while the remaining
	// parks are gathered commit normally (a program error still wins
	// and takes the usual abort path). Every erasable live transaction
	// — one whose abort closure holds — is erased like a policy victim
	// but not respawned; a pinned one (its written value was consumed
	// by a finished transaction) is retired as committed with its
	// partial prefix. The surviving schedule plus the served read-only
	// results form the partial Result returned with the typed error.
	cancelRun := func() (*Result, error) {
		for len(pending) < len(v.Live) {
			ev := <-events
			if ev.done {
				if ev.err != nil {
					runErr = fmt.Errorf("exec: T%d: %w", ev.id, ev.err)
					delete(v.Live, ev.id)
					abort()
					return nil, runErr
				}
				delete(v.Live, ev.id)
				v.Finished[ev.id] = true
				metrics.PerTxn[ev.id].End = v.Clock
				cfg.Policy.TxnFinished(ev.id, v)
				continue
			}
			pending[ev.req.TxnID] = ev.req
		}
		liveIDs := make([]int, 0, len(v.Live))
		for id := range v.Live {
			liveIDs = append(liveIDs, id)
		}
		sort.Ints(liveIDs)
		// The erasable set is closed under cascade: every live reader of
		// an erasable transaction's write belongs to its closure, so the
		// union of the successful closures erases cleanly in one pass.
		erasable := make([]int, 0, len(liveIDs))
		inErase := make(map[int]bool, len(liveIDs))
		for _, id := range liveIDs {
			if inErase[id] {
				continue
			}
			closure, ok := v.AbortClosure(id)
			if !ok {
				continue
			}
			for _, m := range closure {
				if !inErase[m] {
					inErase[m] = true
					erasable = append(erasable, m)
				}
			}
		}
		sort.Ints(erasable)
		if len(erasable) > 0 {
			eraseAttempts(erasable, true)
			for _, id := range erasable {
				delete(v.Live, id)
				metrics.PerTxn[id].End = v.Clock
			}
		}
		// Force-retire the pinned remainder: finished transactions
		// already consumed their writes, so erasure is unsound and the
		// only consistent terminal state is committed-with-prefix.
		pinned := make([]int, 0, len(v.Live))
		for id := range v.Live {
			pinned = append(pinned, id)
		}
		sort.Ints(pinned)
		for _, id := range pinned {
			r := pending[id]
			delete(pending, id)
			r.reply <- replyMsg{err: errAborted}
		}
		for await := len(pinned); await > 0; {
			ev := <-events
			if ev.done {
				await--
				continue
			}
			pending[ev.req.TxnID] = ev.req // defensive; everyone is parked
		}
		for _, id := range pinned {
			delete(v.Live, id)
			v.Finished[id] = true
			metrics.PerTxn[id].End = v.Clock
			cfg.Policy.TxnFinished(id, v)
		}
		cancelErr := CancelError(ctx)
		v.Ops = ops
		if mv != nil {
			ops = spliceRO(ops, roResults)
			metrics.MV = mv.VersionStats()
		}
		harvestReporters(cfg.Policy, &metrics)
		return &Result{
			Schedule: txn.NewSchedule(ops...),
			Final:    v.Store,
			Metrics:  metrics,
		}, cancelErr
	}

	// Per-tick scratch, reused across scheduling steps: the sorted
	// pending-request view handed to the policy. The slices are only
	// valid during the Pick call (policies must not retain them).
	list := make([]*Request, 0, len(ids))
	pids := make([]int, 0, len(ids))

	for len(v.Live) > 0 {
		// Cancellation is detected here, between scheduling steps: every
		// grant issued so far is complete and journaled, so settling now
		// never leaves a partial one.
		if ctx.Err() != nil {
			return cancelRun()
		}
		// Serve declared readers whose begin tick has arrived: they
		// snapshot the sealed committed prefix and complete without
		// entering the pending set or the policy.
		if err := serveDueROs(false); err != nil {
			runErr = err
			abort()
			return nil, runErr
		}
		// Gather one request per live transaction.
		for len(pending) < len(v.Live) {
			ev := <-events
			if ev.done {
				if ev.err != nil {
					runErr = fmt.Errorf("exec: T%d: %w", ev.id, ev.err)
					delete(v.Live, ev.id)
					abort()
					return nil, runErr
				}
				delete(v.Live, ev.id)
				v.Finished[ev.id] = true
				metrics.PerTxn[ev.id].End = v.Clock
				cfg.Policy.TxnFinished(ev.id, v)
				continue
			}
			pending[ev.req.TxnID] = ev.req
		}
		if len(v.Live) == 0 {
			break
		}
		if ctx.Err() != nil {
			return cancelRun()
		}

		list, pids = list[:0], pids[:0]
		for id := range pending {
			pids = append(pids, id)
		}
		slices.Sort(pids)
		for _, id := range pids {
			list = append(list, pending[id])
		}

		v.Ops = ops
		passes := 0
		choice := cfg.Policy.Pick(list, v)
		for choice == PassTick {
			v.Clock++
			metrics.Ticks++
			for _, id := range pids {
				metrics.PerTxn[id].Waits++
				metrics.Waits++
			}
			passes++
			if passes > maxConsecutivePasses {
				runErr = stallCause(cfg.Policy, fmt.Errorf("%w: policy passed %d consecutive ticks", ErrStall, passes))
				abort()
				return nil, runErr
			}
			if ctx.Err() != nil {
				return cancelRun()
			}
			choice = cfg.Policy.Pick(list, v)
		}
		if choice < 0 || choice >= len(list) {
			// A Restarter policy may resolve the stall by sacrificing a
			// victim; anything else (or an exhausted abort budget, the
			// livelock backstop) is a hard stall.
			if ra, isRestarter := cfg.Policy.(Restarter); isRestarter {
				if vi := ra.Victim(list, v); vi >= 0 && vi < len(list) {
					if metrics.Aborts >= maxAborts {
						runErr = stallCause(cfg.Policy, fmt.Errorf("%w: abort budget (%d) exhausted", ErrStall, maxAborts))
						abort()
						return nil, runErr
					}
					if err := abortAndRestart(list[vi].TxnID); err != nil {
						runErr = stallCause(cfg.Policy, fmt.Errorf("%w: %v", ErrStall, err))
						abort()
						return nil, runErr
					}
					continue
				}
			}
			runErr = stallCause(cfg.Policy, fmt.Errorf("%w: pending %v", ErrStall, list))
			abort()
			return nil, runErr
		}
		granted := list[choice]
		delete(pending, granted.TxnID)

		// Apply the operation.
		tm := metrics.PerTxn[granted.TxnID]
		if tm.Start < 0 {
			tm.Start = v.Clock
		}
		tm.Ops++
		var rep replyMsg
		op := txn.Op{Txn: granted.TxnID, Action: granted.Action, Entity: granted.Entity, Pos: len(ops)}
		switch granted.Action {
		case txn.ActionRead:
			val, ok := v.Store.Get(granted.Entity)
			if !ok {
				rep.err = fmt.Errorf("exec: data item %q has no value", granted.Entity)
				granted.reply <- rep
				runErr = rep.err
				abort()
				return nil, runErr
			}
			// Record reads-from so aborts can cascade to transactions
			// that consumed a victim's written value.
			if w := v.LastWriter[granted.Entity]; w != 0 && w != granted.TxnID {
				if readsFrom[granted.TxnID] == nil {
					readsFrom[granted.TxnID] = make(map[int]bool)
				}
				readsFrom[granted.TxnID][w] = true
				if v.readersOf[w] == nil {
					v.readersOf[w] = make(map[int]bool)
				}
				v.readersOf[w][granted.TxnID] = true
			}
			op.Value = val
			rep.value = val
		case txn.ActionWrite:
			hist := writeHist[granted.Entity]
			if len(hist) == 0 {
				old, had := v.Store.Get(granted.Entity)
				hist = append(hist, writeRec{writer: 0, val: old, had: had})
			}
			writeHist[granted.Entity] = append(hist, writeRec{writer: granted.TxnID, val: granted.Value, had: true})
			writesOf[granted.TxnID] = append(writesOf[granted.TxnID], granted.Entity)
			v.Store.Set(granted.Entity, granted.Value)
			v.LastWriter[granted.Entity] = granted.TxnID
			op.Value = granted.Value
		}
		if mv != nil {
			lastPos[op.Txn] = len(ops)
		}
		ops = append(ops, op)
		v.Clock++
		metrics.Ticks++
		for _, id := range pids {
			if id == granted.TxnID {
				continue
			}
			metrics.PerTxn[id].Waits++
			metrics.Waits++
		}
		granted.reply <- rep
	}

	// Readers whose begin tick lies beyond the run snapshot the full
	// final prefix (every writer has finished, so the seal reaches the
	// end of the schedule).
	if err := serveDueROs(true); err != nil {
		return nil, err
	}
	if mv != nil {
		ops = spliceRO(ops, roResults)
		metrics.MV = mv.VersionStats()
	}

	harvestReporters(cfg.Policy, &metrics)
	return &Result{
		Schedule: txn.NewSchedule(ops...),
		Final:    v.Store,
		Metrics:  metrics,
	}, nil
}

// harvestReporters copies the optional reporter extensions' counters
// from a policy or batch gate into m. The reporter interfaces embed
// Policy, so only certifying policies match; a nil or plain value
// leaves m untouched.
func harvestReporters(p any, m *Metrics) {
	if sr, ok := p.(ShardReporter); ok {
		m.Shards = sr.ShardStats()
	}
	if cr, ok := p.(CompactionReporter); ok {
		st := cr.CompactionStats()
		m.Compactions = st.Compactions
		m.ReclaimedTxns = st.ReclaimedTxns
		m.ReclaimedOps = st.ReclaimedOps
		m.LiveTxns = st.LiveTxns
	}
	if pr, ok := p.(ProbeReporter); ok {
		st := pr.ProbeStats()
		m.ProbeHits = st.Hits
		m.ProbeMisses = st.Misses
		m.ProbeInvalidations = st.Invalidations
	}
	if lr, ok := p.(LogReporter); ok {
		m.Log = lr.LogStats()
	}
	if hr, ok := p.(HealthReporter); ok {
		m.Health = hr.Health()
	}
}

// PolicyCloner is an optional Policy extension: a policy that can
// produce an independent instance equivalent to a freshly constructed
// one — the decision-relevant configuration (seeds, partitions, inner
// policies, tuning knobs) is carried over, accumulated run state is
// reset, and nothing mutable is shared with the original. ClonePolicy
// returns nil when this particular value cannot be cloned (say, a
// wrapper whose inner policy is not cloneable, or a gate resumed over
// an external certifier); RunMany then falls back to aliasing
// detection. The sched policies and certification gates implement it.
type PolicyCloner interface {
	Policy
	// ClonePolicy returns the fresh equivalent instance, or nil.
	ClonePolicy() Policy
}

// TryClonePolicy clones p when it implements PolicyCloner and the
// clone succeeds.
func TryClonePolicy(p Policy) (Policy, bool) {
	pc, ok := p.(PolicyCloner)
	if !ok {
		return nil, false
	}
	c := pc.ClonePolicy()
	if c == nil {
		return nil, false
	}
	return c, true
}

// ErrSharedPolicy reports that one non-cloneable Policy value was
// handed to more than one Config of a RunMany call. Policies are
// stateful; sharing one across concurrent runs silently corrupts every
// decision stream involved, so the aliased runs are rejected instead
// of executed.
var ErrSharedPolicy = errors.New("exec: Policy instance shared across Configs")

// RunMany executes independently configured runs concurrently, at most
// workers at a time (workers ≤ 0 selects GOMAXPROCS). Policies are
// stateful and runs must not share them, so RunMany enforces the rule
// instead of trusting callers: a policy implementing PolicyCloner is
// cloned per run (the caller's instance is left untouched, so the same
// cfgs slice can be passed to RunMany again), and a non-cloneable
// policy value appearing in more than one Config fails those runs with
// ErrSharedPolicy rather than corrupting their decision streams. The
// configs must still not share other mutable state (give each run its
// own Initial; Run clones it, but a DB handed to two configs is still
// read concurrently). Results and errors are indexed like cfgs. This
// is the engine entry point for driving many admission streams at
// once: a fleet of workloads saturating a sharded certifier scales
// with cores because each run's policy probes only its own monitor
// shards.
func RunMany(cfgs []Config, workers int) ([]*Result, []error) {
	return RunManyCtx(context.Background(), cfgs, workers)
}

// RunManyCtx is RunMany with cancellation: ctx is threaded into every
// run (each settles per RunCtx when it ends), and runs that have not
// yet started when ctx ends are skipped with a typed
// ErrCanceled/ErrDeadline error instead of being launched.
func RunManyCtx(ctx context.Context, cfgs []Config, workers int) ([]*Result, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	run := make([]Config, len(cfgs))
	seen := make(map[Policy]int, len(cfgs))
	for i := range cfgs {
		run[i] = cfgs[i]
		p := cfgs[i].Policy
		if p == nil {
			continue
		}
		if clone, ok := TryClonePolicy(p); ok {
			run[i].Policy = clone
			continue
		}
		// Uncomparable policy values (rare: policies are normally
		// pointers) cannot be aliasing-checked; they pass through on the
		// caller's honor as before.
		if !reflect.TypeOf(p).Comparable() {
			continue
		}
		if j, dup := seen[p]; dup {
			if errs[j] == nil {
				errs[j] = fmt.Errorf("%w: %T handed to Configs %d and %d", ErrSharedPolicy, p, j, i)
			}
			errs[i] = fmt.Errorf("%w: %T handed to Configs %d and %d", ErrSharedPolicy, p, j, i)
			continue
		}
		seen[p] = i
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range run {
		if errs[i] != nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := CancelError(ctx); err != nil {
				errs[i] = err // not started; nothing to settle
				return
			}
			results[i], errs[i] = RunCtx(ctx, run[i])
		}(i)
	}
	wg.Wait()
	return results, errs
}
