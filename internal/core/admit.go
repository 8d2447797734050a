package core

import "pwsr/internal/txn"

// AdmitSequence atomically admits one transaction's whole operation
// sequence: each operation is probed with Admissible and, if the probe
// passes, observed, in order — observing operation k is what makes the
// probe of operation k+1 exact, so the loop is probe-then-observe per
// operation, not probe-all-then-observe-all. If any probe is denied
// the already-observed prefix is retracted and the monitor is left
// exactly as before the call (false, nil). On success every operation
// is resident (true, nil). The sticky violation, if one exists or
// arises, is returned as on Observe.
//
// This is the admission primitive of the block-parallel batch executor
// (exec.ParallelEngine via sched gates): a transaction whose program
// already ran to completion submits its full operation sequence at
// commit time, and the all-or-nothing contract is what lets the
// executor retry a denied transaction without leaving partial
// certification state behind.
//
// Contract: all operations must belong to one transaction, and that
// transaction must be fresh — not committed and holding no surviving
// observed operations (a partial sequence could not be rolled back
// exactly otherwise). Violating either is a lifecycle panic, mirroring
// Observe/Retract. The lifecycle sink sees the applied stream: one
// LogObserve per observed operation, plus a LogRetract when a denial
// rolls a non-empty prefix back — net zero on denial, which keeps the
// log a faithful replay script.
//
// Under that contract a denial cannot actually arise on a healthy
// monitor: conflict edges are only ever drawn INTO the transaction
// performing the new operation (from the item frontier to the operating
// transaction — the same observation that makes Compact sound), so a
// fresh transaction acquires incoming edges only while its own sequence
// is observed and no cycle through it can close. Equivalently,
// admitting whole transactions one at a time in commit order produces a
// schedule conflict-equivalent to that serial order, and every conjunct
// projection of a serial schedule is serializable — the theorem that
// makes the batch executor's combined schedule PWSR by construction.
// AdmitSequence still runs the full probe-then-observe certification
// (the gate's proof obligation, and what keeps the lifecycle stream and
// journal exact); the denial rollback is retained as defence in depth
// for certifier states outside the fresh-transaction contract. After a
// violation (necessarily inflicted by interleaved per-operation
// traffic, not by a sequence) the sticky verdict is returned.
func (m *Monitor) AdmitSequence(ops []txn.Op) (bool, *Violation) {
	if v := m.violation; v != nil {
		return false, v
	}
	_, ok, v := m.admitSequence(ops)
	return ok, v
}

// admitSequence is the body of AdmitSequence, also reporting how many
// operations were observed (the prefix length including, on a
// violation, the violating operation) so ShardedMonitor's single-shard
// fast path can mirror the per-shard admission counters exactly.
func (m *Monitor) admitSequence(ops []txn.Op) (applied int, ok bool, v *Violation) {
	if len(ops) == 0 {
		return 0, true, nil
	}
	id := ops[0].Txn
	for i := range ops[1:] {
		if ops[i+1].Txn != id {
			panic(&LifecycleError{Verb: "AdmitSequence", Txn: ops[i+1].Txn, Reason: "sequence mixes transactions"})
		}
	}
	if d, seen := m.txnLookup(id); seen {
		if m.committedB[d] {
			panic(&LifecycleError{Verb: "AdmitSequence", Txn: id, Reason: "operation for a committed transaction"})
		}
		if m.resident[d] {
			panic(&LifecycleError{Verb: "AdmitSequence", Txn: id, Reason: "transaction already holds observed operations"})
		}
	}
	for i := range ops {
		if !m.Admissible(ops[i]) {
			if i > 0 {
				m.Retract(id)
			}
			return i, false, nil
		}
		if v := m.Observe(ops[i]); v != nil {
			// Unreachable while Admissible is exact; surface the sticky
			// verdict like Observe rather than mask it.
			return i + 1, false, v
		}
	}
	return len(ops), true, nil
}

// AdmitSequence atomically admits one transaction's whole operation
// sequence with Monitor.AdmitSequence's contract, safe for concurrent
// callers — and cheaper than an Admissible/Observe loop through the
// public entry points: the routes of all operations are resolved
// first, then the union of routed shards is locked once in ascending
// order for the whole sequence (one lock round per shard per
// transaction instead of per operation), and the probe-then-observe
// loop runs against the already-locked shards. Sequences routed to
// disjoint shard sets certify fully in parallel; the ascending lock
// order makes overlapping unions deadlock-free against each other and
// against the single-lock paths.
func (m *ShardedMonitor) AdmitSequence(ops []txn.Op) (bool, *Violation) {
	if v := m.violation.Load(); v != nil {
		return false, v
	}
	if len(ops) == 0 {
		return true, nil
	}
	id := ops[0].Txn
	for i := range ops[1:] {
		if ops[i+1].Txn != id {
			panic(&LifecycleError{Verb: "AdmitSequence", Txn: ops[i+1].Txn, Reason: "sequence mixes transactions"})
		}
	}
	if m.single {
		sh := m.shards[0]
		sh.mu.Lock()
		applied, ok, v := sh.mon.admitSequence(ops)
		sh.observes += int64(applied)
		if ok {
			sh.probes += int64(applied)
		} else {
			sh.probes += int64(applied) + 1
			sh.denials++
		}
		sh.mu.Unlock()
		if v != nil {
			return false, m.globalViolation(sh, v)
		}
		return ok, nil
	}

	if m.committedTxn(id) {
		panic(&LifecycleError{Verb: "AdmitSequence", Txn: id, Reason: "operation for a committed transaction"})
	}
	if c, seen := m.txns.Load(id); seen && c.(*shardedTxn).ops.Load() > 0 {
		panic(&LifecycleError{Verb: "AdmitSequence", Txn: id, Reason: "transaction already holds observed operations"})
	}

	// Resolve every operation's route before taking any shard lock,
	// and collect the union of routed shards.
	var buf [8]uint64
	routes := buf[:0]
	var union uint64
	for _, o := range ops {
		r := m.routeFor(o.Entity)
		routes = append(routes, r)
		union |= r
	}

	for rest := union; rest != 0; {
		m.shards[nextShard(&rest)].mu.Lock()
	}
	// observed marks the shards holding at least one observed operation
	// of this transaction (the rollback fan-out on denial).
	var observed uint64
	applied := 0
	denied := false
	var vio *Violation
	var vsh *monitorShard
admit:
	for i := range ops {
		for rest := routes[i]; rest != 0; {
			sh := m.shards[nextShard(&rest)]
			sh.probes++
			if !sh.mon.Admissible(ops[i]) {
				sh.denials++
				denied = true
				break admit
			}
		}
		for rest := routes[i]; rest != 0; {
			s := nextShard(&rest)
			sh := m.shards[s]
			sh.observes++
			observed |= 1 << s
			if v := sh.mon.Observe(ops[i]); v != nil {
				// Unreachable while Admissible is exact (the shard is
				// locked between probe and observe).
				applied++
				vio, vsh = v, sh
				break admit
			}
		}
		applied++
	}
	if denied {
		for rest := observed; rest != 0; {
			m.shards[nextShard(&rest)].mon.Retract(id)
		}
	}
	for rest := union; rest != 0; {
		m.shards[nextShard(&rest)].mu.Unlock()
	}

	if vio != nil {
		// Count the observed prefix like Observe would (up to and
		// including the violating operation).
		// The shard mask only steers Retract, which a violated monitor
		// refuses, so the whole union stands in for the prefix's.
		c := m.txnCounter(id)
		m.ops.Add(int64(applied))
		c.ops.Add(int64(applied))
		c.orShards(union)
		gv := m.globalViolation(vsh, vio)
		if m.sink != nil {
			for i := 0; i < applied; i++ {
				m.sink.LogObserve(ops[i])
			}
		}
		return false, gv
	}
	if denied {
		// Net zero: the prefix was rolled back under the locks and never
		// counted, so the sink sees the same observes-then-retract
		// stream a Monitor-backed denial emits.
		if m.sink != nil {
			for i := 0; i < applied; i++ {
				m.sink.LogObserve(ops[i])
			}
			if applied > 0 {
				m.sink.LogRetract(id)
			}
		}
		return false, nil
	}
	c := m.txnCounter(id)
	m.ops.Add(int64(len(ops)))
	c.ops.Add(int64(len(ops)))
	c.orShards(union)
	if m.sink != nil {
		for _, o := range ops {
			m.sink.LogObserve(o)
		}
	}
	return true, nil
}
