package exec

import (
	"errors"
	"fmt"
	"sync"

	"pwsr/internal/state"
)

// ErrSnapshotRetired is returned by AcquireAt for a stamp below the
// store's retention floor: the versions that anchor needs may already
// have been garbage-collected. Snapshots at or above the floor are
// never denied — that is the multiversion read path's contract.
var ErrSnapshotRetired = errors.New("exec: snapshot stamp below the retention floor")

// VersionedStore is the shared multiversion database of the execution
// engines: a state.DB whose items each carry a chain of committed
// versions, one appended per committing transaction's write. It plays
// two roles:
//
//   - For the block-parallel batch executor (ParallelEngine) it is the
//     optimistic-concurrency substrate of PR 7: speculative executions
//     read the newest values with their stamps under a read lock, and
//     the serialized commit step revalidates the stamps it read against
//     the current ones (validate) before applying the write set
//     (commit).
//
//   - For the declared read-only transaction class it is the snapshot
//     source: Acquire pins the newest committed stamp and serves a
//     consistent frozen view from the version chains, so a reader never
//     conflicts with, is denied by, or aborts because of concurrent
//     writers — reads bypass the certification gate entirely, and the
//     combined schedule stays PWSR because the snapshot is exactly the
//     state of a committed prefix (see the mvread.go package notes).
//
// Version retention follows the certifier's own low-watermark
// argument. The store keeps, for every item, the versions visible to
// (a) every currently pinned snapshot and (b) every stamp at or above
// the retention floor. By default the floor tracks the newest stamp
// (each commit supersedes unpinned history, preserving PR 7's
// single-version memory profile). An engine wired to a certifying
// gate instead advances the floor to the stamp of the last commit at
// or below the certifier's Compact watermark (SetRetainFloor): just
// as the monitor retains a committed transaction until no future
// conflict cycle can reach it, the store retains a committed version
// until no snapshot — current or future — can observe it, and the two
// watermarks advance together.
type VersionedStore struct {
	mu    sync.RWMutex
	items map[string][]versionedItem
	// stamp is the monotone version source: each committing
	// transaction's writes share one fresh stamp, so a stamp identifies
	// the commit that produced the value.
	stamp uint64
	// floor is the oldest stamp a new snapshot may anchor at. With
	// autoFloor (the default) it follows stamp; SetRetainFloor switches
	// to manual advancement.
	floor     uint64
	autoFloor bool
	// pins refcounts the stamps of live snapshots; pinned stamps stay
	// readable below the floor until released.
	pins map[uint64]int
	// pruned counts versions garbage-collected so far.
	pruned uint64
	// versions counts the retained versions across all chains, kept
	// current by commit and pruneChainLocked so VersionStats never walks
	// the item map.
	versions int
}

// versionedItem is one committed version of an item: the value and the
// stamp of the commit that wrote it (0 = initial state). A chain is
// ordered by ascending stamp.
type versionedItem struct {
	val state.Value
	ver uint64
}

// NewVersionedStore returns a store initialized from ds (copied; the
// caller's DB is not retained). Initial values carry version 0.
func NewVersionedStore(ds state.DB) *VersionedStore {
	items := make(map[string][]versionedItem, len(ds))
	for k, v := range ds {
		items[k] = []versionedItem{{val: v}}
	}
	return &VersionedStore{items: items, autoFloor: true, pins: make(map[uint64]int), versions: len(items)}
}

// Get returns the item's newest value and version stamp. The element
// is copied before the lock is released: pruneChainLocked compacts
// chains in place, so the backing array may be rewritten by a
// concurrent commit the moment the lock drops.
func (s *VersionedStore) Get(item string) (state.Value, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain := s.items[item]
	if len(chain) == 0 {
		return state.Value{}, 0, false
	}
	it := chain[len(chain)-1]
	return it.val, it.ver, true
}

// GetAt returns the item's value as of the given stamp: the newest
// version whose stamp is ≤ stamp. ok is false when the item did not
// exist at that stamp (created by a later commit) or when the anchor
// predates the retained history (stamp below the floor and not
// pinned — use a pinned snapshot for stable reads).
func (s *VersionedStore) GetAt(item string, stamp uint64) (state.Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return valueAt(s.items[item], stamp)
}

// valueAt scans one version chain for the newest version whose stamp
// is ≤ stamp.
func valueAt(chain []versionedItem, stamp uint64) (state.Value, bool) {
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].ver <= stamp {
			return chain[i].val, true
		}
	}
	return state.Value{}, false
}

// Snapshot returns a state.DB copy of the current (newest) values.
func (s *VersionedStore) Snapshot() state.DB {
	s.mu.RLock()
	defer s.mu.RUnlock()
	db := make(state.DB, len(s.items))
	for k, chain := range s.items {
		if len(chain) > 0 {
			db[k] = chain[len(chain)-1].val
		}
	}
	return db
}

// SnapshotAt returns a state.DB copy of the values as of the given
// stamp. Items created after the stamp are absent. The caller is
// responsible for the stamp still being retained (pinned or ≥ floor).
func (s *VersionedStore) SnapshotAt(stamp uint64) state.DB {
	s.mu.RLock()
	defer s.mu.RUnlock()
	db := make(state.DB, len(s.items))
	for k, chain := range s.items {
		if v, ok := valueAt(chain, stamp); ok {
			db[k] = v
		}
	}
	return db
}

// Stamp returns the newest committed stamp.
func (s *VersionedStore) Stamp() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stamp
}

// Floor returns the retention floor: the oldest stamp AcquireAt still
// serves.
func (s *VersionedStore) Floor() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.floor
}

// validate reports whether every read stamp still matches the store —
// no conflicting commit has overwritten an item this execution read.
func (s *VersionedStore) validate(reads map[string]uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for item, ver := range reads {
		chain := s.items[item]
		if len(chain) == 0 || chain[len(chain)-1].ver != ver {
			return false
		}
	}
	return true
}

// commit applies one transaction's write set under a single fresh
// stamp, appending one version per item. Only an engine's serialized
// commit step calls it, so stamps are assigned in commit order and the
// store's history is exactly the serial history of the committed
// prefix. Superseded versions of the written items that no pinned
// snapshot and no stamp at or above the floor can observe are pruned
// in the same step (release/SetRetainFloor prune the rest lazily on
// the next write or floor move — garbage is bounded by the write
// traffic since the floor).
func (s *VersionedStore) commit(writes map[string]state.Value) {
	if len(writes) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stamp++
	if s.autoFloor {
		s.floor = s.stamp
	}
	keep := s.keepFromLocked()
	s.versions += len(writes)
	for item, v := range writes {
		chain := append(s.items[item], versionedItem{val: v, ver: s.stamp})
		s.items[item] = s.pruneChainLocked(chain, keep)
	}
}

// keepFromLocked computes the oldest anchor any reader can still use:
// the minimum of the retention floor and every pinned snapshot stamp.
func (s *VersionedStore) keepFromLocked() uint64 {
	keep := s.floor
	for st := range s.pins {
		if st < keep {
			keep = st
		}
	}
	return keep
}

// pruneChainLocked drops the chain prefix no anchor ≥ keep can
// observe: version i is garbage exactly when version i+1 exists and
// has ver ≤ keep (every surviving anchor already sees i+1 or newer).
func (s *VersionedStore) pruneChainLocked(chain []versionedItem, keep uint64) []versionedItem {
	drop := 0
	for drop < len(chain)-1 && chain[drop+1].ver <= keep {
		drop++
	}
	if drop == 0 {
		return chain
	}
	s.pruned += uint64(drop)
	s.versions -= drop
	return append(chain[:0], chain[drop:]...)
}

// SetRetainFloor raises the retention floor to stamp (clamped to the
// newest stamp; the floor never moves backwards) and switches the
// store to manual floor advancement: commits stop superseding history
// on their own, and versions are retained back to the floor — the
// engine wires this to the certifying gate's Compact watermark so
// version GC and certifier GC follow the same low-watermark argument.
// A full prune pass runs under the floor move.
func (s *VersionedStore) SetRetainFloor(stamp uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.autoFloor = false
	if stamp > s.stamp {
		stamp = s.stamp
	}
	if stamp > s.floor {
		s.floor = stamp
	}
	keep := s.keepFromLocked()
	for item, chain := range s.items {
		s.items[item] = s.pruneChainLocked(chain, keep)
	}
}

// Acquire pins a snapshot at the newest committed stamp. Acquisition
// is never denied; release promptly so version GC can advance.
func (s *VersionedStore) Acquire() *StoreSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[s.stamp]++
	return &StoreSnapshot{store: s, stamp: s.stamp}
}

// AcquireAt pins a snapshot at an explicit stamp — any anchor back to
// the retention floor (the certifier's Compact watermark under a
// gate-wired engine) is served; an older one fails with
// ErrSnapshotRetired, a future one with an error naming the newest
// stamp.
func (s *VersionedStore) AcquireAt(stamp uint64) (*StoreSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if stamp > s.stamp {
		return nil, fmt.Errorf("exec: snapshot stamp %d beyond newest commit %d", stamp, s.stamp)
	}
	if stamp < s.floor {
		return nil, fmt.Errorf("%w: stamp %d < floor %d", ErrSnapshotRetired, stamp, s.floor)
	}
	s.pins[stamp]++
	return &StoreSnapshot{store: s, stamp: stamp}, nil
}

// VersionStats snapshots the store's multiversion accounting.
type VersionStats struct {
	// Stamp is the newest committed stamp.
	Stamp uint64
	// Floor is the retention floor (oldest acquirable stamp).
	Floor uint64
	// Versions is the total number of retained versions across items.
	Versions int
	// Pruned is the cumulative number of garbage-collected versions.
	Pruned uint64
	// Pins is the number of live (acquired, unreleased) snapshots.
	Pins int
}

// VersionStats reports the store's retention accounting. It costs
// O(distinct pinned stamps), not O(items): the version count is kept
// current as versions are installed and pruned.
func (s *VersionedStore) VersionStats() VersionStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := VersionStats{Stamp: s.stamp, Floor: s.floor, Versions: s.versions, Pruned: s.pruned}
	for _, n := range s.pins {
		st.Pins += n
	}
	return st
}

// StoreSnapshot is a pinned, immutable view of the store at one
// committed stamp: the state produced by the serial history of the
// commits up to and including that stamp. Reads are safe for
// concurrent use and never observe a later (or an aborted — only
// committed writes ever reach the store) transaction's effects.
// Release the snapshot when done; an unreleased snapshot pins its
// versions against GC forever.
type StoreSnapshot struct {
	store    *VersionedStore
	stamp    uint64
	released bool
	relMu    sync.Mutex
}

// Stamp returns the snapshot's anchor stamp.
func (sn *StoreSnapshot) Stamp() uint64 { return sn.stamp }

// Get returns the item's value as of the snapshot's stamp; ok is
// false when the item did not exist yet.
func (sn *StoreSnapshot) Get(item string) (state.Value, bool) {
	return sn.store.GetAt(item, sn.stamp)
}

// DB materializes the snapshot as a state.DB copy.
func (sn *StoreSnapshot) DB() state.DB {
	return sn.store.SnapshotAt(sn.stamp)
}

// Release unpins the snapshot (idempotent). Superseded versions it
// held become collectable on the next commit or floor move.
func (sn *StoreSnapshot) Release() {
	sn.relMu.Lock()
	defer sn.relMu.Unlock()
	if sn.released {
		return
	}
	sn.released = true
	s := sn.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.pins[sn.stamp]; n > 1 {
		s.pins[sn.stamp] = n - 1
	} else {
		delete(s.pins, sn.stamp)
	}
}
