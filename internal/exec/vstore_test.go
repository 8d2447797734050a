package exec

// White-box unit tests for the multiversion store: chain/prune
// mechanics, the auto vs. manual retention floor, pinned snapshots,
// and the AcquireAt error contract. The engine-level behavior (sealed
// prefixes, splicing, watermark-anchored GC) is covered by the
// mvread differential suite in mvread_test.go.

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pwsr/internal/state"
)

func TestVersionedStoreAutoFloorSupersedes(t *testing.T) {
	s := NewVersionedStore(state.Ints(map[string]int64{"x": 0, "y": 10}))
	s.commit(map[string]state.Value{"x": state.Int(1)})
	s.commit(map[string]state.Value{"x": state.Int(2), "y": state.Int(20)})

	if got := s.Stamp(); got != 2 {
		t.Fatalf("Stamp = %d, want 2", got)
	}
	if v, ver, ok := s.Get("x"); !ok || v.AsInt() != 2 || ver != 2 {
		t.Fatalf("Get(x) = %v@%d, want 2@2", v, ver)
	}
	// With the default auto floor each commit supersedes unpinned
	// history: both chains hold exactly their newest version.
	st := s.VersionStats()
	if st.Versions != 2 {
		t.Fatalf("Versions = %d, want 2 (one per item)", st.Versions)
	}
	if st.Pruned != 3 { // x's v0 and v1, y's v0
		t.Fatalf("Pruned = %d, want 3", st.Pruned)
	}
	if st.Floor != 2 {
		t.Fatalf("Floor = %d, want 2 (auto floor tracks the stamp)", st.Floor)
	}
}

func TestVersionedStorePinsRetainVersions(t *testing.T) {
	s := NewVersionedStore(state.Ints(map[string]int64{"x": 0}))
	sn := s.Acquire() // pins stamp 0
	if sn.Stamp() != 0 {
		t.Fatalf("snapshot stamp = %d, want 0", sn.Stamp())
	}
	s.commit(map[string]state.Value{"x": state.Int(1)})
	s.commit(map[string]state.Value{"x": state.Int(2)})

	// The pin holds every version the snapshot can observe against the
	// advancing auto floor.
	if v, ok := sn.Get("x"); !ok || v.AsInt() != 0 {
		t.Fatalf("pinned snapshot reads x = %v, want the frozen 0", v)
	}
	st := s.VersionStats()
	if st.Pins != 1 {
		t.Fatalf("Pins = %d, want 1", st.Pins)
	}
	if st.Versions != 3 {
		t.Fatalf("Versions = %d, want 3 (pin blocks pruning)", st.Versions)
	}

	sn.Release()
	sn.Release() // idempotent
	if st := s.VersionStats(); st.Pins != 0 {
		t.Fatalf("Pins after release = %d, want 0", st.Pins)
	}
	// The next commit collects what the pin held.
	s.commit(map[string]state.Value{"x": state.Int(3)})
	if st := s.VersionStats(); st.Versions != 1 {
		t.Fatalf("Versions after release+commit = %d, want 1", st.Versions)
	}
	if _, ok := s.GetAt("x", 0); ok {
		t.Fatal("GetAt(0) served a pruned version")
	}
}

func TestVersionedStoreManualFloor(t *testing.T) {
	s := NewVersionedStore(state.Ints(map[string]int64{"x": 0}))
	s.SetRetainFloor(0) // switch to manual retention: keep everything
	for i := 1; i <= 5; i++ {
		s.commit(map[string]state.Value{"x": state.Int(int64(i))})
	}
	if st := s.VersionStats(); st.Versions != 6 || st.Floor != 0 {
		t.Fatalf("Versions = %d Floor = %d, want 6 at floor 0", st.Versions, st.Floor)
	}
	if v, ok := s.GetAt("x", 3); !ok || v.AsInt() != 3 {
		t.Fatalf("GetAt(3) = %v, want 3", v)
	}
	if db := s.SnapshotAt(2); db["x"].AsInt() != 2 {
		t.Fatalf("SnapshotAt(2)[x] = %v, want 2", db["x"])
	}

	sn, err := s.AcquireAt(3)
	if err != nil {
		t.Fatalf("AcquireAt(3): %v", err)
	}
	if _, err := s.AcquireAt(6); err == nil || errors.Is(err, ErrSnapshotRetired) {
		t.Fatalf("AcquireAt beyond newest = %v, want a non-retired error", err)
	}

	// Raising the floor prunes what no anchor ≥ floor (and no pin) can
	// observe: versions 0 and 1 go, 2..5 stay.
	s.SetRetainFloor(2)
	if st := s.VersionStats(); st.Versions != 4 || st.Floor != 2 {
		t.Fatalf("after SetRetainFloor(2): Versions = %d Floor = %d, want 4 at 2", st.Versions, st.Floor)
	}
	if _, err := s.AcquireAt(1); !errors.Is(err, ErrSnapshotRetired) {
		t.Fatalf("AcquireAt(1) below floor = %v, want ErrSnapshotRetired", err)
	}
	// The floor never moves backwards.
	s.SetRetainFloor(1)
	if got := s.Floor(); got != 2 {
		t.Fatalf("Floor after lowering attempt = %d, want 2", got)
	}
	// And is clamped to the newest stamp; the pin at 3 keeps 3..5.
	s.SetRetainFloor(99)
	if got := s.Floor(); got != 5 {
		t.Fatalf("Floor after clamp = %d, want 5", got)
	}
	if v, ok := sn.Get("x"); !ok || v.AsInt() != 3 {
		t.Fatalf("pinned snapshot at 3 reads %v, want 3", v)
	}
	sn.Release()
	s.commit(map[string]state.Value{"x": state.Int(6)})
	// The manual floor stays at 5, so version 5 remains acquirable
	// alongside the new version 6; only the released pin's 3 and 4 go.
	if st := s.VersionStats(); st.Versions != 2 || st.Floor != 5 {
		t.Fatalf("after release+commit: Versions = %d Floor = %d, want 2 at 5", st.Versions, st.Floor)
	}
}

func TestVersionedStoreGetCommitRace(t *testing.T) {
	// Regression: Get used to copy the chain slice header under RLock
	// but read the last element after RUnlock. pruneChainLocked
	// compacts chains in place (the auto floor prunes on every commit,
	// reusing the backing array), so a concurrent committer could
	// rewrite the element a speculative reader was loading. Readers
	// hammer Get while commits prune; the race detector flags the torn
	// access, and the stamp/value pairing (commit i writes x=i at
	// stamp i) catches it even without -race.
	s := NewVersionedStore(state.Ints(map[string]int64{"x": 0}))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v, ver, ok := s.Get("x")
				if !ok {
					t.Error("Get(x) lost the item")
					return
				}
				if v.AsInt() != int64(ver) {
					t.Errorf("torn read: value %d at stamp %d", v.AsInt(), ver)
					return
				}
				// Yield with the Get still unpublished to the committer's
				// clock, so the loops interleave even on one CPU.
				runtime.Gosched()
			}
		}()
	}
	for i := 1; i <= 2000; i++ {
		s.commit(map[string]state.Value{"x": state.Int(int64(i))})
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
}

func TestVersionedStoreAcquireNeverDenied(t *testing.T) {
	// The read path's headline contract: Acquire at the newest stamp
	// has no failure mode, at any floor, with any pin population.
	s := NewVersionedStore(state.Ints(map[string]int64{"x": 0}))
	for i := 1; i <= 50; i++ {
		s.commit(map[string]state.Value{"x": state.Int(int64(i))})
		sn := s.Acquire()
		if v, ok := sn.Get("x"); !ok || v.AsInt() != int64(i) {
			t.Fatalf("commit %d: snapshot reads %v", i, v)
		}
		if i%2 == 0 {
			sn.Release()
		}
	}
	if st := s.VersionStats(); st.Pins != 25 {
		t.Fatalf("Pins = %d, want 25 leaked on purpose", st.Pins)
	}
}

// TestVersionedStoreVersionCountExact checks the running version count
// VersionStats reports against a full recount of every chain, after a
// random mix of commits (including first writes of new items), pins,
// releases, and floor advances — the count must track every install
// and every prune, in both auto- and manual-floor modes.
func TestVersionedStoreVersionCountExact(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewVersionedStore(state.Ints(map[string]int64{"a": 0, "b": 0, "c": 0}))
		items := []string{"a", "b", "c", "d", "e"}
		var pinned []*StoreSnapshot
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				writes := make(map[string]state.Value)
				for n := 1 + rng.Intn(3); n > 0; n-- {
					writes[items[rng.Intn(len(items))]] = state.Int(int64(step))
				}
				s.commit(writes)
			case r < 7:
				pinned = append(pinned, s.Acquire())
			case r < 9 && len(pinned) > 0:
				k := rng.Intn(len(pinned))
				pinned[k].Release()
				pinned = append(pinned[:k], pinned[k+1:]...)
			default:
				s.SetRetainFloor(s.Stamp() - uint64(rng.Intn(3)))
			}
			s.mu.RLock()
			want := 0
			for _, chain := range s.items {
				want += len(chain)
			}
			s.mu.RUnlock()
			if got := s.VersionStats().Versions; got != want {
				t.Fatalf("seed %d step %d: VersionStats().Versions = %d, recount %d", seed, step, got, want)
			}
		}
	}
}
