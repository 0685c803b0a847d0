package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"mlcache/internal/coord"
	"mlcache/internal/trace"
)

func synthSpec(seed int64, refs int64) coord.JobSpec {
	return coord.JobSpec{
		SizesBytes: []int64{16 * 1024},
		CyclesNS:   []int64{20},
		Assoc:      1,
		L1KB:       4,
		Seed:       seed,
		Refs:       refs,
	}
}

// arenaFingerprint is a cheap content digest for identity checks.
func arenaFingerprint(a *trace.Arena) uint64 {
	var h uint64 = 14695981039346656037
	for _, r := range a.Refs() {
		h = (h ^ r.Addr ^ uint64(r.PID)<<48 ^ uint64(r.Kind)<<56) * 1099511628211
	}
	return h
}

// TestArenaCacheHitSharesArena: the second acquire of the same workload
// must be a hit on the very same arena, and release must not evict while
// the budget holds.
func TestArenaCacheHitSharesArena(t *testing.T) {
	c := NewArenaCache(1 << 20)
	spec := synthSpec(1, 5000)
	w1, hit, err := c.Acquire(spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first acquire reported a hit")
	}
	w2, hit, err := c.Acquire(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second acquire reported a miss")
	}
	if w1.Arena() != w2.Arena() {
		t.Error("leases hold different arenas for one workload")
	}
	w1.Release()
	w2.Release()
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v, want hits=1 misses=1 evictions=0 entries=1", st)
	}
}

// TestArenaCacheLRUEviction: exceeding the byte budget evicts the least
// recently used unleased workload, and re-acquiring it re-materializes
// identical contents.
func TestArenaCacheLRUEviction(t *testing.T) {
	const refs = 5000
	// Budget fits exactly one workload of this size.
	c := NewArenaCache(refs * refBytes)

	a1, _, err := c.Acquire(synthSpec(1, refs))
	if err != nil {
		t.Fatal(err)
	}
	fp := arenaFingerprint(a1.Arena())
	a1.Release()

	a2, _, err := c.Acquire(synthSpec(2, refs))
	if err != nil {
		t.Fatal(err)
	}
	a2.Release()

	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 || st.Bytes != refs*refBytes {
		t.Fatalf("after second workload: stats = %+v, want 1 eviction, 1 entry", st)
	}

	// Workload 1 was evicted: this is a miss, and the reload must be
	// bit-identical to the original materialization.
	a1b, hit, err := c.Acquire(synthSpec(1, refs))
	if err != nil {
		t.Fatal(err)
	}
	defer a1b.Release()
	if hit {
		t.Error("acquire after eviction reported a hit")
	}
	if got := arenaFingerprint(a1b.Arena()); got != fp {
		t.Errorf("re-materialized arena fingerprint %#x, want %#x", got, fp)
	}
}

// TestArenaCachePinningBlocksEviction: a workload with live leases is
// never evicted, however far the budget is exceeded; it becomes evictable
// once released.
func TestArenaCachePinningBlocksEviction(t *testing.T) {
	c := NewArenaCache(1) // nothing fits: every unleased entry evicts
	spec := synthSpec(1, 2000)

	w, _, err := c.Acquire(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 || st.Pinned == 0 {
		t.Fatalf("pinned workload evicted or not pinned: stats = %+v", st)
	}

	// A second workload comes and goes; the pinned one must survive.
	w2, _, err := c.Acquire(synthSpec(2, 2000))
	if err != nil {
		t.Fatal(err)
	}
	w2.Release()
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("after transient second workload: stats = %+v, want only the pinned entry", st)
	}
	// The lease must still read valid data.
	if w.Arena().Len() != 2000 {
		t.Fatalf("leased arena len = %d, want 2000", w.Arena().Len())
	}

	w.Release()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after release with over-budget cache: stats = %+v, want empty", st)
	}
	// Double release is a no-op.
	w.Release()
}

// TestArenaCacheArtifactEvictionReopen: an artifact-backed workload holds
// the mmap open (pinned) while leased, closes it on eviction, and a fresh
// acquire re-maps with identical contents.
func TestArenaCacheArtifactEvictionReopen(t *testing.T) {
	refs := make([]trace.Ref, 3000)
	for i := range refs {
		kind := trace.Load
		if i%7 == 0 {
			kind = trace.Store
		}
		refs[i] = trace.Ref{Addr: uint64(i * 16), Kind: kind}
	}
	path := filepath.Join(t.TempDir(), "wl.mlca")
	if err := trace.WriteArtifact(path, trace.NewArena(refs)); err != nil {
		t.Fatal(err)
	}
	spec := synthSpec(1, 0)
	spec.TracePath = path
	spec.Refs = 0

	c := NewArenaCache(1) // evict on release
	w, _, err := c.Acquire(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp := arenaFingerprint(w.Arena())
	w.Release() // eviction closes the artifact here

	w2, hit, err := c.Acquire(spec)
	if err != nil {
		t.Fatalf("re-acquire after artifact eviction: %v", err)
	}
	defer w2.Release()
	if hit {
		t.Error("acquire after eviction reported a hit")
	}
	if got := arenaFingerprint(w2.Arena()); got != fp {
		t.Errorf("re-mapped artifact fingerprint %#x, want %#x", got, fp)
	}
}

// TestServerCloseUnmapsArtifacts: Server.Close closes the artifact of
// every cached workload. An unleased one closes at once; one still leased
// closes when its last lease is released.
func TestServerCloseUnmapsArtifacts(t *testing.T) {
	dir := t.TempDir()
	var specs []coord.JobSpec
	for i, n := range []int{3000, 2000} {
		refs := make([]trace.Ref, n)
		for j := range refs {
			refs[j] = trace.Ref{Addr: uint64(j * 16), Kind: trace.Load}
		}
		path := filepath.Join(dir, fmt.Sprintf("wl%d.mlca", i))
		if err := trace.WriteArtifact(path, trace.NewArena(refs)); err != nil {
			t.Fatal(err)
		}
		spec := synthSpec(1, 0)
		spec.TracePath = path
		specs = append(specs, spec)
	}
	s := newTestServer(t, Config{})
	idle, _, err := s.arenas.Acquire(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	idleArt := idle.entry.artifact
	idle.Release()
	leased, _, err := s.arenas.Acquire(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	leasedArt := leased.entry.artifact
	if idleArt == nil || leasedArt == nil {
		t.Fatal("artifact workloads cached without their artifacts")
	}
	if got := s.arenas.Stats().Entries; got != 2 {
		t.Fatalf("entries before Close = %d, want 2", got)
	}

	s.Close()
	if err := idleArt.Pin(); err == nil {
		t.Error("unleased artifact still open after Server.Close")
	}
	if err := leasedArt.Pin(); err != nil {
		t.Fatalf("leased artifact closed under its lease: %v", err)
	}
	leasedArt.Unpin()
	leased.Release()
	if err := leasedArt.Pin(); err == nil {
		t.Error("artifact still open after its last lease was released")
	}
	if got := s.arenas.Stats().Entries; got != 0 {
		t.Errorf("entries after Close = %d, want 0", got)
	}
}

// TestArenaCacheConcurrentSameWorkload: concurrent acquires of one
// workload coalesce into a single materialization.
func TestArenaCacheConcurrentSameWorkload(t *testing.T) {
	c := NewArenaCache(1 << 20)
	spec := synthSpec(1, 5000)
	const n = 8
	arenas := make([]*trace.Arena, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, _, err := c.Acquire(spec)
			if err != nil {
				t.Error(err)
				return
			}
			arenas[i] = w.Arena()
			w.Release()
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("stats = %+v, want exactly one materialization for %d acquires", st, n)
	}
	for i := 1; i < n; i++ {
		if arenas[i] != arenas[0] {
			t.Fatalf("acquire %d got a different arena", i)
		}
	}
}

// TestWorkloadKeyContentIdentity: rewriting an artifact at the same path
// changes the key; distinct synthetic parameters never collide; a missing
// trace file is an error.
func TestWorkloadKeyContentIdentity(t *testing.T) {
	if k1, _ := WorkloadKey(synthSpec(1, 100)); k1 == "" {
		t.Fatal("empty synthetic key")
	}
	k1, _ := WorkloadKey(synthSpec(1, 100))
	k2, _ := WorkloadKey(synthSpec(2, 100))
	k3, _ := WorkloadKey(synthSpec(1, 200))
	if k1 == k2 || k1 == k3 {
		t.Errorf("synthetic keys collide: %q %q %q", k1, k2, k3)
	}

	path := filepath.Join(t.TempDir(), "wl.mlca")
	if err := trace.WriteArtifact(path, trace.NewArena([]trace.Ref{{Addr: 1, Kind: trace.Load}})); err != nil {
		t.Fatal(err)
	}
	spec := synthSpec(1, 0)
	spec.TracePath = path
	ka, err := WorkloadKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteArtifact(path, trace.NewArena([]trace.Ref{{Addr: 2, Kind: trace.Load}})); err != nil {
		t.Fatal(err)
	}
	kb, err := WorkloadKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Error("rewritten artifact kept the same workload key")
	}

	spec.TracePath = filepath.Join(t.TempDir(), "missing.mlca")
	if _, err := WorkloadKey(spec); err == nil {
		t.Error("missing trace file produced a key")
	}
	c := NewArenaCache(0)
	if _, _, err := c.Acquire(spec); err == nil {
		t.Error("acquire of missing trace file succeeded")
	} else if errors.Is(err, trace.ErrCorrupt) {
		t.Errorf("missing file misreported as corruption: %v", err)
	}
}
