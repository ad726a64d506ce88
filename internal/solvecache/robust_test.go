package solvecache

import (
	"testing"

	"socbuf/internal/ctmdp"
	"socbuf/internal/uncertain"
)

// robustKey is a robust-tier key over placeholder content bytes.
func robustKey(budget int) Key {
	return RobustFingerprint([]byte("arch-bytes"), []byte("spec"), budget, 3)
}

// TestRobustTierRoundTrip pins the robust cache tier's contract:
// lookup/put round-trips, payload isolation (returned allocations are
// copies in both directions), and the hit/miss counters. No remote store is
// attached, so no lookup here needs the architecture a remote payload is
// checked against.
func TestRobustTierRoundTrip(t *testing.T) {
	c := New()
	key := robustKey(56)

	if _, ok := c.LookupRobust(key, nil, 0); ok {
		t.Fatal("empty cache hit")
	}
	report := uncertain.Report{Yield: 0.9, BudgetUsed: 5}
	in := &RobustSolution{Alloc: map[string]int{"a": 2, "b": 3}, LossRate: 1.5, Report: report}
	c.PutRobust(key, in)
	in.Alloc["a"] = 99 // the stored payload must be a copy

	got, ok := c.LookupRobust(key, nil, 0)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.Alloc["a"] != 2 || got.Alloc["b"] != 3 || got.LossRate != 1.5 || got.Report != report {
		t.Fatalf("payload corrupted: %+v", got)
	}
	got.Alloc["b"] = 77 // the returned payload must be a copy too
	again, _ := c.LookupRobust(key, nil, 0)
	if again.Alloc["b"] != 3 {
		t.Fatalf("lookup aliased cache memory: %+v", again)
	}

	s := c.Stats()
	if s.RobustHits != 2 || s.RobustMisses != 1 || s.RobustEntries != 1 {
		t.Fatalf("counters = %+v, want 2 hits / 1 miss / 1 entry", s)
	}
	if s.AnalyticHits+s.AnalyticMisses != 0 || s.AnalyticEntries != 0 {
		t.Fatalf("the retired analytic counters moved: %+v", s)
	}
	// Different budget → different key: the content is part of the identity.
	if _, ok := c.LookupRobust(robustKey(64), nil, 0); ok {
		t.Fatal("budget not part of the robust key")
	}
}

// TestRobustTierNilCache: a nil cache is the valid "caching disabled"
// receiver of the tier methods, and reports zero Stats.
func TestRobustTierNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.LookupRobust(Key{}, nil, 0); ok {
		t.Fatal("nil cache hit")
	}
	c.PutRobust(Key{}, &RobustSolution{}) // must not panic
	c.SetRemote(NewMemStore())            // must not panic
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats %+v", s)
	}
	if n := c.HitCount(); n != 0 {
		t.Fatalf("nil cache HitCount %d", n)
	}
}

// TestBackendKeySpacesDisjoint is the rebinding-isolation gate of the
// backend-qualified fingerprint contract: the robust tier and the exact
// tier key disjoint spaces, so storing a robust sizing can never make an
// exact lookup hit (and vice versa) — even for the same underlying system.
// The tag is structural (serialised into the hash domain), so this test
// exercises the seam rather than proving the cryptographic claim.
func TestBackendKeySpacesDisjoint(t *testing.T) {
	m, err := ctmdp.NewModel("bus", 2, []ctmdp.Client{{
		BufferID: "b", Lambda: 1, Levels: 2, UnitsPerLevel: 1, LossWeight: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	// Populate the robust tier, then solve the exact path for the same
	// system: the exact solve must MISS (cold) — the robust entry is
	// invisible to it.
	c.PutRobust(RobustFingerprint([]byte("same-system"), nil, 4, 3), &RobustSolution{
		Alloc: map[string]int{"b": 4}, LossRate: 0.25,
	})
	if _, err := c.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{}); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("exact solve consulted a foreign tier: %+v", s)
	}
	// And the exact entry is invisible to the robust tier.
	if _, ok := c.LookupRobust(Fingerprint(m), nil, 0); ok {
		t.Fatal("exact fingerprint resolved in the robust tier")
	}
}
