package solvecache

import (
	"testing"

	"socbuf/internal/ctmdp"
)

// TestAnalyticTierRoundTrip pins the analytic cache tier's contract:
// lookup/put round-trips, payload isolation (returned allocations are
// copies in both directions), and the hit/miss counters. No remote store is
// attached, so no lookup here needs the architecture a remote payload is
// checked against.
func TestAnalyticTierRoundTrip(t *testing.T) {
	c := New()
	key := AnalyticFingerprint([]byte("arch-bytes"), 56, 3)

	if _, ok := c.LookupAnalytic(key, nil, 0); ok {
		t.Fatal("empty cache hit")
	}
	in := &AnalyticSolution{Alloc: map[string]int{"a": 2, "b": 3}, LossRate: 1.5}
	c.PutAnalytic(key, in)
	in.Alloc["a"] = 99 // the stored payload must be a copy

	got, ok := c.LookupAnalytic(key, nil, 0)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.Alloc["a"] != 2 || got.Alloc["b"] != 3 || got.LossRate != 1.5 {
		t.Fatalf("payload corrupted: %+v", got)
	}
	got.Alloc["b"] = 77 // the returned payload must be a copy too
	again, _ := c.LookupAnalytic(key, nil, 0)
	if again.Alloc["b"] != 3 {
		t.Fatalf("lookup aliased cache memory: %+v", again)
	}

	s := c.Stats()
	if s.AnalyticHits != 2 || s.AnalyticMisses != 1 || s.AnalyticEntries != 1 {
		t.Fatalf("counters = %+v, want 2 hits / 1 miss / 1 entry", s)
	}
	// Different budget → different key: the content is part of the identity.
	if _, ok := c.LookupAnalytic(AnalyticFingerprint([]byte("arch-bytes"), 64, 3), nil, 0); ok {
		t.Fatal("budget not part of the analytic key")
	}
}

// TestAnalyticTierNilCache: a nil cache is the valid "caching disabled"
// receiver of the tier methods, and reports zero Stats.
func TestAnalyticTierNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.LookupAnalytic(Key{}, nil, 0); ok {
		t.Fatal("nil cache hit")
	}
	c.PutAnalytic(Key{}, &AnalyticSolution{}) // must not panic
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats %+v", s)
	}
}

// TestBackendKeySpacesDisjoint is the rebinding-isolation gate of the
// backend-qualified fingerprint contract: the analytic tier and the exact
// tiers key disjoint spaces, so storing an analytic sizing can never make
// an exact lookup hit (and vice versa) — even for the same underlying
// system. The tag is structural (serialised into the hash domain), so this
// test exercises the seam rather than proving the cryptographic claim.
func TestBackendKeySpacesDisjoint(t *testing.T) {
	m, err := ctmdp.NewModel("bus", 2, []ctmdp.Client{{
		BufferID: "b", Lambda: 1, Levels: 2, UnitsPerLevel: 1, LossWeight: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	// Populate the analytic tier, then solve the exact path for the same
	// system: the exact solve must MISS (cold) — the analytic entry is
	// invisible to it.
	c.PutAnalytic(AnalyticFingerprint([]byte("same-system"), 4, 3), &AnalyticSolution{
		Alloc: map[string]int{"b": 4}, LossRate: 0.25,
	})
	if _, err := c.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{}); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("exact solve consulted a foreign tier: %+v", s)
	}
	// And the exact entry is invisible to the analytic tier.
	if _, ok := c.LookupAnalytic(Fingerprint(m, SolveOptions{}), nil, 0); ok {
		t.Fatal("exact fingerprint resolved in the analytic tier")
	}
}
