package solvecache

import (
	"bytes"
	"testing"
)

// TestPlacementTierRoundTrip pins the contract the two serialised-result
// tiers (placement and result) share: payload isolation (returned bytes are
// fresh copies), counters, and a nil receiver as a valid disabled cache.
func TestPlacementTierRoundTrip(t *testing.T) {
	meta := PlacementMeta{
		Budget: 56, CostBudget: 8, LatencyWeight: 0.1,
		Method: "hybrid", RefineTop: 3,
		Iterations: 2, Seeds: []int64{1, 2}, Horizon: 400, WarmUp: 50,
		TypeNames: []string{"lite", "std"}, TypeCosts: []float64{1, 2}, TypeDelays: []float64{0.5, 0.2},
	}
	key := PlacementFingerprint([]byte("arch-bytes"), meta)
	for _, tc := range []struct {
		name   string
		lookup func(*Cache, Key) ([]byte, bool)
		put    func(*Cache, Key, []byte)
		counts func(Stats) [3]int64 // hits, misses, entries
	}{
		{"placement", (*Cache).LookupPlacement, (*Cache).PutPlacement,
			func(s Stats) [3]int64 { return [3]int64{s.PlacementHits, s.PlacementMisses, int64(s.PlacementEntries)} }},
		{"result", (*Cache).LookupResult, (*Cache).PutResult,
			func(s Stats) [3]int64 { return [3]int64{s.ResultHits, s.ResultMisses, int64(s.ResultEntries)} }},
	} {
		c := New()
		if _, ok := tc.lookup(c, key); ok {
			t.Fatalf("%s: empty cache hit", tc.name)
		}
		in := []byte(`{"frontier":[1,2,3]}`)
		tc.put(c, key, in)
		in[0] = 'X' // caller mutation after Put must not reach the store

		got, ok := tc.lookup(c, key)
		if !ok || !bytes.Equal(got, []byte(`{"frontier":[1,2,3]}`)) {
			t.Fatalf("%s: lookup got %q, ok=%v", tc.name, got, ok)
		}
		got[0] = 'Y' // and mutating a lookup must not poison later lookups
		again, _ := tc.lookup(c, key)
		if !bytes.Equal(again, []byte(`{"frontier":[1,2,3]}`)) {
			t.Fatalf("%s: cached payload mutated through a reader: %q", tc.name, again)
		}

		if n := tc.counts(c.Stats()); n != [3]int64{2, 1, 1} {
			t.Fatalf("%s: hits/misses/entries %v, want 2 / 1 / 1", tc.name, n)
		}

		// Any metadata change is a different problem.
		meta2 := meta
		meta2.RefineTop = 4
		if _, ok := tc.lookup(c, PlacementFingerprint([]byte("arch-bytes"), meta2)); ok {
			t.Fatalf("%s: metadata change aliased the cached payload", tc.name)
		}

		var nilCache *Cache
		if _, ok := tc.lookup(nilCache, key); ok {
			t.Fatalf("%s: nil cache hit", tc.name)
		}
		tc.put(nilCache, key, in) // must not panic
	}
}

// TestPlacementKeySpaceDisjoint: the backendPlacement tag must keep
// placement fingerprints disjoint from robust ones even when the hashed
// content bytes line up — the same guarantee the robust tag gives against
// exact keys.
func TestPlacementKeySpaceDisjoint(t *testing.T) {
	archBytes := []byte("same-arch")
	robust := RobustFingerprint(archBytes, nil, 56, 0)
	placement := PlacementFingerprint(archBytes, PlacementMeta{Budget: 56})
	if robust == placement {
		t.Fatal("robust and placement fingerprints collide")
	}
	c := New()
	c.PutRobust(robust, &RobustSolution{Alloc: map[string]int{"a": 1}})
	if _, ok := c.LookupPlacement(placement); ok {
		t.Fatal("placement lookup answered from the robust tier")
	}
}

// TestPlacementFingerprintSensitivity: every PlacementMeta field is
// identity — flipping any one of them must move the key.
func TestPlacementFingerprintSensitivity(t *testing.T) {
	base := PlacementMeta{
		Budget: 56, CostBudget: 8, LatencyWeight: 0.1,
		Method: "hybrid", RefineTop: 3,
		Iterations: 2, Seeds: []int64{1, 2}, Horizon: 400, WarmUp: 50,
		TypeNames: []string{"lite"}, TypeCosts: []float64{1}, TypeDelays: []float64{0.5},
	}
	arch := []byte("arch")
	k0 := PlacementFingerprint(arch, base)
	mutations := map[string]PlacementMeta{}
	m := base
	m.Budget++
	mutations["budget"] = m
	m = base
	m.CostBudget++
	mutations["costBudget"] = m
	m = base
	m.LatencyWeight = 0.2
	mutations["latencyWeight"] = m
	m = base
	m.Method = "exact"
	mutations["method"] = m
	m = base
	m.RefineTop++
	mutations["refineTop"] = m
	m = base
	m.Iterations++
	mutations["iterations"] = m
	m = base
	m.Seeds = []int64{1, 3}
	mutations["seeds"] = m
	m = base
	m.Horizon++
	mutations["horizon"] = m
	m = base
	m.WarmUp++
	mutations["warmUp"] = m
	m = base
	m.TypeNames = []string{"fast"}
	mutations["typeName"] = m
	m = base
	m.TypeCosts = []float64{2}
	mutations["typeCost"] = m
	m = base
	m.TypeDelays = []float64{0.1}
	mutations["typeDelay"] = m
	for field, mm := range mutations {
		if PlacementFingerprint(arch, mm) == k0 {
			t.Errorf("changing %s did not change the fingerprint", field)
		}
	}
	if PlacementFingerprint([]byte("other"), base) == k0 {
		t.Error("changing the architecture bytes did not change the fingerprint")
	}
}
