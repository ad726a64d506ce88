package solvecache

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"strings"
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

// placementPayload is shaped like the engine's placement results: a
// frontier of points, each with its decision vector and its numbers, about
// 20 KB of repetitive JSON.
func placementPayload() []byte {
	types := []string{"lite", "std", "fast", ""}
	var sb strings.Builder
	sb.WriteString(`{"arch":"tree14","budget":159,"frontier":[`)
	for p := 0; p < 40; p++ {
		if p > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"decisions":[`)
		for b := 0; b < 13; b++ {
			if b > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"bridge":"br%02d-%02d","type":%q}`, b, b+1, types[(p*7+b*3)%4])
		}
		fmt.Fprintf(&sb, `],"cost":%d,"buffers":%d,"screenJ":%v,"screenLoss":%d,"improvement":%v}`,
			p+9, 30+p%7, 0.1234567890123*float64(p+1), 1000+p*37, 0.01*float64(p%9))
	}
	sb.WriteString(`]}`)
	return []byte(sb.String())
}

// TestPlacementTierDeflates: a placement payload round-trips byte for byte
// through PutPlacement and LookupPlacement, from the local tier and from a
// peer through a MemStore, while the tier and the store hold it deflated.
func TestPlacementTierDeflates(t *testing.T) {
	in := placementPayload()
	store := NewMemStore()
	w, r := New(), New()
	w.SetRemote(store)
	r.SetRemote(store)
	k := PlacementFingerprint([]byte("arch"), PlacementMeta{Budget: 159})
	w.PutPlacement(k, in)
	if got, ok := w.LookupPlacement(k); !ok || !bytes.Equal(got, in) {
		t.Fatalf("local lookup: ok=%v, %d bytes differ from the %d put", ok, len(got), len(in))
	}
	if got, ok := r.LookupPlacement(k); !ok || !bytes.Equal(got, in) {
		t.Fatalf("peer lookup: ok=%v, %d bytes differ from the %d put", ok, len(got), len(in))
	}
	if s := r.Stats(); s.RemoteHits != 1 || s.PlacementHits != 1 {
		t.Fatalf("peer stats after one adoption: %+v", s)
	}
	z, _ := w.placement.get(k)
	env, _ := store.Get(context.Background(), k)
	t.Logf("payload %d B, stored %d B, remote envelope %d B", len(in), len(z), len(env))
	if len(z)*4 > len(in) {
		t.Errorf("tier holds %d bytes for a %d-byte payload, want a quarter or less", len(z), len(in))
	}
	if len(env)*2 > len(in) {
		t.Errorf("the remote envelope has %d bytes for a %d-byte payload, want half or less", len(env), len(in))
	}
}

// placementPoisons are placement envelopes a peer may send that hold no
// placement payload: base64 bytes that are no complete deflate stream, and
// a stream that inflates to nothing.
func placementPoisons() map[string][]byte {
	var z deflateCodec
	whole := z.deflate(placementPayload())
	envelope := func(data []byte) []byte {
		return []byte(fmt.Sprintf(`{"tier":"placement","data":%q}`, base64.StdEncoding.EncodeToString(data)))
	}
	return map[string][]byte{
		"truncated stream": envelope(whole[:len(whole)/2]),
		"plain JSON":       envelope([]byte(`{"budget":24,"frontier":[{}],"chosen":{}}`)),
		"empty stream":     envelope(z.deflate(nil)),
	}
}

// TestRemotePlacementMustInflate: a peer's placement payload that does not
// inflate, inflates to nothing or inflates past a store payload's bound
// (a deflate bomb) is a miss.
func TestRemotePlacementMustInflate(t *testing.T) {
	var z deflateCodec
	poisons := placementPoisons()
	poisons["bomb"] = []byte(fmt.Sprintf(`{"tier":"placement","data":%q}`,
		base64.StdEncoding.EncodeToString(z.deflate(make([]byte, maxStorePayload+1)))))
	k := PlacementFingerprint([]byte("arch"), PlacementMeta{Budget: 24})
	for name, payload := range poisons {
		c := New()
		c.SetRemote(fixedStore(payload))
		if b, ok := c.LookupPlacement(k); ok {
			t.Errorf("%s: adopted %d bytes", name, len(b))
		}
		if s := c.Stats(); s.RemoteMisses != 1 || s.PlacementMisses != 1 || s.PlacementEntries != 0 {
			t.Errorf("%s: stats %+v, want one remote and one placement miss", name, s)
		}
	}
}
