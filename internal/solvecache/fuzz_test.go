package solvecache

import (
	"context"
	"encoding/json"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/uncertain"
)

// fixedStore is a remote store that answers every key with one payload and
// drops every write.
type fixedStore []byte

func (s fixedStore) Get(context.Context, Key) ([]byte, bool) { return append([]byte(nil), s...), true }
func (fixedStore) Put(context.Context, Key, []byte)          {}

// FuzzRemotePayload serves arbitrary bytes as the remote payload of every
// key, then looks one key up in each remote tier: a robust sizing and a
// placement. Each lookup is a remote miss or adopts a payload its tier's
// validity rule accepts, and none panics: an adopted robust sizing is one
// of the architecture and budget looked up, and an adopted placement
// payload is non-empty.
func FuzzRemotePayload(f *testing.F) {
	a := arch.TwoBusAMBA()
	a.InsertBridgeBuffers()
	const budget = 24
	alloc, err := arch.UniformAllocation(a, budget)
	if err != nil {
		f.Fatal(err)
	}
	rk := RobustFingerprint([]byte("arch"), []byte("spec"), budget, 3)
	pk := PlacementFingerprint([]byte("arch"), PlacementMeta{Budget: budget})

	// Seeds: the genuine envelope of each tier, as a peer writes it, and
	// known poisons.
	genuine := NewMemStore()
	w := New()
	w.SetRemote(genuine)
	report := uncertain.Report{Yield: 0.9, YieldLow: 0.8, NominalYield: 0.5, BudgetUsed: budget}
	w.PutRobust(rk, &RobustSolution{Alloc: alloc, LossRate: 0.25, Report: report})
	w.PutPlacement(pk, []byte(`{"budget":24,"frontier":[{}],"chosen":{}}`))
	for _, k := range []Key{rk, pk} {
		b, ok := genuine.Get(context.Background(), k)
		if !ok {
			f.Fatal("a genuine payload was not written behind")
		}
		f.Add(b)
	}
	report.Yield = 1.5
	overYield, err := json.Marshal(RobustSolution{Alloc: alloc, LossRate: 0.25, Report: report})
	if err != nil {
		f.Fatal(err)
	}
	for _, poison := range placementPoisons() {
		f.Add(poison)
	}
	for _, poison := range []string{
		`{"tier":"analytic","data":{"Alloc":{},"LossRate":0}}`,
		`{"tier":"analytic","data":{"Alloc":{"cpu@ahb1":-5}}}`,
		`{"tier":"robust","data":{"Alloc":{"cpu@ahb1":-5}}}`,
		`{"tier":"placement","data":{"budget":1}}`,
		`{"tier":"exact","data":null}`,
		`{"tier":"placement","data":""}`,
		`null`,
		`not json`,
		`{"tier":"robust","data":{"Alloc":{},"LossRate":0}}`,
		`{"tier":"robust","data":` + string(overYield) + `}`,
	} {
		f.Add([]byte(poison))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := New()
		c.SetRemote(fixedStore(data))
		adopted := func(tier string, ok bool, before Stats) bool {
			t.Helper()
			s := c.Stats()
			hit, miss := s.RemoteHits-before.RemoteHits, s.RemoteMisses-before.RemoteMisses
			if hit+miss != 1 || ok != (hit == 1) {
				t.Fatalf("%s: lookup ok=%v after %d remote hits, %d remote misses", tier, ok, hit, miss)
			}
			return ok
		}

		before := c.Stats()
		if s, ok := c.LookupRobust(rk, a, budget); adopted("robust", ok, before) && !validRobust(s, a, budget) {
			t.Fatalf("robust: adopted %+v, no sizing of the architecture at budget %d", s, budget)
		}
		before = c.Stats()
		if b, ok := c.LookupPlacement(pk); adopted("placement", ok, before) && len(b) == 0 {
			t.Fatal("placement: adopted an empty payload")
		}
	})
}
