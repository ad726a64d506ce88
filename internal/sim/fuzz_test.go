package sim_test

import (
	"bytes"
	"math"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/sim"
)

// FuzzArchJSON drives arbitrary bytes through the architecture decoder and
// on into the simulator. Every architecture ReadJSON accepts with at most 64
// flows and 32 buses is buffered (it must stay valid), given two units per
// buffer and run to horizon 2000/Σλ, about 2,000 expected arrivals, so each
// input costs a bounded amount. The run must succeed and conserve packets:
// generated = delivered + lost + in flight. A horizon that overflows to
// +Inf (subnormal rates) must be refused, not run forever.
func FuzzArchJSON(f *testing.F) {
	for _, a := range []*arch.Architecture{arch.TwoBusAMBA(), arch.Figure1(), arch.NetworkProcessor()} {
		var buf bytes.Buffer
		if err := a.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"buses":[{"id":"b","serviceRate":1}],"processors":[{"id":"p","buses":["b"]}]}`))
	f.Add([]byte(`{"buses":[{"id":"b","serviceRate":1e-300}],"processors":[{"id":"p","buses":["b"]},{"id":"q","buses":["b"]}],` +
		`"flows":[{"from":"p","to":"q","rate":5e-324}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := arch.ReadJSON(bytes.NewReader(data))
		if err != nil || len(a.Flows) > 64 || len(a.Buses) > 32 {
			return
		}
		a.InsertBridgeBuffers()
		if err := a.Validate(); err != nil {
			t.Fatalf("buffer insertion broke a valid architecture: %v", err)
		}
		alloc := arch.Allocation{}
		for _, id := range a.BufferIDs() {
			alloc[id] = 2
		}
		horizon, lam := 1.0, 0.0
		for _, fl := range a.Flows {
			lam += fl.Rate
		}
		if lam > 0 {
			horizon = 2000 / lam
		}
		s, err := sim.New(sim.Config{Arch: a, Alloc: alloc, Horizon: horizon, Seed: 1})
		if math.IsInf(horizon, 1) || horizon == 0 {
			if err == nil {
				t.Fatalf("horizon %v accepted", horizon)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if g, sum := res.TotalGenerated(), res.TotalDelivered()+res.TotalLost()+res.InFlight; g != sum {
			t.Fatalf("generated %d != delivered %d + lost %d + in flight %d",
				g, res.TotalDelivered(), res.TotalLost(), res.InFlight)
		}
	})
}
