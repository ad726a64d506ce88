package sim_test

import (
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/scenario"
	"socbuf/internal/sim"
)

// uniform buffers a and sizes it uniformly at budget units, simulated to
// horizon on seed 1.
func uniform(b *testing.B, a *arch.Architecture, budget int, horizon float64) sim.Config {
	b.Helper()
	a.InsertBridgeBuffers()
	alloc, err := arch.UniformAllocation(a, budget)
	if err != nil {
		b.Fatal(err)
	}
	return sim.Config{Arch: a, Alloc: alloc, Horizon: horizon, Seed: 1}
}

// benchSims runs every configuration once per op. Each op repeats the same
// seeded runs, so the generated-packet count it reports is the same on
// every machine and on every commit that keeps the simulator's output.
func benchSims(b *testing.B, cfgs ...sim.Config) {
	b.Helper()
	var pkts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkts = 0
		for _, cfg := range cfgs {
			s, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			r, err := s.Run()
			if err != nil {
				b.Fatal(err)
			}
			pkts += r.TotalGenerated()
		}
	}
	b.ReportMetric(float64(pkts), "pkts/op")
}

func BenchmarkSimTwoBus(b *testing.B)  { benchSims(b, uniform(b, arch.TwoBusAMBA(), 24, 2000)) }
func BenchmarkSimFigure1(b *testing.B) { benchSims(b, uniform(b, arch.Figure1(), 40, 2000)) }
func BenchmarkSimNetproc(b *testing.B) { benchSims(b, uniform(b, arch.NetworkProcessor(), 160, 2000)) }

func BenchmarkSimNetprocTimeout(b *testing.B) {
	cfg := uniform(b, arch.NetworkProcessor(), 160, 2000)
	cfg.Timeout = 1.1
	benchSims(b, cfg)
}

// BenchmarkSimScreen simulates the topologies socbufbench's screen workload
// generates: a chain, a star, a tree and a mesh of each size from 4 to 8
// buses, fan-out 2, skew 4, at 3 units per buffer, horizon 2000.
func BenchmarkSimScreen(b *testing.B) {
	var cfgs []sim.Config
	for buses := 4; buses <= 8; buses++ {
		for k, kind := range []string{scenario.KindChain, scenario.KindStar, scenario.KindTree, scenario.KindMesh} {
			t := scenario.Topology{Kind: kind, Buses: buses, FanOut: 2, Skew: 4, Seed: int64(4*buses + k)}
			a, err := t.Build()
			if err != nil {
				b.Fatal(err)
			}
			a.InsertBridgeBuffers()
			cfgs = append(cfgs, uniform(b, a, 3*len(a.BufferIDs()), 2000))
		}
	}
	benchSims(b, cfgs...)
}
