package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"socbuf/internal/arch"
	"socbuf/internal/graph"
)

// Topology kinds.
const (
	KindPreset = "preset"
	KindChain  = "chain"
	KindStar   = "star"
	KindTree   = "tree"
	KindMesh   = "mesh"
)

// MaxGeneratedBuses bounds parametric topologies; beyond this the CTMDP
// pipeline cost dwarfs any evaluation value.
const MaxGeneratedBuses = 256

// Topology names either one of the hand-written preset architectures or a
// seeded parametric generator. Generated topologies are bridge hierarchies
// over a configurable number of buses:
//
//   - chain: buses in a line, one bridge between neighbours (the network
//     processor's pipeline shape);
//   - star:  a hub bus bridged to every leaf bus;
//   - tree:  a binary tree of buses;
//   - mesh:  a near-square grid with bridges between horizontal and
//     vertical neighbours (cycles exercise the shortest-path router).
//
// Every generated architecture splits into one linear subsystem per bus
// after buffer insertion — Build verifies this, so a Topology that builds
// is by construction solvable by the paper's methodology.
type Topology struct {
	// Kind selects the generator: "preset", "chain", "star", "tree", "mesh".
	Kind string
	// Preset names the built-in architecture when Kind == "preset":
	// "figure1", "twobus" or "netproc".
	Preset string
	// Buses is the bus count of a generated topology (≥ 2).
	Buses int
	// FanOut is the number of processors attached to each bus (≥ 1).
	FanOut int
	// Utilisation is the per-bus utilisation target in (0,1): after flows
	// are generated, each bus's service rate is set to (offered load on the
	// bus)/Utilisation, so losses come from finite buffers rather than raw
	// overload. Default 0.8.
	Utilisation float64
	// Skew spreads flow rates: each flow draws its rate from [1, Skew) with
	// a seeded log-uniform draw. 1 (the default) gives equal rates; larger
	// values reproduce the skewed profiles of the paper's §3 testbed.
	Skew float64
	// Seed drives the generator's randomness (destination choice, rate
	// skew). Equal specs build identical architectures.
	Seed int64
}

// Build constructs the architecture (bridges un-buffered, exactly like the
// presets: callers run the methodology's InsertBridgeBuffers themselves) and
// verifies that buffer insertion would split it into linear subsystems.
func (t Topology) Build() (*arch.Architecture, error) {
	var a *arch.Architecture
	switch t.Kind {
	case KindPreset:
		switch t.Preset {
		case "figure1":
			a = arch.Figure1()
		case "twobus":
			a = arch.TwoBusAMBA()
		case "netproc":
			a = arch.NetworkProcessor()
		default:
			return nil, fmt.Errorf("scenario: unknown preset %q", t.Preset)
		}
	case KindChain, KindStar, KindTree, KindMesh:
		if err := t.validateGenerated(); err != nil {
			return nil, err
		}
		var err error
		a, err = t.generate()
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("scenario: unknown topology kind %q", t.Kind)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: topology %s builds an invalid architecture: %w", t, err)
	}
	if err := VerifyLinearSplit(a); err != nil {
		return nil, err
	}
	return a, nil
}

// String renders a compact description for error messages and report rows.
func (t Topology) String() string {
	if t.Kind == KindPreset {
		return KindPreset + ":" + t.Preset
	}
	return fmt.Sprintf("%s(buses=%d fanOut=%d util=%.2g skew=%.2g seed=%d)",
		t.Kind, t.Buses, t.FanOut, t.Utilisation, t.Skew, t.Seed)
}

// VerifyLinearSplit checks that the architecture, once its bridges are
// buffered, splits into linear subsystems covering every bus — the paper's
// precondition for the per-bus CTMDPs. The check runs on a clone so the
// caller's bridge-buffering state is untouched.
func VerifyLinearSplit(a *arch.Architecture) error {
	c := a.Clone()
	c.InsertBridgeBuffers()
	subs, err := graph.Split(c)
	if err != nil {
		return fmt.Errorf("scenario: architecture %q does not split: %w", a.Name, err)
	}
	if err := graph.VerifyPartition(c, subs); err != nil {
		return fmt.Errorf("scenario: architecture %q: %w", a.Name, err)
	}
	for _, s := range subs {
		if !s.Linear() {
			return fmt.Errorf("scenario: architecture %q keeps nonlinear subsystem %v after buffer insertion",
				a.Name, s.Buses)
		}
	}
	return nil
}

// withGeneratedDefaults fills the optional generator knobs.
func (t Topology) withGeneratedDefaults() Topology {
	if t.Utilisation == 0 {
		t.Utilisation = 0.8
	}
	if t.Skew == 0 {
		t.Skew = 1
	}
	return t
}

func (t Topology) validateGenerated() error {
	d := t.withGeneratedDefaults()
	if d.Buses < 2 {
		return fmt.Errorf("scenario: %s topology needs at least 2 buses, got %d", t.Kind, t.Buses)
	}
	if d.Buses > MaxGeneratedBuses {
		return fmt.Errorf("scenario: %d buses exceeds the %d-bus generator cap", t.Buses, MaxGeneratedBuses)
	}
	if d.FanOut < 1 {
		return fmt.Errorf("scenario: fan-out %d < 1", t.FanOut)
	}
	if d.Utilisation <= 0 || d.Utilisation >= 1 {
		return fmt.Errorf("scenario: utilisation %v outside (0,1)", t.Utilisation)
	}
	if d.Skew < 1 {
		return fmt.Errorf("scenario: skew %v < 1", t.Skew)
	}
	return nil
}

// generate builds the parametric architecture. Deterministic: everything
// random flows from rand.NewSource(t.Seed).
func (t Topology) generate() (*arch.Architecture, error) {
	t = t.withGeneratedDefaults()
	rng := rand.New(rand.NewSource(t.Seed))
	a := &arch.Architecture{
		Name: fmt.Sprintf("%s-%dx%d-s%d", t.Kind, t.Buses, t.FanOut, t.Seed),
	}
	busID := func(i int) string { return fmt.Sprintf("bus%02d", i) }
	for i := 0; i < t.Buses; i++ {
		a.Buses = append(a.Buses, arch.Bus{ID: busID(i), ServiceRate: 1})
	}
	link := func(i, j int) {
		a.Bridges = append(a.Bridges, arch.Bridge{
			ID:   fmt.Sprintf("br%02d-%02d", i, j),
			BusA: busID(i),
			BusB: busID(j),
		})
	}
	switch t.Kind {
	case KindChain:
		for i := 0; i+1 < t.Buses; i++ {
			link(i, i+1)
		}
	case KindStar:
		for i := 1; i < t.Buses; i++ {
			link(0, i)
		}
	case KindTree:
		for i := 1; i < t.Buses; i++ {
			link((i-1)/2, i)
		}
	case KindMesh:
		rows := int(math.Sqrt(float64(t.Buses)))
		cols := (t.Buses + rows - 1) / rows
		at := func(r, c int) int { return r*cols + c }
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				i := at(r, c)
				if i >= t.Buses {
					continue
				}
				if c+1 < cols && at(r, c+1) < t.Buses {
					link(i, at(r, c+1))
				}
				if r+1 < rows && at(r+1, c) < t.Buses {
					link(i, at(r+1, c))
				}
			}
		}
	}

	for i := 0; i < t.Buses; i++ {
		for p := 0; p < t.FanOut; p++ {
			a.Processors = append(a.Processors, arch.Processor{
				ID:    fmt.Sprintf("p%02d_%d", i, p),
				Buses: []string{busID(i)},
			})
		}
	}

	// Flows: every processor sends to one random other processor (flows are
	// unique per From→To pair — the simulator's FlowKey relies on that), with
	// a log-uniform rate in [1, Skew).
	n := len(a.Processors)
	used := map[[2]string]bool{}
	for i, p := range a.Processors {
		start := rng.Intn(n)
		for off := 0; off < n; off++ {
			j := (start + off) % n
			if j == i {
				continue
			}
			key := [2]string{p.ID, a.Processors[j].ID}
			if used[key] {
				continue
			}
			used[key] = true
			rate := math.Pow(t.Skew, rng.Float64())
			a.Flows = append(a.Flows, arch.Flow{From: p.ID, To: a.Processors[j].ID, Rate: rate})
			break
		}
	}

	// Utilisation target: size each bus's service rate to its offered load.
	// A hop's packets occupy its bus for one service, so the offered load on
	// a bus is the summed rate of every route leg crossing it.
	routes, err := a.Routes()
	if err != nil {
		return nil, fmt.Errorf("scenario: routing generated %s topology: %w", t.Kind, err)
	}
	load := map[string]float64{}
	for _, r := range routes {
		for _, h := range r.Hops {
			load[h.Bus] += r.Flow.Rate
		}
	}
	for i := range a.Buses {
		if l := load[a.Buses[i].ID]; l > 0 {
			a.Buses[i].ServiceRate = l / t.Utilisation
		}
	}
	return a, nil
}
