package policy

import (
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/sim"
)

func TestSizersProduceValidAllocations(t *testing.T) {
	a := arch.TwoBusAMBA()
	a.InsertBridgeBuffers()
	sizers := []Sizer{Uniform{}, Proportional{}}
	for _, s := range sizers {
		al, err := s.Allocate(a, 24)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if al.Total() != 24 {
			t.Fatalf("%s: total %d", s.Name(), al.Total())
		}
		if err := al.Validate(a, 24); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestSizerNames(t *testing.T) {
	if (Uniform{}).Name() != "constant" || (Proportional{}).Name() != "proportional" {
		t.Fatal("sizer names changed; experiment labels depend on them")
	}
}

func TestTimeoutThreshold(t *testing.T) {
	a := arch.TwoBusAMBA()
	a.InsertBridgeBuffers()
	al, err := arch.UniformAllocation(a, 24)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{Arch: a, Alloc: al, Horizon: 2000, WarmUp: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	w, err := TimeoutThreshold(r)
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 || w > 100 {
		t.Fatalf("implausible residence threshold %v", w)
	}
}

func TestTimeoutThresholdErrors(t *testing.T) {
	if _, err := TimeoutThreshold(nil); err == nil {
		t.Fatal("nil results accepted")
	}
	empty := &sim.Results{Horizon: 10, MeanOccupancy: map[string]float64{}, Delivered: map[string]int64{}}
	if _, err := TimeoutThreshold(empty); err == nil {
		t.Fatal("zero-delivery results accepted")
	}
}
