package policy

import (
	"math"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/sim"
)

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

// TestTimeoutThresholdDeterministic: occupancies whose float sum depends on
// the order of addition (1e16 + 1 + 1 is 1e16 left to right, 1e16 + 2 with
// the ones first) give the sorted-order sum on every call.
func TestTimeoutThresholdDeterministic(t *testing.T) {
	a, b, c := 1e16, 1.0, 1.0
	r := &sim.Results{
		Horizon:       1,
		MeanOccupancy: map[string]float64{"a": a, "b": b, "c": c},
		Delivered:     map[string]int64{"a": 1},
	}
	want := a + b + c // the sorted order, in float64 arithmetic
	for i := 0; i < 200; i++ {
		got, err := TimeoutThreshold(r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: threshold %v, want the sorted-order sum %v", i, got, want)
		}
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
