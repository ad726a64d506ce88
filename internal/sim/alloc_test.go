package sim

import (
	"testing"

	"socbuf/internal/arch"
)

// TestEventSetZeroAlloc pins the scheduler primitives at zero allocations
// per event: the set is sized once in New, and schedule, take and settle
// only rewrite its slots and winner tree.
func TestEventSetZeroAlloc(t *testing.T) {
	s := &Simulator{events: newEventSet(24)}
	at := 1.0
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 24; i++ {
			at = at*1.13 + 0.01
			if at > 100 {
				at -= 100
			}
			s.schedule(i, at)
		}
		for k := 0; k < 24; k++ {
			i, _ := s.events.take()
			s.events.settle(i)
		}
	}); allocs != 0 {
		t.Fatalf("event set schedule/take/settle allocates %.0f objects per cycle, want 0", allocs)
	}
}

// TestDispatchZeroAlloc pins the per-event work of the simulator's hot loop:
// once every queue has reached its high-water mark, a step (take the
// earliest event, handle its arrival or departure, dispatch, reschedule)
// must not allocate (the arbitration views are per-bus scratch, not
// per-call slices).
func TestDispatchZeroAlloc(t *testing.T) {
	a := arch.TwoBusAMBA()
	a.InsertBridgeBuffers()
	alloc, err := arch.UniformAllocation(a, 24)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Arch: a, Alloc: alloc, Horizon: 1e9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Prime the flows as Run does, then warm every buffer and bus by
	// simulating a few thousand events.
	for i := range s.routes {
		gap, err := s.srcs[i].Next(s.rng)
		if err != nil {
			t.Fatal(err)
		}
		s.schedule(i, gap)
	}
	step := func() {
		if more, err := s.step(); err != nil || !more {
			t.Fatalf("step = %v, %v before the horizon", more, err)
		}
	}
	for i := 0; i < 5000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("event step allocates %.0f objects, want 0", allocs)
	}
}
