package sim

import (
	"math/rand"
	"testing"
)

// TestEventSetOrderOracle drives the event set through random
// schedule/take/settle sequences and checks every take against a reference
// that sorts the pending events by (at, seq). Times come from a coarse grid,
// so exact ties are common; some slots are scheduled at +Inf or never; some
// sets have no flow slots at all (a single bus slot); and each simulated
// handler may reschedule the taken slot, other pending slots and empty ones
// before settle, as the simulator's handlers do.
func TestEventSetOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	takes := 0
	for trial := 0; trial < 400; trial++ {
		flows, buses := rng.Intn(7), 1+rng.Intn(6)
		if trial%10 == 0 {
			flows = 0
		}
		n := flows + buses
		s := &Simulator{events: newEventSet(n)}
		ref := make([]slot, n) // pending events; +Inf = none
		for i := range ref {
			ref[i].at = inf
		}
		now := 0.0
		draw := func() float64 {
			if rng.Intn(8) == 0 {
				return inf
			}
			return now + float64(rng.Intn(4))/2
		}
		schedule := func(i int, at float64) {
			s.schedule(i, at)
			ref[i] = slot{at: at, seq: s.seq - 1}
		}
		for i := 0; i < flows; i++ {
			schedule(i, draw())
		}
		for round := 0; round < 300; round++ {
			want := -1
			for i, e := range ref {
				if e.at == inf {
					continue
				}
				if want == -1 || e.at < ref[want].at || e.at == ref[want].at && e.seq < ref[want].seq {
					want = i
				}
			}
			i, at := s.events.take()
			if want == -1 {
				if at != inf {
					t.Fatalf("trial %d round %d: took slot %d at %v from a set with nothing pending", trial, round, i, at)
				}
				// Nothing pending: the take leaves the set as it was.
				s.events.settle(i)
				schedule(rng.Intn(n), draw())
				continue
			}
			takes++
			if i != want || at != ref[want].at {
				t.Fatalf("trial %d round %d: took slot %d at %v, want slot %d at %v (seq %d)",
					trial, round, i, at, want, ref[want].at, ref[want].seq)
			}
			ref[i].at = inf
			now = at
			if rng.Intn(2) == 0 {
				schedule(i, draw())
			}
			for k := rng.Intn(3); k > 0; k-- {
				schedule(rng.Intn(n), draw())
			}
			s.events.settle(i)
		}
	}
	if takes < 10000 {
		t.Fatalf("only %d takes matched; the generator starves the set", takes)
	}
}
