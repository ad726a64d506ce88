package sim

import (
	"math/rand"
	"testing"
)

// arbiterFunc adapts a function to Arbiter, for tests that need a fake.
type arbiterFunc func(clients []ClientView, rng *rand.Rand) int

func (f arbiterFunc) Pick(clients []ClientView, rng *rand.Rand) int { return f(clients, rng) }

func views(lens ...int) []ClientView {
	out := make([]ClientView, len(lens))
	for i, l := range lens {
		out[i] = ClientView{Len: l, Cap: 10}
	}
	return out
}

func TestLongestQueue(t *testing.T) {
	a := LongestQueue{}
	if got := a.Pick(views(0, 3, 2), nil); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
	if got := a.Pick(views(2, 2), nil); got != 0 {
		t.Fatalf("tie pick = %d, want 0 (lowest index)", got)
	}
	if got := a.Pick(views(0, 0), nil); got != -1 {
		t.Fatalf("empty pick = %d, want -1", got)
	}
}
