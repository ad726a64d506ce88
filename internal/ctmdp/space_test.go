package ctmdp

import (
	"reflect"
	"sync"
	"testing"
)

// levelVectors returns every client level vector NewModel admits: one or
// more clients of at least one level each, with at most MaxStates states.
func levelVectors() [][]int {
	var out [][]int
	var walk func(prefix []int, states int)
	walk = func(prefix []int, states int) {
		for l := 1; states*(l+1) <= MaxStates; l++ {
			v := append(append([]int(nil), prefix...), l)
			out = append(out, v)
			walk(v, states*(l+1))
		}
	}
	walk(nil, 1)
	return out
}

// clientsAt returns one client per entry of levels, with rates that differ
// by seed, so models of one vector differ in everything but their levels.
func clientsAt(levels []int, seed float64) []Client {
	cs := make([]Client, len(levels))
	for i, l := range levels {
		cs[i] = Client{BufferID: string(rune('a' + i)), Lambda: seed + float64(i), Levels: l, UnitsPerLevel: seed, LossWeight: 1}
	}
	return cs
}

// referenceSpace enumerates the space of a level vector the plain way,
// one append per variable and per state run, as a reference for
// enumerate.
func referenceSpace(levels []int) *space {
	nc := len(levels)
	sp := &space{strides: make([]int, nc), numStates: 1}
	for c, l := range levels {
		sp.strides[c] = sp.numStates
		sp.numStates *= l + 1
	}
	sp.varsByState = make([][]int, sp.numStates)
	for s := 0; s < sp.numStates; s++ {
		nonEmpty := false
		for c, l := range levels {
			if (s/sp.strides[c])%(l+1) > 0 {
				nonEmpty = true
				sp.vars = append(sp.vars, svar{state: s, action: c})
				sp.varsByState[s] = append(sp.varsByState[s], len(sp.vars)-1)
			}
		}
		if !nonEmpty {
			sp.vars = append(sp.vars, svar{state: s, action: -1})
			sp.varsByState[s] = append(sp.varsByState[s], len(sp.vars)-1)
		}
	}
	sp.grants = make([]float64, nc*(nc+1))
	for c := 0; c < nc; c++ {
		sp.grants[c*nc+c] = 1
	}
	return sp
}

// TestSharedSpaces: for every level vector MaxStates admits, two models of
// the vector share one space, which equals both a fresh enumerate and
// referenceSpace, with every slice capped at its length.
func TestSharedSpaces(t *testing.T) {
	vectors := levelVectors()
	if len(vectors) != 651 {
		t.Fatalf("%d level vectors within MaxStates, want 651", len(vectors))
	}
	for _, levels := range vectors {
		m1, err := NewModel("b1", 1, clientsAt(levels, 1))
		if err != nil {
			t.Fatalf("%v: %v", levels, err)
		}
		m2, err := NewModel("b2", 3, clientsAt(levels, 2))
		if err != nil {
			t.Fatalf("%v: %v", levels, err)
		}
		if m1.space != m2.space {
			t.Fatalf("%v: two models hold different spaces", levels)
		}
		if fresh := enumerate(m1.Clients); !reflect.DeepEqual(m1.space, fresh) {
			t.Fatalf("%v: shared space differs from a fresh enumerate", levels)
		}
		if ref := referenceSpace(levels); !reflect.DeepEqual(m1.space, ref) {
			t.Fatalf("%v: shared space differs from the reference enumeration", levels)
		}
		sp := m1.space
		if cap(sp.strides) != len(sp.strides) || cap(sp.vars) != len(sp.vars) || cap(sp.grants) != len(sp.grants) {
			t.Fatalf("%v: a space slice has spare capacity", levels)
		}
		for s, vs := range sp.varsByState {
			if cap(vs) != len(vs) {
				t.Fatalf("%v: state %d's variables have spare capacity", levels, s)
			}
		}
	}
}

// TestSharedSpaceAppendIsolated: appending to a slice a model hands out —
// a state's variables, or Policy.Action's fallback row — leaves every other
// model of the vector, and the model's own next state, as they were.
func TestSharedSpaceAppendIsolated(t *testing.T) {
	levels := []int{2, 1, 2}
	m1, err := NewModel("b1", 1, clientsAt(levels, 1))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewModel("b2", 2, clientsAt(levels, 2))
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceSpace(levels)
	for s := 0; s < m1.NumStates(); s++ {
		vs := append(m1.StateVars(s), -7)
		vs[0] = -7
	}
	pol := extractPolicy(m1, make([]float64, m1.NumVars())) // nothing visited
	for c := range levels {
		l := make([]int, len(levels))
		l[c] = 1
		row, err := pol.Action(l)
		if err != nil {
			t.Fatal(err)
		}
		_ = append(row, 7)
	}
	if !reflect.DeepEqual(m2.space, ref) || !reflect.DeepEqual(m1.space, ref) {
		t.Fatal("an append to a handed-out slice reached the shared space")
	}
}

// TestSpaceOfConcurrent: models built at once on many goroutines, each
// vector's first use among them, still share one space per vector.
func TestSpaceOfConcurrent(t *testing.T) {
	spaces.Lock()
	spaces.m = nil // every vector's next use is its first
	spaces.Unlock()
	vectors := levelVectors()
	const workers = 4
	got := make([][]*space, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*space, len(vectors))
			for i, levels := range vectors {
				m, err := NewModel("b", 1, clientsAt(levels, float64(w+1)))
				if err != nil {
					t.Error(err)
					return
				}
				got[w][i] = m.space
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range vectors {
			if got[w][i] != got[0][i] {
				t.Fatalf("%v: goroutines %d and 0 got different spaces", vectors[i], w)
			}
		}
	}
}

// TestNewModelSeenVectorAllocs: on a level vector already seen, NewModel
// allocates the Model and nothing else. Before models shared their spaces
// it allocated 214 times for this four-client model (81 states).
func TestNewModelSeenVectorAllocs(t *testing.T) {
	clients := clientsAt([]int{2, 2, 2, 2}, 1)
	if _, err := NewModel("b", 1, clients); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewModel("b", 1, clients); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("NewModel on a seen level vector: %v allocs, want at most 1", allocs)
	}
}
