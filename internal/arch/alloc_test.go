package arch

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestUniformAllocation(t *testing.T) {
	a := TwoBusAMBA()
	a.InsertBridgeBuffers() // 6 buffers
	al, err := UniformAllocation(a, 60)
	if err != nil {
		t.Fatal(err)
	}
	if al.Total() != 60 {
		t.Fatalf("total = %d, want 60", al.Total())
	}
	for id, c := range al {
		if c != 10 {
			t.Fatalf("buffer %s got %d, want 10", id, c)
		}
	}
	if err := al.Validate(a, 60); err != nil {
		t.Fatal(err)
	}
}

func TestUniformAllocationRemainder(t *testing.T) {
	a := TwoBusAMBA()
	a.InsertBridgeBuffers()
	al, err := UniformAllocation(a, 61)
	if err != nil {
		t.Fatal(err)
	}
	if al.Total() != 61 {
		t.Fatalf("total = %d, want 61", al.Total())
	}
}

func TestUniformAllocationTooSmall(t *testing.T) {
	a := TwoBusAMBA()
	a.InsertBridgeBuffers()
	if _, err := UniformAllocation(a, 5); err == nil {
		t.Fatal("budget below buffer count accepted")
	}
}

func TestProportionalAllocation(t *testing.T) {
	a := TwoBusAMBA()
	a.InsertBridgeBuffers()
	al, err := ProportionalAllocation(a, 60)
	if err != nil {
		t.Fatal(err)
	}
	if al.Total() != 60 {
		t.Fatalf("total = %d, want 60", al.Total())
	}
	if err := al.Validate(a, 60); err != nil {
		t.Fatal(err)
	}
	// cpu@ahb1 carries 1.8 of 4.1+2×... ; it must get strictly more than
	// mac@ahb2 which carries 0.5.
	if al["cpu@ahb1"] <= al["mac@ahb2"] {
		t.Fatalf("proportional not skewed: cpu=%d mac=%d", al["cpu@ahb1"], al["mac@ahb2"])
	}
}

func TestAllocationValidate(t *testing.T) {
	a := TwoBusAMBA()
	a.InsertBridgeBuffers()
	al, err := UniformAllocation(a, 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.Validate(a, 59); err == nil {
		t.Fatal("over-budget allocation validated")
	}
	bad := al.Clone()
	delete(bad, "cpu@ahb1")
	if err := bad.Validate(a, 60); err == nil {
		t.Fatal("missing buffer validated")
	}
	bad2 := al.Clone()
	delete(bad2, "cpu@ahb1")
	bad2["nonexistent"] = 10
	if err := bad2.Validate(a, 60); err == nil {
		t.Fatal("wrong buffer set validated")
	}
	bad3 := al.Clone()
	bad3["cpu@ahb1"] = 0
	if err := bad3.Validate(a, 60); err == nil {
		t.Fatal("zero capacity validated")
	}
	// Two counts of MaxInt wrap the total around to within budget; the
	// allocation is still over it.
	huge := al.Clone()
	for id := range huge {
		huge[id] = 1
	}
	huge["cpu@ahb1"], huge["dsp@ahb2"] = math.MaxInt, math.MaxInt
	if err := huge.Validate(a, 60); err == nil {
		t.Fatal("overflowing allocation validated")
	}
}

func TestAllocationCloneIndependent(t *testing.T) {
	al := Allocation{"x": 1}
	c := al.Clone()
	c["x"] = 5
	if al["x"] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestAllocationString(t *testing.T) {
	al := Allocation{"b": 2, "a": 1}
	s := al.String()
	if !strings.HasPrefix(s, "a=1") {
		t.Fatalf("String not sorted: %q", s)
	}
}

// Property: both allocators exhaust the budget exactly, give every buffer at
// least one unit, and are deterministic.
func TestAllocatorsExhaustBudgetProperty(t *testing.T) {
	arch := NetworkProcessor()
	arch.InsertBridgeBuffers()
	n := len(arch.BufferIDs())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := n + rng.Intn(1000)
		u1, err := UniformAllocation(arch, budget)
		if err != nil {
			return false
		}
		p1, err := ProportionalAllocation(arch, budget)
		if err != nil {
			return false
		}
		if u1.Total() != budget || p1.Total() != budget {
			return false
		}
		for _, al := range []Allocation{u1, p1} {
			for _, c := range al {
				if c < 1 {
					return false
				}
			}
		}
		u2, err := UniformAllocation(arch, budget)
		if err != nil {
			return false
		}
		p2, err := ProportionalAllocation(arch, budget)
		if err != nil {
			return false
		}
		for k, v := range u1 {
			if u2[k] != v {
				return false
			}
		}
		for k, v := range p1 {
			if p2[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
