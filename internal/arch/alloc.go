package arch

import (
	"fmt"
	"sort"
	"strings"
)

// Allocation assigns a capacity (in buffer units; one unit holds one packet)
// to every buffer of an architecture. It is the decision variable of the
// sizing problem.
type Allocation map[string]int

// Total returns the number of units allocated.
func (al Allocation) Total() int {
	var t int
	for _, v := range al {
		t += v
	}
	return t
}

// Clone returns a deep copy.
func (al Allocation) Clone() Allocation {
	out := make(Allocation, len(al))
	for k, v := range al {
		out[k] = v
	}
	return out
}

// Validate checks that the allocation covers exactly the architecture's
// buffers, every capacity is at least 1 (a zero-capacity buffer would lose
// all traffic by construction and is always a configuration error in this
// methodology), and the total does not exceed budget (budget 0 disables the
// check).
func (al Allocation) Validate(a *Architecture, budget int) error {
	want := a.BufferIDs()
	if len(al) != len(want) {
		return fmt.Errorf("arch: allocation covers %d buffers, architecture has %d", len(al), len(want))
	}
	total := 0
	for _, id := range want {
		c, ok := al[id]
		if !ok {
			return fmt.Errorf("arch: allocation missing buffer %q", id)
		}
		if c < 1 {
			return fmt.Errorf("arch: buffer %q allocated %d units (minimum 1)", id, c)
		}
		// Compared against the budget left, so huge counts cannot overflow
		// the running total into range.
		if budget > 0 && c > budget-total {
			return fmt.Errorf("arch: allocation exceeds budget %d at buffer %q", budget, id)
		}
		total += c
	}
	return nil
}

// String renders the allocation sorted by buffer ID.
func (al Allocation) String() string {
	ids := make([]string, 0, len(al))
	for id := range al {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sb strings.Builder
	for i, id := range ids {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%d", id, al[id])
	}
	return sb.String()
}

// UniformAllocation splits budget equally over all buffers (the paper's
// "constant buffer sizing policy", the pre-sizing baseline). Every buffer
// gets at least one unit; the remainder after equal division goes one unit
// at a time to buffers in sorted-ID order, so the result is deterministic and
// exhausts the budget when budget >= #buffers.
func UniformAllocation(a *Architecture, budget int) (Allocation, error) {
	ids := a.BufferIDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: no buffers to allocate", ErrInvalid)
	}
	if budget < len(ids) {
		return nil, fmt.Errorf("arch: budget %d below one unit per buffer (%d buffers)", budget, len(ids))
	}
	base := budget / len(ids)
	rem := budget % len(ids)
	al := make(Allocation, len(ids))
	for i, id := range ids {
		c := base
		if i < rem {
			c++
		}
		al[id] = c
	}
	return al, nil
}

// ProportionalAllocation splits budget in proportion to each buffer's offered
// traffic rate ("simple division of the space depending on traffic ratios",
// which the paper compares against). Every buffer keeps a floor of one unit.
func ProportionalAllocation(a *Architecture, budget int) (Allocation, error) {
	ids := a.BufferIDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: no buffers to allocate", ErrInvalid)
	}
	if budget < len(ids) {
		return nil, fmt.Errorf("arch: budget %d below one unit per buffer (%d buffers)", budget, len(ids))
	}
	rates, err := a.BufferArrivalRates()
	if err != nil {
		return nil, err
	}
	var total float64
	for _, id := range ids {
		total += rates[id]
	}
	al := make(Allocation, len(ids))
	remaining := budget - len(ids) // after the 1-unit floors
	if total <= 0 {
		return UniformAllocation(a, budget)
	}
	// Largest-remainder apportionment of the non-floor units.
	type share struct {
		id   string
		frac float64
	}
	shares := make([]share, 0, len(ids))
	used := 0
	for _, id := range ids {
		exact := float64(remaining) * rates[id] / total
		whole := int(exact)
		al[id] = 1 + whole
		used += whole
		shares = append(shares, share{id: id, frac: exact - float64(whole)})
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].frac != shares[j].frac {
			return shares[i].frac > shares[j].frac
		}
		return shares[i].id < shares[j].id
	})
	for i := 0; i < remaining-used; i++ {
		al[shares[i%len(shares)].id]++
	}
	return al, nil
}
