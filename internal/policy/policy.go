// Package policy collects the baseline buffer-sizing policies the paper
// compares the CTMDP methodology (internal/core) against: the constant
// (uniform) baseline, the traffic-proportional division the introduction
// dismisses, and the timeout drop policy of Figure 3's third bar.
package policy

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"socbuf/internal/arch"
	"socbuf/internal/sim"
)

// Sizer produces a buffer allocation for an architecture and budget.
type Sizer interface {
	Name() string
	Allocate(a *arch.Architecture, budget int) (arch.Allocation, error)
}

// Uniform is the paper's "constant buffer sizing policy": equal division.
type Uniform struct{}

// Name implements Sizer.
func (Uniform) Name() string { return "constant" }

// Allocate implements Sizer.
func (Uniform) Allocate(a *arch.Architecture, budget int) (arch.Allocation, error) {
	return arch.UniformAllocation(a, budget)
}

// Proportional divides the budget by traffic ratios — the "simple division
// of the space depending on traffic ratios" that §1 contrasts with the
// CTMDP optimum.
type Proportional struct{}

// Name implements Sizer.
func (Proportional) Name() string { return "proportional" }

// Allocate implements Sizer.
func (Proportional) Allocate(a *arch.Architecture, budget int) (arch.Allocation, error) {
	return arch.ProportionalAllocation(a, budget)
}

// TimeoutThreshold derives the paper's timeout-policy threshold — "the
// average time spent by a request in a buffer" — from a calibration
// simulation via Little's law: total mean occupancy over all buffers divided
// by the delivered throughput. The occupancies are summed in buffer-ID
// order, so the threshold is the same to the last bit on every call.
func TimeoutThreshold(r *sim.Results) (float64, error) {
	if r == nil {
		return 0, errors.New("policy: nil results")
	}
	var occ float64
	for _, id := range slices.Sorted(maps.Keys(r.MeanOccupancy)) {
		occ += r.MeanOccupancy[id]
	}
	window := r.Horizon
	delivered := r.TotalDelivered()
	if delivered == 0 || window <= 0 {
		return 0, fmt.Errorf("policy: cannot derive timeout (delivered=%d, horizon=%v)", delivered, window)
	}
	throughput := float64(delivered) / window
	w := occ / throughput
	if w <= 0 {
		return 0, fmt.Errorf("policy: non-positive residence estimate %v", w)
	}
	return w, nil
}
