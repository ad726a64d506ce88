// Package policy derives the threshold of the timeout drop policy, the
// third bar of the paper's Figure 3. The other baselines the paper compares
// the CTMDP methodology (internal/core) against are plain allocations: the
// constant (uniform) sizing and the traffic-proportional division the
// introduction dismisses are arch.UniformAllocation and
// arch.ProportionalAllocation.
package policy

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"socbuf/internal/sim"
)

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
