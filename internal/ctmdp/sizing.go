package ctmdp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// BufferDemand is the per-physical-buffer summary extracted from a solved
// model, the input to Translate.
type BufferDemand struct {
	BufferID  string
	Lambda    float64 // arrival rate
	TailRatio float64 // effective geometric tail ratio in (0,1)
}

const (
	minTail = 0.02
	maxTail = 0.98
)

// Demands expands the clients of solved models into per-physical-buffer
// demands: every member of an aggregate client gets its own arrival rate and
// the aggregate's tail ratio.
func Demands(sols []*ModelSolution) ([]BufferDemand, error) {
	var out []BufferDemand
	seen := map[string]string{} // buffer ID -> bus that claimed it
	for _, ms := range sols {
		for c, cl := range ms.Model.Clients {
			dist := ms.OccupancyDistribution(c)
			// Effective utilisation ρ_eff = λ·P(busy)/throughput: the
			// arrival rate over the service rate the client actually
			// receives while non-empty. For an uncontended M/M/1/K client
			// this recovers ρ = λ/μ exactly; under contention it reflects
			// the grant share the optimal policy gives the client.
			th := ms.Throughput(c)
			pBusy := 1 - dist[0]
			var tail float64
			switch {
			case cl.Lambda <= 0:
				tail = minTail
			case th <= 1e-9:
				tail = maxTail
			default:
				tail = cl.Lambda * pBusy / th
			}
			tail = math.Min(maxTail, math.Max(minTail, tail))

			members := cl.Members
			memberLambda := cl.MemberLambda
			if len(members) == 0 {
				members = []string{cl.BufferID}
				memberLambda = []float64{cl.Lambda}
			}
			for i, id := range members {
				if prev, ok := seen[id]; ok {
					return nil, fmt.Errorf("ctmdp: bus %q: buffer %q already claimed by bus %q", ms.Model.Bus, id, prev)
				}
				seen[id] = ms.Model.Bus
				out = append(out, BufferDemand{
					BufferID:  id,
					Lambda:    memberLambda[i],
					TailRatio: tail,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BufferID < out[j].BufferID })
	return out, nil
}

// Translate converts demands into an integer allocation that spends the
// budget exactly, with a one-unit floor per buffer. It equalises marginal
// loss: every unit of budget goes to the buffer whose loss rate drops most,
// modelling each buffer's occupancy tail as geometric with the ratio
// observed under the optimal policy. Greedy is exact here because the
// marginals λ(1−r)r^K decrease in K.
func Translate(demands []BufferDemand, budget int) (map[string]int, error) {
	if len(demands) == 0 {
		return nil, errors.New("ctmdp: no demands")
	}
	if budget < len(demands) {
		return nil, fmt.Errorf("ctmdp: budget %d below one unit per buffer (%d buffers)", budget, len(demands))
	}
	return translateGreedy(demands, budget), nil
}

// translateGreedy allocates unit by unit to the buffer with the highest
// marginal loss reduction λ(1−r)r^K.
func translateGreedy(demands []BufferDemand, budget int) map[string]int {
	alloc := make(map[string]int, len(demands))
	gain := make([]float64, len(demands))
	for i, d := range demands {
		alloc[d.BufferID] = 1
		gain[i] = d.Lambda * (1 - d.TailRatio) * d.TailRatio // marginal of the 2nd unit
	}
	for left := budget - len(demands); left > 0; left-- {
		best := 0
		for i := 1; i < len(demands); i++ {
			if gain[i] > gain[best] {
				best = i
			}
		}
		alloc[demands[best].BufferID]++
		gain[best] *= demands[best].TailRatio
	}
	return alloc
}
