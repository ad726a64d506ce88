package ctmdp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Translator selects how solved occupation measures become physical buffer
// capacities. GreedyTail is the default; the others exist for the ablation
// called out in DESIGN.md §4.
type Translator int

// Translation methods.
const (
	// TranslateGreedyTail equalises marginal loss: every unit of budget goes
	// to the buffer whose loss rate drops most, modelling each buffer's
	// occupancy tail as geometric with the ratio observed under the optimal
	// policy. Greedy is exact here because the marginals λ(1−r)r^K decrease
	// in K.
	TranslateGreedyTail Translator = iota
	// TranslateQuantile sizes buffers proportionally to their (1−ε)
	// occupancy quantile under the optimal policy.
	TranslateQuantile
	// TranslateMeanOccupancy sizes buffers proportionally to their mean
	// occupancy — the naive translation the ablation compares against.
	TranslateMeanOccupancy
)

// BufferDemand is the per-physical-buffer summary extracted from a solved
// model, the input to Translate.
type BufferDemand struct {
	BufferID  string
	Lambda    float64 // arrival rate
	TailRatio float64 // effective geometric tail ratio in (0,1)
	Quantile  float64 // (1−ε) occupancy quantile, physical units
	MeanUnits float64 // mean occupancy, physical units
}

const (
	minTail = 0.02
	maxTail = 0.98
)

// Demands expands the clients of solved models into per-physical-buffer
// demands, splitting aggregate clients across their members in proportion to
// member rates. eps is the quantile tail mass (e.g. 0.05).
func Demands(sols []*ModelSolution, eps float64) ([]BufferDemand, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("ctmdp: quantile eps %v outside (0,1)", eps)
	}
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

			// Quantile in levels → physical units.
			var cum float64
			q := cl.Levels
			for k, p := range dist {
				cum += p
				if cum >= 1-eps {
					q = k
					break
				}
			}
			quantUnits := float64(q) * cl.UnitsPerLevel
			meanUnits := ms.MeanLevel(c) * cl.UnitsPerLevel

			members := cl.Members
			memberLambda := cl.MemberLambda
			if len(members) == 0 {
				members = []string{cl.BufferID}
				memberLambda = []float64{cl.Lambda}
			}
			var lamSum float64
			for _, l := range memberLambda {
				lamSum += l
			}
			for i, id := range members {
				if prev, ok := seen[id]; ok {
					return nil, fmt.Errorf("ctmdp: bus %q: buffer %q already claimed by bus %q", ms.Model.Bus, id, prev)
				}
				seen[id] = ms.Model.Bus
				share := 1.0 / float64(len(members))
				if lamSum > 0 {
					share = memberLambda[i] / lamSum
				}
				out = append(out, BufferDemand{
					BufferID:  id,
					Lambda:    memberLambda[i],
					TailRatio: tail,
					Quantile:  quantUnits * share,
					MeanUnits: meanUnits * share,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BufferID < out[j].BufferID })
	return out, nil
}

// Translate converts demands into an integer allocation that spends the
// budget exactly, with a one-unit floor per buffer.
func Translate(demands []BufferDemand, budget int, how Translator) (map[string]int, error) {
	if len(demands) == 0 {
		return nil, errors.New("ctmdp: no demands")
	}
	if budget < len(demands) {
		return nil, fmt.Errorf("ctmdp: budget %d below one unit per buffer (%d buffers)", budget, len(demands))
	}
	switch how {
	case TranslateGreedyTail:
		return translateGreedy(demands, budget), nil
	case TranslateQuantile:
		scores := make([]float64, len(demands))
		for i, d := range demands {
			scores[i] = d.Quantile
		}
		return apportion(demands, scores, budget), nil
	case TranslateMeanOccupancy:
		scores := make([]float64, len(demands))
		for i, d := range demands {
			scores[i] = d.MeanUnits
		}
		return apportion(demands, scores, budget), nil
	default:
		return nil, fmt.Errorf("ctmdp: unknown translator %d", how)
	}
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

// apportion distributes budget with a one-unit floor, remaining units split
// by largest remainder over the scores.
func apportion(demands []BufferDemand, scores []float64, budget int) map[string]int {
	alloc := make(map[string]int, len(demands))
	var total float64
	for _, s := range scores {
		total += s
	}
	remaining := budget - len(demands)
	if total <= 0 {
		// Degenerate: spread evenly.
		for i, d := range demands {
			alloc[d.BufferID] = 1 + remaining/len(demands)
			if i < remaining%len(demands) {
				alloc[d.BufferID]++
			}
		}
		return alloc
	}
	type frac struct {
		idx int
		f   float64
	}
	fracs := make([]frac, len(demands))
	used := 0
	for i, d := range demands {
		exact := float64(remaining) * scores[i] / total
		whole := int(exact)
		alloc[d.BufferID] = 1 + whole
		used += whole
		fracs[i] = frac{idx: i, f: exact - float64(whole)}
	}
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].f != fracs[j].f {
			return fracs[i].f > fracs[j].f
		}
		return demands[fracs[i].idx].BufferID < demands[fracs[j].idx].BufferID
	})
	for i := 0; i < remaining-used; i++ {
		alloc[demands[fracs[i%len(fracs)].idx].BufferID]++
	}
	return alloc
}
