package placement

import "math"

// compKey is a bitset over bus indices rendered as an immutable string —
// the DP's open-component signature and the closeJ memo key.
type compKey string

func (p *problem) compBytes() int { return (len(p.buses) + 7) / 8 }

func (p *problem) singletonComp(v int) compKey {
	b := make([]byte, p.compBytes())
	b[v/8] |= 1 << (v % 8)
	return compKey(b)
}

func unionComp(a, b compKey) compKey {
	out := []byte(a)
	for i := 0; i < len(out); i++ {
		out[i] |= b[i]
	}
	return compKey(out)
}

func (k compKey) has(v int) bool { return k[v/8]&(1<<(v%8)) != 0 }

// members lists the component's bus indices, ascending.
func (k compKey) members(n int) []int {
	var out []int
	for v := 0; v < n; v++ {
		if k.has(v) {
			out = append(out, v)
		}
	}
	return out
}

// insertTerm is the screened latency price of inserting type t on bridge i:
// LatencyWeight × type delay × crossing rate — by Little's law, the mean
// packet population held in the bridge's forwarding stage. The conversion
// rounds the product before a caller adds it, so no platform fuses the
// multiply into that addition (make fma-check).
func (p *problem) insertTerm(i int, t int8) float64 {
	return float64(p.lw * p.types[t].Delay * p.brRate[i])
}

// closeJ prices one closed component: the merged bus (service rate = the
// members' minimum) serves the members' traffic-carrying attachment buffers
// plus the directional buffer of every inserted bridge draining into the
// component, each approximated as an M/M/1/K queue at the provisional
// uniform capacity k0 under the standard two-regime service share. The
// score sums weighted loss rate (λ·B) and LatencyWeight-scaled mean queue
// population (by Little's law, the latency term). Membership alone
// determines the client set — every bridge with exactly one endpoint inside
// is inserted in any placement that closes this component — which is what
// makes the DP objective additive and the memo sound (DESIGN.md §7).
//
// The evaluation is allocation-free on the memo-miss path: clients gather
// into a reusable scratch slice, and each queue's loss and mean population
// are computed inline by the same arithmetic queueing.MM1K's Distribution
// performs (identical expressions in identical order), so the memoised
// prices are bit-for-bit those of the array-built stationary distribution.
func (p *problem) closeJ(key compKey) float64 {
	if j, ok := p.fMemo[key]; ok {
		return j
	}
	first := true
	var mu float64
	for m := range p.buses {
		if key.has(m) && (first || p.muBus[m] < mu) {
			mu = p.muBus[m]
			first = false
		}
	}
	// p.clients is in buffer-ID order, the canonical order that keeps the
	// float sums deterministic. The component serves a client on one of its
	// buses, unless the client is a bridge buffer fed from inside: a bridge
	// with both endpoints inside is bypassed and has no buffers.
	clients := p.clScratch[:0]
	for _, cl := range p.clients {
		if key.has(cl.bus) && (cl.from < 0 || !key.has(cl.from)) {
			clients = append(clients, cl)
		}
	}
	var load float64
	for _, cl := range clients {
		load += cl.lambda
	}
	var j float64
	for _, cl := range clients {
		// Two-regime share: residual capacity when underloaded, proportional
		// floor when saturated — the same approximation the analytic sizing
		// backend uses (internal/solver).
		residual := mu - (load - cl.lambda)
		prop := mu * cl.lambda / load
		share := residual
		if prop > share {
			share = prop
		}
		j += p.queuePrice(cl.lambda, share)
	}
	p.clScratch = clients[:0]
	if p.fMemo == nil {
		p.fMemo = map[compKey]float64{}
	}
	p.fMemo[key] = j
	return j
}

// queuePrice is λ·B + lw·E[N] for one M/M/1/K client at capacity k0 —
// MM1K's LossRate and MeanQueue evaluated without materialising the
// stationary distribution. The branch structure, expressions and summation
// order mirror queueing.MM1K.Distribution exactly so the price is
// bit-identical to the array-built evaluation. Each product that feeds a
// sum is rounded by an explicit conversion, as in queueing, so no platform
// fuses it into a multiply-add.
func (p *problem) queuePrice(lambda, share float64) float64 {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) ||
		share <= 0 || math.IsNaN(share) || math.IsInf(share, 0) || p.k0 < 1 {
		// λ and μ are constructed positive; unreachable in practice.
		return lambda
	}
	rho := lambda / share
	var block, meanQ float64
	if math.Abs(rho-1) < 1e-12 {
		// Uniform when ρ = 1.
		pk := 1 / float64(p.k0+1)
		block = pk
		for i := 0; i <= p.k0; i++ {
			meanQ += float64(float64(i) * pk)
		}
	} else {
		norm := (1 - math.Pow(rho, float64(p.k0+1))) / (1 - rho)
		pp := 1.0
		for i := 0; i <= p.k0; i++ {
			pi := pp / norm
			if i == p.k0 {
				block = pi
			}
			meanQ += float64(float64(i) * pi)
			pp *= rho
		}
	}
	return float64(lambda*block) + float64(p.lw*meanQ)
}
