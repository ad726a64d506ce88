package core

import (
	"fmt"
	"sort"

	"socbuf/internal/arch"
	"socbuf/internal/ctmdp"
)

// boundary holds the bridge-coupling scalars each subsystem model sees about
// the rest of the system: per-buffer arrival rates (for bridge buffers these
// are estimates of upstream throughput) and per-buffer full probabilities
// (for the downstream-loss cost of feeding a full bridge buffer). It also
// keeps what the fixed point reads but never changes, the architecture's
// routes and each bus's clients, so a run routes its flows once.
type boundary struct {
	routes   []arch.Route        // every flow's route (arch.Routes)
	clients  map[string][]string // bus -> its client buffers (arch.ClientsOf)
	arrival  map[string]float64  // offered rate into every buffer
	fullProb map[string]float64  // P(buffer full)
}

// initialBoundary routes a once and seeds the fixed point with loss-free
// arrival rates and zero full probabilities.
func initialBoundary(a *arch.Architecture) (*boundary, error) {
	routes, err := a.Routes()
	if err != nil {
		return nil, err
	}
	rates := a.ArrivalRatesOf(routes)
	b := &boundary{routes: routes, clients: a.ClientsOf(routes), arrival: rates, fullProb: map[string]float64{}}
	for id := range rates {
		b.fullProb[id] = 0
	}
	return b, nil
}

// update recomputes the boundary from a joint solution, with damping:
// new = damp·estimate + (1−damp)·old. Arrival rates into bridge buffers are
// re-derived by walking every route and attenuating the carried rate by each
// upstream buffer's acceptance and achieved service share.
func (b *boundary) update(sols []*ctmdp.ModelSolution, damp float64) error {
	// Per-buffer model statistics (aggregates spread to members).
	type stat struct {
		full    float64
		share   float64 // throughput / offered, capped at 1
		offered float64
	}
	stats := map[string]stat{}
	for _, ms := range sols {
		for c, cl := range ms.Model.Clients {
			full := ms.FullProbability(c)
			th := ms.Throughput(c)
			share := 1.0
			if cl.Lambda > 1e-12 {
				share = th / cl.Lambda
				if share > 1 {
					share = 1
				}
			}
			members := cl.Members
			if len(members) == 0 {
				members = []string{cl.BufferID}
			}
			for _, id := range members {
				stats[id] = stat{full: full, share: share, offered: cl.Lambda}
			}
		}
	}

	newArrival := map[string]float64{}
	for id := range b.arrival {
		newArrival[id] = 0
	}
	for _, r := range b.routes {
		carried := r.Flow.Rate
		for _, h := range r.Hops {
			newArrival[h.Buffer] += carried
			st, ok := stats[h.Buffer]
			if !ok {
				return fmt.Errorf("core: buffer %q missing from solution statistics", h.Buffer)
			}
			// What survives this buffer: accepted and eventually served.
			carried *= (1 - st.full) * st.share
		}
	}
	for id := range b.arrival {
		b.arrival[id] = float64(damp*newArrival[id]) + float64((1-damp)*b.arrival[id])
		if st, ok := stats[id]; ok {
			b.fullProb[id] = float64(damp*st.full) + float64((1-damp)*b.fullProb[id])
		}
	}
	return nil
}

// BuildSubsystemModels exposes model construction to external analyses (the
// experiments' split demonstration and sweep planner): one CTMDP per bus, built
// from loss-free boundary estimates. cfg needs only Arch and Budget set;
// other knobs default as in Run.
func BuildSubsystemModels(a *arch.Architecture, alloc arch.Allocation, cfg Config) ([]*ctmdp.Model, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	bnd, err := initialBoundary(a)
	if err != nil {
		return nil, err
	}
	return buildModels(a, alloc, bnd, cfg)
}

// buildModels constructs one CTMDP per bus subsystem from the architecture,
// the current allocation (which fixes UnitsPerLevel) and the current
// boundary: its scalars, routes and bus clients.
func buildModels(a *arch.Architecture, alloc arch.Allocation, bnd *boundary, cfg Config) ([]*ctmdp.Model, error) {
	// Downstream full probability per buffer: rate-weighted average of the
	// next-hop buffers of the traffic leaving it ("" = delivery, p=0).
	downNum := map[string]float64{}
	downDen := map[string]float64{}
	// Loss weight per buffer: rate-weighted over source processors.
	wNum := map[string]float64{}
	for _, r := range bnd.routes {
		w := 1.0
		if lw, ok := cfg.LossWeights[r.Flow.From]; ok {
			w = lw
		}
		for _, h := range r.Hops {
			downDen[h.Buffer] += r.Flow.Rate
			wNum[h.Buffer] += float64(r.Flow.Rate * w)
			if h.NextBuffer != "" {
				downNum[h.Buffer] += float64(r.Flow.Rate * bnd.fullProb[h.NextBuffer])
			}
		}
	}

	busIDs := make([]string, 0, len(a.Buses))
	for _, b := range a.Buses {
		busIDs = append(busIDs, b.ID)
	}
	sort.Strings(busIDs)

	var models []*ctmdp.Model
	for _, busID := range busIDs {
		bufIDs := bnd.clients[busID]
		if len(bufIDs) == 0 {
			continue // bus carries no traffic: nothing to model
		}
		bus, _ := a.BusByID(busID)
		cs := make([]ctmdp.Client, 0, len(bufIDs))
		for _, id := range bufIDs {
			unit := float64(alloc[id]) / float64(levels)
			if unit <= 0 {
				return nil, fmt.Errorf("core: buffer %q has no allocated units", id)
			}
			var down, weight float64
			if den := downDen[id]; den > 0 {
				down = downNum[id] / den
				weight = wNum[id] / den
			} else {
				weight = 1
			}
			if weight <= 0 {
				weight = 1
			}
			cs = append(cs, ctmdp.Client{
				BufferID:           id,
				Lambda:             bnd.arrival[id],
				Levels:             levels,
				UnitsPerLevel:      unit,
				LossWeight:         weight,
				DownstreamFullProb: down,
			})
		}
		cs, err := ctmdp.AggregateClients(cs, maxClients)
		if err != nil {
			// AggregateClients sees only a client list; attach the bus so
			// sweep-level error collection stays attributable.
			return nil, fmt.Errorf("core: bus %q: %w", busID, err)
		}
		m, err := ctmdp.NewModel(busID, bus.ServiceRate, cs)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("core: no subsystem carries traffic")
	}
	return models, nil
}
