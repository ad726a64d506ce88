package arch

import (
	"fmt"
	"sort"
)

// Hop is one leg of a packet's journey: the packet waits in Buffer until the
// arbiter of Bus grants it, then occupies Bus for one exponential service.
type Hop struct {
	Buffer string // buffer the packet waits in before this leg
	Bus    string // bus that carries this leg
	// NextBuffer is where the packet lands after this leg: a bridge buffer
	// ID, or "" when this leg delivers to the destination processor.
	NextBuffer string
}

// Route is the fixed path of one flow: source egress buffer, zero or more
// bridge buffers, destination.
type Route struct {
	Flow Flow
	Hops []Hop
}

// Routes computes the route of every flow. Routing is shortest-path over the
// bus graph (edges = bridges, regardless of Buffered state — buffering
// changes the analysis, not the path), with the source processor free to use
// whichever of its attachments gives the shortest path to whichever of the
// destination's attachment buses. Ties break toward lexicographically
// smaller bus IDs so routing is deterministic.
func (a *Architecture) Routes() ([]Route, error) {
	g := a.busGraph()
	routes := make([]Route, 0, len(a.Flows))
	for i, f := range a.Flows {
		src, ok := a.ProcessorByID(f.From)
		if !ok {
			return nil, fmt.Errorf("%w: flow %d: unknown source %q", ErrInvalid, i, f.From)
		}
		dst, ok := a.ProcessorByID(f.To)
		if !ok {
			return nil, fmt.Errorf("%w: flow %d: unknown destination %q", ErrInvalid, i, f.To)
		}
		best, err := g.bestBusPath(src, dst)
		if err != nil {
			return nil, fmt.Errorf("%w: flow %d (%q→%q): %v", ErrInvalid, i, f.From, f.To, err)
		}
		hops := make([]Hop, 0, len(best.buses))
		buffer := AttachmentBufferID(f.From, best.buses[0])
		for h := 0; h < len(best.buses); h++ {
			next := ""
			if h < len(best.buses)-1 {
				next = BridgeBufferID(best.bridges[h], best.buses[h])
			}
			hops = append(hops, Hop{Buffer: buffer, Bus: best.buses[h], NextBuffer: next})
			buffer = next
		}
		routes = append(routes, Route{Flow: f, Hops: hops})
	}
	return routes, nil
}

type busEdge struct {
	to     int32  // neighbour bus index
	bridge string // bridge crossed
}

// busGraph is the index-addressed bus topology Routes searches: bus IDs
// resolved to dense indices, adjacency in deterministic (ID, bridge) order,
// and reusable BFS scratch (stamped visited marks and parent pointers) so a
// whole Routes pass allocates per flow only the route it returns.
type busGraph struct {
	ids []string
	idx map[string]int

	adj [][]busEdge

	// BFS scratch, reused across searches. seen and dstSeen use stamps
	// instead of clears: a slot holds the property in the current search iff
	// its entry equals the current stamp.
	stamp        int32
	seen         []int32 // visited mark, stamped per start
	dstSeen      []int32 // destination mark, stamped per flow
	parent       []int32 // discovering bus index, -1 for the start
	parentBridge []string
	queue        []int32
}

func (a *Architecture) busGraph() *busGraph {
	n := len(a.Buses)
	g := &busGraph{
		ids:          make([]string, 0, n),
		idx:          make(map[string]int, n),
		adj:          make([][]busEdge, n),
		seen:         make([]int32, n),
		dstSeen:      make([]int32, n),
		parent:       make([]int32, n),
		parentBridge: make([]string, n),
		queue:        make([]int32, 0, n),
	}
	for _, b := range a.Buses {
		g.ids = append(g.ids, b.ID)
	}
	sort.Strings(g.ids)
	for i, id := range g.ids {
		g.idx[id] = i
	}
	for _, br := range a.Bridges {
		ai, bi := g.idx[br.BusA], g.idx[br.BusB]
		g.adj[ai] = append(g.adj[ai], busEdge{to: int32(bi), bridge: br.ID})
		g.adj[bi] = append(g.adj[bi], busEdge{to: int32(ai), bridge: br.ID})
	}
	// Deterministic neighbour order: by neighbour ID, then bridge ID.
	for _, es := range g.adj {
		sort.Slice(es, func(i, j int) bool {
			if es[i].to != es[j].to {
				return g.ids[es[i].to] < g.ids[es[j].to]
			}
			return es[i].bridge < es[j].bridge
		})
	}
	return g
}

type busPath struct {
	buses   []string // buses traversed, in order
	bridges []string // bridges crossed; len = len(buses)-1
}

// bestBusPath finds the shortest bridge path from any of src's buses to any
// of dst's buses via BFS with parent pointers (paths materialise once, for
// the winning terminal only — never per frontier node).
func (g *busGraph) bestBusPath(src, dst *Processor) (*busPath, error) {
	g.stamp++
	dstStamp := g.stamp
	for _, b := range dst.Buses {
		g.dstSeen[g.idx[b]] = dstStamp
	}
	// Deterministic start order.
	starts := append([]string(nil), src.Buses...)
	sort.Strings(starts)

	var best *busPath
	bestLen := -1
	for _, start := range starts {
		g.stamp++
		stamp := g.stamp
		si := int32(g.idx[start])
		g.seen[si] = stamp
		g.parent[si] = -1
		g.queue = append(g.queue[:0], si)
		found := int32(-1)
		if g.dstSeen[si] == dstStamp {
			found = si
		}
		for qi := 0; found < 0 && qi < len(g.queue); qi++ {
			cur := g.queue[qi]
			for _, e := range g.adj[cur] {
				if g.seen[e.to] == stamp {
					continue
				}
				g.seen[e.to] = stamp
				g.parent[e.to] = cur
				g.parentBridge[e.to] = e.bridge
				g.queue = append(g.queue, e.to)
				if g.dstSeen[e.to] == dstStamp {
					found = e.to
					break // BFS: first hit from this start is its shortest
				}
			}
		}
		if found < 0 {
			continue
		}
		depth := 1
		for v := found; g.parent[v] >= 0; v = g.parent[v] {
			depth++
		}
		if best != nil && depth >= bestLen {
			continue
		}
		p := &busPath{buses: make([]string, depth), bridges: make([]string, depth-1)}
		for v, h := found, depth-1; ; v, h = g.parent[v], h-1 {
			p.buses[h] = g.ids[v]
			if g.parent[v] < 0 {
				break
			}
			p.bridges[h-1] = g.parentBridge[v]
		}
		best, bestLen = p, depth
	}
	if best == nil {
		return nil, fmt.Errorf("no bus path from %q to %q", src.ID, dst.ID)
	}
	return best, nil
}

// BusClients returns, for every bus, the sorted buffer IDs the bus arbiter
// serves: egress buffers of attached processors that actually carry traffic
// on that bus, and bridge buffers that drain onto the bus. This is the
// client set of the per-bus CTMDP.
func (a *Architecture) BusClients() (map[string][]string, error) {
	routes, err := a.Routes()
	if err != nil {
		return nil, err
	}
	return a.ClientsOf(routes), nil
}

// ClientsOf is BusClients over routes a caller already holds from Routes,
// so it does not route every flow again.
func (a *Architecture) ClientsOf(routes []Route) map[string][]string {
	set := make(map[string]map[string]bool, len(a.Buses))
	for _, b := range a.Buses {
		set[b.ID] = map[string]bool{}
	}
	for _, r := range routes {
		for _, h := range r.Hops {
			set[h.Bus][h.Buffer] = true
		}
	}
	out := make(map[string][]string, len(set))
	for bus, m := range set {
		ids := make([]string, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		out[bus] = ids
	}
	return out
}

// BufferArrivalRates returns the total offered rate into every buffer,
// assuming no upstream loss (the "raw" rates used to seed the boundary
// fixed-point iteration and the proportional sizing baseline).
func (a *Architecture) BufferArrivalRates() (map[string]float64, error) {
	routes, err := a.Routes()
	if err != nil {
		return nil, err
	}
	return a.ArrivalRatesOf(routes), nil
}

// ArrivalRatesOf is BufferArrivalRates over routes a caller already holds
// from Routes, so it does not route every flow again.
func (a *Architecture) ArrivalRatesOf(routes []Route) map[string]float64 {
	rates := map[string]float64{}
	for _, id := range a.BufferIDs() {
		rates[id] = 0
	}
	for _, r := range routes {
		for _, h := range r.Hops {
			// A buffer on an unbuffered bridge is not in BufferIDs; count it
			// anyway so callers can detect the inconsistency, except "".
			rates[h.Buffer] += r.Flow.Rate
		}
	}
	return rates
}
