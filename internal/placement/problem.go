package placement

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"socbuf/internal/arch"
)

// problem is the static structure one placement run optimises over: the
// original architecture, a rooted spanning forest of its bus graph (the
// DP's recursion skeleton — one tree per bridge-connected component; buses
// joined only by dual-homed processors share no bridge and therefore no
// placement decision), the cut-edge set (the bridges allowed to contract),
// and the placement-independent traffic rates every screening price reuses.
type problem struct {
	a     *arch.Architecture
	types []BufferType

	lw     float64 // latency weight
	budget int     // capacity budget (feasibility floor)
	k0     int     // provisional per-buffer capacity for screening

	buses  []string // sorted bus IDs
	busIdx map[string]int
	muBus  []float64 // per bus index

	bridges   []arch.Bridge // in Architecture order (construction order)
	bridgeIdx map[string]int

	// Rooted spanning forest (one BFS tree per bridge-connected component,
	// each rooted at the component's smallest bus ID, sorted neighbour
	// order). roots lists the component roots in ascending bus order.
	// parent[b] == -1 for a root; parentBr[b] is the bridge index of the
	// tree edge to the parent. nonTree lists the remaining bridge indices
	// (cycle closers — mesh extras), sorted.
	roots    []int
	parent   []int
	parentBr []int
	children [][]int // sorted child bus indices
	nonTree  []int

	// cut[i] reports whether bridge i is a cut edge of the bus multigraph —
	// the only bridges whose removal disconnects traffic, and therefore the
	// only ones the contract allows to bypass (contracting a cycle edge
	// would alias two buses that other bridges still join).
	cut []bool

	// Traffic, measured once on the fully-buffered original architecture
	// (routes are placement-independent up to hop collapsing; see §7).
	clients   []client  // λ>0 attachment and bridge buffers, by buffer ID
	brRate    []float64 // per bridge index: total crossing rate (both directions)
	numAttach int       // total attachment buffers (traffic-free included)

	enumerated int64 // Π per-bridge option counts, saturating

	fMemo map[compKey]float64 // closeJ memo, keyed by component membership

	// clScratch is closeJ's reusable client buffer, so pricing a component
	// does not allocate per call. closeJ's callers are serial; the DP's
	// lanes, which price concurrently, each keep their own (dpRun.clients).
	clScratch []client
}

// client is one screened M/M/1/K queue: a buffer and its offered rate.
type client struct {
	bus    int // serving bus index (attachment) or destination bus index (bridge)
	from   int // a bridge buffer's source bus index; -1 for an attachment buffer
	lambda float64
}

// newProblem builds the placement problem for a. The architecture must
// validate and have at least one bridge worth deciding is NOT required —
// a bridgeless architecture yields one empty placement.
func newProblem(a *arch.Architecture, cfg Config) (*problem, error) {
	if a == nil {
		return nil, fmt.Errorf("placement: nil architecture")
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	if err := ValidateCatalogue(cfg.Types); err != nil {
		return nil, err
	}
	p := &problem{
		a:         a,
		types:     cfg.Types,
		lw:        cfg.LatencyWeight,
		budget:    cfg.Budget,
		busIdx:    map[string]int{},
		bridgeIdx: map[string]int{},
	}
	for _, b := range a.Buses {
		p.buses = append(p.buses, b.ID)
	}
	sort.Strings(p.buses)
	p.muBus = make([]float64, len(p.buses))
	for i, id := range p.buses {
		p.busIdx[id] = i
		b, _ := a.BusByID(id)
		p.muBus[i] = b.ServiceRate
	}
	p.bridges = append(p.bridges, a.Bridges...)
	for i, br := range p.bridges {
		p.bridgeIdx[br.ID] = i
	}
	for _, pr := range a.Processors {
		p.numAttach += len(pr.Buses)
	}
	if err := p.buildTree(); err != nil {
		return nil, err
	}
	p.markCutEdges()
	if err := p.measureTraffic(); err != nil {
		return nil, err
	}
	// Provisional screening capacity: the uniform per-buffer share under
	// full insertion. Constant across placements so the DP objective stays
	// additive (DESIGN.md §7).
	full := p.numAttach + 2*len(p.bridges)
	p.k0 = 1
	if full > 0 && p.budget/full > 1 {
		p.k0 = p.budget / full
	}
	p.enumerated = 1
	for i := range p.bridges {
		n := int64(len(p.types))
		if p.cut[i] {
			n++
		}
		if p.enumerated > math.MaxInt64/n {
			p.enumerated = math.MaxInt64
		} else {
			p.enumerated *= n
		}
	}
	return p, nil
}

// buildTree roots one BFS spanning tree per bridge-connected component,
// each at the component's smallest bus ID with sorted neighbour order, so
// the DP's recursion skeleton is deterministic. Architectures whose buses
// connect only through dual-homed processors (the paper's Figure 1) simply
// yield several trees with no cross-tree decisions.
func (p *problem) buildTree() error {
	n := len(p.buses)
	type edge struct{ to, br int }
	adj := make([][]edge, n)
	for i, br := range p.bridges {
		a, okA := p.busIdx[br.BusA]
		b, okB := p.busIdx[br.BusB]
		if !okA || !okB {
			return fmt.Errorf("placement: bridge %q references unknown bus", br.ID)
		}
		adj[a] = append(adj[a], edge{b, i})
		adj[b] = append(adj[b], edge{a, i})
	}
	for i := range adj {
		sort.Slice(adj[i], func(x, y int) bool {
			if p.buses[adj[i][x].to] != p.buses[adj[i][y].to] {
				return p.buses[adj[i][x].to] < p.buses[adj[i][y].to]
			}
			return p.bridges[adj[i][x].br].ID < p.bridges[adj[i][y].br].ID
		})
	}
	p.parent = make([]int, n)
	p.parentBr = make([]int, n)
	p.children = make([][]int, n)
	for i := range p.parent {
		p.parent[i], p.parentBr[i] = -1, -1
	}
	inTree := make([]bool, len(p.bridges))
	visited := make([]bool, n)
	// Buses are sorted, so scanning ascending roots each component at its
	// smallest bus ID.
	for r := 0; r < n; r++ {
		if visited[r] {
			continue
		}
		p.roots = append(p.roots, r)
		visited[r] = true
		queue := []int{r}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range adj[v] {
				if visited[e.to] {
					continue
				}
				visited[e.to] = true
				p.parent[e.to] = v
				p.parentBr[e.to] = e.br
				inTree[e.br] = true
				p.children[v] = append(p.children[v], e.to)
				queue = append(queue, e.to)
			}
		}
	}
	for i := range p.bridges {
		if !inTree[i] {
			p.nonTree = append(p.nonTree, i)
		}
	}
	return nil
}

// markCutEdges runs the standard DFS lowlink bridge-finding on the bus
// multigraph. Parallel bridges between the same bus pair are never cut
// edges, so entry edges are skipped by bridge index, not by vertex.
func (p *problem) markCutEdges() {
	n := len(p.buses)
	type edge struct{ to, br int }
	adj := make([][]edge, n)
	for i, br := range p.bridges {
		a, b := p.busIdx[br.BusA], p.busIdx[br.BusB]
		adj[a] = append(adj[a], edge{b, i})
		adj[b] = append(adj[b], edge{a, i})
	}
	p.cut = make([]bool, len(p.bridges))
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	timer := 0
	var dfs func(v, viaBr int)
	dfs = func(v, viaBr int) {
		disc[v], low[v] = timer, timer
		timer++
		for _, e := range adj[v] {
			if e.br == viaBr {
				continue
			}
			if disc[e.to] == -1 {
				dfs(e.to, e.br)
				if low[e.to] < low[v] {
					low[v] = low[e.to]
				}
				if low[e.to] > disc[v] {
					p.cut[e.br] = true
				}
			} else if disc[e.to] < low[v] {
				low[v] = disc[e.to]
			}
		}
	}
	for v := range disc {
		if disc[v] == -1 {
			dfs(v, -1)
		}
	}
}

// measureTraffic records the placement-independent rates: each attachment
// buffer's offered rate and each bridge's directional crossing rates, taken
// from the fully-buffered original architecture's raw (no-loss) route walk.
// The buffers carrying traffic are kept in one list sorted by their unique
// IDs, so the clients of any component, filtered from it, come in ID order.
func (p *problem) measureTraffic() error {
	buffered := p.a.Clone()
	buffered.InsertBridgeBuffers()
	rates, err := buffered.BufferArrivalRates()
	if err != nil {
		return err
	}
	ids := make([]string, 0, p.numAttach+2*len(p.bridges))
	p.clients = make([]client, 0, cap(ids))
	for _, pr := range p.a.Processors {
		for _, bus := range pr.Buses {
			id := arch.AttachmentBufferID(pr.ID, bus)
			if lam := rates[id]; lam > 0 {
				ids = append(ids, id)
				p.clients = append(p.clients, client{bus: p.busIdx[bus], from: -1, lambda: lam})
			}
		}
	}
	p.brRate = make([]float64, len(p.bridges))
	for i, br := range p.bridges {
		a, b := p.busIdx[br.BusA], p.busIdx[br.BusB]
		for _, dir := range [2][2]int{{a, b}, {b, a}} {
			from, to := dir[0], dir[1]
			id := arch.BridgeBufferID(br.ID, p.buses[from])
			lam := rates[id]
			p.brRate[i] += lam
			if lam > 0 {
				ids = append(ids, id)
				p.clients = append(p.clients, client{bus: to, from: from, lambda: lam})
			}
		}
	}
	sort.Sort(byID{ids, p.clients})
	return nil
}

// byID sorts clients by their buffer IDs, held alongside.
type byID struct {
	ids     []string
	clients []client
}

func (s byID) Len() int           { return len(s.ids) }
func (s byID) Less(x, y int) bool { return s.ids[x] < s.ids[y] }
func (s byID) Swap(x, y int) {
	s.ids[x], s.ids[y] = s.ids[y], s.ids[x]
	s.clients[x], s.clients[y] = s.clients[y], s.clients[x]
}

// Option encoding in decision vectors: one int8 per bridge index.
const (
	optUndecided int8 = -2 // DP-internal: bridge not yet reached
	optBypass    int8 = -1 // contract the bridge (cut edges only)
	// 0..len(types)-1 insert that catalogue type.
)

// buffersOf returns the contracted architecture's buffer count for a
// complete decision vector: every attachment buffer plus two per inserted
// bridge.
func (p *problem) buffersOf(dec []int8) int {
	inserted := 0
	for _, d := range dec {
		if d >= 0 {
			inserted++
		}
	}
	return p.numAttach + 2*inserted
}

// costOf sums the inserted types' costs.
func (p *problem) costOf(dec []int8) float64 {
	var cost float64
	for _, d := range dec {
		if d >= 0 {
			cost += p.types[d].Cost
		}
	}
	return cost
}

// apply builds the contracted architecture for a complete decision vector:
// bypassed bridges merge their endpoints into one bus (ID = smallest
// member, rate = minimum member rate — the un-decoupled arbiter serialises
// everything, so the slowest member bounds the merged domain), inserted
// bridges survive with endpoints remapped. The result is a valid
// architecture the whole sizing stack evaluates unchanged.
func (p *problem) apply(dec []int8) (*arch.Architecture, error) {
	n := len(p.buses)
	uf := make([]int, n)
	for i := range uf {
		uf[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	for i, d := range dec {
		if d == optBypass {
			a := find(p.busIdx[p.bridges[i].BusA])
			b := find(p.busIdx[p.bridges[i].BusB])
			if a != b {
				// Union toward the smaller bus index so the representative
				// is the lexicographically smallest member.
				if b < a {
					a, b = b, a
				}
				uf[b] = a
			}
		}
	}
	rate := make([]float64, n)
	copy(rate, p.muBus)
	for i := 0; i < n; i++ {
		r := find(i)
		if p.muBus[i] < rate[r] {
			rate[r] = p.muBus[i]
		}
	}
	out := &arch.Architecture{Name: p.a.Name + "+" + p.signature(dec)}
	for i := 0; i < n; i++ {
		if find(i) == i {
			out.Buses = append(out.Buses, arch.Bus{ID: p.buses[i], ServiceRate: rate[i]})
		}
	}
	rep := func(bus string) string { return p.buses[find(p.busIdx[bus])] }
	for _, pr := range p.a.Processors {
		np := arch.Processor{ID: pr.ID}
		seen := map[string]bool{}
		for _, bus := range pr.Buses {
			r := rep(bus)
			if !seen[r] {
				seen[r] = true
				np.Buses = append(np.Buses, r)
			}
		}
		out.Processors = append(out.Processors, np)
	}
	for i, br := range p.bridges {
		if dec[i] == optBypass {
			continue
		}
		a, b := rep(br.BusA), rep(br.BusB)
		if a == b {
			return nil, fmt.Errorf("placement: bridge %q became a self-loop under %s", br.ID, p.signature(dec))
		}
		out.Bridges = append(out.Bridges, arch.Bridge{ID: br.ID, BusA: a, BusB: b})
	}
	out.Flows = append(out.Flows, p.a.Flows...)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("placement: contracted architecture invalid: %w", err)
	}
	return out, nil
}

// signature renders a decision vector compactly and deterministically
// ("br01-02=std,br03-04=~"; "~" marks bypass), in bridge-ID order. It names
// contracted architectures and failed evaluations. No sizing, simulation or
// cache key reads an architecture's Name, so placements that differ only in
// buffer types evaluate alike (bypassKey).
func (p *problem) signature(dec []int8) string {
	idx := make([]int, len(p.bridges))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return p.bridges[idx[x]].ID < p.bridges[idx[y]].ID })
	var sb strings.Builder
	for k, i := range idx {
		if k > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.bridges[i].ID)
		sb.WriteByte('=')
		if dec[i] == optBypass {
			sb.WriteByte('~')
		} else {
			sb.WriteString(p.types[dec[i]].Name)
		}
	}
	return sb.String()
}
