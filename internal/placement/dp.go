package placement

import (
	"context"
	"math"
	"slices"
)

// part is one partial placement's dominance coordinates: the accumulated
// (cost, screened J) of everything already closed, and how many bridges it
// contracted, clamped at dpRun.bmin. bypassed is the third dominance
// coordinate — partials that contracted more bridges need fewer buffers, so
// a cheaper-and-better but less-contracted partial must not evict one that
// alone can satisfy a tight capacity budget (the budget-infeasible-subtree
// invariant, DESIGN.md §7).
type part struct {
	cost     float64
	j        float64
	bypassed int
}

// parts is a set of partial placements with their decision vectors stored
// back to back, one int8 per bridge each, in storage sized to the set.
type parts struct {
	pts  []part
	decs []int8
}

func (s *parts) dec(i, nb int) []int8 { return s.decs[i*nb : (i+1)*nb] }

// group is one open component of a subtree frontier: the component and the
// run of partials [lo, hi) that leave it open.
type group struct {
	comp   compKey
	lo, hi int
}

// frontier is a subtree's pruned partial placements, grouped by the open
// component that contains the subtree root.
type frontier struct {
	parts
	groups []group
}

// scored is one complete placement on (or competing for) the frontier.
type scored struct {
	dec      []int8
	cost     float64
	j        float64
	bypassed int
}

// dpStats counts the DP's work: the first three are the result's
// transparency counters.
type dpStats struct {
	partials   int // candidates covered across all merges, built or not
	pruned     int // of those, discarded as dominated
	infeasible int // complete placements dropped by the capacity floor
	resorted   int // groups sorted because a run lost comparator order
}

// cand is one candidate of a merge: its dominance coordinates and
// back-pointers to the left and right partials it combines (r < 0: no right
// operand). Its decision vector — the left partial's, overlaid with the
// right partial's and with opt at the merge's edge, all at disjoint
// positions — is built only to break an exact tie or for a survivor.
type cand struct {
	cost     float64
	j        float64
	bypassed int32
	l, r     int32
	opt      int8
}

// stair is one step of a probe staircase: the least J among probes costing
// at most cost.
type stair struct{ cost, j float64 }

// column is one way a child group attaches to a parent group: the child
// partials [lo, hi) closed under catalogue type opt, or bypassed (opt =
// optBypass, bump 1). A candidate adds the shifts in the order cost + type
// cost and J + closing price + insertion term, the association of pricing it
// inline, so every sum keeps its bits; a bypass adds zeros, which leave a
// non-negative sum as it is.
type column struct {
	lo, hi        int
	cost, cj, ins float64
	bump          int
	opt           int8
}

// span is one run of a group's candidates: the next candidate to merge and
// the run's end.
type span struct{ at, end int }

const (
	// checkEvery is how many candidates a merge builds between context
	// checks.
	checkEvery = 4096
	// Groups of at least filterMin candidates are filtered against the
	// survivors of a 1-in-probeStride sample before the full sort. Neither
	// value is sensitive: thresholds of 256–4096 and strides of 8–32 moved
	// BenchmarkPlacementDP's workload cases by less than its run-to-run
	// noise.
	filterMin   = 1024
	probeStride = 16
	// Groups of at most mergeMax runs, each in comparator order, are merged
	// into the sweep instead of sorted; more runs are filtered and sorted.
	// At 2 a star's closed groups (one run per default type) sort, and
	// star14 kept the sort's time; from 4 to 32 BenchmarkPlacementDP's
	// cases moved by less than its run-to-run noise, and at 128 tree7 read
	// a third slower (one run per value).
	mergeMax = 8
)

// dpRun is one DP pass: the operands of the merge in progress and the
// buffers every merge reuses.
type dpRun struct {
	p   *problem
	ctx context.Context
	nb  int // bridges: the length of every decision vector
	// bmin is the fewest bypasses with which a complete placement passes the
	// capacity floor; bypass counts are stored clamped at it (clamp).
	bmin int
	// sortAll sorts every group instead of merging ordered runs: the
	// reference the merge is tested against.
	sortAll bool
	st      dpStats

	// The merge in progress: candidates combine left.pts[l] with
	// right.pts[r] and decide edge (-1: no edge).
	left, right *parts
	edge        int

	cols   []column  // one merge's columns: closed, then one bypassed
	cands  []cand    // one group's candidates
	ends   []int     // the end of each run of cands
	heads  []span    // mergeSweep's runs
	surv   []cand    // one merge's survivors
	spare  []cand    // filter's sample, or mergeSweep's survivors
	stairs []stair   // filter's staircases, one per bypass floor
	floors []int     // start of each bypass floor's staircase in stairs
	best   []float64 // best[b]: least J among a group's survivors with bypassed ≥ b
	tick   int       // candidates built since the last context check
}

// newRun starts a DP pass over p that stops once ctx is done.
func (p *problem) newRun(ctx context.Context) *dpRun {
	// A complete placement passes the capacity floor iff it bypasses at
	// least nb − ⌊(budget − attachments)/2⌋ bridges. When the attachments
	// alone overflow the budget nothing passes, and the coordinate stays
	// unclamped.
	nb, bmin := len(p.bridges), len(p.bridges)
	if room := p.budget - p.numAttach; room >= 0 {
		bmin = max(0, nb-room/2)
	}
	return &dpRun{p: p, ctx: ctx, nb: nb, bmin: bmin, edge: -1, best: make([]float64, bmin+1)}
}

// clamp stores bypass count b as min(b, bmin). Bypasses beyond bmin buy no
// feasibility, so counts above it compare as equal. Since min(min(a, m) +
// min(b, m), m) = min(a + b, m), clamped counts compose through merges and
// folds, and the floor reads a clamped count with the same verdict.
func (d *dpRun) clamp(b int) int32 { return int32(min(b, d.bmin)) }

// decLess orders decision vectors lexicographically — the deterministic
// tie-break whenever two placements tie on every dominance coordinate.
func decLess(a, b []int8) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// decAt is position i of c's decision vector.
func (d *dpRun) decAt(c *cand, i int) int8 {
	if x := d.left.decs[int(c.l)*d.nb+i]; x != optUndecided {
		return x
	}
	if i == d.edge {
		return c.opt
	}
	if c.r >= 0 {
		return d.right.decs[int(c.r)*d.nb+i]
	}
	return optUndecided
}

// compare orders candidates by (cost asc, J asc, bypassed desc, decision
// vector lex): every potential dominator precedes its victims, and exact
// ties on all three coordinates fall to the smallest decision vector.
func (d *dpRun) compare(a, b cand) int {
	switch {
	case a.cost != b.cost:
		if a.cost < b.cost {
			return -1
		}
		return 1
	case a.j != b.j:
		if a.j < b.j {
			return -1
		}
		return 1
	case a.bypassed != b.bypassed:
		if a.bypassed > b.bypassed {
			return -1
		}
		return 1
	}
	for i := 0; i < d.nb; i++ {
		if x, y := d.decAt(&a, i), d.decAt(&b, i); x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// less reports whether a precedes b in comparator order, deciding by cost
// alone when the costs differ.
func (d *dpRun) less(a, b *cand) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return d.compare(*a, *b) < 0
}

// spent counts n candidates built and checks the context every checkEvery.
func (d *dpRun) spent(n int) error {
	if d.tick += n; d.tick < checkEvery {
		return nil
	}
	d.tick = 0
	return d.ctx.Err()
}

// scratch returns the candidate buffer, emptied, with room for n.
func (d *dpRun) scratch(n int) []cand {
	if cap(d.cands) < n {
		d.cands = make([]cand, 0, max(n, 2*cap(d.cands)))
	}
	return d.cands[:0]
}

// prune removes the dominated candidates of one group and returns the
// survivors in comparator order. cands is laid out as runs that ends closes
// (nil: no known order). At most mergeMax runs, each in comparator order,
// merge straight into the sweep; any other group is filtered when large,
// sorted and swept in place. Every candidate covered counts: those the
// filter drops are pruned as surely as those the sweep drops.
func (d *dpRun) prune(cands []cand, ends []int) []cand {
	var kept []cand
	switch {
	case d.sortAll || len(ends) == 0 || len(ends) > mergeMax:
		kept = d.sortSweep(cands)
	case d.ordered(cands, ends):
		kept = d.mergeSweep(cands, ends)
	default:
		d.st.resorted++
		kept = d.sortSweep(cands)
	}
	d.st.pruned += len(cands) - len(kept)
	return kept
}

// ordered reports whether every run of cands is in comparator order. A run
// shifts sorted partials by constants, which keeps their order unless
// rounding ties two shifted costs or Js that differed, or the clamp ties two
// bypass counts: the comparator then falls to a key the shift did not order.
func (d *dpRun) ordered(cands []cand, ends []int) bool {
	start := 0
	for _, end := range ends {
		for i := start + 1; i < end; i++ {
			if d.less(&cands[i], &cands[i-1]) {
				return false
			}
		}
		start = end
	}
	return true
}

// sortSweep filters a large group, sorts it and sweeps it in place.
func (d *dpRun) sortSweep(cands []cand) []cand {
	if len(cands) >= filterMin {
		cands = d.filter(cands)
	}
	slices.SortFunc(cands, d.compare)
	return d.sweep(cands)
}

// mergeSweep merges runs already in comparator order, taking the least head
// each step, into the sweep: the sweep of the sorted group, without the
// sort. The survivors of more than one run land in d.spare.
func (d *dpRun) mergeSweep(cands []cand, ends []int) []cand {
	if len(ends) == 1 {
		return d.sweep(cands)
	}
	d.resetBest()
	heads, start := d.heads[:0], 0
	for _, end := range ends {
		if start < end {
			heads = append(heads, span{start, end})
		}
		start = end
	}
	d.heads = heads
	kept := d.spare[:0]
	for len(heads) > 0 {
		m := 0
		for i := 1; i < len(heads); i++ {
			if d.less(&cands[heads[i].at], &cands[heads[m].at]) {
				m = i
			}
		}
		if c := cands[heads[m].at]; d.admit(c) {
			kept = append(kept, c)
		}
		// Candidates are distinct, so the least head is unique and the
		// heads' order does not matter.
		if heads[m].at++; heads[m].at == heads[m].end {
			heads[m] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
	d.spare = kept
	return kept
}

// resetBest empties the sweep's table of least Js.
func (d *dpRun) resetBest() {
	for b := range d.best {
		d.best[b] = math.Inf(1)
	}
}

// admit reports whether no earlier survivor dominates c — cost, J and
// bypass count no worse, exact ties falling to the smaller decision vector
// — and records c as a survivor if none does. Candidates arrive in
// comparator order, so every earlier survivor costs at most c, and the test
// reduces to "the least J among survivors bypassing at least as many
// bridges is ≤ c's", which d.best answers in O(1).
func (d *dpRun) admit(c cand) bool {
	if d.best[c.bypassed] <= c.j {
		return false
	}
	for b := int(c.bypassed); b >= 0 && c.j < d.best[b]; b-- {
		d.best[b] = c.j
	}
	return true
}

// sweep keeps, in place, every candidate of a sorted group that admit
// admits.
func (d *dpRun) sweep(cands []cand) []cand {
	d.resetBest()
	kept := cands[:0]
	for _, c := range cands {
		if d.admit(c) {
			kept = append(kept, c)
		}
	}
	return kept
}

// filter drops, in place, every candidate that a probe strictly dominates —
// a probe costing no more and bypassing no fewer bridges, with a smaller J.
// The probes are the sweep's survivors of every probeStride-th candidate, so
// they are candidates of the same group: each candidate dropped precedes its
// dominator in sweep order and would be pruned anyway, and every candidate
// it dominates is dominated by the probe too. The survivors are therefore
// exactly the sweep's over the whole group.
func (d *dpRun) filter(cands []cand) []cand {
	probe := d.spare[:0]
	for i := 0; i < len(cands); i += probeStride {
		probe = append(probe, cands[i])
	}
	d.spare = probe
	slices.SortFunc(probe, d.compare)
	probe = d.sweep(probe)
	// One staircase per bypass floor b: the probes bypassing at least b
	// bridges, in cost order, where each sets a new least J.
	d.stairs, d.floors = d.stairs[:0], d.floors[:0]
	for b := 0; b <= d.bmin; b++ {
		d.floors = append(d.floors, len(d.stairs))
		least := math.Inf(1)
		for _, q := range probe {
			if int(q.bypassed) >= b && q.j < least {
				least = q.j
				d.stairs = append(d.stairs, stair{q.cost, q.j})
			}
		}
	}
	d.floors = append(d.floors, len(d.stairs))
	kept := cands[:0]
	for _, c := range cands {
		// The last step costing at most c holds the least J of every probe
		// that costs at most c and bypasses at least as many bridges.
		steps := d.stairs[d.floors[c.bypassed]:d.floors[c.bypassed+1]]
		lo, hi := 0, len(steps)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); steps[m].cost <= c.cost {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo > 0 && steps[lo-1].j < c.j {
			continue
		}
		kept = append(kept, c)
	}
	return kept
}

// keep appends one group's survivors to the merge's, doubling the buffer
// when it fills.
func (d *dpRun) keep(kept []cand) {
	if need := len(d.surv) + len(kept); need > cap(d.surv) {
		d.surv = append(make([]cand, 0, max(need, 2*cap(d.surv))), d.surv...)
	}
	d.surv = append(d.surv, kept...)
}

// build materialises survivors — coordinates and decision vectors — in
// storage sized to them.
func (d *dpRun) build(surv []cand) parts {
	out := parts{pts: make([]part, len(surv)), decs: make([]int8, len(surv)*d.nb)}
	for k := range surv {
		c := &surv[k]
		out.pts[k] = part{cost: c.cost, j: c.j, bypassed: int(c.bypassed)}
		dec := out.dec(k, d.nb)
		copy(dec, d.left.dec(int(c.l), d.nb))
		if c.r >= 0 {
			for i, x := range d.right.dec(int(c.r), d.nb) {
				if x != optUndecided {
					dec[i] = x
				}
			}
		}
		if d.edge >= 0 {
			dec[d.edge] = c.opt
		}
	}
	return out
}

// skyline keeps the 2D (cost, J) Pareto frontier of complete placements,
// cost-ascending; exact (cost, J) ties keep the lexicographically smallest
// decision vector, and the rest count as pruned. It is the 3D prune with the
// bypass coordinate erased — once the capacity floor is applied, bypassing
// more no longer helps — so each point's bypass count is recounted from its
// decisions.
func (d *dpRun) skyline(cands []cand) []scored {
	for k := range cands {
		cands[k].bypassed = 0
	}
	kept := d.build(d.prune(cands, nil))
	out := make([]scored, len(kept.pts))
	for k, s := range kept.pts {
		dec := kept.dec(k, d.nb)
		out[k] = scored{dec: dec, cost: s.cost, j: s.j}
		for _, x := range dec {
			if x == optBypass {
				out[k].bypassed++
			}
		}
	}
	return out
}

// undecided is the one-partial set that starts every fold and subtree:
// nothing decided, nothing spent.
func (d *dpRun) undecided() parts {
	decs := make([]int8, d.nb)
	for i := range decs {
		decs[i] = optUndecided
	}
	return parts{pts: []part{{}}, decs: decs}
}

// runDP executes the Van Ginneken-style bottom-up pass and returns the
// feasible complete frontier, cost-ascending. It checks ctx between merges
// and every checkEvery candidates within one, and returns ctx.Err() once
// the context is done.
func (p *problem) runDP(ctx context.Context) ([]scored, dpStats, error) {
	return p.newRun(ctx).run()
}

// run is runDP's pass.
func (d *dpRun) run() ([]scored, dpStats, error) {
	p := d.p
	complete := d.undecided()
	// Prune between Minkowski folds but never after the last one, so the
	// capacity filter below still sees — and counts — every complete
	// placement the final fold produced.
	totalFolds := len(p.roots) + len(p.nonTree)
	folded := 0
	fold := func(cands []cand) []scored {
		d.st.partials += len(cands)
		if folded++; folded < totalFolds {
			complete = d.build(d.prune(cands, nil))
			return nil
		}
		// Capacity-floor feasibility: the sizing budget must give every
		// buffer of the contracted architecture its one-unit floor. The
		// clamped bypass count gives the unclamped count's verdict.
		feasible := cands[:0]
		for _, c := range cands {
			if p.numAttach+2*(d.nb-int(c.bypassed)) <= p.budget {
				feasible = append(feasible, c)
			} else {
				d.st.infeasible++
			}
		}
		return d.skyline(feasible)
	}
	var front []scored
	// Solve each spanning-forest tree independently and close its root's
	// open component; fold the per-component frontiers by Minkowski sum
	// (decision vectors are disjoint, cost and J add, and bypassed adds
	// under the clamp).
	for _, root := range p.roots {
		f, err := d.solveSubtree(root)
		if err != nil {
			return nil, d.st, err
		}
		closed := f.parts
		for _, g := range f.groups {
			cj := p.closeJ(g.comp)
			for k := g.lo; k < g.hi; k++ {
				closed.pts[k].j += cj
			}
		}
		d.left, d.right, d.edge = &complete, &closed, -1
		cands := d.scratch(len(complete.pts) * len(closed.pts))
		for l, a := range complete.pts {
			for r, b := range closed.pts {
				cands = append(cands, cand{cost: a.cost + b.cost, j: a.j + b.j,
					bypassed: d.clamp(a.bypassed + b.bypassed), l: int32(l), r: int32(r)})
			}
			if err := d.spent(len(closed.pts)); err != nil {
				return nil, d.st, err
			}
		}
		front = fold(cands)
	}
	// Fold the non-tree bridges (cycle closers — always inserted, type
	// still free): each is an independent (cost, delay) mini-frontier,
	// composed by Minkowski sum with pruning after each fold.
	for _, nb := range p.nonTree {
		d.left, d.right, d.edge = &complete, nil, nb
		cands := d.scratch(len(complete.pts) * len(p.types))
		for l, s := range complete.pts {
			for t := range p.types {
				cands = append(cands, cand{cost: s.cost + p.types[t].Cost, j: s.j + p.insertTerm(nb, int8(t)),
					bypassed: int32(s.bypassed), l: int32(l), r: -1, opt: int8(t)})
			}
			if err := d.spent(len(p.types)); err != nil {
				return nil, d.st, err
			}
		}
		front = fold(cands)
	}
	return front, d.st, nil
}

// solveSubtree returns the pruned partial frontier of bus v's subtree with
// v's component still open. Children merge one at a time in deterministic
// order; each merge decides the connecting tree edge (every catalogue type,
// plus bypass when the edge is a cut edge).
func (d *dpRun) solveSubtree(v int) (*frontier, error) {
	f := &frontier{parts: d.undecided(), groups: []group{{comp: d.p.singletonComp(v), lo: 0, hi: 1}}}
	for _, c := range d.p.children[v] {
		cf, err := d.solveSubtree(c)
		if err != nil {
			return nil, err
		}
		if f, err = d.merge(f, cf, d.p.parentBr[c]); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// merge combines v's frontier f with child frontier cf across tree edge
// edge, one open-component group at a time. Each output group comes from
// one parent group g and either the whole child frontier closed under each
// catalogue type (the open component stays g's) or, on a cut edge, one
// bypassed child group cg (the open component becomes g ∪ cg). Child
// components contain the child and parent components do not, so the output
// components are pairwise distinct and each group prunes on its own.
func (d *dpRun) merge(f, cf *frontier, edge int) (*frontier, error) {
	p := d.p
	if err := d.ctx.Err(); err != nil {
		return nil, err
	}
	cut := p.cut[edge]
	options := len(p.types)
	if cut {
		options++
	}
	d.st.partials += len(f.pts) * len(cf.pts) * options
	d.left, d.right, d.edge = &f.parts, &cf.parts, edge
	// Hoisted: each child group's closing price and each type's insertion
	// term, one closed column per child group and type, and a last column
	// for the bypassed child group in hand.
	cols := d.cols[:0]
	for _, cg := range cf.groups {
		cj := p.closeJ(cg.comp)
		for t, ty := range p.types {
			cols = append(cols, column{lo: cg.lo, hi: cg.hi, cost: ty.Cost, cj: cj, ins: p.insertTerm(edge, int8(t)), opt: int8(t)})
		}
	}
	cols = append(cols, column{})
	d.cols = cols
	closed, bypass := cols[:len(cols)-1], cols[len(cols)-1:]
	d.surv = d.surv[:0]
	n := len(f.groups)
	if cut {
		n *= 1 + len(cf.groups)
	}
	groups := make([]group, 0, n)
	add := func(g group, comp compKey, with []column) error {
		if err := d.gather(g, with); err != nil {
			return err
		}
		lo := len(d.surv)
		d.keep(d.prune(d.cands, d.ends))
		groups = append(groups, group{comp: comp, lo: lo, hi: len(d.surv)})
		return nil
	}
	for _, g := range f.groups {
		if err := add(g, g.comp, closed); err != nil {
			return nil, err
		}
		if !cut {
			continue
		}
		for _, cg := range cf.groups {
			bypass[0] = column{lo: cg.lo, hi: cg.hi, bump: 1, opt: optBypass}
			if err := add(g, unionComp(g.comp, cg.comp), bypass); err != nil {
				return nil, err
			}
		}
	}
	return &frontier{parts: d.build(d.surv), groups: groups}, nil
}

// gather builds into d.cands the candidates pairing parent group g's
// partials with the child partials of cols, as runs that d.ends closes. A
// run fixes one operand and varies the other over its sorted partials, so
// it is in comparator order unless rounding or the clamp ties it (prune
// checks). Fixing a child partial gives one run per child partial of each
// column, fixing a parent partial one run per parent partial and column;
// gather takes whichever gives fewer runs.
func (d *dpRun) gather(g group, cols []column) error {
	nl, nr := g.hi-g.lo, 0
	for _, c := range cols {
		nr += c.hi - c.lo
	}
	cands, ends := d.scratch(nl*nr), d.ends[:0]
	if nr <= nl*len(cols) {
		for k := range cols {
			c := &cols[k]
			for r := c.lo; r < c.hi; r++ {
				for l := g.lo; l < g.hi; l++ {
					cands = append(cands, d.pair(l, r, c))
				}
				ends = append(ends, len(cands))
				if err := d.spent(nl); err != nil {
					return err
				}
			}
		}
	} else {
		for l := g.lo; l < g.hi; l++ {
			for k := range cols {
				c := &cols[k]
				for r := c.lo; r < c.hi; r++ {
					cands = append(cands, d.pair(l, r, c))
				}
				ends = append(ends, len(cands))
			}
			if err := d.spent(nr); err != nil {
				return err
			}
		}
	}
	d.cands, d.ends = cands, ends
	return nil
}

// pair is the candidate combining parent partial l with child partial r
// under column c.
func (d *dpRun) pair(l, r int, c *column) cand {
	sv, sc := &d.left.pts[l], &d.right.pts[r]
	return cand{
		cost:     sv.cost + sc.cost + c.cost,
		j:        sv.j + sc.j + c.cj + c.ins,
		bypassed: d.clamp(sv.bypassed + sc.bypassed + c.bump),
		l:        int32(l), r: int32(r), opt: c.opt,
	}
}

// bruteForce enumerates every complete placement (the same option space as
// the DP: every type per bridge, bypass only on cut edges), prices each
// with the identical closed-form objective, applies the same feasibility
// floor, and returns the 2D skyline. It exists as the DP's correctness
// oracle and as the exhaustive screening path of the pricing benchmark.
func (p *problem) bruteForce() (front []scored, priced, infeasible int) {
	d := p.newRun(context.Background())
	var all parts
	var cands []cand
	dec := make([]int8, len(p.bridges))
	var recurse func(i int)
	recurse = func(i int) {
		if i == len(p.bridges) {
			priced++
			if p.buffersOf(dec) > p.budget {
				infeasible++
				return
			}
			cands = append(cands, cand{cost: p.costOf(dec), j: p.totalJ(dec), l: int32(len(all.pts)), r: -1})
			all.pts = append(all.pts, part{})
			all.decs = append(all.decs, dec...)
			return
		}
		if p.cut[i] {
			dec[i] = optBypass
			recurse(i + 1)
		}
		for t := range p.types {
			dec[i] = int8(t)
			recurse(i + 1)
		}
	}
	recurse(0)
	d.left = &all
	return d.skyline(cands), priced, infeasible
}

// totalJ prices one complete placement from scratch: union-find the
// bypassed bridges into components, sum closeJ over the components and the
// insertion term over the inserted bridges — the same summands the DP
// accumulates incrementally.
func (p *problem) totalJ(dec []int8) float64 {
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
			a, b := find(p.busIdx[p.bridges[i].BusA]), find(p.busIdx[p.bridges[i].BusB])
			if a != b {
				if b < a {
					a, b = b, a
				}
				uf[b] = a
			}
		}
	}
	comps := map[int]compKey{}
	for v := 0; v < n; v++ {
		r := find(v)
		if _, ok := comps[r]; !ok {
			comps[r] = p.singletonComp(v)
		} else {
			comps[r] = unionComp(comps[r], p.singletonComp(v))
		}
	}
	reps := make([]int, 0, len(comps))
	for r := range comps {
		reps = append(reps, r)
	}
	slices.Sort(reps)
	var j float64
	for _, r := range reps {
		j += p.closeJ(comps[r])
	}
	for i, d := range dec {
		if d >= 0 {
			j += p.insertTerm(i, d)
		}
	}
	return j
}
