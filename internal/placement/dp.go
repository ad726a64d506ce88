package placement

import (
	"context"
	"math"
	"slices"
	"sync"

	"socbuf/internal/parallel"
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
	// A merge or fold covering fewer than parMin candidates runs on one
	// lane, and so does the root close before a fold that small: below it,
	// starting the lanes and joining their shares costs about what the split
	// saves. PERFORMANCE.md "The parallel DP, measured" records the choice.
	parMin = 1 << 14
	// A lane keeps a merge's survivors in blocks of survMin candidates at
	// first, each new block as large as all before it, up to survMax: a
	// small DP allocates little, and a large one copies nothing as it grows
	// and leaves at most one block part empty. Once a tree's merges are
	// done, its fold builds its candidates in the same blocks (foldPrune).
	survMin = 64
	survMax = 8192
)

// dpRun is one DP pass: the operands of the merge in progress and the
// buffers every merge reuses. A pass runs on lanes, one per worker: lanes[0]
// is the pass itself, and each further lane is a dpRun with its own buffers
// and counters that shares the problem and, through lane, the operands.
// Every split hands each lane a contiguous share and joins the shares in the
// serial order (DESIGN.md §7), so no count of lanes moves a bit.
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
	// lanes holds one lane per worker, lanes[0] the pass itself and the
	// rest made on first use. parMin is the fewest candidates a merge or
	// fold spreads over them: the constant parMin, or 1 where a test drives
	// every split.
	lanes  []*dpRun
	parMin int

	// The merge in progress: candidates combine left.pts[l] with
	// right.pts[r] and decide edge (-1: no edge).
	left, right *parts
	edge        int

	cols    []column  // one merge's closed columns, one per child group and type
	clients []client  // price's client list
	bounds  []int     // the shares of the split in progress
	cands   []cand    // one group's candidates
	ends    []int     // the end of each run of cands
	heads   []span    // mergeSweep's runs
	surv    survivors // this lane's survivors of one merge
	blocks  [][]cand  // the fold's candidate blocks (pool, foldPrune)
	spare   []cand    // filter's sample, or mergeSweep's survivors
	stairs  []stair   // filter's staircases, one per bypass floor
	floors  []int     // start of each bypass floor's staircase in stairs
	best    []float64 // best[b]: least J among a group's survivors with bypassed ≥ b
	tick    int       // candidates built since the last context check
}

// survivors holds one lane's kept candidates in blocks that fill in turn and
// are never copied or moved (survMin, survMax); the next merge refills them.
type survivors struct {
	blocks [][]cand
	n      int // candidates held
	at     int // the block being filled
}

func (s *survivors) reset() {
	for i := range s.blocks {
		s.blocks[i] = s.blocks[i][:0]
	}
	s.n, s.at = 0, 0
}

// add appends kept, opening a block whenever the last one is full.
func (s *survivors) add(kept []cand) {
	s.n += len(kept)
	for len(kept) > 0 {
		if s.at == len(s.blocks) {
			held := 0
			for _, b := range s.blocks {
				held += cap(b)
			}
			s.blocks = append(s.blocks, make([]cand, 0, min(max(held, survMin), survMax)))
		}
		b := s.blocks[s.at]
		n := min(len(kept), cap(b)-len(b))
		s.blocks[s.at] = append(b, kept[:n]...)
		if kept = kept[n:]; len(b)+n == cap(b) {
			s.at++
		}
	}
}

// newRun starts a DP pass over p on up to workers lanes (GOMAXPROCS when
// workers ≤ 0) that stops once ctx is done.
func (p *problem) newRun(ctx context.Context, workers int) *dpRun {
	// A complete placement passes the capacity floor iff it bypasses at
	// least nb − ⌊(budget − attachments)/2⌋ bridges. When the attachments
	// alone overflow the budget nothing passes, and the coordinate stays
	// unclamped.
	nb, bmin := len(p.bridges), len(p.bridges)
	if room := p.budget - p.numAttach; room >= 0 {
		bmin = max(0, nb-room/2)
	}
	d := &dpRun{p: p, ctx: ctx, nb: nb, bmin: bmin, edge: -1, best: make([]float64, bmin+1),
		lanes: make([]*dpRun, parallel.Workers(workers)), parMin: parMin}
	d.lanes[0] = d
	return d
}

// lane returns lane k, made on first use, holding the operands of the merge
// in progress.
func (d *dpRun) lane(k int) *dpRun {
	l := d.lanes[k]
	if l == nil {
		l = &dpRun{p: d.p, ctx: d.ctx, nb: d.nb, bmin: d.bmin, sortAll: d.sortAll, best: make([]float64, d.bmin+1)}
		d.lanes[k] = l
	}
	l.left, l.right, l.edge, l.cols = d.left, d.right, d.edge, d.cols
	return l
}

// width is how many lanes work covering n candidates spreads over.
func (d *dpRun) width(n int) int {
	if n < d.parMin {
		return 1
	}
	return len(d.lanes)
}

// spread runs fn on lanes 0..n-1 at once, lane 0 on the calling goroutine,
// and returns once every lane has, with the other lanes' counters added to
// the pass's: the first lane's error, if any. A lane fails only when the
// context is done, which every other lane sees at its next check, so none
// runs on for long.
func (d *dpRun) spread(n int, fn func(k int, l *dpRun) error) error {
	if n == 1 {
		return fn(0, d)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 1; k < n; k++ {
		l := d.lane(k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = fn(k, l)
		}()
	}
	errs[0] = fn(0, d)
	wg.Wait()
	for _, l := range d.lanes[1:n] {
		d.st.pruned += l.st.pruned
		d.st.infeasible += l.st.infeasible
		d.st.resorted += l.st.resorted
		l.st = dpStats{}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// split cuts units 0..units-1, unit u covering weight(u) of total
// candidates, into n contiguous shares of about equal weight, and returns
// the n+1 share bounds in d.bounds: share k is units [bounds[k],
// bounds[k+1]).
func (d *dpRun) split(n, units, total int, weight func(u int) int) []int {
	bounds := append(d.bounds[:0], 0)
	k, acc := 1, 0
	for u := 0; u < units && k < n; u++ {
		for k < n && acc*n >= total*k {
			bounds = append(bounds, u)
			k++
		}
		acc += weight(u)
	}
	for ; k <= n; k++ {
		bounds = append(bounds, units)
	}
	d.bounds = bounds
	return bounds
}

// price is p.price with this lane's scratch.
func (d *dpRun) price(key compKey) float64 {
	j, clients := d.p.price(key, d.clients)
	d.clients = clients
	return j
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

// fill materialises kept — coordinates and decision vectors — as partials
// at, at+1, … of out.
func (d *dpRun) fill(out parts, at int, kept []cand) {
	for k := range kept {
		c := &kept[k]
		out.pts[at+k] = part{cost: c.cost, j: c.j, bypassed: int(c.bypassed)}
		dec := out.dec(at+k, d.nb)
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
}

// build materialises survivors in storage sized to them.
func (d *dpRun) build(kept []cand) parts {
	out := parts{pts: make([]part, len(kept)), decs: make([]int8, len(kept)*d.nb)}
	d.fill(out, 0, kept)
	return out
}

// skyline keeps the 2D (cost, J) Pareto frontier of complete placements,
// cost-ascending; exact (cost, J) ties keep the lexicographically smallest
// decision vector, and the rest count as pruned. It is the 3D prune with the
// bypass coordinate erased — once the capacity floor is applied, bypassing
// more no longer helps.
func (d *dpRun) skyline(cands []cand) []scored {
	for k := range cands {
		cands[k].bypassed = 0
	}
	return d.scored(d.prune(cands, nil))
}

// scored materialises the skyline's survivors, recounting each point's
// bypasses from its decisions.
func (d *dpRun) scored(kept []cand) []scored {
	built := d.build(kept)
	out := make([]scored, len(built.pts))
	for k, s := range built.pts {
		dec := built.dec(k, d.nb)
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

// runDP executes the Van Ginneken-style bottom-up pass on up to workers
// lanes and returns the feasible complete frontier, cost-ascending, with the
// same bits for every worker count. It checks ctx between merges and every
// checkEvery candidates within one, and returns ctx.Err() once the context
// is done.
func (p *problem) runDP(ctx context.Context, workers int) ([]scored, dpStats, error) {
	return p.newRun(ctx, workers).run()
}

// run is runDP's pass.
func (d *dpRun) run() ([]scored, dpStats, error) {
	p := d.p
	complete := d.undecided()
	// Prune between Minkowski folds but never after the last one, so the
	// capacity filter still sees — and counts — every complete placement
	// the final fold produced.
	totalFolds := len(p.roots) + len(p.nonTree)
	folded := 0
	var front []scored
	fold := func(n int, sum func(l *dpRun, cands []cand, lo int) error) error {
		d.st.partials += n
		folded++
		final := folded == totalFolds
		kept, err := d.foldPrune(n, final, sum)
		if err != nil {
			return err
		}
		if final {
			front = d.scored(kept)
		} else {
			complete = d.build(kept)
		}
		return nil
	}
	// Solve each spanning-forest tree independently and close its root's
	// open component; fold the per-component frontiers by Minkowski sum
	// (decision vectors are disjoint, cost and J add, and bypassed adds
	// under the clamp).
	for _, root := range p.roots {
		f, err := d.solveSubtree(root)
		if err != nil {
			return nil, d.st, err
		}
		d.pool()
		d.close(f, len(complete.pts)*len(f.pts))
		d.left, d.right, d.edge = &complete, &f.parts, -1
		if err := fold(len(complete.pts)*len(f.pts), (*dpRun).sumClosed); err != nil {
			return nil, d.st, err
		}
	}
	// Fold the non-tree bridges (cycle closers — always inserted, type
	// still free): each is an independent (cost, delay) mini-frontier,
	// composed by Minkowski sum with pruning after each fold.
	for _, nb := range p.nonTree {
		d.left, d.right, d.edge = &complete, nil, nb
		if err := fold(len(complete.pts)*len(p.types), (*dpRun).sumEdge); err != nil {
			return nil, d.st, err
		}
	}
	return front, d.st, nil
}

// pool moves every lane's survivor blocks, which a tree's merges are done
// with, to the pass's fold blocks (foldPrune).
func (d *dpRun) pool() {
	for _, l := range d.lanes {
		if l != nil {
			d.blocks = append(d.blocks, l.surv.blocks...)
			l.surv = survivors{}
		}
	}
}

// close adds to every partial of root frontier f the closing price of its
// open component, spreading the groups over the lanes when the fold after
// it covers at least parMin candidates. Each group is priced once, by the
// lane whose share holds it, so the prices are the serial ones.
func (d *dpRun) close(f *frontier, work int) {
	n := min(d.width(work), len(f.groups))
	bounds := d.split(n, len(f.groups), len(f.pts), func(u int) int { return f.groups[u].hi - f.groups[u].lo })
	_ = d.spread(n, func(k int, l *dpRun) error {
		for _, g := range f.groups[bounds[k]:bounds[k+1]] {
			cj := l.price(g.comp)
			for i := g.lo; i < g.hi; i++ {
				f.pts[i].j += cj
			}
		}
		return nil
	})
}

// sumClosed builds fold candidates [lo, lo+len(cands)) of left ⊕ right —
// candidate i pairs left partial i / |right| with right partial i % |right|
// — and checks the context once per left partial.
func (d *dpRun) sumClosed(cands []cand, lo int) error {
	rs := d.right.pts
	l, r := lo/len(rs), lo%len(rs)
	for i := 0; i < len(cands); l, r = l+1, 0 {
		a := d.left.pts[l]
		row := cands[i:min(len(cands), i+len(rs)-r)]
		for k, b := range rs[r : r+len(row)] {
			row[k] = cand{cost: a.cost + b.cost, j: a.j + b.j,
				bypassed: d.clamp(a.bypassed + b.bypassed), l: int32(l), r: int32(r + k)}
		}
		if err := d.spent(len(row)); err != nil {
			return err
		}
		i += len(row)
	}
	return nil
}

// sumEdge builds fold candidates [lo, lo+len(cands)) of left ⊕ the
// catalogue on non-tree edge d.edge — candidate i inserts type i % |types|
// after left partial i / |types| — and checks the context once per left
// partial.
func (d *dpRun) sumEdge(cands []cand, lo int) error {
	types := d.p.types
	l, t := lo/len(types), lo%len(types)
	for i := 0; i < len(cands); l, t = l+1, 0 {
		s := d.left.pts[l]
		row := cands[i:min(len(cands), i+len(types)-t)]
		for k := range row {
			row[k] = cand{cost: s.cost + types[t+k].Cost, j: s.j + d.p.insertTerm(d.edge, int8(t+k)),
				bypassed: int32(s.bypassed), l: int32(l), r: -1, opt: int8(t + k)}
		}
		if err := d.spent(len(row)); err != nil {
			return err
		}
		i += len(row)
	}
	return nil
}

// foldPrune builds a fold's n candidates, which sum writes, and prunes
// them. Between folds the prune keeps all three coordinates. The last fold
// first drops, and counts, the placements the capacity floor rejects, then
// erases the bypass coordinate: the skyline.
//
// A fold below parMin candidates is one chunk in the candidate buffer.
// From parMin on, the candidates go into the pass's fold blocks — the
// merges' survivor blocks, topped up with blocks of survMax — one chunk per
// block, and the chunks spread over the lanes in contiguous shares of
// about equal size. Each chunk is filtered, sorted and swept on its own,
// and the sorted chunk survivors merge into one sweep. A candidate is
// dominated exactly when an earlier one in comparator order dominates it,
// and then an earlier survivor does too, since dominance is transitive: so
// the survivors are the serial prune's whatever the chunks, and so is the
// pruned count.
func (d *dpRun) foldPrune(n int, final bool, sum func(l *dpRun, cands []cand, lo int) error) ([]cand, error) {
	var chunks [][]cand
	if n < d.parMin {
		chunks = [][]cand{d.scratch(n)[:n]}
	} else {
		for left := n; left > 0; left -= len(chunks[len(chunks)-1]) {
			if len(chunks) == len(d.blocks) {
				d.blocks = append(d.blocks, make([]cand, 0, min(left, survMax)))
			}
			b := d.blocks[len(chunks)]
			chunks = append(chunks, b[:min(left, cap(b))])
		}
	}
	at := make([]int, len(chunks)+1)
	for c, chunk := range chunks {
		at[c+1] = at[c] + len(chunk)
	}
	w := min(d.width(n), len(chunks))
	bounds := d.split(w, len(chunks), n, func(c int) int { return len(chunks[c]) })
	kept := make([][]cand, len(chunks))
	err := d.spread(w, func(k int, l *dpRun) error {
		for c := bounds[k]; c < bounds[k+1]; c++ {
			if err := sum(l, chunks[c], at[c]); err != nil {
				return err
			}
			kept[c] = l.pruneChunk(chunks[c], final)
		}
		return nil
	})
	if err != nil || len(chunks) == 1 {
		return kept[0], err
	}
	runs, ends := d.cands[:0], d.ends[:0]
	for _, run := range kept {
		runs = append(runs, run...)
		ends = append(ends, len(runs))
	}
	d.cands, d.ends = runs, ends
	out := d.mergeSweep(runs, ends)
	d.st.pruned += len(runs) - len(out)
	return out, nil
}

// pruneChunk prunes one chunk of a fold in place. In the last fold it first
// drops the placements the capacity floor rejects, counting them, and
// erases the bypass coordinate of the rest; the clamped count gives the
// unclamped count's verdict.
func (d *dpRun) pruneChunk(cands []cand, final bool) []cand {
	if final {
		feasible := cands[:0]
		for _, c := range cands {
			if d.p.numAttach+2*(d.nb-int(c.bypassed)) <= d.p.budget {
				c.bypassed = 0
				feasible = append(feasible, c)
			} else {
				d.st.infeasible++
			}
		}
		cands = feasible
	}
	return d.prune(cands, nil)
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
//
// From parMin candidates on, the output groups split into contiguous shares
// of about equal candidate count, one per lane. Each lane gathers and
// prunes its share's groups into its own survivors; the shares then join in
// group order, and each lane builds its survivors straight into the output
// frontier at its share's offset.
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
	work := len(f.pts) * len(cf.pts) * options
	d.st.partials += work
	d.left, d.right, d.edge = &f.parts, &cf.parts, edge
	// Hoisted: each child group's closing price and each type's insertion
	// term, one closed column per child group and type.
	cols := d.cols[:0]
	for _, cg := range cf.groups {
		cj := d.price(cg.comp)
		for t, ty := range p.types {
			cols = append(cols, column{lo: cg.lo, hi: cg.hi, cost: ty.Cost, cj: cj, ins: p.insertTerm(edge, int8(t)), opt: int8(t)})
		}
	}
	d.cols = cols
	// Output group u comes from parent group u / per: the child closed when
	// u % per is 0, else child group u % per − 1 bypassed.
	per := 1
	if cut {
		per += len(cf.groups)
	}
	groups := make([]group, len(f.groups)*per)
	n := min(d.width(work), len(groups))
	bounds := d.split(n, len(groups), work, func(u int) int {
		g, j := f.groups[u/per], u%per
		if j == 0 {
			return (g.hi - g.lo) * len(cf.pts) * len(p.types)
		}
		return (g.hi - g.lo) * (cf.groups[j-1].hi - cf.groups[j-1].lo)
	})
	err := d.spread(n, func(k int, l *dpRun) error {
		l.surv.reset()
		var bypass [1]column
		for u := bounds[k]; u < bounds[k+1]; u++ {
			g, j := f.groups[u/per], u%per
			with, comp := l.cols, g.comp
			if j > 0 {
				cg := cf.groups[j-1]
				bypass[0] = column{lo: cg.lo, hi: cg.hi, bump: 1, opt: optBypass}
				with, comp = bypass[:], unionComp(g.comp, cg.comp)
			}
			if err := l.gather(g, with); err != nil {
				return err
			}
			lo := l.surv.n
			l.surv.add(l.prune(l.cands, l.ends))
			groups[u] = group{comp: comp, lo: lo, hi: l.surv.n}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	at, total := make([]int, n), 0
	for k := range at {
		at[k] = total
		for u := bounds[k]; u < bounds[k+1]; u++ {
			groups[u].lo += total
			groups[u].hi += total
		}
		total += d.lanes[k].surv.n
	}
	out := parts{pts: make([]part, total), decs: make([]int8, total*d.nb)}
	_ = d.spread(n, func(k int, l *dpRun) error {
		i := at[k]
		for _, b := range l.surv.blocks {
			l.fill(out, i, b)
			i += len(b)
		}
		return nil
	})
	return &frontier{parts: out, groups: groups}, nil
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
	d := p.newRun(context.Background(), 1)
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
