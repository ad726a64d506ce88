// Package placement makes buffer *insertion* a decision variable — the half
// of the paper's title the sizing pipeline alone does not cover. Instead of
// buffering every bridge unconditionally (arch.InsertBridgeBuffers), the
// placer decides, bridge by bridge, whether to insert a decoupling buffer
// pair — and of which type from a cost/delay catalogue — or to leave the
// bridge transparent, merging the two buses it joins into one arbitration
// domain.
//
// The optimiser is the classic Van Ginneken repeater-insertion dynamic
// program transplanted from RC trees to SoC bus topologies: a bottom-up pass
// over a spanning forest of the bus graph carries, per subtree, a Pareto
// frontier of partial placements in (insertion cost, screened loss+latency)
// space, pruning dominated partials at every merge. Each frontier survivor
// is then priced with the analytic (M/M/1/K) solver backend on its real
// contracted architecture, and the best screened placements are refined with
// the exact CTMDP/LP backend through the internal/solver registry — the same
// screen-then-refine shape as the hybrid sizing backend, one level up. A
// buffer type changes a placement's cost and screened latency but not its
// contracted architecture, so survivors that bypass the same bridges share
// one solver run per pass.
//
// Contraction semantics: a bridge left without buffers does not merely skip
// two buffers — it stops decoupling its two buses. The placer models this by
// contracting the bridge's endpoints into one merged bus whose service rate
// is the minimum of the members' rates (the un-decoupled arbiter serialises
// everything; the slowest member is the bottleneck). Every candidate
// placement therefore evaluates as an ordinary fully-buffered architecture,
// and the whole existing sizing stack (split, CTMDP/LP, analytic, hybrid,
// simulation) applies unchanged. DESIGN.md §7 is the normative contract.
package placement

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"socbuf/internal/arch"
	"socbuf/internal/solvecache"
)

// BufferType is one catalogue entry: an insertable decoupling-buffer design
// point. Cost is in abstract area units (the DP's first frontier
// coordinate); Delay is the per-packet store-and-forward latency a packet
// pays crossing a bridge buffered with this type (it feeds the screened
// latency term, weighted by Config.LatencyWeight).
type BufferType struct {
	Name  string  `json:"name"`
	Cost  float64 `json:"cost"`
	Delay float64 `json:"delay"`
}

// DefaultCatalogue is the three-point cost/speed catalogue used when a
// request does not supply its own — a cheap-but-slow, a balanced and a
// fast-but-expensive design, mirroring the multi-type repeater libraries of
// the Van Ginneken extensions.
func DefaultCatalogue() []BufferType {
	return []BufferType{
		{Name: "lite", Cost: 1, Delay: 0.5},
		{Name: "std", Cost: 2, Delay: 0.2},
		{Name: "fast", Cost: 4, Delay: 0.05},
	}
}

// ParseCatalogue parses the -buffer-types flag syntax:
// "name:cost:delay,name:cost:delay,...". An empty string yields the default
// catalogue.
func ParseCatalogue(s string) ([]BufferType, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultCatalogue(), nil
	}
	var out []BufferType
	for _, item := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("placement: bad buffer type %q (want name:cost:delay)", item)
		}
		cost, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("placement: bad cost in %q: %v", item, err)
		}
		delay, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("placement: bad delay in %q: %v", item, err)
		}
		out = append(out, BufferType{Name: parts[0], Cost: cost, Delay: delay})
	}
	return out, nil
}

// ValidateCatalogue enforces the catalogue contract: non-empty, unique
// names, positive costs, non-negative delays. The reserved empty name means
// "no buffer" in Decision and cannot name a type.
func ValidateCatalogue(types []BufferType) error {
	if len(types) == 0 {
		return fmt.Errorf("placement: empty buffer-type catalogue")
	}
	seen := map[string]bool{}
	for _, t := range types {
		if t.Name == "" {
			return fmt.Errorf("placement: buffer type with empty name (reserved for bypass)")
		}
		if seen[t.Name] {
			return fmt.Errorf("placement: duplicate buffer type %q", t.Name)
		}
		seen[t.Name] = true
		if t.Cost <= 0 {
			return fmt.Errorf("placement: buffer type %q must have positive cost", t.Name)
		}
		if t.Delay < 0 {
			return fmt.Errorf("placement: buffer type %q has negative delay", t.Name)
		}
	}
	return nil
}

// Decision is one bridge's placement outcome. Type names a catalogue entry,
// or is empty for a bypassed (contracted) bridge.
type Decision struct {
	Bridge string `json:"bridge"`
	Type   string `json:"type"`
}

// DecisionString renders a decision vector compactly for tables and logs:
// one bridge=type entry per bridge, "~" marking a bypassed (contracted)
// bridge — e.g. "br00-01=std,br01-02=~".
func DecisionString(decs []Decision) string {
	parts := make([]string, len(decs))
	for i, d := range decs {
		t := d.Type
		if t == "" {
			t = "~"
		}
		parts[i] = d.Bridge + "=" + t
	}
	return strings.Join(parts, ",")
}

// Config drives one placement run. Arch is the original architecture with
// unbuffered bridges; the placer never mutates it.
type Config struct {
	Arch *arch.Architecture
	// Types is the insertion catalogue (nil = DefaultCatalogue).
	Types []BufferType
	// Budget is the total buffer-capacity budget the downstream sizing run
	// spends (core.Config.Budget). It also bounds placement feasibility: a
	// placement needing more buffers than Budget units cannot give every
	// buffer its one-unit floor and is discarded.
	Budget int
	// CostBudget caps the summed insertion cost (0 = unbounded). Applied to
	// the DP frontier before refinement.
	CostBudget float64
	// LatencyWeight trades screened latency against screened loss rate in
	// the DP's second frontier coordinate (default 0.1).
	LatencyWeight float64
	// Method is the refinement backend for the frontier survivors ("exact" |
	// "analytic" | "hybrid"; empty = exact). "analytic" stops after the
	// screening evaluations.
	Method string
	// RefineTop bounds how many screened survivors the refinement backend
	// evaluates (default 3; clamped to the frontier size).
	RefineTop int

	// Evaluation knobs, forwarded to every per-placement solver run
	// (zero values take the core defaults).
	Iterations int
	Seeds      []int64
	Horizon    float64
	WarmUp     float64
	// Workers bounds both the DP's lanes and the evaluations' worker pool
	// (0 = GOMAXPROCS, 1 = serial); no count moves a result bit.
	Workers int
	Cache   *solvecache.Cache

	// OnEval, when non-nil, receives every frontier point's evaluation, once
	// per point in the screening pass and once per refined point, as its
	// solver run completes: points sharing a bypass set share one run and
	// arrive together. Completion order, possibly from worker goroutines
	// (the callback must be safe for concurrent use). socbufd streams NDJSON
	// through it. The final Result is unaffected (aggregation walks frontier
	// order).
	OnEval func(Point) `json:"-"`
	// RunObserver, when non-nil, is invoked after every solver-backend run
	// the placer executes — one per distinct bypass set in each pass, not
	// one per point — with the canonical backend name and wall time, the
	// same contract as experiments.Options.Observer; internal/engine hangs
	// its per-backend stats counters off this hook.
	RunObserver func(method string, wall time.Duration) `json:"-"`
}

// WithDefaults fills the placement-specific defaults (solver knobs keep
// their zero values; core applies its own).
func (c Config) WithDefaults() Config {
	if len(c.Types) == 0 {
		c.Types = DefaultCatalogue()
	}
	if c.LatencyWeight == 0 {
		c.LatencyWeight = 0.1
	}
	if c.RefineTop == 0 {
		c.RefineTop = 3
	}
	return c
}

// Point is one placement on (or refined from) the Pareto frontier.
type Point struct {
	// Decisions covers every bridge, sorted by bridge ID ("" type = bypass).
	Decisions []Decision `json:"decisions"`
	// Cost is the summed insertion cost of the inserted types.
	Cost float64 `json:"cost"`
	// Buffers is the buffer count of the contracted architecture (egress
	// buffers plus two per inserted bridge) — the sizing budget must cover
	// its one-unit floors.
	Buffers int `json:"buffers"`
	// Bypassed counts contracted bridges.
	Bypassed int `json:"bypassed"`
	// ScreenJ is the DP's closed-form quality coordinate: weighted loss rate
	// plus LatencyWeight times the screened latency terms, at the uniform
	// provisional capacity. Comparable only within one run.
	ScreenJ float64 `json:"screenJ"`
	// ScreenLoss is the simulated loss of the analytic-backend evaluation of
	// this placement (screening stage); Loss is the final evaluated loss
	// under Method (equal to ScreenLoss when Method is "analytic" or the
	// point was not refined).
	ScreenLoss int64 `json:"screenLoss"`
	Loss       int64 `json:"loss"`
	// Improvement is 1 − sized/uniform loss for this placement's own
	// architecture (the sizing win, not the placement win).
	Improvement float64 `json:"improvement"`
	// Method is the backend that produced Loss; Refined marks points the
	// refinement stage re-evaluated.
	Method  string `json:"method,omitempty"`
	Refined bool   `json:"refined,omitempty"`
}

// decisionsOf renders a decision vector (per-bridge option indices) as the
// public sorted form. dec is indexed by problem bridge index; bypassOption
// entries map to the empty type name.
func (p *problem) decisionsOf(dec []int8) []Decision {
	out := make([]Decision, len(p.bridges))
	for i, br := range p.bridges {
		d := Decision{Bridge: br.ID}
		if dec[i] >= 0 {
			d.Type = p.types[dec[i]].Name
		}
		out[i] = d
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bridge < out[j].Bridge })
	return out
}

// Result is one placement run's outcome.
type Result struct {
	Arch string `json:"arch"`
	// Method is the canonical refinement backend name.
	Method string `json:"method"`
	// Candidates counts the decision points (bridges); Bypassable of them
	// offer the contraction option (cut edges of the bus graph).
	Candidates int `json:"candidates"`
	Bypassable int `json:"bypassable"`
	// Enumerated is the full placement-space size the DP covered implicitly
	// (product of per-bridge option counts).
	Enumerated int64 `json:"enumerated"`
	// Partials counts the candidates the DP's merges and folds covered —
	// |group|·|child partials|·options per merge, whether or not a
	// candidate was built; Pruned of them were discarded as dominated.
	// Their difference is the work that survived to later merges — the
	// measure of how much the frontier carries versus brute force's
	// Enumerated.
	Partials int `json:"partials"`
	Pruned   int `json:"pruned"`
	// Infeasible counts complete placements the capacity floor discarded;
	// CostFiltered counts frontier placements dropped by CostBudget.
	Infeasible   int `json:"infeasible"`
	CostFiltered int `json:"costFiltered"`
	// Frontier is the feasible Pareto frontier, cost-ascending, after
	// screening evaluation (and refinement where applied).
	Frontier []Point `json:"frontier"`
	// Chosen is the placement with the lowest final evaluated loss (ties
	// break toward lower cost, then lexicographic decisions).
	Chosen Point `json:"chosen"`
}
