package solvecache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"socbuf/internal/ctmdp"
)

// Key is a content-addressed fingerprint of a solve's inputs. Two solves with
// equal keys are the same mathematical problem and share one cached solution.
type Key [sha256.Size]byte

// String renders the key as hex (for logs and stats tables).
func (k Key) String() string { return hex.EncodeToString(k[:8]) }

// SolveOptions is the part of a ctmdp.JointConfig that changes what a
// per-model solution IS (and therefore belongs in the fingerprint), as
// opposed to how models are grouped into programs. See DESIGN.md §4 for the
// full cache-key contract.
type SolveOptions struct {
	// Refine mirrors ctmdp.JointConfig.RefineStationary: refined and
	// unrefined solutions are different payloads.
	Refine bool
	// Stationary's Method/Tol/MaxIters and auto-path thresholds are
	// fingerprinted (they change which solver produced the payload); its
	// Warm prior is NOT (a warm start cannot change the converged answer).
	Stationary ctmdp.StationaryOptions
}

// optionsOf extracts the fingerprinted options from a joint config.
func optionsOf(cfg ctmdp.JointConfig) SolveOptions {
	return SolveOptions{Refine: cfg.RefineStationary, Stationary: cfg.Stationary}
}

// clientKey is the canonical per-client tuple. The structural part —
// everything the occupation-measure LP and the policy-induced chain depend
// on — comes first; UnitsPerLevel (the capacity quantum) affects only
// occupancy-derived quantities, which is exactly the warm-start axis.
type clientKey struct {
	lambda, lossWeight, downstreamFullProb float64
	levels                                 int
	unitsPerLevel                          float64
}

func keyOf(c ctmdp.Client) clientKey {
	return clientKey{
		lambda:             c.Lambda,
		lossWeight:         c.LossWeight,
		downstreamFullProb: c.DownstreamFullProb,
		levels:             c.Levels,
		unitsPerLevel:      c.UnitsPerLevel,
	}
}

// structuralLess orders clients by the solve-relevant tuple only.
func structuralLess(a, b clientKey) bool {
	switch {
	case a.lambda != b.lambda:
		return a.lambda < b.lambda
	case a.levels != b.levels:
		return a.levels < b.levels
	case a.lossWeight != b.lossWeight:
		return a.lossWeight < b.lossWeight
	default:
		return a.downstreamFullProb < b.downstreamFullProb
	}
}

// less is the full canonical order: structural tuple first, UnitsPerLevel as
// the tie-break. Clients that tie on the structural tuple have identical LP
// columns, so any order among them yields the same program bit for bit —
// which is what keeps warm-started reuse deterministic.
func less(a, b clientKey) bool {
	if structuralLess(a, b) {
		return true
	}
	if structuralLess(b, a) {
		return false
	}
	return a.unitsPerLevel < b.unitsPerLevel
}

// canonicalOrder returns the model's client indices sorted into canonical
// order (stable, so equal tuples keep their relative model order).
func canonicalOrder(m *ctmdp.Model) []int {
	idx := make([]int, len(m.Clients))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return less(keyOf(m.Clients[idx[i]]), keyOf(m.Clients[idx[j]]))
	})
	return idx
}

// hasher accumulates the canonical byte serialisation.
type hasher struct {
	buf []byte
}

func (h *hasher) f64(v float64) {
	h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(v))
}

func (h *hasher) i64(v int64) {
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v))
}

func (h *hasher) bool(v bool) {
	if v {
		h.buf = append(h.buf, 1)
	} else {
		h.buf = append(h.buf, 0)
	}
}

// str serialises a length-prefixed string (self-delimiting, so adjacent
// fields can never alias across a boundary shift).
func (h *hasher) str(s string) {
	h.i64(int64(len(s)))
	h.buf = append(h.buf, s...)
}

func (h *hasher) sum() Key { return sha256.Sum256(h.buf) }

// version tags the serialisation layout; bump on any change to what a
// fingerprint covers so stale cross-process caches can never alias.
// Version 2 introduced the backend tag below; version 3 added the stationary
// auto-path thresholds to the fingerprinted options.
const version = 3

// Backend domain-separation tags. Every fingerprint serialises the solver
// backend that produced (or will produce) the payload immediately after the
// version, so a solution computed by one backend can never be looked up —
// and rebound — as another's: an analytic M/M/1/K sizing and an exact
// CTMDP/LP solution of the same model occupy disjoint key spaces by
// construction.
const (
	backendExact     = 0
	backendAnalytic  = 1
	backendPlacement = 2
	backendRobust    = 3
)

func (h *hasher) options(o SolveOptions) {
	h.bool(o.Refine)
	h.i64(int64(o.Stationary.Method))
	h.f64(o.Stationary.Tol)
	h.i64(int64(o.Stationary.MaxIters))
	h.i64(int64(o.Stationary.DenseThreshold))
	h.i64(int64(o.Stationary.AggregationThreshold))
}

// fingerprint serialises the model in canonical client order. withUnits
// selects the full key (capacities included) or the structural key
// (capacities excluded — the warm-start equivalence class).
func fingerprint(m *ctmdp.Model, opts SolveOptions, withUnits bool) Key {
	h := &hasher{buf: make([]byte, 0, 64+24*len(m.Clients))}
	h.i64(version)
	h.i64(backendExact)
	h.bool(withUnits)
	h.f64(m.ServiceRate)
	h.i64(int64(len(m.Clients)))
	for _, i := range canonicalOrder(m) {
		k := keyOf(m.Clients[i])
		h.f64(k.lambda)
		h.i64(int64(k.levels))
		h.f64(k.lossWeight)
		h.f64(k.downstreamFullProb)
		if withUnits {
			h.f64(k.unitsPerLevel)
		}
	}
	h.options(opts)
	return h.sum()
}

// Fingerprint returns the full content-addressed key of one sub-model solve:
// service rate, the canonically sorted per-client tuples (arrival rate,
// levels, loss weight, downstream-full probability, units per level) and the
// solve options. Client order, bus name, buffer IDs and aggregate membership
// are deliberately excluded — see DESIGN.md §4 for the contract.
func Fingerprint(m *ctmdp.Model, opts SolveOptions) Key {
	return fingerprint(m, opts, true)
}

// StructuralFingerprint is Fingerprint with the capacity quanta
// (UnitsPerLevel) excluded. Models sharing a structural fingerprint have
// bit-identical occupation-measure LPs and policy chains — capacities enter
// only occupancy-derived quantities — so a cached solution for one is an
// exact warm start for the others.
func StructuralFingerprint(m *ctmdp.Model, opts SolveOptions) Key {
	return fingerprint(m, opts, false)
}

// JointFingerprint keys a capped joint solve: the ordered full fingerprints
// of the blocks plus the linking occupancy cap. Unlike the decoupled case,
// block order matters here (it fixes the joint program's variable layout).
func JointFingerprint(models []*ctmdp.Model, cap float64, opts SolveOptions) Key {
	h := &hasher{}
	h.i64(version)
	h.i64(backendExact)
	h.i64(int64(len(models)))
	for _, m := range models {
		k := Fingerprint(m, opts)
		h.buf = append(h.buf, k[:]...)
	}
	h.f64(cap)
	return h.sum()
}

// AnalyticFingerprint keys one analytic (M/M/1/K marginal-allocation)
// sizing: the canonical byte serialisation of the buffered architecture the
// backend sized, the budget, and the fixed-point iteration count. The
// backendAnalytic tag puts these keys in a key space disjoint from every
// exact CTMDP fingerprint, so an analytic allocation can never rebind as an
// exact solution (or vice versa) even on a (vanishing) hash collision of
// the content bytes.
func AnalyticFingerprint(archBytes []byte, budget, boundaryIters int) Key {
	h := &hasher{buf: make([]byte, 0, 32+len(archBytes))}
	h.i64(version)
	h.i64(backendAnalytic)
	h.i64(int64(budget))
	h.i64(int64(boundaryIters))
	h.i64(int64(len(archBytes)))
	h.buf = append(h.buf, archBytes...)
	return h.sum()
}

// RobustFingerprint keys one robust (chance-constrained Monte-Carlo)
// sizing: the canonical byte serialisation of the buffered architecture
// (weights appended, as in the analytic key), the uncertainty spec's
// canonical JSON (σ's, sample count, confidence, target, seed — all of
// which change what the decision IS), the budget and the fixed-point depth.
// The backendRobust tag keeps these keys disjoint from every exact,
// analytic and placement fingerprint, so a robust sizing can never rebind
// as a nominal solution (or vice versa).
func RobustFingerprint(archBytes, specBytes []byte, budget, boundaryIters int) Key {
	h := &hasher{buf: make([]byte, 0, 64+len(archBytes)+len(specBytes))}
	h.i64(version)
	h.i64(backendRobust)
	h.i64(int64(budget))
	h.i64(int64(boundaryIters))
	h.i64(int64(len(specBytes)))
	h.buf = append(h.buf, specBytes...)
	h.i64(int64(len(archBytes)))
	h.buf = append(h.buf, archBytes...)
	return h.sum()
}

// PlacementMeta is everything besides the architecture that changes what a
// placement run's outcome IS: the buffer-type catalogue, the budgets, the
// screening weight, the refinement backend and depth, and the evaluation
// knobs (iterations, seeds, horizon, warm-up — the frontier's evaluated
// losses are simulated under them). See DESIGN.md §7 for how this extends
// the §4 cache-key contract.
type PlacementMeta struct {
	Budget        int
	CostBudget    float64
	LatencyWeight float64
	Method        string
	RefineTop     int
	Iterations    int
	Seeds         []int64
	Horizon       float64
	WarmUp        float64
	// Types is the flattened catalogue: (name, cost, delay) per entry, in
	// request order (order is identity — it breaks frontier tie-breaks).
	TypeNames  []string
	TypeCosts  []float64
	TypeDelays []float64
}

// PlacementFingerprint keys one full placement run: the canonical byte
// serialisation of the ORIGINAL (pre-contraction) architecture plus the
// placement metadata. The backendPlacement tag keeps these keys disjoint
// from every exact and analytic fingerprint, so a cached placement result
// can never rebind as a sizing solution (or vice versa).
func PlacementFingerprint(archBytes []byte, meta PlacementMeta) Key {
	h := &hasher{buf: make([]byte, 0, 128+len(archBytes))}
	h.i64(version)
	h.i64(backendPlacement)
	h.i64(int64(meta.Budget))
	h.f64(meta.CostBudget)
	h.f64(meta.LatencyWeight)
	h.str(meta.Method)
	h.i64(int64(meta.RefineTop))
	h.i64(int64(meta.Iterations))
	h.i64(int64(len(meta.Seeds)))
	for _, s := range meta.Seeds {
		h.i64(s)
	}
	h.f64(meta.Horizon)
	h.f64(meta.WarmUp)
	h.i64(int64(len(meta.TypeNames)))
	for i := range meta.TypeNames {
		h.str(meta.TypeNames[i])
		h.f64(meta.TypeCosts[i])
		h.f64(meta.TypeDelays[i])
	}
	h.i64(int64(len(archBytes)))
	h.buf = append(h.buf, archBytes...)
	return h.sum()
}
