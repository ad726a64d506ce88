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

// clientKey is the canonical per-client tuple. The structural part —
// everything the occupation-measure LP and the policy-induced chain read,
// and all that Fingerprint hashes — comes first; UnitsPerLevel (the
// capacity quantum) affects only occupancy-derived quantities.
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
// columns, so any order among them yields the same program bit for bit, and
// a cached solution is the same whatever capacities its first requester
// had. The tie-break only decides which of two tied clients takes which
// canonical slot, and so which slot's values each is rebound to.
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
// auto-path thresholds to the fingerprinted options; version 4 dropped every
// stationary option but the refine flag; version 5 dropped the capacity
// quanta from the sub-model key; version 6 marks exact payloads solved by
// policy iteration, whose last bits differ from the simplex's, so a fleet
// never mixes the two. Exact keys later lost their trailing refine byte
// without a bump: that changes every exact key's bytes, so no new key can
// equal an old one, and exact keys never leave the process anyway.
// Version 7 marks placement payloads stored and shared deflated: the keys
// did not change, so without the bump an old shard would adopt a new
// payload, fail to decode it and overwrite it, and the two versions would
// keep overwriting each other in a mixed fleet; the store's version header
// now keeps them apart. Version 8 marks placement payloads whose DP
// counters (partials, pruned) come from the clamped bypass coordinate:
// the frontier is the same, but a payload's bytes under one key would
// differ between an old and a new shard.
const version = 8

// Backend domain-separation tags. Every fingerprint serialises the solver
// backend that produced (or will produce) the payload immediately after the
// version, so a payload computed for one tier can never be looked up — and
// rebound — as another's: an exact CTMDP solution, a robust sizing and a
// placement result of the same system occupy disjoint key spaces by
// construction. Tag 1 keyed the retired analytic tier; it stays unused so
// that every surviving key keeps its version-6 value.
const (
	backendExact     = 0
	backendPlacement = 2
	backendRobust    = 3
)

// Fingerprint returns the content-addressed key of one sub-model solve:
// exactly what the solve reads. That is the service rate and the
// canonically sorted per-client tuples (arrival rate, levels, loss weight,
// downstream-full probability). Capacity quanta (UnitsPerLevel), client
// order, bus name, buffer IDs and aggregate membership are deliberately
// excluded — see DESIGN.md §4 for the contract.
func Fingerprint(m *ctmdp.Model) Key {
	h := &hasher{buf: make([]byte, 0, 64+32*len(m.Clients))}
	h.i64(version)
	h.i64(backendExact)
	h.f64(m.ServiceRate)
	h.i64(int64(len(m.Clients)))
	for _, i := range canonicalOrder(m) {
		k := keyOf(m.Clients[i])
		h.f64(k.lambda)
		h.i64(int64(k.levels))
		h.f64(k.lossWeight)
		h.f64(k.downstreamFullProb)
	}
	return h.sum()
}

// RobustFingerprint keys one robust (chance-constrained Monte-Carlo)
// sizing: the canonical byte serialisation of the buffered architecture
// (loss weights appended), the uncertainty spec's canonical JSON (σ's,
// sample count, confidence, target, seed — all of which change what the
// decision IS), the budget and the fixed-point depth. Simulation seeds are
// not part of it: they only evaluate the chosen sizing. The backendRobust
// tag keeps these keys disjoint from every exact and placement
// fingerprint, so a robust sizing can never rebind as a nominal solution
// (or vice versa).
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
// from every exact and robust fingerprint, so a cached placement result
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
