// Package ctmdp builds and solves the Continuous-Time Markov Decision
// Processes at the heart of the paper's buffer-sizing methodology.
//
// After buffer insertion splits the architecture (internal/graph), every
// subsystem is a single bus serving a set of client buffers. The subsystem's
// CTMDP is:
//
//   - state: the vector of client queue levels (each client's occupancy is
//     quantised into Levels+1 values to bound the state space; one level
//     stands for UnitsPerLevel physical buffer units),
//   - action: which non-empty client the arbiter grants (idle only when all
//     queues are empty — work conservation is optimal for loss and keeps the
//     action set small),
//   - dynamics: Poisson arrivals per client, exponential service by the bus,
//   - cost rate: the weighted loss rate — arrivals that hit a full client
//     level are lost, and a served packet is lost downstream with the
//     client's DownstreamFullProb (how bridge buffers feed the cost back).
//
// Following Feinberg 2002, the average-cost optimal (possibly constrained)
// policy is the optimum of a linear program over state–action occupation
// measures x(s,a). Every model idles only when all its queues are empty,
// so every policy is unichain and Howard policy iteration reaches the same
// optimum; SolveJoint solves each model that way (pi.go, solve.go). The
// paper's device of solving all split subsystems "in one go" is the joint
// program with a shared expected-occupancy budget row linking the
// subsystem blocks. That single row makes Lagrangian duality exact, so
// SolveJoint never assembles it: it prices occupancy and sweeps the price
// in policy space, one state's action at a time, until the budget binds.
// Every answer is checked against the program's dual certificate before
// it is returned (DESIGN.md §8).
package ctmdp

import (
	"errors"
	"fmt"
	"sync"
)

// MaxStates bounds a single model's state space at the largest model the
// methodology builds: (levels+1)^clients = 3^4 with levels 0–2 and at most
// four clients per bus (internal/core). Larger requests are errors; the
// check runs before enumeration, so a cache payload from a peer cannot make
// a shard enumerate a huge model.
const MaxStates = 81

// Client is one buffer competing for a bus inside a subsystem model.
type Client struct {
	// BufferID names the physical buffer (or the aggregate, when Members is
	// non-empty).
	BufferID string
	// Lambda is the arrival rate into the buffer (exogenous flow rate or the
	// boundary estimate for bridge buffers).
	Lambda float64
	// Levels is the maximum quantised level L; the client's occupancy in the
	// model takes values 0..L. Must be >= 1.
	Levels int
	// UnitsPerLevel converts one model level to physical buffer units.
	UnitsPerLevel float64
	// LossWeight scales this client's losses in the cost ("allowing some
	// losses to be more important than the others", §3). Default 1.
	LossWeight float64
	// DownstreamFullProb is the probability that the buffer this client's
	// packets move into next is full (0 for local delivery). Service then
	// incurs a loss cost at that rate.
	DownstreamFullProb float64
	// Members lists the physical buffers folded into this client when it is
	// an aggregate; empty for ordinary clients. MemberLambda aligns with it.
	Members      []string
	MemberLambda []float64
}

// Model is the CTMDP of one single-bus subsystem.
type Model struct {
	Bus         string
	ServiceRate float64
	Clients     []Client

	// space is the state enumeration of the clients' level vector, shared
	// with every model of that vector (spaceOf).
	*space
}

// space is the state enumeration of one client level vector: it depends on
// the clients' Levels alone, never on their rates. Every model of a vector
// shares one space, which nothing writes after spaceOf builds it; each
// slice's capacity is its length, so an append to one never reaches the
// space's other slices.
type space struct {
	strides   []int
	numStates int
	// vars enumerates feasible (state, action) pairs; action == -1 is idle
	// (feasible only in the all-empty state).
	vars        []svar
	varsByState [][]int // state -> indices into vars
	// grants holds len(Clients)+1 rows of len(Clients): row c grants
	// client c alone, the last row grants nobody. Policy.Action's fallback
	// returns these shared rows.
	grants []float64
}

type svar struct {
	state  int
	action int
}

// spaces holds one space per level vector, filled on first use and never
// emptied. MaxStates admits 651 level vectors, so the table stays small.
var spaces struct {
	sync.RWMutex
	m map[uint64]*space
}

// spaceOf returns the shared space of the clients' level vector,
// enumerating it on the vector's first use. The clients must have passed
// NewModel's checks: at most six clients (each has two or more levels
// within MaxStates), each with 1..80 levels, so seven bits per client and
// the count in front make the key unique.
func spaceOf(clients []Client) *space {
	key := uint64(len(clients))
	for _, c := range clients {
		key = key<<7 | uint64(c.Levels)
	}
	spaces.RLock()
	sp := spaces.m[key]
	spaces.RUnlock()
	if sp != nil {
		return sp
	}
	sp = enumerate(clients)
	spaces.Lock()
	defer spaces.Unlock()
	if prev := spaces.m[key]; prev != nil {
		return prev // another goroutine enumerated the vector first
	}
	if spaces.m == nil {
		spaces.m = map[uint64]*space{}
	}
	spaces.m[key] = sp
	return sp
}

// NewModel validates the clients and attaches the shared state enumeration
// of their level vector.
func NewModel(bus string, serviceRate float64, clients []Client) (*Model, error) {
	if bus == "" {
		return nil, errors.New("ctmdp: empty bus ID")
	}
	if serviceRate <= 0 {
		return nil, fmt.Errorf("ctmdp: bus %q service rate %v must be positive", bus, serviceRate)
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("ctmdp: bus %q has no clients", bus)
	}
	n := 1
	for i, c := range clients {
		if c.BufferID == "" {
			return nil, fmt.Errorf("ctmdp: bus %q client %d has empty buffer ID", bus, i)
		}
		if c.Lambda < 0 {
			return nil, fmt.Errorf("ctmdp: client %q lambda %v negative", c.BufferID, c.Lambda)
		}
		if c.Levels < 1 {
			return nil, fmt.Errorf("ctmdp: client %q levels %d < 1", c.BufferID, c.Levels)
		}
		if c.UnitsPerLevel <= 0 {
			return nil, fmt.Errorf("ctmdp: client %q units-per-level %v must be positive", c.BufferID, c.UnitsPerLevel)
		}
		if c.LossWeight <= 0 {
			return nil, fmt.Errorf("ctmdp: client %q loss weight %v must be positive", c.BufferID, c.LossWeight)
		}
		if c.DownstreamFullProb < 0 || c.DownstreamFullProb > 1 {
			return nil, fmt.Errorf("ctmdp: client %q downstream full prob %v outside [0,1]", c.BufferID, c.DownstreamFullProb)
		}
		if len(c.Members) != len(c.MemberLambda) {
			return nil, fmt.Errorf("ctmdp: client %q members/lambdas length mismatch", c.BufferID)
		}
		// Compared by division so a huge Levels cannot overflow the product.
		if c.Levels > MaxStates/n-1 {
			return nil, fmt.Errorf("ctmdp: bus %q state space exceeds %d states", bus, MaxStates)
		}
		n *= c.Levels + 1
	}
	return &Model{Bus: bus, ServiceRate: serviceRate, Clients: clients, space: spaceOf(clients)}, nil
}

// NumStates returns the size of the state space.
func (m *Model) NumStates() int { return m.numStates }

// NumVars returns the number of (state, action) occupation variables.
func (m *Model) NumVars() int { return len(m.vars) }

// VarStateAction returns the (state, action) pair of occupation variable v;
// action -1 is idle. The enumeration is deterministic for a given client
// order, which is what lets solve caches align occupation measures across
// structurally identical models.
func (m *Model) VarStateAction(v int) (state, action int) {
	sv := m.vars[v]
	return sv.state, sv.action
}

// StateVars returns the occupation-variable indices of state s. The returned
// slice is the model's own enumeration and must not be mutated.
func (m *Model) StateVars(s int) []int { return m.varsByState[s] }

// VarIndex returns the occupation-variable index of (state, action), or
// false when that pair is infeasible in the enumeration.
func (m *Model) VarIndex(state, action int) (int, bool) {
	for _, v := range m.varsByState[state] {
		if m.vars[v].action == action {
			return v, true
		}
	}
	return -1, false
}

// StateOf composes a state index from a per-client level vector (the inverse
// of Level). The vector must have one entry per client, each within the
// client's 0..Levels range.
func (m *Model) StateOf(levels []int) (int, error) {
	if len(levels) != len(m.Clients) {
		return 0, fmt.Errorf("ctmdp: level vector has %d entries, model has %d clients", len(levels), len(m.Clients))
	}
	for c, l := range levels {
		if l < 0 || l > m.Clients[c].Levels {
			return 0, fmt.Errorf("ctmdp: level %d outside client %d's range [0,%d]", l, c, m.Clients[c].Levels)
		}
	}
	return m.stateOf(levels), nil
}

// Level returns client c's level in state s.
func (m *Model) Level(s, c int) int {
	return (s / m.strides[c]) % (m.Clients[c].Levels + 1)
}

// stateOf composes a state index from a level vector.
func (m *Model) stateOf(levels []int) int {
	s := 0
	for c, l := range levels {
		s += l * m.strides[c]
	}
	return s
}

// enumerate builds the space of the clients' level vector: the strides
// and the feasible (state, action) list, state by state, so each state's
// variables are a contiguous run of indices.
func enumerate(clients []Client) *space {
	nc := len(clients)
	sp := &space{strides: make([]int, nc), numStates: 1}
	for c, cl := range clients {
		sp.strides[c] = sp.numStates
		sp.numStates *= cl.Levels + 1
	}
	level := func(s, c int) int { return (s / sp.strides[c]) % (clients[c].Levels + 1) }
	bounds := make([]int, sp.numStates+1) // state s owns vars[bounds[s]:bounds[s+1]]
	for s := 0; s < sp.numStates; s++ {
		nonEmpty := false
		for c := range clients {
			if level(s, c) > 0 {
				nonEmpty = true
				sp.vars = append(sp.vars, svar{state: s, action: c})
			}
		}
		if !nonEmpty {
			sp.vars = append(sp.vars, svar{state: s, action: -1})
		}
		bounds[s+1] = len(sp.vars)
	}
	sp.vars = sp.vars[:len(sp.vars):len(sp.vars)]
	index := make([]int, len(sp.vars))
	for v := range index {
		index[v] = v
	}
	sp.varsByState = make([][]int, sp.numStates)
	for s := range sp.varsByState {
		sp.varsByState[s] = index[bounds[s]:bounds[s+1]:bounds[s+1]]
	}
	sp.grants = make([]float64, nc*(nc+1))
	for c := 0; c < nc; c++ {
		sp.grants[c*nc+c] = 1
	}
	return sp
}

// CostRate returns the instantaneous cost rate of (state, action): weighted
// loss from arrivals hitting full levels, plus downstream loss of the served
// client.
func (m *Model) CostRate(s, action int) float64 {
	var cost float64
	for c, cl := range m.Clients {
		if m.Level(s, c) == cl.Levels {
			cost += float64(cl.Lambda * cl.LossWeight)
		}
	}
	if action >= 0 {
		cl := m.Clients[action]
		cost += float64(m.ServiceRate * cl.DownstreamFullProb * cl.LossWeight)
	}
	return cost
}

// OccupancyUnits returns the physical units held in state s:
// Σ_c level_c · UnitsPerLevel_c.
func (m *Model) OccupancyUnits(s int) float64 {
	var occ float64
	for c, cl := range m.Clients {
		occ += float64(float64(m.Level(s, c)) * cl.UnitsPerLevel)
	}
	return occ
}

// transitions invokes fn(target, rate) for every outgoing transition of
// (state, action). Self-loops (arrivals at full levels) are omitted: they
// cancel in the balance equations.
func (m *Model) transitions(s, action int, fn func(target int, rate float64)) {
	for c, cl := range m.Clients {
		if cl.Lambda > 0 && m.Level(s, c) < cl.Levels {
			fn(s+m.strides[c], cl.Lambda)
		}
	}
	if action >= 0 && m.Level(s, action) > 0 {
		fn(s-m.strides[action], m.ServiceRate)
	}
}

// AggregateClients folds the lowest-rate clients of a raw client list into a
// single aggregate until at most maxClients remain. The aggregate's rate is
// the sum of member rates, its levels/units/weight come from the member
// maxima, and Members/MemberLambda record the composition so allocations can
// be split back out. A list already within the limit is returned unchanged.
func AggregateClients(clients []Client, maxClients int) ([]Client, error) {
	if maxClients < 1 {
		return nil, fmt.Errorf("ctmdp: maxClients %d < 1", maxClients)
	}
	if len(clients) <= maxClients {
		return clients, nil
	}
	// Sort indices by rate ascending; fold the coldest len-maxClients+1 into
	// one aggregate.
	idx := make([]int, len(clients))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if clients[idx[j]].Lambda < clients[idx[i]].Lambda {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	nFold := len(clients) - maxClients + 1
	fold := map[int]bool{}
	for _, i := range idx[:nFold] {
		fold[i] = true
	}
	agg := Client{BufferID: "agg(" + clients[idx[0]].BufferID + "+)", LossWeight: 0, UnitsPerLevel: 0}
	var out []Client
	for i, c := range clients {
		if !fold[i] {
			out = append(out, c)
			continue
		}
		agg.Lambda += c.Lambda
		if c.Levels > agg.Levels {
			agg.Levels = c.Levels
		}
		if c.UnitsPerLevel > agg.UnitsPerLevel {
			agg.UnitsPerLevel = c.UnitsPerLevel
		}
		if c.LossWeight > agg.LossWeight {
			agg.LossWeight = c.LossWeight
		}
		if c.DownstreamFullProb > agg.DownstreamFullProb {
			agg.DownstreamFullProb = c.DownstreamFullProb
		}
		if len(c.Members) > 0 {
			agg.Members = append(agg.Members, c.Members...)
			agg.MemberLambda = append(agg.MemberLambda, c.MemberLambda...)
		} else {
			agg.Members = append(agg.Members, c.BufferID)
			agg.MemberLambda = append(agg.MemberLambda, c.Lambda)
		}
	}
	if agg.Levels == 0 {
		agg.Levels = 1
	}
	if agg.LossWeight == 0 {
		agg.LossWeight = 1
	}
	if agg.UnitsPerLevel == 0 {
		agg.UnitsPerLevel = 1
	}
	out = append(out, agg)
	return out, nil
}
