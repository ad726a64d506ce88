// Package sim is a continuous-time discrete-event simulator of the SoC
// communication sub-system: Poisson (or bursty) packet flows, bus arbiters
// serving one exponential transfer at a time, bridges whose directional
// buffers decouple the buses, finite buffers that lose packets on overflow,
// and the paper's timeout policy that refuses to serve packets older than a
// threshold.
//
// The simulator is the experiment ground truth: the paper's Figure 3 and
// Table 1 compare loss counts measured by resimulating the architecture
// under each sizing policy, and this package produces those counts here.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"socbuf/internal/arch"
	"socbuf/internal/trace"
)

// FlowKey identifies a flow by endpoints (flows are unique per From→To pair
// within one architecture in this codebase).
type FlowKey struct {
	From, To string
}

// Config parameterises one simulation run.
type Config struct {
	Arch  *arch.Architecture
	Alloc arch.Allocation
	// Horizon is the simulated duration. Events past it are not processed.
	Horizon float64
	// WarmUp discards statistics for packets generated before this time.
	WarmUp float64
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Timeout, when positive, enables the paper's timeout policy: a packet
	// whose waiting time in its current buffer exceeds Timeout is dropped at
	// arbitration time instead of being served.
	Timeout float64
	// Arbiters optionally overrides arbitration per bus ID. Buses without an
	// entry use LongestQueue.
	Arbiters map[string]Arbiter
	// Sources optionally overrides the arrival process per flow. Flows
	// without an entry use Poisson(flow.Rate).
	Sources map[FlowKey]trace.Source
}

// Results aggregates one run's statistics. All per-processor maps are keyed
// by processor ID; loss is attributed to the *generating* processor, as in
// the paper's Figure 3.
type Results struct {
	Horizon     float64
	Generated   map[string]int64
	Delivered   map[string]int64
	Lost        map[string]int64 // overflow + timeout, by source processor
	LostTimeout map[string]int64 // timeout component, by source processor
	// BufferOverflow counts overflow losses at the buffer where they
	// happened (includes bridge buffers, which have no source processor of
	// their own).
	BufferOverflow map[string]int64
	// MeanOccupancy is the time-averaged queue length per buffer over the
	// post-warm-up window.
	MeanOccupancy map[string]float64
	// MaxOccupancy is the peak queue length per buffer.
	MaxOccupancy map[string]int
	// InFlight counts counted packets still queued or in service at the end.
	InFlight int64
}

// TotalLost sums losses over processors.
func (r *Results) TotalLost() int64 {
	var t int64
	for _, v := range r.Lost {
		t += v
	}
	return t
}

// TotalGenerated sums generated packets over processors.
func (r *Results) TotalGenerated() int64 {
	var t int64
	for _, v := range r.Generated {
		t += v
	}
	return t
}

// TotalDelivered sums delivered packets over processors.
func (r *Results) TotalDelivered() int64 {
	var t int64
	for _, v := range r.Delivered {
		t += v
	}
	return t
}

// LossFraction is TotalLost / TotalGenerated (0 when nothing was generated).
func (r *Results) LossFraction() float64 {
	g := r.TotalGenerated()
	if g == 0 {
		return 0
	}
	return float64(r.TotalLost()) / float64(g)
}

// packet is one request in flight. It is kept to 24 bytes: packets are
// copied on every enqueue, pop and serving assignment, so size is memory
// traffic on the event loop.
type packet struct {
	enqAt     float64 // when it entered its current buffer
	flow      int32   // index into routes
	hop       int32   // current hop index
	countable bool    // generated after warm-up?
}

// queue is one finite FIFO buffer: a ring over items[head:], so popping the
// head is O(1) bookkeeping instead of a memmove of the whole backlog.
type queue struct {
	id    string
	cap   int
	items []packet
	head  int
	// occupancy integral bookkeeping
	lastT float64
	area  float64
	maxN  int
}

// size is the current backlog length.
func (q *queue) size() int { return len(q.items) - q.head }

func (q *queue) updateArea(now, warmUp float64) {
	if now > q.lastT {
		from := q.lastT
		if from < warmUp {
			from = warmUp
		}
		if now > from {
			q.area += float64(q.size()) * (now - from)
		}
		q.lastT = now
	}
}

// busState is one bus's runtime state.
type busState struct {
	id      string
	slot    int // its departure's event slot
	rate    float64
	clients []int    // queue indices, sorted by buffer ID
	qs      []*queue // the same clients, pointer-resolved for the dispatch loop
	arbiter Arbiter
	// fastLQ marks the default LongestQueue arbiter: its pick (longest
	// backlog, ties to the lowest index, no RNG, no HeadWait) is computed
	// straight off the queue sizes, skipping the view build entirely.
	fastLQ  bool
	busy    bool
	serving packet
	// views is the arbitration scratch passed to the arbiter each dispatch,
	// preallocated to len(clients): dispatch runs once per simulated event
	// and must not allocate (see TestDispatchZeroAlloc).
	views []ClientView
}

// Simulator holds one run's mutable state. Create with New, run with Run.
// The event loop is fully index-addressed: every per-hop queue and bus and
// every per-flow source processor is resolved to a dense index at build
// time, the pending events sit in a fixed set of one slot per flow and per
// bus (events.go), and the per-processor/per-buffer statistics accumulate
// in flat int64 slices — the string-keyed Results maps are materialised
// once, after the last event.
type Simulator struct {
	cfg    Config
	rng    *rand.Rand
	routes []arch.Route
	srcs   []trace.Source
	// srcLam devirtualises pure-Poisson sources (the overwhelming default):
	// a positive entry is the flow's λ, and handleArrival draws the gap
	// inline — the identical rng.ExpFloat64()/λ Poisson.Next performs —
	// instead of paying an interface call per arrival. Zero = call srcs.
	srcLam []float64

	// Per-flow dense routing: rtFrom is the source processor, rtQ/rtBus the
	// queue and bus of each hop (rtQ[f][h] holds hop h's waiting buffer).
	rtFrom []int
	rtQ    [][]int32
	rtBus  [][]int32

	// Dense statistics counters, indexed by processor (procIDs order) and
	// queue; folded into Results after the event loop.
	procIDs []string
	genBy   []int64
	delBy   []int64
	lostBy  []int64
	lostTO  []int64
	ovflBy  []int64

	queues  []*queue
	qIndex  map[string]int
	buses   []*busState
	bIndex  map[string]int
	events  eventSet
	seq     uint64
	now     float64
	results *Results
}

// New validates the configuration and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.Arch == nil {
		return nil, errors.New("sim: nil architecture")
	}
	if err := cfg.Arch.Validate(); err != nil {
		return nil, err
	}
	if !(cfg.Horizon > 0) || math.IsInf(cfg.Horizon, 1) {
		return nil, fmt.Errorf("sim: horizon %v must be positive and finite", cfg.Horizon)
	}
	if cfg.WarmUp < 0 || cfg.WarmUp >= cfg.Horizon {
		return nil, fmt.Errorf("sim: warm-up %v outside [0, horizon)", cfg.WarmUp)
	}
	if cfg.Timeout < 0 {
		return nil, fmt.Errorf("sim: negative timeout %v", cfg.Timeout)
	}
	if err := cfg.Alloc.Validate(cfg.Arch, 0); err != nil {
		return nil, err
	}
	for _, br := range cfg.Arch.Bridges {
		if !br.Buffered {
			return nil, fmt.Errorf("sim: bridge %q is un-buffered; the simulator models buffered bridges only (run InsertBridgeBuffers first)", br.ID)
		}
	}
	routes, err := cfg.Arch.Routes()
	if err != nil {
		return nil, err
	}

	s := &Simulator{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		routes: routes,
		qIndex: map[string]int{},
		bIndex: map[string]int{},
	}

	// Sources per flow.
	s.srcs = make([]trace.Source, len(routes))
	s.srcLam = make([]float64, len(routes))
	for i, r := range routes {
		if src, ok := cfg.Sources[FlowKey{From: r.Flow.From, To: r.Flow.To}]; ok && src != nil {
			s.srcs[i] = src
		} else {
			p, err := trace.NewPoisson(r.Flow.Rate)
			if err != nil {
				return nil, err
			}
			s.srcs[i] = p
		}
		if p, ok := s.srcs[i].(*trace.Poisson); ok {
			s.srcLam[i] = p.Lambda
		}
	}

	// Queues, in sorted buffer-ID order.
	for _, id := range cfg.Arch.BufferIDs() {
		s.qIndex[id] = len(s.queues)
		s.queues = append(s.queues, &queue{id: id, cap: cfg.Alloc[id]})
	}

	// Buses with their client lists, from the routes already in hand.
	clients := cfg.Arch.ClientsOf(routes)
	busIDs := make([]string, 0, len(cfg.Arch.Buses))
	for _, b := range cfg.Arch.Buses {
		busIDs = append(busIDs, b.ID)
	}
	sort.Strings(busIDs)
	for _, id := range busIDs {
		bus, _ := cfg.Arch.BusByID(id)
		st := &busState{id: id, rate: bus.ServiceRate}
		for _, c := range clients[id] {
			qi, ok := s.qIndex[c]
			if !ok {
				return nil, fmt.Errorf("sim: bus %q client %q has no buffer (unbuffered bridge?)", id, c)
			}
			st.clients = append(st.clients, qi)
		}
		if a, ok := cfg.Arbiters[id]; ok && a != nil {
			st.arbiter = a
		} else {
			st.arbiter = LongestQueue{}
		}
		_, st.fastLQ = st.arbiter.(LongestQueue)
		st.qs = make([]*queue, len(st.clients))
		for i, qi := range st.clients {
			st.qs[i] = s.queues[qi]
		}
		st.views = make([]ClientView, len(st.clients))
		// BufferID and Cap never change after construction; dispatch only
		// refreshes Len and HeadWait.
		for i, qi := range st.clients {
			st.views[i].BufferID = s.queues[qi].id
			st.views[i].Cap = s.queues[qi].cap
		}
		st.slot = len(routes) + len(s.buses)
		s.bIndex[id] = len(s.buses)
		s.buses = append(s.buses, st)
	}

	// Dense routing and counter indices.
	procIndex := make(map[string]int, len(cfg.Arch.Processors))
	s.procIDs = make([]string, len(cfg.Arch.Processors))
	for i, p := range cfg.Arch.Processors {
		procIndex[p.ID] = i
		s.procIDs[i] = p.ID
	}
	s.rtFrom = make([]int, len(routes))
	s.rtQ = make([][]int32, len(routes))
	s.rtBus = make([][]int32, len(routes))
	for f, r := range routes {
		pi, ok := procIndex[r.Flow.From]
		if !ok {
			return nil, fmt.Errorf("sim: flow %d source %q is not a processor", f, r.Flow.From)
		}
		s.rtFrom[f] = pi
		s.rtQ[f] = make([]int32, len(r.Hops))
		s.rtBus[f] = make([]int32, len(r.Hops))
		for h, hop := range r.Hops {
			qi, ok := s.qIndex[hop.Buffer]
			if !ok {
				return nil, fmt.Errorf("sim: flow %d hop %d buffer %q has no queue", f, h, hop.Buffer)
			}
			s.rtQ[f][h] = int32(qi)
			s.rtBus[f][h] = int32(s.bIndex[hop.Bus])
		}
	}
	s.events = newEventSet(len(routes) + len(s.buses))
	s.genBy = make([]int64, len(s.procIDs))
	s.delBy = make([]int64, len(s.procIDs))
	s.lostBy = make([]int64, len(s.procIDs))
	s.lostTO = make([]int64, len(s.procIDs))
	s.ovflBy = make([]int64, len(s.queues))

	s.results = &Results{
		Horizon:        cfg.Horizon,
		Generated:      map[string]int64{},
		Delivered:      map[string]int64{},
		Lost:           map[string]int64{},
		LostTimeout:    map[string]int64{},
		BufferOverflow: map[string]int64{},
		MeanOccupancy:  map[string]float64{},
		MaxOccupancy:   map[string]int{},
	}
	return s, nil
}

// Run executes the simulation to the horizon, one step per event, and
// returns the statistics. A simulator is single-use: calling Run twice
// returns an error.
func (s *Simulator) Run() (*Results, error) {
	if s.now != 0 || s.seq != 0 {
		return nil, errors.New("sim: Run called twice on one Simulator")
	}
	// Prime one arrival per flow.
	for i := range s.routes {
		gap, err := s.srcs[i].Next(s.rng)
		if err != nil {
			return nil, fmt.Errorf("sim: flow %d initial arrival: %w", i, err)
		}
		s.schedule(i, gap)
	}
	for {
		more, err := s.step()
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
	}

	// Close occupancy integrals and gather; fold the dense counters into
	// the string-keyed result maps (every processor gets an entry, buffers
	// only where an overflow happened — the shapes the map-keyed loop
	// produced).
	window := s.cfg.Horizon - s.cfg.WarmUp
	for qi, q := range s.queues {
		q.updateArea(s.cfg.Horizon, s.cfg.WarmUp)
		if window > 0 {
			s.results.MeanOccupancy[q.id] = q.area / window
		}
		s.results.MaxOccupancy[q.id] = q.maxN
		for _, p := range q.items[q.head:] {
			if p.countable {
				s.results.InFlight++
			}
		}
		if s.ovflBy[qi] > 0 {
			s.results.BufferOverflow[q.id] = s.ovflBy[qi]
		}
	}
	for _, b := range s.buses {
		if b.busy && b.serving.countable {
			s.results.InFlight++
		}
	}
	for i, id := range s.procIDs {
		s.results.Generated[id] = s.genBy[i]
		s.results.Delivered[id] = s.delBy[i]
		s.results.Lost[id] = s.lostBy[i]
		s.results.LostTimeout[id] = s.lostTO[i]
	}
	return s.results, nil
}

func (s *Simulator) handleArrival(flow int) error {
	// Schedule the next arrival first (exhausted replay sources stop the
	// flow without failing the run).
	if lam := s.srcLam[flow]; lam > 0 {
		// Inlined Poisson.Next: same RNG draw, same float expression.
		s.schedule(flow, s.now+s.rng.ExpFloat64()/lam)
	} else {
		gap, err := s.srcs[flow].Next(s.rng)
		switch {
		case err == nil:
			s.schedule(flow, s.now+gap)
		case errors.Is(err, trace.ErrExhausted):
			// no further arrivals for this flow
		default:
			return fmt.Errorf("sim: flow %d arrival: %w", flow, err)
		}
	}

	p := packet{flow: int32(flow), countable: s.now >= s.cfg.WarmUp, enqAt: s.now}
	if p.countable {
		s.genBy[s.rtFrom[flow]]++
	}
	qi := s.rtQ[flow][0]
	if !s.enqueue(s.queues[qi], p) {
		if p.countable {
			s.lostBy[s.rtFrom[flow]]++
			s.ovflBy[qi]++
		}
		return nil
	}
	return s.dispatch(s.buses[s.rtBus[flow][0]])
}

func (s *Simulator) handleDeparture(busIdx int) error {
	b := s.buses[busIdx]
	p := b.serving
	b.busy = false

	hops := s.rtQ[p.flow]
	if int(p.hop) == len(hops)-1 {
		if p.countable {
			s.delBy[s.rtFrom[p.flow]]++
		}
	} else {
		p.hop++
		p.enqAt = s.now
		nqi := hops[p.hop]
		if s.enqueue(s.queues[nqi], p) {
			if err := s.dispatch(s.buses[s.rtBus[p.flow][p.hop]]); err != nil {
				return err
			}
		} else if p.countable {
			s.lostBy[s.rtFrom[p.flow]]++
			s.ovflBy[nqi]++
		}
	}
	return s.dispatch(b)
}

// enqueue appends p to q unless full, maintaining occupancy accounting.
// Reports whether the packet was accepted.
func (s *Simulator) enqueue(q *queue, p packet) bool {
	if q.size() >= q.cap {
		return false
	}
	q.updateArea(s.now, s.cfg.WarmUp)
	q.items = append(q.items, p)
	if n := q.size(); n > q.maxN {
		q.maxN = n
	}
	return true
}

// popHead removes and returns the head of q, advancing the ring. The
// backing array resets when the queue drains and compacts when the dead
// prefix outweighs the backlog, so it stays within a small multiple of the
// buffer capacity.
func (s *Simulator) popHead(q *queue) packet {
	q.updateArea(s.now, s.cfg.WarmUp)
	p := q.items[q.head]
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head > 32 && q.head > q.size():
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return p
}

// dispatch runs arbitration on a bus if it is idle and work exists.
func (s *Simulator) dispatch(b *busState) error {
	if b.busy {
		return nil
	}
	// Timeout policy: purge heads that have waited longer than the
	// threshold. Behind an expired head, later arrivals may also have
	// expired, so purge repeatedly.
	if s.cfg.Timeout > 0 {
		for _, q := range b.qs {
			for q.size() > 0 && s.now-q.items[q.head].enqAt > s.cfg.Timeout {
				p := s.popHead(q)
				if p.countable {
					from := s.rtFrom[p.flow]
					s.lostBy[from]++
					s.lostTO[from]++
				}
			}
		}
	}

	var pick int
	if b.fastLQ {
		// Default arbitration inlined: longest backlog, ties to the lowest
		// index — exactly LongestQueue.Pick over the views, minus the view
		// build (it reads only Len and draws no randomness).
		pick = -1
		bestLen := 0
		for i, q := range b.qs {
			if n := q.size(); n > bestLen {
				pick, bestLen = i, n
			}
		}
		if pick == -1 {
			return nil
		}
	} else {
		views := b.views
		any := false
		for i, q := range b.qs {
			n := q.size()
			views[i].Len = n
			if n > 0 {
				views[i].HeadWait = s.now - q.items[q.head].enqAt
				any = true
			} else {
				views[i].HeadWait = 0
			}
		}
		if !any {
			return nil
		}
		pick = b.arbiter.Pick(views, s.rng)
		if pick == -1 {
			return nil // arbiter chose to idle
		}
		if pick < 0 || pick >= len(b.clients) || views[pick].Len == 0 {
			return fmt.Errorf("sim: arbiter on bus %q picked invalid client %d", b.id, pick)
		}
	}
	q := b.qs[pick]
	b.serving = s.popHead(q)
	b.busy = true
	svc := s.rng.ExpFloat64() / b.rate
	s.schedule(b.slot, s.now+svc)
	return nil
}
