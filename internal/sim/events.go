package sim

import (
	"math"
	"math/bits"
)

var inf = math.Inf(1)

// eventSet holds the pending events in fixed slots: slot f < F is flow f's
// next arrival, slot F+b is bus b's in-service departure. Each flow has
// exactly one pending arrival and each bus at most one departure, so
// nothing is ever inserted or removed; a slot with nothing pending (an idle
// bus, an exhausted replay source) holds +Inf. A complete binary winner
// tree over the slots keeps the earliest (at, seq) at its root. seq breaks
// time ties, so (at, seq) is a total order: the pop sequence is that of any
// priority queue over the same events, and equal seeds give bit-identical
// runs.
type eventSet struct {
	slots []slot  // padded with +Inf slots to a power of two, n
	win   []int32 // win[k] is the winning slot under tree node k; slot i is leaf n+i
}

type slot struct {
	at  float64
	seq uint64
}

// newEventSet returns a set of at least the given number of slots, all
// empty.
func newEventSet(slots int) eventSet {
	n := 1
	for n < slots {
		n <<= 1
	}
	e := eventSet{slots: make([]slot, n), win: make([]int32, 2*n)}
	for i := range e.slots {
		e.slots[i].at = inf
		e.win[n+i] = int32(i)
	}
	for k := n - 1; k > 0; k-- {
		e.win[k] = e.win[2*k]
	}
	return e
}

// replay recomputes the winners on slot i's leaf-to-root path. Event times
// are never negative, so their IEEE bits order like the times, and the
// 128-bit comparison of (bits(at), seq) is one subtract with borrow: the
// per-level select compiles to conditional moves. Branches would mispredict
// about half the time, since the times compared are exponential draws.
func (e *eventSet) replay(i int) {
	w, s := int32(i), e.slots[i]
	at, seq := math.Float64bits(s.at), s.seq
	for k := len(e.slots) + i; k > 1; k >>= 1 {
		o := e.win[k^1]
		so := e.slots[o]
		oat := math.Float64bits(so.at)
		_, borrow := bits.Sub64(so.seq, seq, 0)
		_, borrow = bits.Sub64(oat, at, borrow)
		if borrow != 0 {
			w, at, seq = o, oat, so.seq
		}
		e.win[k>>1] = w
	}
}

// take empties the earliest slot and returns it with its time. The tree is
// left stale on that slot's path until settle.
func (e *eventSet) take() (int, float64) {
	i := e.win[1]
	at := e.slots[i].at
	e.slots[i].at = inf
	return int(i), at
}

// settle replays slot i's path after a take, unless the event's handler
// rescheduled slot i (schedule replayed it then).
func (e *eventSet) settle(i int) {
	if e.slots[i].at == inf {
		e.replay(i)
	}
}

// schedule sets slot i's pending event to time at, with the next sequence
// number.
func (s *Simulator) schedule(i int, at float64) {
	s.events.slots[i] = slot{at: at, seq: s.seq}
	s.seq++
	s.events.replay(i)
}

// step takes the earliest pending event and handles it. It reports false
// once that event lies past the horizon, which ends the run.
func (s *Simulator) step() (bool, error) {
	i, at := s.events.take()
	if at > s.cfg.Horizon {
		return false, nil
	}
	s.now = at
	var err error
	if f := len(s.routes); i < f {
		err = s.handleArrival(i)
	} else {
		err = s.handleDeparture(i - f)
	}
	s.events.settle(i)
	return true, err
}
