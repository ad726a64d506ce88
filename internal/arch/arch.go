// Package arch models the communication sub-system of a System-on-Chip the
// way the paper does: processors attached to shared buses, buses connected by
// bridges, and finite buffers at every point where data can wait.
//
// Two kinds of buffers exist:
//
//   - an egress buffer per processor–bus attachment ("processor bus pair" in
//     the paper's wording), where a processor's outgoing requests wait for the
//     bus arbiter's grant, and
//   - two directional bridge buffers per bridge, inserted by the paper's
//     methodology so that the two buses a bridge connects interact only
//     through the buffer (this is what turns the quadratic coupled system
//     into independent linear subsystems).
//
// Capacities are *not* part of the Architecture: they are the decision
// variable of the sizing problem and live in an Allocation. The Architecture
// describes topology and traffic only.
package arch

import (
	"errors"
	"fmt"
	"sort"
)

// ErrInvalid is wrapped by all validation failures.
var ErrInvalid = errors.New("arch: invalid architecture")

// Bus is a shared interconnect with a single transfer engine: it moves one
// request at a time at exponential rate ServiceRate.
type Bus struct {
	ID          string
	ServiceRate float64 // μ, transfers per unit time (>0)
}

// Processor is a traffic endpoint. A processor may attach to several buses
// (dual-homed masters exist in AMBA-style designs and in the paper's Figure
// 1); each attachment has its own egress buffer.
type Processor struct {
	ID    string
	Buses []string // attached buses, at least one
}

// Bridge connects exactly two buses. Buffered reports whether the
// methodology has inserted the pair of directional buffers; an un-buffered
// bridge couples the two arbiters (the quadratic case of §2 of the paper).
type Bridge struct {
	ID       string
	BusA     string
	BusB     string
	Buffered bool
}

// Flow is one Poisson traffic stream between two processors.
type Flow struct {
	From string  // source processor
	To   string  // destination processor
	Rate float64 // packets per unit time (>0)
}

// Architecture is the full communication sub-system description.
type Architecture struct {
	Name       string
	Buses      []Bus
	Processors []Processor
	Bridges    []Bridge
	Flows      []Flow
}

// AttachmentBufferID names the egress buffer of processor proc on bus bus.
func AttachmentBufferID(proc, bus string) string { return proc + "@" + bus }

// BridgeBufferID names the directional buffer of bridge br carrying traffic
// from bus `from` toward the other side.
func BridgeBufferID(br, from string) string { return br + ":" + from + ">" }

// BusByID returns the bus with the given ID.
func (a *Architecture) BusByID(id string) (*Bus, bool) {
	for i := range a.Buses {
		if a.Buses[i].ID == id {
			return &a.Buses[i], true
		}
	}
	return nil, false
}

// ProcessorByID returns the processor with the given ID.
func (a *Architecture) ProcessorByID(id string) (*Processor, bool) {
	for i := range a.Processors {
		if a.Processors[i].ID == id {
			return &a.Processors[i], true
		}
	}
	return nil, false
}

// Clone deep-copies the architecture, so mutations of the copy (notably
// InsertBridgeBuffers) leave the original untouched.
func (a *Architecture) Clone() *Architecture {
	out := &Architecture{Name: a.Name}
	out.Buses = append([]Bus(nil), a.Buses...)
	out.Bridges = append([]Bridge(nil), a.Bridges...)
	out.Flows = append([]Flow(nil), a.Flows...)
	for _, p := range a.Processors {
		out.Processors = append(out.Processors, Processor{
			ID:    p.ID,
			Buses: append([]string(nil), p.Buses...),
		})
	}
	return out
}

// InsertBridgeBuffers marks every bridge as buffered. This is the paper's
// "buffer insertion for bridges": after it, Split (internal/graph) decomposes
// the architecture into one linear subsystem per bus.
func (a *Architecture) InsertBridgeBuffers() {
	for i := range a.Bridges {
		a.Bridges[i].Buffered = true
	}
}

// Validate checks referential integrity, positivity of rates, and structural
// sanity (no self-bridges, no duplicate IDs, flows between existing
// processors, every flow routable).
func (a *Architecture) Validate() error {
	if len(a.Buses) == 0 {
		return fmt.Errorf("%w: no buses", ErrInvalid)
	}
	busSeen := map[string]bool{}
	for _, b := range a.Buses {
		if b.ID == "" {
			return fmt.Errorf("%w: bus with empty ID", ErrInvalid)
		}
		if busSeen[b.ID] {
			return fmt.Errorf("%w: duplicate bus %q", ErrInvalid, b.ID)
		}
		busSeen[b.ID] = true
		if b.ServiceRate <= 0 {
			return fmt.Errorf("%w: bus %q service rate %v", ErrInvalid, b.ID, b.ServiceRate)
		}
	}
	procSeen := map[string]bool{}
	for _, p := range a.Processors {
		if p.ID == "" {
			return fmt.Errorf("%w: processor with empty ID", ErrInvalid)
		}
		if procSeen[p.ID] {
			return fmt.Errorf("%w: duplicate processor %q", ErrInvalid, p.ID)
		}
		procSeen[p.ID] = true
		if len(p.Buses) == 0 {
			return fmt.Errorf("%w: processor %q attached to no bus", ErrInvalid, p.ID)
		}
		att := map[string]bool{}
		for _, b := range p.Buses {
			if !busSeen[b] {
				return fmt.Errorf("%w: processor %q attached to unknown bus %q", ErrInvalid, p.ID, b)
			}
			if att[b] {
				return fmt.Errorf("%w: processor %q attached to bus %q twice", ErrInvalid, p.ID, b)
			}
			att[b] = true
		}
	}
	brSeen := map[string]bool{}
	for _, br := range a.Bridges {
		if br.ID == "" {
			return fmt.Errorf("%w: bridge with empty ID", ErrInvalid)
		}
		if brSeen[br.ID] {
			return fmt.Errorf("%w: duplicate bridge %q", ErrInvalid, br.ID)
		}
		brSeen[br.ID] = true
		if !busSeen[br.BusA] || !busSeen[br.BusB] {
			return fmt.Errorf("%w: bridge %q references unknown bus (%q,%q)", ErrInvalid, br.ID, br.BusA, br.BusB)
		}
		if br.BusA == br.BusB {
			return fmt.Errorf("%w: bridge %q is a self-loop on %q", ErrInvalid, br.ID, br.BusA)
		}
	}
	for i, f := range a.Flows {
		if !procSeen[f.From] || !procSeen[f.To] {
			return fmt.Errorf("%w: flow %d references unknown processor (%q→%q)", ErrInvalid, i, f.From, f.To)
		}
		if f.From == f.To {
			return fmt.Errorf("%w: flow %d is a self-loop on %q", ErrInvalid, i, f.From)
		}
		if f.Rate <= 0 {
			return fmt.Errorf("%w: flow %d (%q→%q) rate %v", ErrInvalid, i, f.From, f.To, f.Rate)
		}
	}
	if _, err := a.Routes(); err != nil {
		return err
	}
	return nil
}

// BufferIDs returns the sorted IDs of every buffer in the architecture:
// all processor-attachment egress buffers plus, for buffered bridges, both
// directional bridge buffers.
func (a *Architecture) BufferIDs() []string {
	var ids []string
	for _, p := range a.Processors {
		for _, b := range p.Buses {
			ids = append(ids, AttachmentBufferID(p.ID, b))
		}
	}
	for _, br := range a.Bridges {
		if br.Buffered {
			ids = append(ids, BridgeBufferID(br.ID, br.BusA), BridgeBufferID(br.ID, br.BusB))
		}
	}
	sort.Strings(ids)
	return ids
}
