package arch

import (
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, a := range []*Architecture{Figure1(), TwoBusAMBA(), NetworkProcessor()} {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	a := Figure1()
	if len(a.Buses) != 4 || len(a.Processors) != 5 || len(a.Bridges) != 2 {
		t.Fatalf("figure1 shape: %d buses, %d procs, %d bridges",
			len(a.Buses), len(a.Processors), len(a.Bridges))
	}
	// Bus a must connect only to processors: no bridge touches it.
	for _, br := range a.Bridges {
		if br.BusA == "a" || br.BusB == "a" {
			t.Fatalf("bridge %s touches bus a", br.ID)
		}
	}
	// Bridges start un-buffered (the paper's pre-insertion state).
	for _, br := range a.Bridges {
		if br.Buffered {
			t.Fatalf("bridge %s starts buffered", br.ID)
		}
	}
}

func TestNetworkProcessorShape(t *testing.T) {
	a := NetworkProcessor()
	if len(a.Processors) != 17 {
		t.Fatalf("netproc has %d processors, want 17", len(a.Processors))
	}
	loads := map[string]float64{}
	for _, f := range a.Flows {
		loads[f.From] += f.Rate
	}
	if loads["p16"] <= loads["p4"] || loads["p4"] <= loads["p1"] {
		t.Fatalf("load skew broken: p16=%v p4=%v p1=%v", loads["p16"], loads["p4"], loads["p1"])
	}
	if loads["p1"] > 1 {
		t.Fatalf("p1 should be cold, has %v", loads["p1"])
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	mk := func(mut func(*Architecture)) *Architecture {
		a := TwoBusAMBA()
		mut(a)
		return a
	}
	cases := []struct {
		name string
		a    *Architecture
	}{
		{"no buses", &Architecture{}},
		{"dup bus", mk(func(a *Architecture) { a.Buses = append(a.Buses, Bus{ID: "ahb1", ServiceRate: 1}) })},
		{"empty bus id", mk(func(a *Architecture) { a.Buses[0].ID = ""; a.Processors = nil; a.Flows = nil; a.Bridges = nil })},
		{"zero rate", mk(func(a *Architecture) { a.Buses[0].ServiceRate = 0 })},
		{"dup proc", mk(func(a *Architecture) {
			a.Processors = append(a.Processors, Processor{ID: "cpu", Buses: []string{"ahb1"}})
		})},
		{"empty proc id", mk(func(a *Architecture) { a.Processors[0].ID = "" })},
		{"proc no bus", mk(func(a *Architecture) { a.Processors[0].Buses = nil })},
		{"proc unknown bus", mk(func(a *Architecture) { a.Processors[0].Buses = []string{"nope"} })},
		{"proc dup attach", mk(func(a *Architecture) { a.Processors[0].Buses = []string{"ahb1", "ahb1"} })},
		{"dup bridge", mk(func(a *Architecture) { a.Bridges = append(a.Bridges, Bridge{ID: "br", BusA: "ahb1", BusB: "ahb2"}) })},
		{"empty bridge id", mk(func(a *Architecture) { a.Bridges[0].ID = "" })},
		{"bridge unknown bus", mk(func(a *Architecture) { a.Bridges[0].BusB = "nope" })},
		{"self bridge", mk(func(a *Architecture) { a.Bridges[0].BusB = "ahb1" })},
		{"flow unknown proc", mk(func(a *Architecture) { a.Flows[0].From = "nope" })},
		{"flow self loop", mk(func(a *Architecture) { a.Flows[0].To = a.Flows[0].From })},
		{"flow zero rate", mk(func(a *Architecture) { a.Flows[0].Rate = 0 })},
		{"unroutable flow", mk(func(a *Architecture) { a.Bridges = nil })},
	}
	for _, c := range cases {
		if err := c.a.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

func TestLookups(t *testing.T) {
	a := TwoBusAMBA()
	if _, ok := a.BusByID("ahb1"); !ok {
		t.Fatal("BusByID miss")
	}
	if _, ok := a.BusByID("zzz"); ok {
		t.Fatal("BusByID false hit")
	}
	if _, ok := a.ProcessorByID("cpu"); !ok {
		t.Fatal("ProcessorByID miss")
	}
	if _, ok := a.ProcessorByID("zzz"); ok {
		t.Fatal("ProcessorByID false hit")
	}
}

func TestInsertBridgeBuffers(t *testing.T) {
	a := Figure1()
	a.InsertBridgeBuffers()
	for _, br := range a.Bridges {
		if !br.Buffered {
			t.Fatalf("bridge %s not buffered after insertion", br.ID)
		}
	}
}

func TestBufferIDs(t *testing.T) {
	a := TwoBusAMBA()
	ids := a.BufferIDs()
	// 4 single-homed processors, bridge not yet buffered.
	if len(ids) != 4 {
		t.Fatalf("BufferIDs = %v, want 4 attachment buffers", ids)
	}
	a.InsertBridgeBuffers()
	ids = a.BufferIDs()
	if len(ids) != 6 {
		t.Fatalf("BufferIDs after insertion = %v, want 6", ids)
	}
	found := map[string]bool{}
	for _, id := range ids {
		found[id] = true
	}
	for _, want := range []string{"cpu@ahb1", "br:ahb1>", "br:ahb2>"} {
		if !found[want] {
			t.Fatalf("missing buffer %q in %v", want, ids)
		}
	}
	// Sorted?
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("BufferIDs not sorted: %v", ids)
		}
	}
}

func TestBufferIDHelpers(t *testing.T) {
	if AttachmentBufferID("p1", "a") != "p1@a" {
		t.Fatal("AttachmentBufferID format changed")
	}
	if !strings.HasPrefix(BridgeBufferID("br1", "b"), "br1:") {
		t.Fatal("BridgeBufferID format changed")
	}
	if BridgeBufferID("br1", "b") == BridgeBufferID("br1", "f") {
		t.Fatal("bridge buffer directions must differ")
	}
}
