package solvecache

import (
	"testing"

	"socbuf/internal/ctmdp"
)

// testClients returns a small heterogeneous client set.
func testClients() []ctmdp.Client {
	return []ctmdp.Client{
		{BufferID: "a", Lambda: 1.5, Levels: 2, UnitsPerLevel: 3, LossWeight: 1, DownstreamFullProb: 0.1},
		{BufferID: "b", Lambda: 0.7, Levels: 2, UnitsPerLevel: 5, LossWeight: 2, DownstreamFullProb: 0},
		{BufferID: "c", Lambda: 2.2, Levels: 1, UnitsPerLevel: 4, LossWeight: 1, DownstreamFullProb: 0},
	}
}

func mustModel(t *testing.T, bus string, rate float64, clients []ctmdp.Client) *ctmdp.Model {
	t.Helper()
	m, err := ctmdp.NewModel(bus, rate, clients)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFingerprintPermutationInvariant(t *testing.T) {
	cs := testClients()
	m1 := mustModel(t, "bus1", 4, cs)
	perm := []ctmdp.Client{cs[2], cs[0], cs[1]}
	m2 := mustModel(t, "bus1", 4, perm)
	if Fingerprint(m1) != Fingerprint(m2) {
		t.Error("permuted-client-order models must share a fingerprint")
	}
}

func TestFingerprintIgnoresNames(t *testing.T) {
	cs := testClients()
	m1 := mustModel(t, "busA", 4, cs)
	renamed := testClients()
	for i := range renamed {
		renamed[i].BufferID = "other" + renamed[i].BufferID
	}
	// Aggregate membership is solve-irrelevant bookkeeping too.
	renamed[0].Members = []string{"x", "y"}
	renamed[0].MemberLambda = []float64{1.0, 0.5}
	m2 := mustModel(t, "busB", 4, renamed)
	if Fingerprint(m1) != Fingerprint(m2) {
		t.Error("bus name, buffer IDs and membership must not affect the fingerprint")
	}
}

// TestFingerprintCapacityChange: the solve never reads a capacity quantum,
// so changing one keeps the key.
func TestFingerprintCapacityChange(t *testing.T) {
	cs := testClients()
	m1 := mustModel(t, "bus1", 4, cs)
	resized := testClients()
	resized[1].UnitsPerLevel = 9
	m2 := mustModel(t, "bus1", 4, resized)
	if Fingerprint(m1) != Fingerprint(m2) {
		t.Error("changed capacity must not change the fingerprint")
	}
}

func TestFingerprintStructuralChange(t *testing.T) {
	cs := testClients()
	m1 := mustModel(t, "bus1", 4, cs)
	for name, mutate := range map[string]func(*ctmdp.Client){
		"lambda":     func(c *ctmdp.Client) { c.Lambda += 0.25 },
		"levels":     func(c *ctmdp.Client) { c.Levels++ },
		"lossWeight": func(c *ctmdp.Client) { c.LossWeight *= 2 },
		"downstream": func(c *ctmdp.Client) { c.DownstreamFullProb = 0.5 },
	} {
		changed := testClients()
		mutate(&changed[0])
		m2 := mustModel(t, "bus1", 4, changed)
		if Fingerprint(m1) == Fingerprint(m2) {
			t.Errorf("%s change must alter the fingerprint", name)
		}
	}
	m3 := mustModel(t, "bus1", 5, testClients())
	if Fingerprint(m1) == Fingerprint(m3) {
		t.Error("service-rate change must alter the fingerprint")
	}
}
