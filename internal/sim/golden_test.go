package sim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/scenario"
	"socbuf/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current simulator")

const goldenPath = "testdata/golden.json"

// goldenCase is one pinned simulator run.
type goldenCase struct {
	Name    string       `json:"name"`
	Results *sim.Results `json:"results"`
}

// goldenRuns simulates the pinned inputs: the three presets and one
// generated topology per family, each buffered and uniformly sized at its
// registry budget, under longest-queue arbitration, without and with the
// timeout policy, for seeds 1–3. Runs under a policy arbiter, which takes
// the simulator's other dispatch path, are pinned by the exact-answer
// golden file, whose evaluations simulate under the solved CTMDP policies.
func goldenRuns(t *testing.T) []goldenCase {
	t.Helper()
	var out []goldenCase
	for _, name := range []string{"figure1", "twobus", "netproc", "chain6", "star6", "tree7", "mesh9"} {
		sc, ok := scenario.Get(name)
		if !ok {
			t.Fatalf("no registry scenario %q", name)
		}
		a, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		a.InsertBridgeBuffers()
		alloc, err := arch.UniformAllocation(a, sc.Budget)
		if err != nil {
			t.Fatal(err)
		}
		for _, timeout := range []float64{0, 1.1} {
			for seed := int64(1); seed <= 3; seed++ {
				s, err := sim.New(sim.Config{Arch: a, Alloc: alloc, Horizon: 2000, WarmUp: 100,
					Seed: seed, Timeout: timeout})
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, goldenCase{
					Name:    fmt.Sprintf("%s/longest-queue/timeout=%g/seed=%d", name, timeout, seed),
					Results: res,
				})
			}
		}
	}
	return out
}

// TestGoldenTrajectories pins the simulator's seeded outputs bit for bit:
// every Results field of every pinned run must equal the recorded value,
// floats compared by their bits. Any change to the random draw order —
// which the seeded comparisons against a second run or a closed form
// cannot see — fails here. The JSON encoding round-trips float64 exactly,
// so the recorded decimal values carry the bits. After a deliberate change
// to the simulator's outputs, rerun with -update and review the diff.
func TestGoldenTrajectories(t *testing.T) {
	got := goldenRuns(t)
	if *update {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, c := range got {
			b, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d runs, the test makes %d", goldenPath, len(want), len(got))
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			t.Fatalf("run %d is %s, recorded as %s", i, got[i].Name, want[i].Name)
		}
		if diff := diffBits(reflect.ValueOf(*got[i].Results), reflect.ValueOf(*want[i].Results)); diff != "" {
			t.Errorf("%s: %s", got[i].Name, diff)
		}
	}
}

// diffBits compares two Results field by field, floats by bits, and
// describes the first difference ("" when equal). A field of a kind it does
// not know fails, so a new Results field cannot go unpinned.
func diffBits(got, want reflect.Value) string {
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		g, w := got.Field(i), want.Field(i)
		switch g.Kind() {
		case reflect.Map:
			if g.Len() != w.Len() {
				return fmt.Sprintf("%s has %d keys, recorded %d", name, g.Len(), w.Len())
			}
			iter := g.MapRange()
			for iter.Next() {
				wv := w.MapIndex(iter.Key())
				if !wv.IsValid() {
					return fmt.Sprintf("%s[%v] was not recorded", name, iter.Key())
				}
				if !sameBits(iter.Value(), wv) {
					return fmt.Sprintf("%s[%v] = %v, recorded %v", name, iter.Key(), iter.Value(), wv)
				}
			}
		default:
			if !sameBits(g, w) {
				return fmt.Sprintf("%s = %v, recorded %v", name, g, w)
			}
		}
	}
	return ""
}

func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	}
	panic(fmt.Sprintf("golden: unpinned kind %s: extend diffBits", a.Kind()))
}
