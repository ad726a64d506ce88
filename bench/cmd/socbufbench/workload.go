package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"socbuf/internal/scenario"
)

// Endpoint paths the workloads drive.
const (
	pathSolve     = "/v1/solve"
	pathSweep     = "/v1/sweep/budget"
	pathPlacement = "/v1/placement"
)

// request is one generated HTTP request. Its body is exactly what a client
// sends: socbufd adds useCache itself (its default), so the body never does.
type request struct {
	index int
	path  string
	body  []byte
}

// workload is one fixed traffic mix. Requests are a pure function of the
// run seed and the request index, so the same -seed replays the same inputs
// and no two indexes share an input unless the mix says so (hot-fleet).
type workload struct {
	name string
	why  string
	// shards > 0 puts socbufrouter in front of that many socbufd shards,
	// which share the router's remote cache tier; 0 is one socbufd.
	shards int
	// distinct > 0 means requests cycle over that many fingerprints, all
	// answered once during set-up so the timed run reads warm caches.
	distinct int
	// checked is how many requests (from index 0) the output check
	// recomputes; traced is how many the traced run replays.
	checked, traced int
	request         func(seed int64, i int) request
}

var workloads = []workload{
	{
		name:    "screen",
		why:     "1 client; fresh 4-8 bus topologies through analytic and robust sizing: no LP and no cache hits, so the simulator dominates",
		checked: 32,
		traced:  32,
		request: screenRequest,
	},
	{
		name:    "exact-sweep",
		why:     "1 client; fresh 4-8 bus chains through exact budget sweeps: each request is a new structural class, so CTMDP/LP work and cache writes dominate",
		checked: 32,
		traced:  32,
		request: exactSweepRequest,
	},
	{
		name:    "placement",
		why:     "1 client; fresh 10-14 bus topologies through the placement DP, beside many short survivor simulations",
		checked: 16,
		traced:  16,
		request: placementRequest,
	},
	{
		name:     "hot-fleet",
		why:      "1 client; router plus two shards over 16 primed fingerprints: every request is a cache hit, so routing, JSON and cache reads show",
		shards:   2,
		distinct: 16,
		checked:  16,
		traced:   256,
		request:  hotFleetRequest,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// rngFor seeds one request's randomness from the run seed and the request
// index, so every index draws an independent but reproducible stream.
func rngFor(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

// generated builds a parametric topology as inline architecture JSON and
// returns it with the buffer count of its buffered form (the budget floor).
// The shape (family, bus count, fan-out) is a fixed cycle over the request
// index, so every seed offers the same mix of problem sizes; the seed only
// moves destinations and rates. Skew 4 gives unequal flow rates.
func generated(kind string, buses, fanOut int, rng *rand.Rand) (json.RawMessage, int, error) {
	t := scenario.Topology{Kind: kind, Buses: buses, FanOut: fanOut, Skew: 4, Seed: rng.Int63()}
	a, err := t.Build()
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		return nil, 0, err
	}
	// Every processor has one egress buffer; every bridge gets two.
	return json.RawMessage(bytes.TrimSpace(buf.Bytes())), len(a.Processors) + 2*len(a.Bridges), nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps and slices of plain values are marshalled
	}
	return b
}

// sizeClasses is how many problem sizes a workload cycles through. Cost
// rises steeply with size, so with an even count p50 falls on the step
// between two sizes, and a few requests more or less on either side move it
// by a third. An odd count puts p50 (and, with five, p90) inside one size.
const sizeClasses = 5

// screenRequest: a 4-8 bus chain/star/tree/mesh solved by the analytic
// backend three times in four and by the robust backend (32 samples) once,
// evaluated on 2 simulation seeds at horizon 2000.
func screenRequest(seed int64, i int) request {
	rng := rngFor(seed, i)
	kind := []string{scenario.KindChain, scenario.KindStar, scenario.KindTree, scenario.KindMesh}[i%4]
	buses := 4 + (i/4)%sizeClasses
	raw, buffers, err := generated(kind, buses, 2, rng)
	if err != nil {
		panic(err) // generated topologies always build; a failure is a bug
	}
	body := map[string]any{
		"archJSON": raw,
		"budget":   3 * buffers,
		"seeds":    []int64{rng.Int63n(1 << 30), rng.Int63n(1 << 30)},
		"horizon":  2000,
		"method":   "analytic",
	}
	if (i/4)%4 == 3 {
		body["method"] = "robust"
		body["uncertainty"] = map[string]any{"samples": 32, "seed": rng.Int63n(1 << 30)}
	}
	return request{index: i, path: pathSolve, body: mustJSON(body)}
}

// exactSweepRequest: a 4-8 bus chain swept exactly over budgets
// {8n, 10n, 12n}, 2 iterations, 1 seed, horizon 150. Chains only, one
// processor per bus: on a few generated stars or trees in a thousand, and
// on some chains with two processors per bus, the exact LP stops at its
// iteration limit, and a workload must not fail.
func exactSweepRequest(seed int64, i int) request {
	rng := rngFor(seed, i)
	n := 4 + i%sizeClasses
	raw, _, err := generated(scenario.KindChain, n, 1, rng)
	if err != nil {
		panic(err)
	}
	return request{index: i, path: pathSweep, body: mustJSON(map[string]any{
		"archJSON":   raw,
		"budgets":    []int{8 * n, 10 * n, 12 * n},
		"method":     "exact",
		"iterations": 2,
		"seeds":      []int64{rng.Int63n(1 << 30)},
		"horizon":    150,
		"warmUp":     30,
	})}
}

// placementRequest: a 10-14 bus tree/star/mesh/chain placed with analytic
// screening, refineTop 1, 1 seed, horizon 100.
func placementRequest(seed int64, i int) request {
	rng := rngFor(seed, i)
	kind := []string{scenario.KindTree, scenario.KindStar, scenario.KindMesh, scenario.KindChain}[i%4]
	raw, buffers, err := generated(kind, 10+(i/4)%sizeClasses, 1, rng)
	if err != nil {
		panic(err)
	}
	return request{index: i, path: pathPlacement, body: mustJSON(map[string]any{
		"archJSON":  raw,
		"budget":    3 * buffers,
		"method":    "analytic",
		"refineTop": 1,
		"seeds":     []int64{rng.Int63n(1 << 30)},
		"horizon":   100,
		"warmUp":    20,
	})}
}

// hotFleet is the 12-slot request mix over the 16 fingerprints: per cycle
// 8 exact solves, 2 robust solves, 1 sweep and 1 placement, each kind
// cycling over its own variants (8 + 4 + 2 + 2 = 16 fingerprints).
var hotFleet = []struct {
	kind     string
	weight   int
	variants int
}{
	{"solve", 8, 8},
	{"robust", 2, 4},
	{"sweep", 1, 2},
	{"placement", 1, 2},
}

// hotFleetRequest: the twobus preset, 1 iteration, horizon 50, short so the
// serving layers are not hidden behind simulation; variants differ in
// budget and simulation seed, both drawn from the run seed.
func hotFleetRequest(seed int64, i int) request {
	slot, cycle := i%12, i/12
	for ki, k := range hotFleet {
		if slot >= k.weight {
			slot -= k.weight
			continue
		}
		v := (slot + k.weight*cycle) % k.variants
		rng := rngFor(seed, 1000*(ki+1)+v) // one stream per fingerprint
		budget := []int{16, 24, 32}[rng.Intn(3)]
		sim := rng.Int63n(1 << 30)
		body := map[string]any{"arch": "twobus", "iterations": 1, "seeds": []int64{sim}, "horizon": 50, "warmUp": 10}
		path := pathSolve
		switch k.kind {
		case "solve":
			body["budget"] = budget
		case "robust":
			body["budget"] = budget
			body["method"] = "robust"
			body["uncertainty"] = map[string]any{"samples": 32, "seed": sim}
		case "sweep":
			body["budgets"] = []int{16, 24, 32}
			path = pathSweep
		case "placement":
			body["budget"] = budget
			body["method"] = "analytic"
			path = pathPlacement
		}
		return request{index: i, path: path, body: mustJSON(body)}
	}
	panic("unreachable: slot beyond the mix weights")
}
