package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"

	"socbuf/internal/engine"
	"socbuf/internal/experiments"
	"socbuf/internal/httpapi"
	"socbuf/internal/placement"
)

// parseSizing extracts from a 200 response of path the part the output
// check compares, as canonical JSON: the sizing a client acts on. A sweep
// or placement that reports an error in its stream, or a body that does not
// decode, is a failed request.
func parseSizing(path string, body []byte) (string, error) {
	switch path {
	case pathSolve:
		var res engine.SolveResult
		if err := json.Unmarshal(body, &res); err != nil {
			return "", fmt.Errorf("decoding solve result: %w", err)
		}
		if len(res.Alloc) == 0 {
			return "", errors.New("solve result without an allocation")
		}
		return canonical(struct {
			Alloc       []engine.AllocRow `json:"alloc"`
			UniformLoss int64             `json:"uniformLoss"`
			SizedLoss   int64             `json:"sizedLoss"`
		}{res.Alloc, res.UniformLoss, res.SizedLoss})
	case pathSweep:
		var sum struct {
			Points []experiments.BudgetRow `json:"points"`
			Error  string                  `json:"error"`
		}
		if err := lastLine(body, "summary", &sum); err != nil {
			return "", err
		}
		if sum.Error != "" || len(sum.Points) == 0 {
			return "", fmt.Errorf("sweep failed: %q", sum.Error)
		}
		type point struct {
			Budget      int   `json:"budget"`
			UniformLoss int64 `json:"uniformLoss"`
			SizedLoss   int64 `json:"sizedLoss"`
		}
		var pts []point
		for _, p := range sum.Points {
			if p.Error != "" {
				return "", fmt.Errorf("sweep point %d failed: %s", p.Budget, p.Error)
			}
			pts = append(pts, point{p.Budget, p.UniformLoss, p.SizedLoss})
		}
		return canonical(pts)
	case pathPlacement:
		var res engine.PlacementResult
		if err := lastLine(body, "summary", &res); err != nil {
			return "", err
		}
		if len(res.Chosen.Decisions) == 0 && res.Candidates > 0 {
			return "", errors.New("placement result without a chosen placement")
		}
		return canonical(struct {
			Decisions []placement.Decision `json:"decisions"`
			Cost      float64              `json:"cost"`
			Loss      int64                `json:"loss"`
		}{res.Chosen.Decisions, res.Chosen.Cost, res.Chosen.Loss})
	}
	return "", fmt.Errorf("no sizing for path %s", path)
}

func canonical(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}

// lastLine decodes field of an NDJSON stream's final line into v. Any line
// carrying a top-level "error" fails the stream.
func lastLine(body []byte, field string, v any) error {
	var last map[string]json.RawMessage
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		last = nil
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("decoding stream line: %w", err)
		}
		if msg, ok := last["error"]; ok {
			return fmt.Errorf("stream error: %s", msg)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	raw, ok := last[field]
	if !ok {
		return fmt.Errorf("stream ends without a %q line", field)
	}
	return json.Unmarshal(raw, v)
}

// checkSet is the requests the output check recomputes: the first
// w.checked requests, or for a workload over a fixed set of fingerprints,
// one request per fingerprint.
func checkSet(w workload, seed int64) []request {
	var out []request
	seen := map[string]bool{}
	for i := 0; len(out) < w.checked; i++ {
		r := w.request(seed, i)
		if w.distinct > 0 {
			if seen[fingerprint(r)] {
				continue
			}
			seen[fingerprint(r)] = true
		}
		out = append(out, r)
	}
	return out
}

// fingerprint identifies a request by its content, as the servers'
// coalescing and routing do.
func fingerprint(r request) string { return r.path + " " + string(r.body) }

// reference answers reqs on a fresh in-process engine behind the same HTTP
// handler socbufd serves, with the solve cache on (socbufd's default). It
// runs the requests one after another, in order.
func reference(ctx context.Context, reqs []request) ([]string, error) {
	eng := engine.New(engine.Config{})
	defer eng.Close()
	h := httpapi.NewServer(eng, true).Handler()
	out := make([]string, len(reqs))
	for i, r := range reqs {
		body, err := serveInProcess(ctx, h, r)
		if err != nil {
			return nil, fmt.Errorf("reference request %d: %w", r.index, err)
		}
		if out[i], err = parseSizing(r.path, body); err != nil {
			return nil, fmt.Errorf("reference request %d: %w", r.index, err)
		}
	}
	return out, nil
}

// serveInProcess runs one request through h without a network hop.
func serveInProcess(ctx context.Context, h http.Handler, r request) ([]byte, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequestWithContext(ctx, http.MethodPost, r.path, bytes.NewReader(r.body))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// checkOutcomes compares every checked response with the reference and
// marks mismatches as failed. For a fixed-fingerprint workload every
// response is checked against its fingerprint's reference; otherwise the
// first len(reqs) requests are. It returns the number of mismatches.
func checkOutcomes(w workload, outs []outcome, reqs []request, ref []string) int {
	want := map[string]string{}
	for i, r := range reqs {
		want[fingerprint(r)] = ref[i]
	}
	bad := 0
	for i := range outs {
		o := &outs[i]
		if w.distinct == 0 && o.req.index >= len(reqs) {
			continue
		}
		exp, ok := want[fingerprint(o.req)]
		if !ok || o.err != nil {
			continue // a request that already failed is counted once
		}
		if o.sizing != exp {
			o.err = fmt.Errorf("sizing differs from the in-process engine:\n got  %s\n want %s", o.sizing, exp)
			bad++
		}
	}
	return bad
}
