// Package httpapi is socbufd's HTTP face, factored out of the binary so the
// router (cmd/socbufrouter) and the fleet tests can host real backends
// in-process. It adapts the engine's typed API to HTTP: the handlers only
// decode requests, map errors to status codes, and stream rows — all solve
// composition lives in internal/engine.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"socbuf/internal/engine"
	"socbuf/internal/experiments"
	"socbuf/internal/placement"
)

// Server adapts one engine to the socbufd HTTP API. Create with NewServer.
type Server struct {
	eng *engine.Engine
	// defaultCache routes every request through the engine's shared solve
	// cache unless the client opted in itself — the service's steady-state
	// configuration (cache-backed concurrency).
	defaultCache bool
	// ready is the drain-aware readiness bit behind GET /v1/readyz: true from
	// construction until SetReady(false), which the shutdown path flips
	// BEFORE stopping admission so ring health checks route around a
	// draining backend ahead of its first 503.
	ready atomic.Bool
}

// NewServer wraps eng. defaultCache routes every request through the shared
// solve cache unless the client opted in itself.
func NewServer(eng *engine.Engine, defaultCache bool) *Server {
	s := &Server{eng: eng, defaultCache: defaultCache}
	s.ready.Store(true)
	return s
}

// SetReady flips the readiness bit served by GET /v1/readyz. Liveness
// (/v1/healthz) is unaffected — a draining process is alive but unready.
func (s *Server) SetReady(ok bool) { s.ready.Store(ok) }

// Handler builds the socbufd route table:
//
//	POST /v1/solve          one methodology run (coalesced)    → JSON SolveResult
//	POST /v1/sweep/budget   budget sweep                       → NDJSON rows + summary
//	POST /v1/sweep/scenario scenario sweep                     → NDJSON rows + summary
//	POST /v1/placement      buffer-placement run               → NDJSON evals + summary
//	GET  /v1/stats          engine + cache counters            → JSON engine.Stats
//	GET  /v1/healthz        liveness (always 200 while serving)
//	GET  /v1/readyz         drain-aware readiness (503 once draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.solve)
	mux.HandleFunc("POST /v1/sweep/budget", s.budgetSweep)
	mux.HandleFunc("POST /v1/sweep/scenario", s.scenarioSweep)
	mux.HandleFunc("POST /v1/placement", s.placement)
	mux.HandleFunc("GET /v1/stats", s.stats)
	mux.HandleFunc("GET /v1/healthz", s.healthz)
	mux.HandleFunc("GET /v1/readyz", s.readyz)
	return mux
}

// healthz is liveness: the process is up and serving HTTP.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// readyz is drain-aware readiness: 200 while the backend accepts work, 503 +
// Retry-After once SetReady(false) marked it draining. The router's ring
// health checks poll this.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

func (s *Server) solve(w http.ResponseWriter, r *http.Request) {
	var req engine.SolveRequest
	if err := decodeJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	req.UseCache = req.UseCache || s.defaultCache
	res, err := s.eng.Solve(r.Context(), req)
	if err != nil {
		s.writeEngineError(w, r, err)
		return
	}
	writeJSON(w, res)
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.eng.Stats())
}

// planJSON is the wire shape of a sweep plan summary (SweepPlan itself holds
// error values and unexported state, so it is mapped, not marshalled).
type planJSON struct {
	Points           int `json:"points"`
	Models           int `json:"models"`
	UniqueStructural int `json:"uniqueStructural"`
}

// budgetSummary is the trailing NDJSON line of /v1/sweep/budget. Cached
// marks a sweep served from the engine cache's result tier (its point lines
// are the stored rows, replayed).
type budgetSummary struct {
	Arch   string                  `json:"arch"`
	Points []experiments.BudgetRow `json:"points"`
	Plan   *planJSON               `json:"plan,omitempty"`
	Cached bool                    `json:"cached,omitempty"`
	Error  string                  `json:"error,omitempty"`
}

func (s *Server) budgetSweep(w http.ResponseWriter, r *http.Request) {
	var req engine.BudgetSweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	req.UseCache = req.UseCache || s.defaultCache

	st := newStream(w)
	req.OnRow = func(row experiments.BudgetRow) {
		st.send(struct {
			Point experiments.BudgetRow `json:"point"`
		}{row})
	}
	res, err := s.eng.BudgetSweep(r.Context(), req)
	if res == nil {
		st.fail(s, w, r, err)
		return
	}
	sum := budgetSummary{Arch: res.ArchName, Points: res.Sweep.Rows(), Cached: res.Cached}
	if res.Plan != nil {
		sum.Plan = &planJSON{
			Points:           len(res.Plan.Budgets),
			Models:           res.Plan.Models,
			UniqueStructural: res.Plan.UniqueStructural,
		}
	}
	if err != nil {
		sum.Error = err.Error()
	}
	st.send(struct {
		Summary budgetSummary `json:"summary"`
	}{sum})
}

// scenarioSummary is the trailing NDJSON line of /v1/sweep/scenario.
type scenarioSummary struct {
	Points []experiments.ScenarioRow `json:"points"`
	Error  string                    `json:"error,omitempty"`
}

func (s *Server) scenarioSweep(w http.ResponseWriter, r *http.Request) {
	var req engine.ScenarioSweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	req.UseCache = req.UseCache || s.defaultCache

	st := newStream(w)
	req.OnRow = func(row experiments.ScenarioRow) {
		st.send(struct {
			Point experiments.ScenarioRow `json:"point"`
		}{row})
	}
	res, err := s.eng.ScenarioSweep(r.Context(), req)
	if res == nil {
		st.fail(s, w, r, err)
		return
	}
	sum := scenarioSummary{Points: res.Sweep.Rows()}
	if err != nil {
		sum.Error = err.Error()
	}
	st.send(struct {
		Summary scenarioSummary `json:"summary"`
	}{sum})
}

// placement runs one buffer-placement request, streaming every per-placement
// solver evaluation as it completes (the same NDJSON machinery as the
// sweeps) and closing with the full typed result. A request served from the
// cache's placement tier streams no eval lines — only the summary, with its
// cached flag set.
func (s *Server) placement(w http.ResponseWriter, r *http.Request) {
	var req engine.PlacementRequest
	if err := decodeJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	req.UseCache = req.UseCache || s.defaultCache

	st := newStream(w)
	req.OnEval = func(p placement.Point) {
		st.send(struct {
			Eval placement.Point `json:"eval"`
		}{p})
	}
	res, err := s.eng.Placement(r.Context(), req)
	if res == nil {
		st.fail(s, w, r, err)
		return
	}
	st.send(struct {
		Summary *engine.PlacementResult `json:"summary"`
	}{res})
}

// stream serialises NDJSON lines from concurrent sweep workers and flushes
// each row so clients see points as they complete. The Content-Type header
// is set lazily on the first line, which keeps the error path free to send a
// plain status code when the sweep dies before producing anything.
type stream struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher
	enc     *json.Encoder
	started bool
}

func newStream(w http.ResponseWriter) *stream {
	f, _ := w.(http.Flusher)
	return &stream{w: w, flusher: f, enc: json.NewEncoder(w)}
}

func (st *stream) send(v any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.started {
		st.w.Header().Set("Content-Type", "application/x-ndjson")
		st.started = true
	}
	// A client that disconnected mid-sweep makes Encode fail; the request
	// context is already cancelled, so just stop emitting.
	if err := st.enc.Encode(v); err != nil {
		return
	}
	if st.flusher != nil {
		st.flusher.Flush()
	}
}

// fail reports a sweep that produced no result: as a plain HTTP error when
// nothing has been streamed yet, as a final error line otherwise (the status
// code is gone once rows went out).
func (st *stream) fail(s *Server, w http.ResponseWriter, r *http.Request, err error) {
	st.mu.Lock()
	started := st.started
	st.mu.Unlock()
	if !started {
		s.writeEngineError(w, r, err)
		return
	}
	st.send(map[string]string{"error": err.Error()})
}

// writeEngineError maps engine errors onto status codes: invalid requests
// are the client's fault (400); an over-capacity or shutting-down engine is
// backpressure (503 + Retry-After) — including a request cancelled
// mid-flight by the drain, whose error is a wrapped context.Canceled rather
// than ErrClosed; a request whose own context died means the client is gone
// (no response will be read); anything else is a server-side solve failure
// (500).
func (s *Server) writeEngineError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, engine.ErrInvalidRequest):
		httpError(w, http.StatusBadRequest, err)
	case errors.Is(err, engine.ErrBusy), errors.Is(err, engine.ErrClosed),
		errors.Is(err, context.Canceled), r.Context().Err() != nil:
		// Backpressure (busy, closed, drain-cancelled) — retryable — or a
		// disconnected client that will never read the response.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

// maxRequestBody bounds request bodies (8 MiB — far above any realistic
// inline architecture) so an oversized POST cannot balloon server memory
// before validation ever runs.
const maxRequestBody = 8 << 20

// decodeJSON strictly decodes one size-capped JSON document (unknown fields
// and trailing garbage rejected).
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return errors.New("bad request body: trailing data")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a failed write means the client is gone
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
