package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"
)

// outcome is one request of the timed run.
type outcome struct {
	req     request
	latency time.Duration
	sizing  string // parseSizing's canonical form
	err     error  // transport error, non-200, or a response that fails to parse
}

// parseCache parses each distinct response body once: the hot-fleet
// workload answers thousands of requests with a handful of bodies.
type parseCache map[[32]byte]parsed

type parsed struct {
	s   string
	err error
}

func (c parseCache) parse(path string, body []byte) (string, error) {
	key := sha256.Sum256(append([]byte(path), body...))
	p, ok := c[key]
	if !ok {
		p.s, p.err = parseSizing(path, body)
		c[key] = p
	}
	return p.s, p.err
}

// post sends one request and reads the whole response; sweeps and
// placements stream NDJSON, so the request ends when the body does. A 503 is
// backpressure: the client waits the Retry-After and sends again, and the
// latency includes the wait. Giving up at the deadline is a failure.
func post(ctx context.Context, client *http.Client, url string, r request, deadline time.Time) ([]byte, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+r.path, bytes.NewReader(r.body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("reading response: %w", err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s >= 0 {
				wait = time.Duration(s) * time.Second
			}
			if time.Now().Add(wait).After(deadline) {
				return nil, fmt.Errorf("HTTP 503 until the deadline: %s", bytes.TrimSpace(body))
			}
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		return body, nil
	}
}

// drive runs the closed loop from one client over one connection: it sends
// the next request, waits for the whole response, and sends another, until
// d has passed. socbufd already runs a request's simulations on GOMAXPROCS
// workers; on a 2-core host a second client widened the spread between runs
// (see README.md). The request in flight at the deadline finishes and
// counts. It returns every outcome, in request order, and the makespan,
// from the first send to the last completion.
func drive(ctx context.Context, url string, w workload, seed int64, d time.Duration) ([]outcome, time.Duration) {
	client := &http.Client{Timeout: requestTimeout}
	defer client.CloseIdleConnections()
	cache := parseCache{}
	var outs []outcome
	start := time.Now()
	deadline := start.Add(d)
	// Generous: a request still running at the deadline may take one more
	// request's worth of time, never minutes.
	hard := deadline.Add(2 * time.Minute)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		r := w.request(seed, i)
		t0 := time.Now()
		body, err := post(ctx, client, url, r, hard)
		o := outcome{req: r, latency: time.Since(t0), err: err}
		if err == nil {
			o.sizing, o.err = cache.parse(r.path, body)
		}
		outs = append(outs, o)
	}
	return outs, time.Since(start)
}

// percentile is the nearest-rank q-quantile of sorted (ascending) values:
// the smallest value with at least a q share of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// beyond counts the samples strictly above the nearest-rank q-quantile's
// rank: a percentile is only reported when at least minBeyond samples lie
// beyond it, so one outlier cannot be the whole tail.
func beyond(n int, q float64) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	return n - k
}

// minBeyond is the tail-sample floor for a reported percentile.
const minBeyond = 10

// requestTimeout bounds one request, so a hung server fails the run
// instead of stalling it; the slowest workload request takes about 1 s.
const requestTimeout = time.Minute
