// Command socbufbench is the repository's end-to-end benchmark. It starts
// fresh socbufd (and, for hot-fleet, socbufrouter) processes, drives one
// closed-loop workload against them for a fixed time from this one process,
// checks every answer it can against an in-process engine, and prints each
// metric by name and unit, then one JSON result line.
//
//	socbufbench --workload screen --seed 1 --seconds 25 --trace 0
//
// With --trace 1 it instead replays the workload's first requests
// in-process, one at a time, with spans around the calls into each layer,
// and reports the per-layer metrics (see trace.go and bench/README.md).
// bench/run.sh builds the servers and this command from the checkout and
// runs it from the checkout's root.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// setupRounds is how often a timed run starts its fleet; setup_s is the
// median, and the last fleet serves the load.
const setupRounds = 9

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: screen, exact-sweep, placement or hot-fleet")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same requests")
		seconds = flag.Int("seconds", 25, "how long the timed run sends requests")
		traced  = flag.Int("trace", 0, "1 = traced in-process replay reporting per-layer metrics, 0 = timed run")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the socbufd and socbufrouter binaries")
		out     = flag.String("out", "bench-out", "directory for trace.json")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var res result
	if *traced == 1 {
		res, err = traceRun(ctx, w, *seed, *out)
	} else {
		res, err = timedRun(ctx, w, *seed, time.Duration(*seconds)*time.Second, *bin)
	}
	if err != nil {
		fatal(err)
	}
	if err := printResult(os.Stdout, w.name, res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "socbufbench:", err)
	os.Exit(1)
}

// timedRun measures the end-to-end metrics of one workload.
func timedRun(ctx context.Context, w workload, seed int64, d time.Duration, bin string) (result, error) {
	checks := checkSet(w, seed)
	var setups []float64
	var f *fleet
	var primed []outcome
	for round := 0; round < setupRounds; round++ {
		if f != nil {
			if _, err := f.stop(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(ctx, bin, w.shards); err != nil {
			return result{}, err
		}
		if primed, err = prime(ctx, f.url, w, checks); err != nil {
			f.stop()
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	outs, makespan := drive(ctx, f.url, w, seed, d)
	rss, err := f.stop()
	if err != nil {
		return result{}, err
	}
	if ctx.Err() != nil {
		return result{}, ctx.Err()
	}

	// Recompute the check set in-process, after the servers are gone so the
	// reference does not compete with them for CPU. A workload without fixed
	// fingerprints checks only the requests the run actually sent.
	if w.distinct == 0 && len(outs) < len(checks) {
		checks = checks[:len(outs)]
	}
	ref, err := reference(ctx, checks)
	if err != nil {
		return result{}, err
	}
	mismatches := checkOutcomes(w, outs, checks, ref) + checkOutcomes(w, primed, checks, ref)

	var lat []float64
	failed := 0
	for _, o := range append(outs, primed...) {
		if o.err != nil {
			failed++
			if failed <= 3 {
				fmt.Fprintf(os.Stderr, "request %d %s failed: %v\n", o.req.index, o.req.path, o.err)
			}
		}
	}
	for _, o := range outs {
		if o.err == nil {
			lat = append(lat, float64(o.latency)/float64(time.Millisecond))
		}
	}
	sort.Float64s(lat)
	if len(lat) == 0 {
		return result{}, errors.New("no request succeeded")
	}
	if b := beyond(len(lat), 0.9); b < minBeyond {
		fmt.Fprintf(os.Stderr, "warning: p90 over %d samples has only %d beyond it\n", len(lat), b)
	}
	sort.Float64s(setups)
	fmt.Printf("%-12s %d requests sent, %d ok, %d failed (%d sizing mismatches), %d checked against the in-process engine, makespan %.3fs\n",
		w.name, len(outs), len(lat), failed, mismatches, len(checks), makespan.Seconds())
	fmt.Printf("%-12s latency samples %d, %d beyond p90\n", w.name, len(lat), beyond(len(lat), 0.9))
	metrics, err := metricsOf(endToEnd, map[string]float64{
		"req_per_s":      float64(len(lat)) / makespan.Seconds(),
		"latency_p50_ms": percentile(lat, 0.5),
		"latency_p90_ms": percentile(lat, 0.9),
		"setup_s":        setups[len(setups)/2],
		"rss_peak_mb":    rss,
	})
	if err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: len(outs) + len(primed), Failed: failed, Metrics: metrics}, nil
}

// prime answers every fingerprint of a fixed-fingerprint workload once, so
// the timed run reads warm caches; it is part of set-up. Other workloads
// need no priming.
func prime(ctx context.Context, url string, w workload, checks []request) ([]outcome, error) {
	if w.distinct == 0 {
		return nil, nil
	}
	client := &http.Client{Timeout: requestTimeout}
	defer client.CloseIdleConnections()
	var outs []outcome
	for _, r := range checks {
		t0 := time.Now()
		body, err := post(ctx, client, url, r, time.Now().Add(time.Minute))
		o := outcome{req: r, latency: time.Since(t0), err: err}
		if err == nil {
			o.sizing, o.err = parseSizing(r.path, body)
		}
		if o.err != nil {
			return nil, fmt.Errorf("priming request %d: %w", r.index, o.err)
		}
		outs = append(outs, o)
	}
	return outs, nil
}
