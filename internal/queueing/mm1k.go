// Package queueing provides closed-form results for the finite Markovian
// queues that appear throughout the buffer-sizing pipeline: M/M/1/K queues
// (one processor buffer drained by a bus).
//
// The formulas serve as oracles: the discrete-event simulator and the CTMC
// solvers must reproduce them, and tests in those packages do exactly that.
package queueing

import (
	"fmt"
	"math"
)

// MM1K describes an M/M/1/K queue: Poisson arrivals at rate Lambda,
// exponential service at rate Mu, and room for K customers in total
// (including the one in service). Arrivals that find K customers are lost.
type MM1K struct {
	Lambda float64 // arrival rate (>0)
	Mu     float64 // service rate (>0)
	K      int     // capacity including in-service (>=1)
}

// NewMM1K validates the parameters.
func NewMM1K(lambda, mu float64, k int) (*MM1K, error) {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("queueing: invalid lambda %v", lambda)
	}
	if mu <= 0 || math.IsNaN(mu) || math.IsInf(mu, 0) {
		return nil, fmt.Errorf("queueing: invalid mu %v", mu)
	}
	if k < 1 {
		return nil, fmt.Errorf("queueing: capacity %d < 1", k)
	}
	return &MM1K{Lambda: lambda, Mu: mu, K: k}, nil
}

// Rho returns the offered load λ/μ.
func (q *MM1K) Rho() float64 { return q.Lambda / q.Mu }

// Distribution returns the stationary distribution π_0..π_K of the number in
// system.
func (q *MM1K) Distribution() []float64 {
	rho := q.Rho()
	pi := make([]float64, q.K+1)
	if math.Abs(rho-1) < 1e-12 {
		// Uniform when ρ = 1.
		for i := range pi {
			pi[i] = 1 / float64(q.K+1)
		}
		return pi
	}
	norm := (1 - math.Pow(rho, float64(q.K+1))) / (1 - rho)
	p := 1.0
	for i := 0; i <= q.K; i++ {
		pi[i] = p / norm
		p *= rho
	}
	return pi
}

// Blocking returns the probability an arrival is lost, P(N = K) (PASTA).
func (q *MM1K) Blocking() float64 {
	pi := q.Distribution()
	return pi[q.K]
}

// LossRate returns the rate of lost arrivals, λ·P(block).
func (q *MM1K) LossRate() float64 { return q.Lambda * q.Blocking() }

// Throughput returns the rate of completed services, λ·(1 − P(block)).
func (q *MM1K) Throughput() float64 { return q.Lambda * (1 - q.Blocking()) }

// MeanQueue returns E[N], the mean number in system. The conversion rounds
// each product before the sum, so no platform fuses the two (make
// fma-check) and the mean keeps its bits everywhere.
func (q *MM1K) MeanQueue() float64 {
	pi := q.Distribution()
	var m float64
	for i, p := range pi {
		m += float64(float64(i) * p)
	}
	return m
}
