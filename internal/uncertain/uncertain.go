// Package uncertain models traffic-parameter uncertainty for robust buffer
// sizing: the paper sizes against point-estimate Poisson rates, but real SoC
// traffic is never a known λ. A Spec describes how the nominal parameters
// are perturbed — multiplicative lognormal rate factors per flow, plus an
// optional burstiness envelope — and a Sampler draws N such perturbations
// with common random numbers: sample i is a pure function of (seed, i), so
// every candidate sizing is evaluated on identical sample paths and yield
// comparisons between candidates are paired, not confounded by sampling
// noise. The Wilson lower bound guards chance-constraint decisions against
// lucky small-N yield estimates. The robust solver backend
// (internal/solver) consumes all of this; DESIGN.md §9 records the
// contract.
package uncertain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"socbuf/internal/arch"
)

// Default spec values, shared with the flag help strings.
const (
	DefaultRateSigma    = 0.2
	DefaultSamples      = 64
	DefaultConfidence   = 0.95
	DefaultTargetFactor = 1.5
	DefaultSeed         = 1
)

// Factor clamp: a drawn perturbation factor is clipped to this range so a
// tail draw can never produce a degenerate (near-zero or absurdly
// overloaded) architecture.
const (
	minFactor = 0.05
	maxFactor = 20.0
)

// Spec describes one traffic-uncertainty model. The zero value means "all
// defaults" (WithDefaults fills them); JSON round-trips through
// ParseSpec/WriteJSON with unknown fields rejected. Attach a Spec to a
// scenario or a request — it travels core.Config → the robust backend.
type Spec struct {
	// RateSigma is the lognormal σ of each flow's multiplicative rate
	// factor: a sampled flow offers rate λ·exp(σ·Z), Z ~ N(0,1), drawn
	// independently per flow. Default 0.2 (≈ ±20% typical deviation).
	RateSigma float64 `json:"rateSigma,omitempty"`
	// BurstSigma is the lognormal σ of the per-sample burstiness envelope:
	// one factor per sample multiplies every flow's rate, modelling
	// correlated short-term peaks (the analytic screen sizes against the
	// jittered peak-rate envelope — it has no non-Poisson closed form).
	// Default 0 (no burstiness jitter).
	BurstSigma float64 `json:"burstSigma,omitempty"`
	// Samples is the Monte-Carlo sample count N. Default 64.
	Samples int `json:"samples,omitempty"`
	// Confidence is the chance-constraint level: the selected sizing's
	// yield must clear it with the Wilson guard. Default 0.95.
	Confidence float64 `json:"confidence,omitempty"`
	// LossTarget is the per-sample analytic weighted loss-rate bound that
	// defines a "good" sample. 0 derives it from the nominal sizing:
	// target = TargetFactor × (full-budget nominal analytic loss).
	LossTarget float64 `json:"lossTarget,omitempty"`
	// TargetFactor scales the derived LossTarget (ignored when LossTarget
	// is set explicitly). Default 1.5.
	TargetFactor float64 `json:"targetFactor,omitempty"`
	// Seed drives the sampler. Equal seeds reproduce the exact sample set
	// for any worker count. Default 1.
	Seed int64 `json:"seed,omitempty"`
}

// WithDefaults returns a copy with zero fields filled.
func (s Spec) WithDefaults() Spec {
	if s.RateSigma == 0 {
		s.RateSigma = DefaultRateSigma
	}
	if s.Samples == 0 {
		s.Samples = DefaultSamples
	}
	if s.Confidence == 0 {
		s.Confidence = DefaultConfidence
	}
	if s.TargetFactor == 0 {
		s.TargetFactor = DefaultTargetFactor
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	return s
}

// Validate rejects out-of-range parameters. Zero values are legal (they
// select defaults); explicitly negative or impossible ones are not.
func (s Spec) Validate() error {
	if s.RateSigma < 0 || s.RateSigma > 2 {
		return fmt.Errorf("uncertain: rate sigma %v outside [0, 2]", s.RateSigma)
	}
	if s.BurstSigma < 0 || s.BurstSigma > 2 {
		return fmt.Errorf("uncertain: burst sigma %v outside [0, 2]", s.BurstSigma)
	}
	if s.Samples < 0 || s.Samples > 100000 {
		return fmt.Errorf("uncertain: samples %d outside [0, 100000]", s.Samples)
	}
	if s.Confidence < 0 || s.Confidence >= 1 {
		return fmt.Errorf("uncertain: confidence %v outside [0, 1)", s.Confidence)
	}
	if s.LossTarget < 0 {
		return fmt.Errorf("uncertain: negative loss target %v", s.LossTarget)
	}
	if s.TargetFactor < 0 {
		return fmt.Errorf("uncertain: negative target factor %v", s.TargetFactor)
	}
	return nil
}

// ParseSpec decodes and validates one uncertainty spec from strict JSON:
// unknown fields and trailing garbage are rejected, exactly like the
// request decoders.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("uncertain: decoding spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("uncertain: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// WriteJSON encodes the spec (indented, stable field order).
func (s Spec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Sample is one drawn perturbation: a multiplicative rate factor per flow
// (in architecture flow order) and the per-sample burstiness envelope.
type Sample struct {
	Rate  []float64
	Burst float64
}

// Sampler draws the spec's N perturbations over a fixed flow count with
// common random numbers: At(i) is a pure function of (spec.Seed, i), so
// two candidate sizings scored against the same sampler see identical
// sample paths regardless of evaluation order or worker count.
type Sampler struct {
	spec  Spec
	flows int
}

// NewSampler builds a sampler for the spec (defaults applied) over the
// given flow count.
func NewSampler(spec Spec, flows int) *Sampler {
	return &Sampler{spec: spec.WithDefaults(), flows: flows}
}

// N returns the sample count.
func (sp *Sampler) N() int { return sp.spec.Samples }

// At returns sample i. Factors are clamped to [0.05, 20] so tail draws
// never degenerate the architecture.
func (sp *Sampler) At(i int) Sample {
	rng := rand.New(rand.NewSource(mix(sp.spec.Seed, int64(i))))
	out := Sample{Rate: make([]float64, sp.flows), Burst: 1}
	for f := range out.Rate {
		out.Rate[f] = clampFactor(math.Exp(sp.spec.RateSigma * rng.NormFloat64()))
	}
	if sp.spec.BurstSigma > 0 {
		out.Burst = clampFactor(math.Exp(sp.spec.BurstSigma * rng.NormFloat64()))
	}
	return out
}

func clampFactor(f float64) float64 {
	return math.Min(maxFactor, math.Max(minFactor, f))
}

// mix derives a well-separated per-sample seed from (seed, i) — a
// splitmix64-style finaliser, so adjacent sample indices land in unrelated
// rand streams.
func mix(seed, i int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Perturb returns a clone of the architecture with every flow's rate
// multiplied by its sample factor (rate factor × burstiness envelope).
// The sample must have been drawn for this architecture's flow count.
func Perturb(a *arch.Architecture, s Sample) (*arch.Architecture, error) {
	if len(s.Rate) != len(a.Flows) {
		return nil, fmt.Errorf("uncertain: sample drawn for %d flows, architecture has %d", len(s.Rate), len(a.Flows))
	}
	out := a.Clone()
	for i := range out.Flows {
		out.Flows[i].Rate *= s.Rate[i] * s.Burst
	}
	return out, nil
}

// Report is the robust backend's chance-constraint outcome, attached to
// core.Result and surfaced through every entry point (CLI JSON, sweep yield
// columns, /v1/solve).
type Report struct {
	// Samples is the Monte-Carlo sample count the decision used.
	Samples int `json:"samples"`
	// Confidence is the requested chance-constraint level.
	Confidence float64 `json:"confidence"`
	// LossTarget is the per-sample loss bound that defined a "good" sample
	// (the explicit spec value, or the derived nominal-loss multiple).
	LossTarget float64 `json:"lossTarget"`
	// Yield is the chosen sizing's empirical yield: the fraction of samples
	// whose analytic loss met LossTarget.
	Yield float64 `json:"yield"`
	// YieldLow is the one-sided Wilson lower bound of Yield — the guarded
	// estimate the chance constraint was checked against.
	YieldLow float64 `json:"yieldLow"`
	// NominalYield is the nominal full-budget sizing's yield over the same
	// samples (common random numbers make this a paired comparison).
	NominalYield float64 `json:"nominalYield"`
	// BudgetUsed is the chosen sizing's total units (≤ the request budget:
	// the selection rule prefers the cheapest sizing that clears the
	// constraint).
	BudgetUsed int `json:"budgetUsed"`
	// Met reports whether any candidate cleared the guarded constraint;
	// false means the chosen sizing is the best-yield fallback.
	Met bool `json:"met"`
	// Candidates is the number of distinct sizings scored.
	Candidates int `json:"candidates"`
}

// WilsonLower returns the lower endpoint of the one-sided Wilson score
// interval for a binomial proportion: with successes k out of n, the
// returned bound w satisfies "true yield ≥ w" at the given one-sided
// confidence (z = Φ⁻¹(confidence)). It is the standard guard against small-N
// luck: k = n at n = 64 bounds the yield near 0.96, not 1.0.
func WilsonLower(successes, n int, confidence float64) float64 {
	if n <= 0 {
		return 0
	}
	if successes < 0 {
		successes = 0
	}
	if successes > n {
		successes = n
	}
	z := NormalQuantile(confidence)
	if z <= 0 {
		return float64(successes) / float64(n)
	}
	p := float64(successes) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	centre := p + z*z/(2*nn)
	// Rounded before the subtraction below, so no platform fuses the two
	// (make fma-check).
	margin := float64(z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)))
	low := (centre - margin) / denom
	return math.Max(0, math.Min(1, low))
}

// NormalQuantile is the standard normal inverse CDF Φ⁻¹(p), via the
// Acklam rational approximation (relative error below 1.15e-9 — far inside
// anything a 64-sample yield estimate can resolve). p outside (0,1) returns
// ±Inf. Each product in the Horner chains is rounded by an explicit
// conversion before its add, as in the Wilson margin above, so no platform
// fuses it into a multiply-add and the robust tier's yield bounds keep
// their bits everywhere (make fma-check).
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (float64((float64((float64((float64((float64(c[0]*q)+c[1])*q)+c[2])*q)+c[3])*q)+c[4])*q) + c[5]) /
			(float64((float64((float64((float64(d[0]*q)+d[1])*q)+d[2])*q)+d[3])*q) + 1)
	case p > 1-pLow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(float64((float64((float64((float64((float64(c[0]*q)+c[1])*q)+c[2])*q)+c[3])*q)+c[4])*q) + c[5]) /
			(float64((float64((float64((float64(d[0]*q)+d[1])*q)+d[2])*q)+d[3])*q) + 1)
	default:
		q := p - 0.5
		r := q * q
		return (float64((float64((float64((float64((float64(a[0]*r)+a[1])*r)+a[2])*r)+a[3])*r)+a[4])*r) + a[5]) * q /
			(float64((float64((float64((float64((float64(b[0]*r)+b[1])*r)+b[2])*r)+b[3])*r)+b[4])*r) + 1)
	}
}
