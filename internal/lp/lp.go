// Package lp implements a dense two-phase primal simplex solver for linear
// programs of the form
//
//	minimise    cᵀx
//	subject to  aᵢᵀx (≤ | = | ≥) bᵢ   for every constraint i
//	            x ≥ 0
//
// It referees the CTMDP occupation-measure programs of the buffer-sizing
// methodology (Feinberg 2002) in tests: those LPs have balance equalities,
// a normalisation equality and budget inequalities, all with non-negative
// variables, which is exactly this standard form. The methodology itself
// solves them by policy iteration (internal/ctmdp); no served path imports
// this package.
//
// Pivoting follows Dantzig's rule (most negative reduced cost) and switches
// to Bland's lowest-index rule after a run of pivots without progress. The
// ratio test breaks ties towards the largest pivot entry for numerical
// stability, which voids Bland's termination guarantee; so after a long
// stall under Bland's rule the solver accepts a vertex whose reduced costs
// clear a loosened 1e-6 tolerance, and a pivot limit proportional to the
// problem size ends any solve that still runs on. CTMDP balance systems
// are always degenerate (one balance row is redundant), which is why these
// safeguards exist. Even so the simplex calls some well-scaled 81-state
// CTMDP programs infeasible and stops above the optimum of others, which
// is why the methodology left it. It is a dense tableau implementation.
package lp

import (
	"errors"
	"fmt"
)

// Relation is the sense of a linear constraint.
type Relation int

// Constraint senses.
const (
	LE Relation = iota // aᵀx ≤ b
	EQ                 // aᵀx = b
	GE                 // aᵀx ≥ b
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Constraint is one row aᵀx (rel) b.
type Constraint struct {
	Coeffs []float64
	Rel    Relation
	RHS    float64
}

// Problem is a linear program in the package's standard form.
type Problem struct {
	// Objective holds the cost vector c of the minimisation objective.
	Objective []float64
	// Constraints holds the rows. Every row's Coeffs must have the same
	// length as Objective.
	Constraints []Constraint
}

// NewProblem returns an empty problem over n variables.
func NewProblem(n int) *Problem {
	return &Problem{Objective: make([]float64, n)}
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return len(p.Objective) }

// AddConstraint appends a constraint row. The coefficient slice is copied.
func (p *Problem) AddConstraint(coeffs []float64, rel Relation, rhs float64) error {
	if len(coeffs) != p.NumVars() {
		return fmt.Errorf("lp: constraint has %d coefficients, problem has %d variables", len(coeffs), p.NumVars())
	}
	c := make([]float64, len(coeffs))
	copy(c, coeffs)
	p.Constraints = append(p.Constraints, Constraint{Coeffs: c, Rel: rel, RHS: rhs})
	return nil
}

// Status reports the outcome of a solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution holds the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // optimal point (valid only when Status == Optimal)
	Objective float64   // cᵀx at the optimum
	Iters     int       // simplex pivots performed across both phases
}

// ErrNoVariables is returned for a problem with an empty objective.
var ErrNoVariables = errors.New("lp: problem has no variables")

// ErrIterationLimit is returned if the pivot limit is exceeded: the solve
// stalled (degenerate cycling the anti-stall rules did not break) or the
// instance is pathologically large.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")
