// Package lp implements a dense two-phase primal simplex solver for linear
// programs of the form
//
//	minimise    cᵀx
//	subject to  aᵢᵀx (≤ | = | ≥) bᵢ   for every constraint i
//	            x ≥ 0
//
// It is the workhorse behind the CTMDP occupation-measure programs used by
// the buffer-sizing methodology (Feinberg 2002): those LPs have balance
// equalities, a normalisation equality and budget inequalities, all with
// non-negative variables, which is exactly this standard form.
//
// The solver uses Bland's anti-cycling rule, so it terminates on degenerate
// problems (CTMDP balance systems are always degenerate: one balance row is
// redundant). It is a dense tableau implementation; CTMDP instances in this
// repository stay below a few thousand variables, where dense simplex is
// simple and fast enough.
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
	// WarmBasis optionally seeds the solve with a related solve's final
	// basis (Solution.Basis) — typically the optimum of the same system
	// before one more inequality was added. Reconstructing the basis SET
	// reproduces that solve's reduced costs, which for an optimal basis are
	// non-negative, so phase 1 is skipped outright and rows the donor
	// optimum violates are repaired by dual simplex steps. Rows of this
	// problem beyond len(WarmBasis) (constraints appended since the donor
	// solve; they must be appended LAST) start on their own auxiliary basis.
	// The donor problem's rows must match this problem's leading rows one
	// for one. The warm path is best-effort — any inconsistency falls back
	// to the ordinary two-phase solve — so WarmBasis can only change how
	// fast the optimum is found, never which optimum value is reported
	// (degenerate programs may return a different optimal vertex of equal
	// objective).
	WarmBasis []BasicRef
}

// BasicRef names the variable basic in one constraint row in a
// layout-independent way, so a basis can be carried from one problem to a
// related one whose auxiliary columns land at different indices: structural
// variables by their index, auxiliary (slack/surplus/artificial) columns by
// the constraint row that owns them.
type BasicRef struct {
	// Var is the structural variable index, or -1 for an auxiliary column.
	Var int
	// Row is the owning constraint row of the auxiliary column (Var == -1).
	Row int
	// Art selects the row's artificial rather than its slack/surplus.
	Art bool
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
	// Warmed reports that the warm-start path produced this solution (the
	// donor basis held and phase 1 was skipped).
	Warmed bool
	// Basis is the final simplex basis in layout-independent form, one entry
	// per constraint row — feed it to a related Problem's WarmBasis to
	// warm-start the next solve. Populated only for Optimal solutions.
	Basis []BasicRef
}

// ErrNoVariables is returned for a problem with an empty objective.
var ErrNoVariables = errors.New("lp: problem has no variables")

// ErrIterationLimit is returned if the pivot limit is exceeded. With Bland's
// rule this indicates a bug or a pathologically large instance, never cycling.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")
