package linalg

import "testing"

// TestMatVecToZeroAlloc pins the CSR mat-vec hot loop at zero allocations
// per call (ISSUE 7's AllocsPerRun gate). A regression here — a hidden
// bounds-check spill, an accidental slice header escape — would silently tax
// every stationary sweep in the pipeline.
func TestMatVecToZeroAlloc(t *testing.T) {
	_, csr := randomGenerator(512, 1536, 3)
	x := make([]float64, 512)
	for i := range x {
		x[i] = 1 / float64(512)
	}
	y := make([]float64, 512)
	if allocs := testing.AllocsPerRun(100, func() {
		csr.MatVecTo(y, x)
	}); allocs != 0 {
		t.Fatalf("MatVecTo allocates %.0f objects per call, want 0", allocs)
	}
}

// TestGaussSeidelSweepZeroAlloc pins the per-sweep cost of the iterative
// stationary solvers: one Gauss–Seidel sweep plus the residual check must
// not allocate (the residual scratch is preallocated per solve, not per
// sweep).
func TestGaussSeidelSweepZeroAlloc(t *testing.T) {
	_, csr := randomGenerator(512, 1536, 4)
	qt := csr.T()
	diag, err := generatorDiag(qt)
	if err != nil {
		t.Fatal(err)
	}
	pi := uniform(512)
	res := make([]float64, 512)
	if allocs := testing.AllocsPerRun(100, func() {
		gsSweep(qt, diag, pi)
		stationaryResidual(csr, pi, res)
	}); allocs != 0 {
		t.Fatalf("Gauss–Seidel sweep allocates %.0f objects per iteration, want 0", allocs)
	}
}
