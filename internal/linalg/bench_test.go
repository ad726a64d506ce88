package linalg

import (
	"fmt"
	"testing"
)

// benchGenerator builds the dense and CSR forms of an irreducible generator
// with ~4 transitions per state — the sparsity profile of the CTMDP chains.
func benchGenerator(n int) (*Matrix, *CSR) {
	return randomGenerator(n, 3*n, 1)
}

// BenchmarkStationaryDenseVsSparse compares the dense LU stationary solve
// (StationaryDense's factorisation) against the sparse Gauss–Seidel solve
// across chain sizes: the crossover sets Stationary's DenseThreshold.
func BenchmarkStationaryDenseVsSparse(b *testing.B) {
	for _, n := range []int{32, 64, 256, 1024} {
		dense, csr := benchGenerator(n)
		b.Run(fmt.Sprintf("dense-lu/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := dense.T()
				for j := 0; j < n; j++ {
					a.Set(n-1, j, 1)
				}
				rhs := make([]float64, n)
				rhs[n-1] = 1
				if _, err := Solve(a, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sparse-gs/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := StationaryGaussSeidel(csr, IterOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSparseMatVec(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		dense, csr := benchGenerator(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) + 0.5
		}
		y := make([]float64, n)
		b.Run(fmt.Sprintf("dense/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dense.MatVec(x); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("csr/n=%d", n), func(b *testing.B) {
			b.ReportMetric(csr.Density(), "density")
			for i := 0; i < b.N; i++ {
				csr.MatVecTo(y, x)
			}
		})
	}
}
