package lp

import "testing"

// TestPivotZeroAlloc pins the simplex pivot — the single hottest loop in the
// module, run hundreds of times per solve — at zero allocations (ISSUE 7's
// AllocsPerRun gate). The tableau arena is allocated once in build(); a
// pivot that allocates would multiply that cost by the iteration count.
func TestPivotZeroAlloc(t *testing.T) {
	const m, n = 32, 64
	tab := &tableau{m: m, n: n}
	tab.a = make([][]float64, m+1)
	v := 1.0
	for i := range tab.a {
		tab.a[i] = make([]float64, n+1)
		for j := range tab.a[i] {
			// Deterministic, well-conditioned nonzero fill so any (row, col)
			// stays a legal pivot across repeated pivoting.
			v = v*1.32471795724474602596 + 0.5
			if v > 4 {
				v -= 3.75
			}
			tab.a[i][j] = v
		}
	}
	tab.basis = make([]int, m)
	for i := range tab.basis {
		tab.basis[i] = n - m + i
	}
	col := 0
	if allocs := testing.AllocsPerRun(100, func() {
		tab.pivot(0, col)
		col = (col + 1) % 8
	}); allocs != 0 {
		t.Fatalf("pivot allocates %.0f objects per call, want 0", allocs)
	}
}
