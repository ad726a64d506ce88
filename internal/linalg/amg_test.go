package linalg

import (
	"math"
	"testing"
	"time"
)

func TestStationaryAggregationMatchesDense(t *testing.T) {
	for _, n := range []int{200, 512, 1000} {
		_, csr := randomGenerator(n, 3*n, int64(n))
		want, err := StationaryDense(csr)
		if err != nil {
			t.Fatalf("n=%d: dense: %v", n, err)
		}
		got, err := StationaryAggregation(csr, IterOptions{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("n=%d: π[%d] = %v, dense %v (Δ=%g)", n, i, got[i], want[i], math.Abs(got[i]-want[i]))
			}
		}
	}
}

// TestStationaryAggregationSmallDelegates pins the small-chain path: too few
// aggregates to be worth a coarse level, so the answer must be exactly the
// Gauss–Seidel one.
func TestStationaryAggregationSmallDelegates(t *testing.T) {
	_, csr := randomGenerator(40, 120, 7)
	agg, err := StationaryAggregation(csr, IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := StationaryGaussSeidel(csr, IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs {
		if agg[i] != gs[i] {
			t.Fatalf("π[%d]: aggregation %v, Gauss–Seidel %v — small chains must delegate", i, agg[i], gs[i])
		}
	}
}

func TestStationaryAggregationRejectsAbsorbing(t *testing.T) {
	b := NewSparseBuilder(256, 256)
	for i := 0; i < 255; i++ {
		b.Add(i, i+1, 1)
		b.Add(i, i, -1)
	}
	// State 255 has no exit rate: absorbing.
	if _, err := StationaryAggregation(b.Build(), IterOptions{}); err == nil {
		t.Fatal("absorbing chain accepted")
	}
}

// TestAggregationBeatsDenseLUAt2048 is the acceptance gate of the
// aggregation solver (ISSUE 7): on a ≥2048-state chain it must agree with
// dense LU to 1e-8 and be at least 3× faster. The measured gap on the
// reference container is orders of magnitude (ms vs seconds — see
// PERFORMANCE.md "Kernels, measured"), so the 3× line has enormous headroom
// and the gate only trips on a real regression.
func TestAggregationBeatsDenseLUAt2048(t *testing.T) {
	if testing.Short() {
		t.Skip("dense-LU reference solve takes ~1s")
	}
	const n = 2048
	_, csr := randomGenerator(n, 3*n, 2048)

	t0 := time.Now()
	want, err := StationaryDense(csr)
	denseDur := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}

	t0 = time.Now()
	got, err := StationaryAggregation(csr, IterOptions{})
	aggDur := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}

	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("π[%d] = %v, dense %v (Δ=%g)", i, got[i], want[i], math.Abs(got[i]-want[i]))
		}
	}
	if aggDur*3 > denseDur {
		t.Fatalf("aggregation %v vs dense LU %v: want ≥3× faster", aggDur, denseDur)
	}
	t.Logf("n=%d: aggregation %v, dense LU %v (%.0f×)", n, aggDur, denseDur, float64(denseDur)/float64(aggDur))
}
