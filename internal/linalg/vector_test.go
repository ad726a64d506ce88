package linalg

import "testing"

func TestScaleSum(t *testing.T) {
	x := []float64{1, 2, 3}
	Scale(2, x)
	if sum := x[0] + x[1] + x[2]; sum != 12 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestNorms(t *testing.T) {
	if NormInf([]float64{3, -4}) != 4 {
		t.Fatalf("norminf = %v", NormInf([]float64{3, -4}))
	}
	if NormInf(nil) != 0 {
		t.Fatal("empty vector norm must be 0")
	}
}
