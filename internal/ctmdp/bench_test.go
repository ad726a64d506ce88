package ctmdp

import (
	"fmt"
	"testing"
)

func benchModel(b *testing.B, clients, levels int) *Model {
	b.Helper()
	cs := make([]Client, clients)
	for i := range cs {
		cs[i] = Client{
			BufferID:      fmt.Sprintf("c%d", i),
			Lambda:        0.5 + float64(i)*0.4,
			Levels:        levels,
			UnitsPerLevel: 2,
			LossWeight:    1,
		}
	}
	m, err := NewModel("bench", float64(clients)*1.2, cs)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkSolveSingleModel3x2(b *testing.B) {
	m := benchModel(b, 3, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := SolveJoint([]*Model{m}, JointConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sol.Iters), "pivots")
	}
}

func BenchmarkSolveSingleModel4x2(b *testing.B) {
	m := benchModel(b, 4, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveJoint([]*Model{m}, JointConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveJointCapped(b *testing.B) {
	m1 := benchModel(b, 3, 2)
	m2 := benchModel(b, 3, 2)
	free, err := SolveJoint([]*Model{m1, m2}, JointConfig{})
	if err != nil {
		b.Fatal(err)
	}
	cap95 := free.OccupancyUsed * 0.95
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveJoint([]*Model{m1, m2}, JointConfig{OccupancyCap: cap95}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyExtraction(b *testing.B) {
	m := benchModel(b, 4, 2)
	sol, err := SolveJoint([]*Model{m}, JointConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := extractPolicy(m, sol.PerModel[0].X)
		if p == nil {
			b.Fatal("nil policy")
		}
		_ = p.KSwitching()
	}
}

func BenchmarkTranslateGreedy(b *testing.B) {
	m := benchModel(b, 4, 2)
	sol, err := SolveJoint([]*Model{m}, JointConfig{})
	if err != nil {
		b.Fatal(err)
	}
	d, err := Demands(sol.PerModel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Translate(d, 640); err != nil {
			b.Fatal(err)
		}
	}
}
