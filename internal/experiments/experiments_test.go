package experiments

import "testing"

// fast keeps CI-grade experiment runs cheap; EXPERIMENTS.md numbers use the
// defaults.
var fast = Options{Iterations: 3, Seeds: []int64{1, 2}, Horizon: 1200, WarmUp: 100}

func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fig, err := Figure3(160, fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Procs) != 17 {
		t.Fatalf("procs = %d, want 17", len(fig.Procs))
	}
	if fig.Procs[0] != "p1" || fig.Procs[16] != "p17" {
		t.Fatalf("proc order wrong: %v", fig.Procs)
	}
	// The paper's qualitative claims at the scarce budget:
	// CTMDP sizing beats constant sizing overall…
	if fig.PostTotal >= fig.PreTotal {
		t.Fatalf("post %d !< pre %d", fig.PostTotal, fig.PreTotal)
	}
	// …and beats the timeout policy by a larger margin…
	if fig.PostTotal >= fig.TimeoutTotal {
		t.Fatalf("post %d !< timeout %d", fig.PostTotal, fig.TimeoutTotal)
	}
	if fig.TimeoutTotal <= fig.PreTotal {
		t.Fatalf("timeout policy %d should lose more than plain constant %d (it drops on top of overflow)",
			fig.TimeoutTotal, fig.PreTotal)
	}
	// …while some individual processors get worse.
	if len(fig.Worsened) == 0 {
		t.Fatal("no processor worsened — Figure 3's 'increase slightly for some processors' shape lost")
	}
	if fig.TimeoutThreshold <= 0 {
		t.Fatal("no timeout threshold derived")
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := Table1([]int{160, 640}, nil, fast)
	if err != nil {
		t.Fatal(err)
	}
	// Loss decreases with budget.
	if tbl.PreTotal[640] >= tbl.PreTotal[160] {
		t.Fatalf("pre loss did not fall with budget: %v", tbl.PreTotal)
	}
	if tbl.PostTotal[640] >= tbl.PostTotal[160] {
		t.Fatalf("post loss did not fall with budget: %v", tbl.PostTotal)
	}
	// At the generous budget the sized system is near lossless for the
	// tracked processors (the paper's zeros).
	for _, p := range tbl.Procs {
		if tbl.Post[640][p] > tbl.Pre[640][p]+5 {
			t.Fatalf("proc %s post-640 %d much worse than pre %d", p, tbl.Post[640][p], tbl.Pre[640][p])
		}
	}
	var post640 int64
	for _, p := range tbl.Procs {
		post640 += tbl.Post[640][p]
	}
	if post640 > 20 {
		t.Fatalf("tracked processors still lose %d at budget 640 post-sizing", post640)
	}
}

func TestSplitDemo(t *testing.T) {
	d, err := SplitDemo()
	if err != nil {
		t.Fatal(err)
	}
	if d.KKTValid {
		t.Fatal("coupled quadratic system unexpectedly solvable — §2 demo broken")
	}
	if d.SplitSubsystems != 4 {
		t.Fatalf("split produced %d subsystems, paper's Figure 2 shows 4", d.SplitSubsystems)
	}
	if d.SplitLossRate < 0 {
		t.Fatalf("negative split loss %v", d.SplitLossRate)
	}
	if d.SplitIters <= 0 {
		t.Fatal("split solve reported zero policy evaluations")
	}
}

func TestHeadlineRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	h, err := Headline(160, fast)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ≈0.8 vs constant, ≈0.5 vs timeout. Accept the shape: strictly
	// better than constant, and at most ~0.7 of the timeout policy.
	if h.CTMDPOverConstant >= 1 || h.CTMDPOverConstant <= 0 {
		t.Fatalf("post/pre ratio %v out of shape", h.CTMDPOverConstant)
	}
	if h.CTMDPOverTimeout >= 0.7 {
		t.Fatalf("post/timeout ratio %v — timeout policy should lose ≥ ~2×", h.CTMDPOverTimeout)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Iterations != 10 || len(o.Seeds) != 5 || o.Horizon != 2000 || o.WarmUp != 100 {
		t.Fatalf("defaults = %+v", o)
	}
}
