// Bridgesplit walks through the paper's §2 on the Figure 1 architecture:
// the un-buffered bridge coupling produces a quadratic system a Newton/KKT
// solver cannot crack, and inserting bridge buffers splits it into four
// linear subsystems solved by one LP.
//
//	go run ./examples/bridgesplit
package main

import (
	"fmt"
	"log"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/ctmdp"
	"socbuf/internal/graph"
	"socbuf/internal/nonlinear"
)

func main() {
	a := arch.Figure1()

	// Before insertion: buses b, f, g are coupled through bridges br1, br2.
	groups, err := graph.CoupledGroups(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coupled groups before insertion: %d (buses %v)\n", len(groups), groups[0].Buses)

	// The coupled occupation-measure system is quadratic; Newton on its KKT
	// conditions is the generic attack — and it fails, as in the paper.
	cs, err := nonlinear.FromArchitecture(a, groups[0].Buses, 2)
	if err != nil {
		log.Fatal(err)
	}
	kkt, err := cs.KKTNewton(nonlinear.NewtonOptions{MaxIters: 150})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("KKT-Newton on the quadratic system (%d unknowns): valid=%v — %s\n",
		cs.NumUnknowns(), kkt.Valid, kkt.Diag.Reason)

	// Insert buffers at the bridges and split.
	a.InsertBridgeBuffers()
	subs, err := graph.Split(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter buffer insertion: %d subsystems\n", len(subs))
	for i, s := range subs {
		fmt.Printf("  subsystem %d: bus %v, clients %v, boundary bridges %v (linear: %v)\n",
			i+1, s.Buses, s.Clients[s.Buses[0]], s.BoundaryBridges, s.Linear())
	}

	// Each subsystem is a linear CTMDP; all solve in one joint LP.
	alloc, err := arch.UniformAllocation(a, 40)
	if err != nil {
		log.Fatal(err)
	}
	models, err := core.BuildSubsystemModels(a, alloc, core.Config{Arch: a, Budget: 40})
	if err != nil {
		log.Fatal(err)
	}
	sol, err := ctmdp.SolveJoint(models, ctmdp.JointConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noccupation-measure programs of the split system: optimum loss rate %.4f in %d policy evaluations\n",
		sol.TotalLossRate, sol.Iters)
	for _, ms := range sol.PerModel {
		sw := ms.Policy.KSwitching()
		fmt.Printf("  bus %s: loss rate %.4f, %s\n", ms.Model.Bus, ms.LossRate, sw)
	}
}
