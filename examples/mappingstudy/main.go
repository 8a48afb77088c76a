// mappingstudy reproduces the paper's core investigation on a single
// irregular problem: it evaluates the 2-D cyclic mapping and the four
// remapping heuristics on the row/column/diagonal/overall balance measures,
// measures each mapping's communication volume, and simulates the Paragon
// runtime — showing why the paper concludes that "some remapping must be
// done; the particular remapping used is of secondary importance".
//
//	go run ./examples/mappingstudy [-n 3000] [-p 64]
package main

import (
	"flag"
	"fmt"
	"log"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/machine"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
	"blockfanout/internal/sched"
)

func main() {
	n := flag.Int("n", 3000, "mesh vertices")
	p := flag.Int("p", 64, "processors (perfect square)")
	flag.Parse()

	a := gen.IrregularMesh(*n, 9, 3, 31)
	plan, err := core.NewPlan(a, core.Options{Ordering: order.MinDegree, BlockSize: 16})
	if err != nil {
		log.Fatal(err)
	}
	g, err := mapping.SquareGrid(*p)
	if err != nil {
		log.Fatal(err)
	}
	cfg := machine.Paragon()

	fmt.Printf("irregular mesh n=%d: nnz(L)=%d, %.1f Mflop, %d panels, P=%d\n\n",
		a.N, plan.Exact.NZinL, float64(plan.Exact.Flops)/1e6, plan.BS.N(), g.P())
	fmt.Printf("%-8s %6s %6s %6s %8s %12s %10s %10s\n",
		"mapping", "row", "col", "diag", "overall", "comm bytes", "sim time", "Mflops")

	var baseTime float64
	for _, h := range mapping.AllHeuristics() {
		m := plan.Map(g, h, h)
		bal := plan.Balances(m)
		vol := sched.Build(plan.BS, sched.Assignment{Map: m}).TotalBytes
		res := plan.Simulate(plan.Assign(m, 2), cfg)
		name := h.String() + "/" + h.String()
		if h == mapping.CY {
			name = "cyclic"
			baseTime = res.Time
		}
		fmt.Printf("%-8s %6.2f %6.2f %6.2f %8.2f %12d %9.3fs %10.0f\n",
			name, bal.Row, bal.Col, bal.Diag, bal.Overall,
			vol, res.Time, res.Mflops(plan.Exact.Flops))
	}

	best := plan.Map(g, mapping.ID, mapping.CY)
	res := plan.Simulate(plan.Assign(best, 2), cfg)
	fmt.Printf("\npaper's pick (ID rows, cyclic cols): %.3fs — %.0f%% over cyclic\n",
		res.Time, (baseTime/res.Time-1)*100)
}
