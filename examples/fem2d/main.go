// fem2d solves a 2-D Poisson-style problem on a k×k grid — the workload the
// paper's GRID matrices model — using the full parallel pipeline: nested
// dissection ordering, block partition, heuristic block mapping with
// domains, and the real goroutine-based block fan-out factorization.
//
//	go run ./examples/fem2d [-k 96] [-pr 3] [-pc 3]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
)

func main() {
	k := flag.Int("k", 96, "grid side length")
	pr := flag.Int("pr", 3, "processor grid rows")
	pc := flag.Int("pc", 3, "processor grid cols")
	flag.Parse()

	a := gen.Grid2D(*k)
	fmt.Printf("5-point Laplacian on a %d×%d grid: n=%d\n", *k, *k, a.N)

	plan, err := core.NewPlan(a, core.Options{
		Ordering: order.NDGrid2D, GridDim: *k, BlockSize: 24,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nested dissection: nnz(L)=%d, %.1f Mflop\n",
		plan.Exact.NZinL, float64(plan.Exact.Flops)/1e6)

	g := mapping.Grid{Pr: *pr, Pc: *pc}
	cyc := mapping.Cyclic(g, plan.BS.N())
	heu := plan.Map(g, mapping.ID, mapping.CY)
	fmt.Printf("overall balance on %d procs: cyclic %.2f, ID/CY heuristic %.2f\n",
		g.P(), plan.Balances(cyc).Overall, plan.Balances(heu).Overall)

	// Right-hand side: unit load at the grid center.
	b := make([]float64, a.N)
	b[(*k/2)*(*k)+*k/2] = 1

	start := time.Now()
	f, err := plan.Factor(context.Background(), plan.Assign(heu, 2), core.FactorOpts{})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	x, err := f.Solve(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel factorization on %d goroutine-processors: %v\n", g.P(), elapsed)
	fmt.Printf("residual ‖A·x−b‖∞ = %.3g\n", f.Residual(x, b))
	fmt.Printf("potential at center: %.6f, at corner: %.6g\n",
		x[(*k/2)*(*k)+*k/2], x[0])
}
