package core_test

import (
	"context"
	"fmt"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
)

// Example demonstrates the full pipeline: analyze a sparse SPD matrix,
// compare the cyclic mapping's load balance with the paper's heuristic,
// factor in parallel, and solve.
func Example() {
	a := gen.Grid2D(32) // 5-point Laplacian, n=1024
	plan, err := core.NewPlan(a, core.Options{
		Ordering: order.NDGrid2D, GridDim: 32, BlockSize: 16,
	})
	if err != nil {
		panic(err)
	}

	g := mapping.Grid{Pr: 2, Pc: 2}
	cyclic := mapping.Cyclic(g, plan.BS.N())
	heur := plan.Map(g, mapping.ID, mapping.CY)
	fmt.Printf("balance improves: %v\n",
		plan.Balances(heur).Overall > plan.Balances(cyclic).Overall)

	f, err := plan.Factor(context.Background(), plan.Assign(heur, 2), core.FactorOpts{})
	if err != nil {
		panic(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	x, err := f.Solve(b)
	if err != nil {
		panic(err)
	}
	fmt.Printf("solved: residual below 1e-10: %v\n", f.Residual(x, b) < 1e-10)
	// Output:
	// balance improves: true
	// solved: residual below 1e-10: true
}

// ExampleFactor_SolveRefined shows iterative refinement driving the
// residual to machine precision.
func ExampleFactor_SolveRefined() {
	a := gen.IrregularMesh(500, 6, 3, 11)
	plan, err := core.NewPlan(a, core.Options{Ordering: order.MinDegree, BlockSize: 16})
	if err != nil {
		panic(err)
	}
	f, err := plan.FactorSequential()
	if err != nil {
		panic(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i % 3)
	}
	_, _, resid, err := f.SolveRefined(b, 4, 1e-12)
	if err != nil {
		panic(err)
	}
	fmt.Printf("refined residual below 1e-12: %v\n", resid < 1e-12)
	// Output:
	// refined residual below 1e-12: true
}
