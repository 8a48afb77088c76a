// mtxsolve is the bring-your-own-matrix workflow: read a symmetric
// positive definite matrix from a Matrix Market (.mtx) or Harwell-Boeing
// (.rsa/.psa) file, factor it in parallel, and solve with iterative
// refinement. With no -in flag it writes a demo matrix to a temporary file
// first, so the example is runnable out of the box:
//
//	go run ./examples/mtxsolve [-in matrix.mtx] [-procs 8]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/hb"
	"blockfanout/internal/mapping"
	"blockfanout/internal/mmio"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

func main() {
	in := flag.String("in", "", "input matrix (.mtx Matrix Market, .rsa/.psa Harwell-Boeing)")
	procs := flag.Int("procs", 8, "goroutine-processors for the parallel factorization")
	flag.Parse()

	path := *in
	if path == "" {
		// No input given: write a demo mesh to a temp .mtx and use it.
		demo := gen.IrregularMesh(1200, 7, 3, 5)
		path = filepath.Join(os.TempDir(), "blockfanout-demo.mtx")
		if err := mmio.WriteFile(path, demo); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("no -in given; wrote demo matrix to %s\n", path)
	}

	var (
		a   *sparse.Matrix
		err error
	)
	switch strings.ToLower(filepath.Ext(path)) {
	case ".mtx":
		a, err = mmio.ReadFile(path)
	case ".rsa", ".psa", ".rua", ".hb":
		a, err = hb.ReadFile(path)
	default:
		err = fmt.Errorf("unrecognized extension on %s (want .mtx or .rsa)", path)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read %s: n=%d, nnz(lower)=%d\n", path, a.N, a.NNZ())

	plan, err := core.NewPlan(a, core.Options{Ordering: order.MinDegree})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analyzed: nnz(L)=%d, %.1f Mflop\n",
		plan.Exact.NZinL, float64(plan.Exact.Flops)/1e6)

	g := mapping.BestGrid(*procs)
	f, err := plan.Factor(context.Background(), plan.Assign(plan.Map(g, mapping.ID, mapping.CY), 2), core.FactorOpts{})
	if err != nil {
		log.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	x, iters, resid, err := f.SolveRefined(b, 3, 1e-12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factored on %d×%d processors; solved with %d refinement steps\n",
		g.Pr, g.Pc, iters)
	fmt.Printf("‖A·x−b‖∞ = %.3g;  x[0] = %.6f\n", resid, x[0])
}
