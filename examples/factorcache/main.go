// factorcache demonstrates factor reuse across processes: factor a system
// once in parallel, save the factor bundle to disk, then reload it and
// solve against many right-hand sides without re-factoring — the standard
// workflow when one stiffness matrix serves many load cases.
//
//	go run ./examples/factorcache
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"blockfanout/internal/bundle"
	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
)

func main() {
	a := gen.Cube3D(12) // n = 1728
	plan, err := core.NewPlan(a, core.Options{Ordering: order.NDCube3D, GridDim: 12, BlockSize: 24})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	g := mapping.Grid{Pr: 2, Pc: 2}
	f, err := plan.Factor(context.Background(), plan.Assign(plan.Map(g, mapping.ID, mapping.CY), 2), core.FactorOpts{})
	if err != nil {
		log.Fatal(err)
	}
	factorTime := time.Since(start)

	path := filepath.Join(os.TempDir(), "cube12.bfb")
	if err := bundle.SaveFile(path, bundle.FromFactor(f)); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("factored n=%d in %v; bundle %s (%d KiB)\n",
		a.N, factorTime.Round(time.Millisecond), path, info.Size()/1024)

	// ... later, possibly in another process:
	loaded, err := bundle.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	nLoads := 50
	worst := 0.0
	for k := 0; k < nLoads; k++ {
		b := make([]float64, a.N)
		for i := range b {
			b[i] = math.Sin(float64(i*(k+1)) * 0.01)
		}
		x, err := loaded.Solve(b)
		if err != nil {
			log.Fatal(err)
		}
		if r := a.ResidualNorm(x, b); r > worst {
			worst = r
		}
	}
	fmt.Printf("solved %d load cases from the cached factor in %v (worst residual %.2g)\n",
		nLoads, time.Since(start).Round(time.Millisecond), worst)
}
