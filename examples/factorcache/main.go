// factorcache demonstrates factor reuse across processes: factor a system
// once in parallel, file the factor as a snapshot in a store directory,
// then reload it the way a restarted process would and solve against many
// right-hand sides without re-factoring — the standard workflow when one
// stiffness matrix serves many load cases. It exits non-zero when a
// reloaded solve differs in any bit from the in-process factor's, or when
// a residual exceeds maxResidual.
//
//	go run ./examples/factorcache
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/store"
)

// maxResidual bounds ‖A·x − b‖∞ for every load case (right-hand sides
// have entries in [-1, 1]).
const maxResidual = 1e-10

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	a := gen.Cube3D(12) // n = 1728
	opts := core.Options{Ordering: order.NDCube3D, GridDim: 12, BlockSize: 24}
	assign := func(p *core.Plan) sched.Assignment {
		return p.Assign(p.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY), 2)
	}
	plan, err := core.NewPlan(a, opts)
	if err != nil {
		return err
	}
	start := time.Now()
	f, err := plan.Factor(context.Background(), assign(plan), core.FactorOpts{})
	if err != nil {
		return err
	}
	factorTime := time.Since(start)

	dir, err := os.MkdirTemp("", "factorcache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	if err := st.PutFactor(f.Snapshot()); err != nil {
		return err
	}
	fmt.Printf("factored n=%d in %v; snapshot in %s (%d KiB)\n",
		a.N, factorTime.Round(time.Millisecond), dir, st.Stats().BytesWritten/1024)

	// ... later, possibly in another process that knows only the options:
	// the same calls a restarted solve server makes to warm-start.
	st, err = store.Open(dir)
	if err != nil {
		return err
	}
	keys, err := st.ScanFactors()
	if err != nil {
		return err
	}
	if len(keys) != 1 {
		return fmt.Errorf("store holds %d factor snapshots, want 1", len(keys))
	}
	fs, err := st.GetFactor(keys[0].PatternHash, keys[0].ConfigKey)
	if err != nil {
		return err
	}
	m, err := fs.Matrix()
	if err != nil {
		return err
	}
	rplan, err := core.NewPlan(m, opts)
	if err != nil {
		return err
	}
	loaded, err := rplan.RestoreSnapshot(assign(rplan), fs)
	if err != nil {
		return err
	}

	nLoads := 50
	worst := 0.0
	var solveTime time.Duration
	for k := 0; k < nLoads; k++ {
		b := make([]float64, a.N)
		for i := range b {
			b[i] = math.Sin(float64(i*(k+1)) * 0.01)
		}
		start = time.Now()
		x, err := loaded.Solve(b)
		solveTime += time.Since(start)
		if err != nil {
			return err
		}
		want, err := f.Solve(b)
		if err != nil {
			return err
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("load case %d: reloaded x[%d] = %g, in-process factor gives %g", k, i, x[i], want[i])
			}
		}
		r := a.ResidualNorm(x, b)
		if !(r <= maxResidual) {
			return fmt.Errorf("load case %d: residual %.3g exceeds %.0e", k, r, maxResidual)
		}
		worst = math.Max(worst, r)
	}
	fmt.Printf("solved %d load cases from the reloaded factor in %v (worst residual %.2g)\n",
		nLoads, solveTime.Round(time.Millisecond), worst)
	return nil
}
