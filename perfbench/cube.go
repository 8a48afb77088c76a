package main

import (
	"context"
	"time"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// cubeWorkload is factor_cube: the paper's CUBE model problem driven
// in-process through core. Each cycle analyzes and factors the matrix
// from scratch, refactors that factor with new seeded values, and solves
// solvesPerCycle seeded right-hand sides.
type cubeWorkload struct {
	k, procs int
	seed     uint64

	a   *sparse.Matrix // pattern, with the generator's values
	cur *sparse.Matrix // the values last factored
	f   *core.Factor
}

func (w *cubeWorkload) opts() core.Options {
	return core.Options{Ordering: order.NDCube3D, GridDim: w.k}
}

func (w *cubeWorkload) values(i int) []float64 {
	return spdValues(w.a, newRNG(w.seed, streamValues, uint64(i)))
}

func (w *cubeWorkload) rhs(i int) []float64 {
	return rhs(w.a.N, newRNG(w.seed, streamRHS, uint64(i)))
}

func (w *cubeWorkload) setup() error {
	w.a = gen.Cube3D(w.k)
	vals := w.values(0)
	_, f, err := factorNew(w.a, vals, w.opts(), w.procs)
	if err != nil {
		return err
	}
	w.f, w.cur = f, withValues(w.a, vals)
	return w.check(0)
}

// check solves for check right-hand side i, outside any timer, and checks
// the residual against the values last factored.
func (w *cubeWorkload) check(i int) error {
	b := rhs(w.a.N, newRNG(w.seed, streamCheck, uint64(i)))
	x, err := w.f.Solve(b)
	if err != nil {
		return err
	}
	return checkSolution(w.cur, x, b)
}

// factorNew is the new-pattern path: analysis, the ID/CY mapping on the
// best grid for procs with domains, and the first factorization.
func factorNew(a *sparse.Matrix, vals []float64, opts core.Options, procs int) (*core.Plan, *core.Factor, error) {
	plan, err := core.NewPlan(a, opts)
	if err != nil {
		return nil, nil, err
	}
	m := plan.Map(mapping.BestGrid(procs), mapping.ID, mapping.CY)
	f, err := plan.FactorValuesContext(context.Background(), plan.Assign(m, 2), vals)
	if err != nil {
		return nil, nil, err
	}
	return plan, f, nil
}

func (w *cubeWorkload) teardown() { w.f, w.cur = nil, nil }

func (w *cubeWorkload) cycle(i int, t *tally) {
	vals := w.values(2*i + 1)
	t0 := time.Now()
	_, f, err := factorNew(w.a, vals, w.opts(), w.procs)
	d := time.Since(t0)
	if err == nil {
		w.f, w.cur = f, withValues(w.a, vals)
		err = w.check(i + 1)
	}
	t.op(opCold, d, err)

	vals = w.values(2*i + 2)
	t0 = time.Now()
	err = w.f.Refactor(vals)
	t.op(opRefactor, time.Since(t0), err)
	w.cur = withValues(w.a, vals)
	for s := 0; s < solvesPerCycle; s++ {
		b := w.rhs(i*solvesPerCycle + s)
		t0 := time.Now()
		x, err := w.f.Solve(b)
		d := time.Since(t0)
		if err == nil {
			err = checkSolution(w.cur, x, b)
		}
		t.op(opSolve, d, err)
	}
}

func (w *cubeWorkload) layers(t *tally, out map[string]float64) error {
	if err := analysisProbe([]*sparse.Matrix{w.a, w.a, w.a}, w.opts(), w.procs, out); err != nil {
		return err
	}
	if err := coldProbe([]*sparse.Matrix{w.cur, w.cur, w.cur}, w.opts(), w.procs, out); err != nil {
		return err
	}
	rep := replica{a: w.a, opts: w.opts(), procs: w.procs, values: w.values, rhs: w.rhs, reps: 5}
	if err := rep.probe(out); err != nil {
		return err
	}
	// The cube's requests would carry the same matrix bodies a service
	// client sends; parse them as the service would.
	jb, err := jsonBody(w.cur)
	if err != nil {
		return err
	}
	mb, err := mmBody(w.cur)
	if err != nil {
		return err
	}
	if err := parseProbe([][]byte{jb, jb, jb}, [][]byte{mb, mb, mb}, out); err != nil {
		return err
	}
	if err := frontOverheads(t, out); err != nil {
		return err
	}
	// No service front end, plan cache, admission or cluster on this path.
	absent(out, "front.cold_unattributed_frac", "front.refactor_unattributed_frac",
		"front.solve_unattributed_frac", "front.solve_resp_bytes", "server.batch_mean",
		"plancache.hit_ratio", "plancache.misses", "plancache.evictions", "admission.rejected")
	absent(out, clusterMetrics...)
	acct := []term{
		{"numeric.reload_ms", out["numeric.reload_ms"]},
		{"fanout.run_ms", out["fanout.run_ms"]},
	}
	printAccounting("factor_cube", opRefactor, median(t.samples[opRefactor]), acct)
	printAccounting("factor_cube", opSolve, median(t.samples[opSolve]), []term{{"local.solve_ms", out["local.solve_ms"]}})
	return nil
}
