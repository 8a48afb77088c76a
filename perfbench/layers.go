package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"blockfanout/internal/blocks"
	"blockfanout/internal/core"
	"blockfanout/internal/etree"
	"blockfanout/internal/fanout"
	"blockfanout/internal/kernels"
	"blockfanout/internal/mapping"
	"blockfanout/internal/obs"
	"blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/server"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// analysisProbe times the stages of core.NewPlan one by one on each
// matrix (ordering; symbolic analysis; block partition and build; mapping,
// assignment and schedule), and core.NewPlan as a whole. It follows
// NewPlan's uniform-blocking path, the one every workload uses.
func analysisProbe(mats []*sparse.Matrix, opts core.Options, procs int, out map[string]float64) error {
	if opts.Blocking != blocks.StrategyUniform || opts.Amalgamation != nil {
		return fmt.Errorf("analysis probe covers uniform blocking with default amalgamation only")
	}
	bsz := opts.BlockSize
	if bsz <= 0 {
		bsz = core.DefaultBlockSize
	}
	var tOrder, tSym, tBlocks, tSched, tPlan []float64
	for _, a := range mats {
		t0 := time.Now()
		fill, err := order.Compute(opts.Ordering, a, opts.GridDim)
		if err != nil {
			return err
		}
		tOrder = append(tOrder, ms(time.Since(t0)))
		a1, err := a.Permute(fill)
		if err != nil {
			return err
		}
		pa, _, err := a.PermuteWithMap(fill.Compose(etree.Build(a1).Postorder()))
		if err != nil {
			return err
		}
		t0 = time.Now()
		sym, err := symbolic.Analyze(pa, symbolic.DefaultAmalgamation())
		if err != nil {
			return err
		}
		tSym = append(tSym, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := blocks.Build(sym, blocks.NewPartition(sym, bsz)); err != nil {
			return err
		}
		tBlocks = append(tBlocks, ms(time.Since(t0)))

		t0 = time.Now()
		plan, err := core.NewPlan(a, opts)
		if err != nil {
			return err
		}
		tPlan = append(tPlan, ms(time.Since(t0)))
		t0 = time.Now()
		m := plan.Map(mapping.BestGrid(procs), mapping.ID, mapping.CY)
		sched.Build(plan.BS, plan.Assign(m, 2))
		tSched = append(tSched, ms(time.Since(t0)))
	}
	out["order.ms"] = median(tOrder)
	out["symbolic.ms"] = median(tSym)
	out["blocks.ms"] = median(tBlocks)
	out["sched.ms"] = median(tSched)
	out["core.plan_ms"] = median(tPlan)
	return nil
}

// coldProbe times the in-process new-pattern path (factorNew) on each
// matrix, with the matrix's own values.
func coldProbe(mats []*sparse.Matrix, opts core.Options, procs int, out map[string]float64) error {
	var ts []float64
	for _, a := range mats {
		t0 := time.Now()
		if _, _, err := factorNew(a, a.Val, opts, procs); err != nil {
			return err
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	out["local.cold_ms"] = median(ts)
	return nil
}

// parseProbe times server.ReadMatrix on request bodies, as the service
// parses them.
func parseProbe(jsonBodies, mmBodies [][]byte, out map[string]float64) error {
	for _, c := range []struct {
		name, ctype string
		bodies      [][]byte
	}{
		{"parse.json_ms", "application/json", jsonBodies},
		{"parse.mm_ms", "text/plain", mmBodies},
	} {
		var ts []float64
		for _, b := range c.bodies {
			t0 := time.Now()
			if _, err := server.ReadMatrix(bytes.NewReader(b), c.ctype); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			ts = append(ts, ms(time.Since(t0)))
		}
		out[c.name] = median(ts)
	}
	return nil
}

// peakGflops is kernels.MulSub's rate at w = 48 on cache-resident 48×48
// operands: the best of several timed batches.
func peakGflops() float64 {
	const w, calls = 48, 200
	a, b, c := make([]float64, w*w), make([]float64, w*w), make([]float64, w*w)
	for i := range a {
		a[i] = 1e-3 * float64(i%7)
		b[i] = 1e-3 * float64(i%5)
	}
	rel := make([]int, w)
	for i := range rel {
		rel[i] = i
	}
	best := 0.0
	for batch := 0; batch < 20; batch++ {
		t0 := time.Now()
		for k := 0; k < calls; k++ {
			kernels.MulSub(c, w, a, w, b, w, w, rel, rel, false, nil, nil)
		}
		if r := float64(calls*2*w*w*w) / float64(time.Since(t0).Nanoseconds()); r > best {
			best = r
		}
	}
	return best
}

// replica is an in-process copy of a workload's refactored pattern under
// the workload's plan options and parallel width.
type replica struct {
	a      *sparse.Matrix
	opts   core.Options
	procs  int
	values func(i int) []float64
	rhs    func(i int) []float64
	reps   int
}

// probe measures the replica layer by layer: untraced refactors and
// solves through core, then the same operation split into value reload
// and executor run under a drop-free span recorder, then the executor at
// P = 1 for the parallel efficiency.
func (r replica) probe(out map[string]float64) error {
	ctx := context.Background()
	plan, f, err := factorNew(r.a, r.values(0), r.opts, r.procs)
	if err != nil {
		return err
	}
	m := plan.Map(mapping.BestGrid(r.procs), mapping.ID, mapping.CY)
	out["plan.flops"] = float64(plan.Exact.Flops)
	out["plan.nnz_l"] = float64(plan.Exact.NZinL)
	out["mapping.balance"] = plan.Balances(m).Overall

	var refac, solve, psolve []float64
	for i := 1; i <= r.reps; i++ {
		vals := r.values(i)
		t0 := time.Now()
		if err := f.Refactor(vals); err != nil {
			return err
		}
		refac = append(refac, ms(time.Since(t0)))
		cur, b := withValues(r.a, vals), r.rhs(i)
		t0 = time.Now()
		x, err := f.Solve(b)
		solve = append(solve, ms(time.Since(t0)))
		if err == nil {
			err = checkSolution(cur, x, b)
		}
		if err != nil {
			return fmt.Errorf("replica solve: %w", err)
		}
		t0 = time.Now()
		x, err = f.SolveParallel(b)
		psolve = append(psolve, ms(time.Since(t0)))
		if err == nil {
			err = checkSolution(cur, x, b)
		}
		if err != nil {
			return fmt.Errorf("replica parallel solve: %w", err)
		}
	}

	nf, pr := f.Numeric(), f.Program()
	ex := fanout.NewExecutorMode(nf, pr, r.opts.Exec)
	rec := ex.NewMeasureRecorder()
	pav := make([]float64, len(plan.ValMap))
	gather := func(vals []float64) {
		for q, src := range plan.ValMap {
			pav[q] = vals[src]
		}
	}
	var traced, reload, run, busy, idle, steals, gflops, bmod, bfac, bdiv []float64
	for i := 1; i <= r.reps; i++ {
		vals := r.values(r.reps + i)
		rec.Reset()
		t0 := time.Now()
		gather(vals)
		t1 := time.Now()
		if err := nf.Reload(pav); err != nil {
			return err
		}
		t2 := time.Now()
		rec.Enable()
		st, err := ex.RunContext(ctx)
		t3 := time.Now()
		rec.Disable()
		if err != nil {
			return err
		}
		if d := rec.Dropped(); d > 0 {
			return fmt.Errorf("recorder dropped %d spans: traced run is invalid", d)
		}
		b := r.rhs(r.reps + i)
		x, err := f.Solve(b)
		if err == nil {
			err = checkSolution(withValues(r.a, vals), x, b)
		}
		if err != nil {
			return fmt.Errorf("traced refactor: %w", err)
		}
		sp := sumSpans(rec.Spans())
		wall := float64(t3.Sub(t2).Nanoseconds())
		lanes := float64(rec.Procs())
		traced = append(traced, ms(t3.Sub(t0)))
		reload = append(reload, ms(t2.Sub(t1)))
		run = append(run, wall/1e6)
		busy = append(busy, float64(sp.kernel())/(lanes*wall))
		idle = append(idle, float64(sp[obs.OpIdle])/(lanes*wall))
		steals = append(steals, float64(st.Steals))
		gflops = append(gflops, float64(st.Flops)/float64(sp.kernel()))
		bmod = append(bmod, float64(sp[obs.OpBMOD])/1e6)
		bfac = append(bfac, float64(sp[obs.OpBFAC])/1e6)
		bdiv = append(bdiv, float64(sp[obs.OpBDIV])/1e6)
	}
	ex.SetRecorder(nil)

	// T₁: the same operation on one processor, untraced.
	m1 := plan.Map(mapping.BestGrid(1), mapping.ID, mapping.CY)
	ex1 := fanout.NewExecutorMode(nf, sched.Build(plan.BS, plan.Assign(m1, 2)), r.opts.Exec)
	var t1s []float64
	for i := 1; i <= r.reps; i++ {
		gather(r.values(2*r.reps + i))
		if err := nf.Reload(pav); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := ex1.RunContext(ctx); err != nil {
			return err
		}
		t1s = append(t1s, ms(time.Since(t0)))
	}

	peak := peakGflops()
	out["local.refactor_ms"] = median(refac)
	out["local.solve_ms"] = median(solve)
	out["fanout.solve_ms"] = median(psolve)
	out["numeric.reload_ms"] = median(reload)
	out["fanout.run_ms"] = median(run)
	out["core.unattributed_ms"] = median(refac) - median(reload) - median(run)
	out["fanout.busy_frac"] = median(busy)
	out["fanout.idle_frac"] = median(idle)
	out["fanout.sched_frac"] = 1 - median(busy) - median(idle)
	out["fanout.steals"] = median(steals)
	out["fanout.efficiency"] = median(t1s) / (float64(r.procs) * median(run))
	out["kernels.bmod_ms"] = median(bmod)
	out["kernels.bfac_ms"] = median(bfac)
	out["kernels.bdiv_ms"] = median(bdiv)
	out["kernels.gflops"] = median(gflops)
	out["kernels.peak_gflops"] = peak
	out["kernels.rate_over_peak"] = median(gflops) / peak
	out["trace.overhead_frac"] = median(traced)/median(refac) - 1
	return nil
}

// spanTotals is the summed span time per operation kind, in ns.
type spanTotals map[obs.Op]int64

func sumSpans(spans []obs.Span) spanTotals {
	t := make(spanTotals)
	for _, s := range spans {
		t[s.Op] += s.End - s.Start
	}
	return t
}

// kernel is the time spent in BFAC, BDIV and BMOD.
func (t spanTotals) kernel() int64 { return t[obs.OpBFAC] + t[obs.OpBDIV] + t[obs.OpBMOD] }

// term is one layer's share of an end-to-end median.
type term struct {
	name string
	ms   float64
}

// printAccounting prints an end-to-end median, the layer medians it is
// made of, and the remainder no layer accounts for.
func printAccounting(workload, op string, e2e float64, terms []term) {
	var sb strings.Builder
	rest := e2e
	for _, t := range terms {
		fmt.Fprintf(&sb, " %s=%.4f", t.name, t.ms)
		rest -= t.ms
	}
	fmt.Printf("accounting %s %s_ms_p50=%.4f%s unattributed=%.4f\n", workload, op, e2e, sb.String(), rest)
}

// frontOverheads sets what the front end adds to each operation class over
// the in-process replica: the loop's median round trip minus the local
// median.
func frontOverheads(t *tally, out map[string]float64) error {
	for _, c := range []struct{ class, local, name string }{
		{opCold, "local.cold_ms", "front.cold_overhead_ms"},
		{opRefactor, "local.refactor_ms", "front.refactor_overhead_ms"},
		{opSolve, "local.solve_ms", "front.solve_overhead_ms"},
	} {
		if len(t.samples[c.class]) == 0 {
			return fmt.Errorf("%s: no %s samples", c.name, c.class)
		}
		out[c.name] = median(t.samples[c.class]) - out[c.local]
	}
	return nil
}

// absent records layers a workload does not pass through. Every such
// metric is a count or a fraction.
func absent(out map[string]float64, names ...string) {
	for _, n := range names {
		out[n] = 0
	}
}

var clusterMetrics = []string{
	"wire.bytes_per_refactor", "cluster.flop_balance", "cluster.epochs_per_refactor",
	"cluster.epoch_retries", "cluster.local_fallbacks",
}
