package core

import (
	"context"
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/fanout"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	ord "blockfanout/internal/order"
)

// TestNewPlanBlockingStrategies builds a plan per strategy, factors it in
// parallel, and checks the solution: every strategy must be usable
// end-to-end through the public pipeline.
func TestNewPlanBlockingStrategies(t *testing.T) {
	m := gen.IrregularMesh(220, 5, 3, 13)
	for _, strat := range []blocks.Strategy{
		blocks.StrategyUniform, blocks.StrategyStaged, blocks.StrategyCycled, blocks.StrategyIrregular,
	} {
		t.Run(strat.String(), func(t *testing.T) {
			plan, err := NewPlan(m, Options{Ordering: ord.MinDegree, BlockSize: 12, Blocking: strat})
			if err != nil {
				t.Fatal(err)
			}
			if strat == blocks.StrategyIrregular {
				// Irregular panels never cross supernode boundaries.
				for p := 0; p < plan.BS.Part.N(); p++ {
					s := plan.BS.Part.SnodeOf[p]
					lo, hi := plan.BS.Part.Start[p], plan.BS.Part.Start[p+1]
					if plan.Sym.SnodeOf[lo] != s || plan.Sym.SnodeOf[hi-1] != s {
						t.Fatalf("panel %d crosses supernode boundary", p)
					}
				}
			}
			mp := plan.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY)
			f, err := plan.Factor(context.Background(), plan.Assign(mp, 2), FactorOpts{})
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, m.N)
			for i := range b {
				b[i] = 1
			}
			x, err := f.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			if r := f.Residual(x, b); r > 1e-8 {
				t.Fatalf("residual %g", r)
			}
		})
	}
}

// TestNewPlanIrregularThreshold checks that the relative-fill threshold is
// the coarsening knob: a larger threshold must not produce more supernodes.
func TestNewPlanIrregularThreshold(t *testing.T) {
	m := gen.IrregularMesh(300, 6, 3, 21)
	prev := -1
	for _, frac := range []float64{0.02, 0.10, 0.40} {
		plan, err := NewPlan(m, Options{Ordering: ord.MinDegree, Blocking: blocks.StrategyIrregular, AmalgThreshold: frac})
		if err != nil {
			t.Fatal(err)
		}
		n := len(plan.Sym.Snodes)
		if prev >= 0 && n > prev {
			t.Fatalf("threshold %g produced %d supernodes, more than the finer %d", frac, n, prev)
		}
		prev = n
	}
}

// TestConfigKeyDistinguishesOptions pins the cache-key contract: any option
// that changes the analyzed plan must change ConfigKey, and equal options
// must agree.
func TestConfigKeyDistinguishesOptions(t *testing.T) {
	base := Options{Ordering: ord.MinDegree, BlockSize: 16}
	if base.ConfigKey() != (Options{Ordering: ord.MinDegree, BlockSize: 16}).ConfigKey() {
		t.Fatal("equal options disagree")
	}
	variants := []Options{
		{Ordering: ord.MinDegree, BlockSize: 32},
		{Ordering: ord.Natural, BlockSize: 16},
		{Ordering: ord.MinDegree, BlockSize: 16, GridDim: 4},
		{Ordering: ord.MinDegree, BlockSize: 16, Blocking: blocks.StrategyStaged},
		{Ordering: ord.MinDegree, BlockSize: 16, Blocking: blocks.StrategyIrregular},
		{Ordering: ord.MinDegree, BlockSize: 16, Blocking: blocks.StrategyIrregular, AmalgThreshold: 0.2},
		// The executor mode changes no symbolic structure, but serving
		// tiers key executors off cached plan entries, so it must still
		// separate cache keys (the regression behind this line: SPMD and
		// steal requests aliasing one entry).
		{Ordering: ord.MinDegree, BlockSize: 16, Exec: fanout.ModeSPMD},
	}
	seen := map[uint64]int{base.ConfigKey(): -1}
	for i, v := range variants {
		k := v.ConfigKey()
		if j, dup := seen[k]; dup {
			t.Fatalf("variants %d and %d share key %016x", i, j, k)
		}
		seen[k] = i
	}
}
