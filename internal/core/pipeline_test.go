package core

import (
	"reflect"
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/etree"
	"blockfanout/internal/gen"
	ord "blockfanout/internal/order"
	"blockfanout/internal/symbolic"
)

// fiveStepPlan is the analysis NewPlan used to spell out, kept as the
// reference: permute A by the fill ordering, build that matrix's
// elimination tree and postorder it, permute A again by the composed
// ordering, then analyze the result, which builds the tree a second time.
func fiveStepPlan(t *testing.T, a *Plan) *Plan {
	t.Helper()
	opts := a.Opts
	fill, err := ord.Compute(opts.Ordering, a.A, opts.GridDim)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := a.A.Permute(fill)
	if err != nil {
		t.Fatal(err)
	}
	perm := fill.Compose(etree.Build(a1).Postorder())
	pa, vmap, err := a.A.PermuteWithMap(perm)
	if err != nil {
		t.Fatal(err)
	}
	amalg := symbolic.DefaultAmalgamation()
	if opts.Blocking == blocks.StrategyIrregular {
		amalg = symbolic.RelativeAmalgamation(opts.AmalgThreshold)
	}
	if opts.Amalgamation != nil {
		amalg = *opts.Amalgamation
	}
	sym, err := symbolic.Analyze(pa, amalg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := newPartition(sym, opts)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blocks.Build(sym, part)
	if err != nil {
		t.Fatal(err)
	}
	depth := make([]int, part.N())
	for p := range depth {
		depth[p] = sym.Depth[part.SnodeOf[p]]
	}
	return &Plan{Opts: opts, A: a.A, Perm: perm, PA: pa, Sym: sym, BS: bs,
		PanelDepth: depth, Exact: etree.FactorStats(sym.ColCounts), ValMap: vmap}
}

// TestNewPlanMatchesFiveSteps holds NewPlan's one-pass analysis to the
// five-step sequence, field for field, on every CI-scale suite matrix
// under all four blocking strategies. (ConfigKey depends on the options
// alone; cluster's TestDigestsGolden pins it.)
func TestNewPlanMatchesFiveSteps(t *testing.T) {
	var suite []gen.Problem
	suite = append(suite, gen.Table1Suite(gen.ScaleCI)...)
	suite = append(suite, gen.Table6Suite(gen.ScaleCI)...)
	for _, p := range suite {
		a := p.Build()
		for _, strat := range []blocks.Strategy{
			blocks.StrategyUniform, blocks.StrategyStaged, blocks.StrategyCycled, blocks.StrategyIrregular,
		} {
			opts := Options{GridDim: p.GridDim, Blocking: strat}
			switch p.Hint {
			case gen.HintNone:
				opts.Ordering = ord.Natural
			case gen.HintNDGrid2D:
				opts.Ordering = ord.NDGrid2D
			case gen.HintNDCube3D:
				opts.Ordering = ord.NDCube3D
			default:
				opts.Ordering = ord.MinDegree
			}
			got, err := NewPlan(a, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", p.Name, strat, err)
			}
			want := fiveStepPlan(t, got)
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Perm", got.Perm, want.Perm},
				{"PA", got.PA, want.PA},
				{"ValMap", got.ValMap, want.ValMap},
				{"Sym", got.Sym, want.Sym},
				{"BS", got.BS, want.BS},
				{"PanelDepth", got.PanelDepth, want.PanelDepth},
				{"Exact", got.Exact, want.Exact},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s/%v: %s differs from the five-step analysis", p.Name, strat, f.name)
				}
			}
		}
	}
}
