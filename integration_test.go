package blockfanout

// Cross-package integration tests: the full pipeline from matrix generation
// through ordering, symbolic analysis, block partitioning, mapping, real
// parallel factorization, and solves, validated against dense reference
// computations and residual norms.

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/machine"
	"blockfanout/internal/mapping"
	"blockfanout/internal/oracle"
	"blockfanout/internal/order"
)

// planFor builds a plan for a generated problem with sensible options.
func planFor(t *testing.T, p gen.Problem, blockSize int) *core.Plan {
	t.Helper()
	m := p.Build()
	opts := core.Options{BlockSize: blockSize, GridDim: p.GridDim}
	switch p.Hint {
	case gen.HintNone:
		opts.Ordering = order.Natural
	case gen.HintNDGrid2D:
		opts.Ordering = order.NDGrid2D
	case gen.HintNDCube3D:
		opts.Ordering = order.NDCube3D
	default:
		opts.Ordering = order.MinDegree
	}
	plan, err := core.NewPlan(m, opts)
	if err != nil {
		t.Fatalf("NewPlan(%s): %v", p.Name, err)
	}
	return plan
}

func rhsFor(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	return b
}

func TestSequentialFactorSolveGrid(t *testing.T) {
	m := gen.Grid2D(17)
	plan, err := core.NewPlan(m, core.Options{Ordering: order.NDGrid2D, GridDim: 17, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	f, err := plan.FactorSequential()
	if err != nil {
		t.Fatal(err)
	}
	b := rhsFor(m.N)
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := f.Residual(x, b); r > 1e-8 {
		t.Fatalf("residual %g too large", r)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	suite := gen.Table1Suite(gen.ScaleCI)
	for _, prob := range []string{"GRID150", "CUBE30", "BCSSTK15", "DENSE1024"} {
		p, ok := gen.ByName(suite, prob)
		if !ok {
			t.Fatalf("problem %s missing", prob)
		}
		t.Run(prob, func(t *testing.T) {
			plan := planFor(t, p, 16)
			b := rhsFor(plan.A.N)

			seq, err := plan.FactorSequential()
			if err != nil {
				t.Fatal(err)
			}
			xs, err := seq.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			if r := seq.Residual(xs, b); r > 1e-7 {
				t.Fatalf("sequential residual %g", r)
			}

			for _, withDomains := range []bool{false, true} {
				g := mapping.Grid{Pr: 3, Pc: 3}
				mp := plan.Map(g, mapping.ID, mapping.CY)
				beta := 0.0
				if withDomains {
					beta = 2.0
				}
				par, err := plan.Factor(context.Background(), plan.Assign(mp, beta), core.FactorOpts{})
				if err != nil {
					t.Fatalf("parallel (domains=%v): %v", withDomains, err)
				}
				xp, err := par.Solve(b)
				if err != nil {
					t.Fatal(err)
				}
				if r := par.Residual(xp, b); r > 1e-7 {
					t.Fatalf("parallel residual %g (domains=%v)", r, withDomains)
				}
				for i := range xs {
					if math.Abs(xs[i]-xp[i]) > 1e-6*(1+math.Abs(xs[i])) {
						t.Fatalf("solution mismatch at %d: seq=%g par=%g", i, xs[i], xp[i])
					}
				}
			}
		})
	}
}

func TestTinyDenseAgainstReference(t *testing.T) {
	// Factor a small dense SPD matrix and compare L·Lᵀ against A entrywise.
	n := 37
	m := gen.Dense(n)
	plan, err := core.NewPlan(m, core.Options{Ordering: order.Natural, BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	f, err := plan.FactorSequential()
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct A column by column via solves of unit vectors: instead,
	// verify with many random rhs.
	for trial := 0; trial < 4; trial++ {
		b := make([]float64, n)
		for i := range b {
			b[i] = float64((i*13+trial*7)%11) - 5
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := f.Residual(x, b); r > 1e-9 {
			t.Fatalf("trial %d residual %g", trial, r)
		}
	}
}

func TestSimulatedEfficiencyBounds(t *testing.T) {
	suite := gen.Table1Suite(gen.ScaleCI)
	p, _ := gen.ByName(suite, "GRID300")
	plan := planFor(t, p, 16)
	g := mapping.Grid{Pr: 4, Pc: 4}
	cfg := machine.Paragon()

	cy := plan.Assign(plan.Map(g, mapping.CY, mapping.CY), 2)
	res := plan.Simulate(cy, cfg)
	if res.Time <= 0 {
		t.Fatal("simulation produced no time")
	}
	eff := res.Efficiency()
	if eff <= 0 || eff > 1.0001 {
		t.Fatalf("efficiency %g out of range", eff)
	}
	// Efficiency can never exceed the overall balance bound by more than
	// the domain-induced slack; sanity: critical path bound positive.
	if cp := plan.CriticalPath(cfg); cp <= 0 || cp > res.Time+1e-12 {
		t.Fatalf("critical path %g vs parallel time %g", cp, res.Time)
	}
}

func TestStatsReasonable(t *testing.T) {
	// DENSE n: nnz(L) = n(n-1)/2 exactly, flops ≈ n³/3.
	n := 96
	plan, err := core.NewPlan(gen.Dense(n), core.Options{Ordering: order.Natural, BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	wantNZ := int64(n) * int64(n-1) / 2
	if plan.Exact.NZinL != wantNZ {
		t.Fatalf("dense nnz(L)=%d, want %d", plan.Exact.NZinL, wantNZ)
	}
	nn := int64(n)
	wantFlops := nn * (nn + 1) * (2*nn + 1) / 6
	if plan.Exact.Flops != wantFlops {
		t.Fatalf("dense flops=%d, want %d", plan.Exact.Flops, wantFlops)
	}
}

// TestBlockedAgainstReference cross-validates the blocked supernodal
// factorization against the independent up-looking implementation
// (internal/oracle) entry by entry on the same permuted matrix.
func TestBlockedAgainstReference(t *testing.T) {
	suite := gen.Table1Suite(gen.ScaleCI)
	p, _ := gen.ByName(suite, "BCSSTK15")
	plan := planFor(t, p, 12)
	f, err := plan.FactorSequential()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracle.UpLooking(plan.PA)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NNZ() != plan.Exact.NZinL {
		t.Fatalf("reference nnz %d != symbolic %d", ref.NNZ(), plan.Exact.NZinL)
	}
	bs := plan.BS
	part := bs.Part
	nf := f.Numeric()
	checked := 0
	for j := range bs.Cols {
		w := part.Width(j)
		for bi, blk := range bs.Cols[j].Blocks {
			data := nf.Data[j][bi]
			for s, grow := range blk.Rows {
				for c := 0; c < w; c++ {
					gcol := part.Start[j] + c
					if grow < gcol {
						continue
					}
					got := data[s*w+c]
					want := ref.At(grow, gcol)
					if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
						t.Fatalf("L(%d,%d): blocked %g vs reference %g", grow, gcol, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked < int(plan.Exact.NZinL) {
		t.Fatalf("checked only %d entries", checked)
	}
}

// TestQuickFullPipeline drives the entire pipeline — generator, ordering,
// analysis, mapping heuristic, real parallel factorization, solve
// — over randomized configurations and checks the residual every time.
func TestQuickFullPipeline(t *testing.T) {
	f := func(seed uint16) bool {
		n := 120 + int(seed%120)
		kNN := 4 + int(seed%4)
		blockSize := 4 + int(seed%12)
		heurs := mapping.AllHeuristics()
		rowH := heurs[int(seed)%len(heurs)]
		colH := heurs[int(seed/5)%len(heurs)]
		grids := []mapping.Grid{{Pr: 1, Pc: 2}, {Pr: 2, Pc: 2}, {Pr: 3, Pc: 2}, {Pr: 3, Pc: 3}}
		g := grids[int(seed/7)%len(grids)]
		beta := float64(seed % 3) // 0 disables domains

		m := gen.IrregularMesh(n, kNN, 3, uint64(seed)+101)
		plan, err := core.NewPlan(m, core.Options{Ordering: order.MinDegree, BlockSize: blockSize})
		if err != nil {
			t.Logf("seed %d: plan: %v", seed, err)
			return false
		}
		fac, err := plan.Factor(context.Background(), plan.Assign(plan.Map(g, rowH, colH), beta), core.FactorOpts{})
		if err != nil {
			t.Logf("seed %d: factor: %v", seed, err)
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64((i*int(seed+1))%13) - 6
		}
		x, err := fac.Solve(b)
		if err != nil {
			t.Logf("seed %d: solve: %v", seed, err)
			return false
		}
		if r := m.ResidualNorm(x, b); r > 1e-7 {
			t.Logf("seed %d: residual %g", seed, r)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
