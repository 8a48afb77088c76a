package fanout

import (
	"context"
	"errors"
	"math"
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/domains"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

func setup(t testing.TB, m *sparse.Matrix, method ord.Method, gridDim, b int) (*symbolic.Structure, *blocks.Structure, *sparse.Matrix) {
	t.Helper()
	p, err := ord.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, _, st, err := symbolic.AnalyzeOrdering(m, p, symbolic.DefaultAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blocks.Build(st, blocks.NewPartition(st, b))
	if err != nil {
		t.Fatal(err)
	}
	return st, bs, m2
}

// factorBoth runs sequential and parallel factorizations and compares every
// stored entry.
func factorBoth(t *testing.T, bs *blocks.Structure, pm *sparse.Matrix, a sched.Assignment) {
	t.Helper()
	seq, err := numeric.New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.FactorSequential(); err != nil {
		t.Fatal(err)
	}
	par, err := numeric.New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	pr := sched.Build(bs, a)
	stats, err := Run(par, pr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Procs != a.P() {
		t.Fatalf("stats procs %d", stats.Procs)
	}
	for j := range bs.Cols {
		for bi := range bs.Cols[j].Blocks {
			sd, pd := seq.Data[j][bi], par.Data[j][bi]
			for k := range sd {
				if math.Abs(sd[k]-pd[k]) > 1e-9*(1+math.Abs(sd[k])) {
					t.Fatalf("block (%d,%d) entry %d: seq %g par %g",
						bs.Cols[j].Blocks[bi].I, j, k, sd[k], pd[k])
				}
			}
		}
	}
}

func TestParallelEqualsSequentialAcrossGrids(t *testing.T) {
	_, bs, pm := setup(t, gen.IrregularMesh(250, 5, 3, 31), ord.MinDegree, 0, 8)
	for _, g := range []mapping.Grid{{Pr: 1, Pc: 1}, {Pr: 1, Pc: 5}, {Pr: 5, Pc: 1}, {Pr: 2, Pc: 3}, {Pr: 4, Pc: 4}} {
		factorBoth(t, bs, pm, sched.Assignment{Map: mapping.Cyclic(g, bs.N())})
	}
}

func TestParallelWithDomains(t *testing.T) {
	st, bs, pm := setup(t, gen.Grid2D(18), ord.NDGrid2D, 18, 4)
	g := mapping.Grid{Pr: 3, Pc: 3}
	a := sched.Assignment{
		Map: mapping.Cyclic(g, bs.N()),
		Dom: domains.Select(st, bs, g.P(), 2),
	}
	factorBoth(t, bs, pm, a)
}

func TestParallelWithHeuristicMappings(t *testing.T) {
	st, bs, pm := setup(t, gen.IrregularMesh(200, 6, 3, 8), ord.MinDegree, 0, 6)
	depth := make([]int, bs.N())
	for p := range depth {
		depth[p] = st.Depth[bs.Part.SnodeOf[p]]
	}
	g := mapping.Grid{Pr: 3, Pc: 3}
	for _, h := range mapping.AllHeuristics() {
		m := mapping.New(g, h, mapping.CY, bs, depth)
		factorBoth(t, bs, pm, sched.Assignment{Map: m})
	}
}

func TestNotPositiveDefiniteAborts(t *testing.T) {
	_, bs, pm := setup(t, gen.Grid2D(10), ord.NDGrid2D, 10, 4)
	bad := pm.Clone()
	bad.Val[bad.ColPtr[pm.N-1]] = -5 // last diagonal — poisons the root
	f, err := numeric.New(bs, bad)
	if err != nil {
		t.Fatal(err)
	}
	g := mapping.Grid{Pr: 2, Pc: 2}
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(g, bs.N())})
	if _, err := Run(f, pr); err == nil {
		t.Fatal("expected not-positive-definite error to propagate")
	}
}

// TestRunContextCancelCompletionRace hammers the window where cancellation
// lands exactly as the run completes: RunContext must join its context
// watcher before reading the error slot, so a straggling fail() can never
// race the read (this runs under -race in CI) and every outcome is either
// clean success or a context error.
func TestRunContextCancelCompletionRace(t *testing.T) {
	_, bs, pm := setup(t, gen.IrregularMesh(120, 5, 3, 9), ord.MinDegree, 0, 8)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
	f, err := numeric.New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f, pr)
	for i := 0; i < 50; i++ {
		if err := f.Reload(pm.Val); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go cancel() // races run completion
		if _, err := ex.RunContext(ctx); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: unexpected error %v", i, err)
		}
	}
}

func TestRepeatedRunsDeterministicResidual(t *testing.T) {
	// Arrival order varies between runs; the factor must stay numerically
	// equivalent (within round-off) run to run.
	_, bs, pm := setup(t, gen.Cube3D(6), ord.NDCube3D, 6, 6)
	g := mapping.Grid{Pr: 2, Pc: 2}
	a := sched.Assignment{Map: mapping.Cyclic(g, bs.N())}
	b := make([]float64, pm.N)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	for trial := 0; trial < 3; trial++ {
		f, err := numeric.New(bs, pm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(f, sched.Build(bs, a)); err != nil {
			t.Fatal(err)
		}
		x := f.Solve(b, nil)
		if r := pm.ResidualNorm(x, b); r > 1e-8 {
			t.Fatalf("trial %d residual %g", trial, r)
		}
	}
}

func TestTinyMatrices(t *testing.T) {
	// n=1 and single-supernode matrices must run through the parallel
	// machinery without deadlock on any grid.
	one, err := sparse.FromTriplets(1, []sparse.Triplet{{Row: 0, Col: 0, Val: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*sparse.Matrix{one, gen.Dense(3), gen.Grid2D(2)} {
		st, err := symbolic.Analyze(m, symbolic.NoAmalgamation())
		if err != nil {
			t.Fatal(err)
		}
		bs, err := blocks.Build(st, blocks.NewPartition(st, 2))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []mapping.Grid{{Pr: 1, Pc: 1}, {Pr: 2, Pc: 2}} {
			pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(g, bs.N())})
			f, err := numeric.New(bs, m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(f, pr); err != nil {
				t.Fatalf("n=%d grid %v: %v", m.N, g, err)
			}
			b := make([]float64, m.N)
			for i := range b {
				b[i] = 1
			}
			x := f.Solve(b, nil)
			if r := m.ResidualNorm(x, b); r > 1e-10 {
				t.Fatalf("n=%d residual %g", m.N, r)
			}
		}
	}
}
