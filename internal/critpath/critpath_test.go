package critpath

import (
	"math"
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/gen"
	"blockfanout/internal/machine"
	"blockfanout/internal/mapping"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

func structureFor(t *testing.T, m *sparse.Matrix, method ord.Method, gridDim, b int) *blocks.Structure {
	t.Helper()
	p, err := ord.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, st, err := symbolic.AnalyzeOrdering(m, p, symbolic.DefaultAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blocks.Build(st, blocks.NewPartition(st, b))
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

const rate, ovh = 30e6, 1000 / 30e6

func TestSingleBlockMatrix(t *testing.T) {
	// One dense supernode, one panel: critical path = the one BFAC.
	bs := structureFor(t, gen.Dense(12), ord.Natural, 0, 12)
	if bs.N() != 1 {
		t.Fatalf("panels=%d", bs.N())
	}
	got := Length(bs, rate, ovh)
	w := int64(12)
	want := float64(w*(w+1)*(2*w+1)/6)/rate + ovh
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("cp=%g, want %g", got, want)
	}
}

func TestBoundedBySequentialAndAboveMaxColumn(t *testing.T) {
	bs := structureFor(t, gen.IrregularMesh(300, 5, 3, 41), ord.MinDegree, 0, 8)
	cp := Length(bs, rate, ovh)
	seq := float64(bs.TotalFlops)/rate + float64(bs.TotalOps)*ovh
	if cp <= 0 || cp > seq {
		t.Fatalf("cp=%g outside (0, %g]", cp, seq)
	}
	// The final column's own chain (BFAC of the last panel) is a trivial
	// lower bound.
	last := bs.N() - 1
	w := int64(bs.Part.Width(last))
	if cp < float64(w*(w+1)*(2*w+1)/6)/rate {
		t.Fatalf("cp=%g below last BFAC time", cp)
	}
}

func TestChainMatrixCriticalPathIsSequential(t *testing.T) {
	// A tridiagonal matrix with B=1 has a pure chain DAG: the critical
	// path equals the sequential time.
	n := 12
	ts := []sparse.Triplet{}
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 4})
		if i > 0 {
			ts = append(ts, sparse.Triplet{Row: i, Col: i - 1, Val: -1})
		}
	}
	m, err := sparse.FromTriplets(n, ts)
	if err != nil {
		t.Fatal(err)
	}
	na := symbolic.NoAmalgamation()
	st, err := symbolic.Analyze(m, na)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blocks.Build(st, blocks.NewPartition(st, 1))
	if err != nil {
		t.Fatal(err)
	}
	cp := Length(bs, rate, ovh)
	seq := float64(bs.TotalFlops)/rate + float64(bs.TotalOps)*ovh
	if math.Abs(cp-seq) > 1e-12 {
		t.Fatalf("chain: cp=%g, seq=%g", cp, seq)
	}
}

func TestCriticalPathLowerBoundsSimulation(t *testing.T) {
	// No simulated schedule can beat the critical path.
	bs := structureFor(t, gen.Grid2D(16), ord.NDGrid2D, 16, 4)
	cfg := machine.Paragon()
	cp := Length(bs, cfg.FlopRate, cfg.OpOverhead)
	for _, g := range []mapping.Grid{{Pr: 2, Pc: 2}, {Pr: 8, Pc: 8}} {
		pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(g, bs.N())})
		res := machine.MustSimulate(pr, cfg)
		if res.Time < cp-1e-12 {
			t.Fatalf("grid %v simulated %g below critical path %g", g, res.Time, cp)
		}
	}
}

func TestNestedDissectionShortensCriticalPath(t *testing.T) {
	// Nested dissection both reduces total work and exposes concurrency
	// on a grid: its absolute critical path must beat the natural
	// (banded) ordering's.
	m := gen.Grid2D(20)
	nd := structureFor(t, m, ord.NDGrid2D, 20, 4)
	nat := structureFor(t, m, ord.Natural, 0, 4)
	cpND := Length(nd, rate, ovh)
	cpNat := Length(nat, rate, ovh)
	if cpND >= cpNat {
		t.Fatalf("ND critical path %g not below natural %g", cpND, cpNat)
	}
}

func TestProfileBasics(t *testing.T) {
	bs := structureFor(t, gen.Grid2D(16), ord.NDGrid2D, 16, 4)
	p := ComputeProfile(bs, rate, ovh, 32)
	if p.CriticalPath != Length(bs, rate, ovh) {
		t.Fatalf("profile CP %g != Length %g", p.CriticalPath, Length(bs, rate, ovh))
	}
	if p.MaxWidth < 1 || p.AvgWidth <= 0 || p.AvgWidth > float64(p.MaxWidth) {
		t.Fatalf("widths: max=%d avg=%g", p.MaxWidth, p.AvgWidth)
	}
	// Area under the curve equals total serial time of all ops:
	// avg width · CP = Σ op durations = seq time.
	seq := float64(bs.TotalFlops)/rate + float64(bs.TotalOps)*ovh
	if math.Abs(p.AvgWidth*p.CriticalPath-seq) > 1e-6*seq {
		t.Fatalf("area %g != sequential time %g", p.AvgWidth*p.CriticalPath, seq)
	}
	if len(p.Curve) != 32 {
		t.Fatal("curve length")
	}
	var curveArea float64
	for _, c := range p.Curve {
		curveArea += c * p.CriticalPath / 32
	}
	if math.Abs(curveArea-seq) > 1e-6*seq {
		t.Fatalf("curve area %g != sequential time %g", curveArea, seq)
	}
}

func TestProfileChainHasWidthOne(t *testing.T) {
	n := 10
	ts := []sparse.Triplet{}
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 4})
		if i > 0 {
			ts = append(ts, sparse.Triplet{Row: i, Col: i - 1, Val: -1})
		}
	}
	m, err := sparse.FromTriplets(n, ts)
	if err != nil {
		t.Fatal(err)
	}
	na := symbolic.NoAmalgamation()
	st, err := symbolic.Analyze(m, na)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blocks.Build(st, blocks.NewPartition(st, 1))
	if err != nil {
		t.Fatal(err)
	}
	p := ComputeProfile(bs, rate, ovh, 8)
	if p.MaxWidth != 1 {
		t.Fatalf("chain max width %d, want 1", p.MaxWidth)
	}
}

func TestProfileNDWiderThanNatural(t *testing.T) {
	m := gen.Grid2D(16)
	nd := structureFor(t, m, ord.NDGrid2D, 16, 4)
	nat := structureFor(t, m, ord.Natural, 0, 4)
	pd := ComputeProfile(nd, rate, ovh, 8)
	pn := ComputeProfile(nat, rate, ovh, 8)
	if pd.AvgWidth <= pn.AvgWidth {
		t.Fatalf("ND avg width %g not above natural %g", pd.AvgWidth, pn.AvgWidth)
	}
}
