package core

import (
	"context"
	"math"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/machine"
	"blockfanout/internal/mapping"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

func TestNewPlanDefaults(t *testing.T) {
	m := gen.IrregularMesh(150, 5, 3, 2)
	plan, err := NewPlan(m, Options{Ordering: ord.MinDegree})
	if err != nil {
		t.Fatal(err)
	}
	if plan.BS.Part.B != DefaultBlockSize {
		t.Fatalf("default block size %d", plan.BS.Part.B)
	}
	if err := plan.Perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.Exact.N != m.N {
		t.Fatal("stats dimension")
	}
	if len(plan.PanelDepth) != plan.BS.N() {
		t.Fatal("panel depth length")
	}
}

func TestNewPlanRejectsInvalid(t *testing.T) {
	bad := &sparse.Matrix{N: 2, ColPtr: []int{0, 1}, RowInd: []int{0}, Val: []float64{1}}
	if _, err := NewPlan(bad, Options{}); err == nil {
		t.Fatal("invalid matrix accepted")
	}
	m := gen.Grid2D(5)
	if _, err := NewPlan(m, Options{Ordering: ord.NDGrid2D, GridDim: 4}); err == nil {
		t.Fatal("grid dim mismatch accepted")
	}
}

func TestPlanPermutedMatrixEquivalent(t *testing.T) {
	m := gen.Grid2D(8)
	plan, err := NewPlan(m, Options{Ordering: ord.NDGrid2D, GridDim: 8, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// PA(i,j) == A(perm[i], perm[j]) for sampled entries.
	for i := 0; i < m.N; i += 7 {
		for j := 0; j <= i; j += 5 {
			if plan.PA.At(i, j) != m.At(plan.Perm[i], plan.Perm[j]) {
				t.Fatalf("PA(%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestEndToEndSolveUnpermuted(t *testing.T) {
	m := gen.IrregularMesh(180, 5, 3, 77)
	plan, err := NewPlan(m, Options{Ordering: ord.MinDegree, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	f, err := plan.FactorSequential()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64((i*3)%11) - 5
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	// Residual against the ORIGINAL matrix (checks permutation plumbing).
	if r := m.ResidualNorm(x, b); r > 1e-8 {
		t.Fatalf("residual %g", r)
	}
	if r := f.Residual(x, b); r > 1e-8 {
		t.Fatalf("Residual() %g", r)
	}
	if _, err := f.Solve(b[:5]); err == nil {
		t.Fatal("short rhs accepted")
	}
	if f.Numeric() == nil {
		t.Fatal("Numeric accessor nil")
	}
}

func TestParallelFactorViaCore(t *testing.T) {
	m := gen.Cube3D(6)
	plan, err := NewPlan(m, Options{Ordering: ord.NDCube3D, GridDim: 6, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	g := mapping.Grid{Pr: 2, Pc: 2}
	mp := plan.Map(g, mapping.DW, mapping.CY)
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
	if r := m.ResidualNorm(x, b); r > 1e-8 {
		t.Fatalf("residual %g", r)
	}
}

func TestBalancesAndSimulateAgree(t *testing.T) {
	m := gen.IrregularMesh(250, 5, 3, 5)
	plan, err := NewPlan(m, Options{Ordering: ord.MinDegree, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	g := mapping.Grid{Pr: 4, Pc: 4}
	cy := mapping.Cyclic(g, plan.BS.N())
	he := plan.Map(g, mapping.ID, mapping.CY)
	balCY := plan.Balances(cy)
	balHE := plan.Balances(he)
	if balHE.Overall <= balCY.Overall {
		t.Fatalf("heuristic balance %g not above cyclic %g", balHE.Overall, balCY.Overall)
	}
	cfg := machine.Paragon()
	resCY := plan.Simulate(plan.Assign(cy, 0), cfg)
	resHE := plan.Simulate(plan.Assign(he, 0), cfg)
	// Without domains, efficiency is bounded by overall balance.
	if resCY.Efficiency() > balCY.Overall+1e-9 {
		t.Fatalf("cyclic efficiency %g exceeds balance bound %g", resCY.Efficiency(), balCY.Overall)
	}
	if resHE.Time >= resCY.Time {
		t.Fatalf("heuristic mapping not faster: %g vs %g", resHE.Time, resCY.Time)
	}
	if cp := plan.CriticalPath(cfg); cp > resHE.Time+1e-12 {
		t.Fatalf("critical path %g above simulated time %g", cp, resHE.Time)
	}
}

func TestCustomAmalgamation(t *testing.T) {
	m := gen.IrregularMesh(200, 5, 3, 50)
	na := symbolic.NoAmalgamation()
	exact, err := NewPlan(m, Options{Ordering: ord.MinDegree, BlockSize: 8, Amalgamation: &na})
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := NewPlan(m, Options{Ordering: ord.MinDegree, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(relaxed.Sym.Snodes) >= len(exact.Sym.Snodes) {
		t.Fatal("default amalgamation did not merge")
	}
	// Exact stats are identical regardless of amalgamation.
	if exact.Exact != relaxed.Exact {
		t.Fatalf("exact stats changed by amalgamation: %+v vs %+v", exact.Exact, relaxed.Exact)
	}
}

func TestSequentialAndParallelSameSolution(t *testing.T) {
	m := gen.NormalEq(120, 4, 2, 10, 8)
	plan, err := NewPlan(m, Options{Ordering: ord.MinDegree, BlockSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, m.N)
	for i := range b {
		b[i] = math.Cos(float64(i))
	}
	fs, err := plan.FactorSequential()
	if err != nil {
		t.Fatal(err)
	}
	xs, _ := fs.Solve(b)
	g := mapping.Grid{Pr: 3, Pc: 2}
	fp, err := plan.Factor(context.Background(), plan.Assign(plan.Map(g, mapping.DN, mapping.IN), 2), FactorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	xp, _ := fp.Solve(b)
	for i := range xs {
		if math.Abs(xs[i]-xp[i]) > 1e-7*(1+math.Abs(xs[i])) {
			t.Fatalf("solutions differ at %d", i)
		}
	}
}

// TestSolveParallel keeps the deprecated SolveParallel honest while
// perfbench still calls it: it must be Solve, bit for bit.
func TestSolveParallel(t *testing.T) {
	m := gen.IrregularMesh(220, 5, 3, 12)
	plan, err := NewPlan(m, Options{Ordering: ord.MinDegree, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	g := mapping.Grid{Pr: 2, Pc: 2}
	f, err := plan.Factor(context.Background(), plan.Assign(plan.Map(g, mapping.DW, mapping.CY), 2), FactorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(i%9) - 4
	}
	xp, err := f.SolveParallel(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.ResidualNorm(xp, b); r > 1e-8 {
		t.Fatalf("solve residual %g", r)
	}
	xs, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(xp[i]) {
			t.Fatalf("SolveParallel and Solve differ at %d: %g vs %g", i, xp[i], xs[i])
		}
	}
	if _, err := f.SolveParallel(b[:3]); err == nil {
		t.Fatal("short rhs accepted")
	}
}
