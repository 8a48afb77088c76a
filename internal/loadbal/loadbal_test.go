package loadbal

import (
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	ord "blockfanout/internal/order"
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

func TestBalancesInUnitRange(t *testing.T) {
	bs := structureFor(t, gen.IrregularMesh(300, 5, 3, 5), ord.MinDegree, 0, 8)
	g := mapping.Grid{Pr: 4, Pc: 4}
	for _, m := range []*mapping.Mapping{
		mapping.Cyclic(g, bs.N()),
		mapping.New(g, mapping.DW, mapping.DW, bs, nil),
	} {
		b := Compute(bs, m)
		for name, v := range map[string]float64{
			"overall": b.Overall, "row": b.Row, "col": b.Col, "diag": b.Diag,
		} {
			if v <= 0 || v > 1 {
				t.Fatalf("%s balance %g out of (0,1]", name, v)
			}
		}
		// The coarse measures bound the overall balance from above.
		if b.Overall > b.Row+1e-12 || b.Overall > b.Col+1e-12 || b.Overall > b.Diag+1e-12 {
			t.Fatalf("overall %g exceeds a coarse bound %+v", b.Overall, b)
		}
	}
}

func TestSingleProcessorPerfectBalance(t *testing.T) {
	bs := structureFor(t, gen.Grid2D(10), ord.NDGrid2D, 10, 4)
	g := mapping.Grid{Pr: 1, Pc: 1}
	b := Compute(bs, mapping.Cyclic(g, bs.N()))
	if b.Overall != 1 || b.Row != 1 || b.Col != 1 || b.Diag != 1 {
		t.Fatalf("P=1 balances %+v, want all 1", b)
	}
}

func TestProcLoadsSumToTotal(t *testing.T) {
	bs := structureFor(t, gen.Grid2D(12), ord.NDGrid2D, 12, 4)
	g := mapping.Grid{Pr: 3, Pc: 3}
	m := mapping.Cyclic(g, bs.N())
	loads := ProcLoads(bs, m, nil)
	var sum int64
	for _, l := range loads {
		sum += l
	}
	if sum != bs.TotalWork {
		t.Fatalf("proc loads sum %d != total %d", sum, bs.TotalWork)
	}
	// Base loads shift every processor.
	base := make([]int64, g.P())
	for i := range base {
		base[i] = 100
	}
	loads2 := ProcLoads(bs, m, base)
	for i := range loads2 {
		if loads2[i] != loads[i]+100 {
			t.Fatal("base load not applied")
		}
	}
}

func TestOverallWithBase(t *testing.T) {
	bs := structureFor(t, gen.Grid2D(12), ord.NDGrid2D, 12, 4)
	g := mapping.Grid{Pr: 3, Pc: 3}
	m := mapping.Cyclic(g, bs.N())
	plain := Compute(bs, m).Overall
	// Zero base load must agree with Compute.
	if got := OverallWithBase(bs, m, make([]int64, g.P())); got != plain {
		t.Fatalf("OverallWithBase(0)=%g, Compute=%g", got, plain)
	}
	// A huge uniform base load pushes balance toward 1.
	base := make([]int64, g.P())
	for i := range base {
		base[i] = bs.TotalWork * 10
	}
	if got := OverallWithBase(bs, m, base); got < plain {
		t.Fatalf("uniform base load lowered balance: %g < %g", got, plain)
	}
}

func TestDiagonalImbalanceOfSymmetricCyclic(t *testing.T) {
	// The paper's §3 structural claim: for an SC (symmetric Cartesian)
	// cyclic mapping, diagonal balance is markedly below column balance,
	// and breaking the symmetry (independent row map) repairs it.
	bs := structureFor(t, gen.IrregularMesh(500, 6, 3, 77), ord.MinDegree, 0, 8)
	g := mapping.Grid{Pr: 8, Pc: 8}
	cy := Compute(bs, mapping.Cyclic(g, bs.N()))
	dw := Compute(bs, mapping.New(g, mapping.DW, mapping.DW, bs, nil))
	if cy.Diag >= dw.Diag {
		t.Fatalf("heuristic did not improve diagonal balance: %g vs %g", cy.Diag, dw.Diag)
	}
	if dw.Overall <= cy.Overall {
		t.Fatalf("heuristic did not improve overall balance: %g vs %g", dw.Overall, cy.Overall)
	}
}
