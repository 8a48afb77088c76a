package colfan

import (
	"math"
	"testing"

	"blockfanout/internal/etree"
	"blockfanout/internal/gen"
	ord "blockfanout/internal/order"
	"blockfanout/internal/refchol"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// prep returns the postordered matrix and its supernodal analysis (exact
// structure so column structures match refchol's fill exactly).
func prep(t *testing.T, m *sparse.Matrix, method ord.Method, gridDim int) (*sparse.Matrix, *symbolic.Structure) {
	t.Helper()
	p, err := ord.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := m.Permute(p)
	if err != nil {
		t.Fatal(err)
	}
	po := etree.Build(m1).Postorder()
	m2, err := m1.Permute(po)
	if err != nil {
		t.Fatal(err)
	}
	st, err := symbolic.Analyze(m2, symbolic.NoAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	return m2, st
}

func TestExpandMatchesColCounts(t *testing.T) {
	m, st := prep(t, gen.Grid2D(10), ord.NDGrid2D, 10)
	sym := Expand(st)
	counts := etree.Build(m).ColCounts()
	for j := 0; j < m.N; j++ {
		if len(sym.Struct(j)) != counts[j]-1 {
			t.Fatalf("column %d struct %d, want %d", j, len(sym.Struct(j)), counts[j]-1)
		}
		st := sym.Struct(j)
		for t2 := 1; t2 < len(st); t2++ {
			if st[t2] <= st[t2-1] {
				t.Fatalf("column %d rows unsorted", j)
			}
		}
	}
	if sym.NNZ() != etree.FactorStats(counts).NZinL {
		t.Fatal("total nnz mismatch")
	}
}

func TestRunMatchesReference(t *testing.T) {
	m, st := prep(t, gen.IrregularMesh(220, 5, 3, 33), ord.MinDegree, 0)
	sym := Expand(st)
	ref, err := refchol.Compute(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 8} {
		f, stats, err := Run(m, sym, p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if stats.Procs != p {
			t.Fatal("stats procs")
		}
		for j := 0; j < m.N; j++ {
			if math.Abs(f.Diag[j]-ref.Diag[j]) > 1e-9*(1+ref.Diag[j]) {
				t.Fatalf("P=%d: diag %d: %g vs %g", p, j, f.Diag[j], ref.Diag[j])
			}
			for q, r := range f.Rows[j] {
				want := ref.At(int(r), j)
				if math.Abs(f.Vals[j][q]-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("P=%d: L(%d,%d)=%g, want %g", p, r, j, f.Vals[j][q], want)
				}
			}
		}
	}
}

func TestSolve(t *testing.T) {
	m, st := prep(t, gen.Cube3D(5), ord.NDCube3D, 5)
	f, _, err := Run(m, Expand(st), 4)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, m.N)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	x := f.Solve(b)
	if r := m.ResidualNorm(x, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

func TestMessagesGrowWithP(t *testing.T) {
	m, st := prep(t, gen.Grid2D(20), ord.NDGrid2D, 20)
	sym := Expand(st)
	prev := int64(-1)
	for _, p := range []int{1, 2, 4, 8, 16} {
		_, stats, err := Run(m, sym, p)
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 && stats.Messages != 0 {
			t.Fatalf("P=1 sent %d messages", stats.Messages)
		}
		if stats.Bytes < prev {
			t.Fatalf("volume not monotone at P=%d", p)
		}
		prev = stats.Bytes
	}
}

func TestNotPositiveDefinite(t *testing.T) {
	m, st := prep(t, gen.Grid2D(6), ord.NDGrid2D, 6)
	bad := m.Clone()
	bad.Val[bad.ColPtr[m.N-1]] = -3
	if _, _, err := Run(bad, Expand(st), 4); err == nil {
		t.Fatal("indefinite accepted")
	}
}

func TestDimensionMismatch(t *testing.T) {
	_, st := prep(t, gen.Grid2D(6), ord.NDGrid2D, 6)
	other := gen.Grid2D(7)
	if _, _, err := Run(other, Expand(st), 2); err == nil {
		t.Fatal("mismatched dimensions accepted")
	}
}
