package numeric

import (
	"math"
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/gen"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// setup permutes, postorders, analyzes, and blocks a matrix, returning the
// block structure and the permuted matrix.
func setup(t *testing.T, m *sparse.Matrix, method ord.Method, gridDim, b int) (*blocks.Structure, *sparse.Matrix) {
	t.Helper()
	_, bs, pm := setupSym(t, m, method, gridDim, b)
	return bs, pm
}

// setupSym is setup that also returns the symbolic structure, which domain
// selection needs.
func setupSym(t *testing.T, m *sparse.Matrix, method ord.Method, gridDim, b int) (*symbolic.Structure, *blocks.Structure, *sparse.Matrix) {
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

// denseCholesky is the reference factorization of a full matrix.
func denseCholesky(a [][]float64) [][]float64 {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		d := a[j][j]
		for k := 0; k < j; k++ {
			d -= l[j][k] * l[j][k]
		}
		d = math.Sqrt(d)
		l[j][j] = d
		for i := j + 1; i < n; i++ {
			s := a[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			l[i][j] = s / d
		}
	}
	return l
}

func TestScatterRoundTrip(t *testing.T) {
	m := gen.Grid2D(9)
	bs, pm := setup(t, m, ord.NDGrid2D, 9, 4)
	f, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	// Every A entry must be present at the right block position.
	part := bs.Part
	for j := 0; j < pm.N; j++ {
		pj := part.PanelOf[j]
		lc := j - part.Start[pj]
		w := part.Width(pj)
		for q := pm.ColPtr[j]; q < pm.ColPtr[j+1]; q++ {
			i := pm.RowInd[q]
			blk := bs.Find(part.PanelOf[i], pj)
			if blk == nil {
				t.Fatalf("A(%d,%d) has no block", i, j)
			}
			lr := searchRows(blk.Rows, i)
			bi := 0
			for k := range bs.Cols[pj].Blocks {
				if &bs.Cols[pj].Blocks[k] == blk {
					bi = k
				}
			}
			if got := f.Data[pj][bi][lr*w+lc]; got != pm.Val[q] {
				t.Fatalf("A(%d,%d)=%g scattered as %g", i, j, pm.Val[q], got)
			}
		}
	}
}

func TestFactorMatchesDenseReference(t *testing.T) {
	m := gen.IrregularMesh(60, 4, 3, 19)
	bs, pm := setup(t, m, ord.MinDegree, 0, 5)
	f, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FactorSequential(); err != nil {
		t.Fatal(err)
	}
	ref := denseCholesky(pm.Dense())
	part := bs.Part
	for j := range bs.Cols {
		w := part.Width(j)
		for bi, blk := range bs.Cols[j].Blocks {
			data := f.Data[j][bi]
			for s, grow := range blk.Rows {
				for c := 0; c < w; c++ {
					gcol := part.Start[j] + c
					if grow < gcol {
						continue // upper triangle of diagonal block
					}
					got := data[s*w+c]
					want := ref[grow][gcol]
					if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
						t.Fatalf("L(%d,%d)=%g, want %g", grow, gcol, got, want)
					}
				}
			}
		}
	}
}

func TestSolveResidual(t *testing.T) {
	for _, tc := range []struct {
		name    string
		m       *sparse.Matrix
		method  ord.Method
		gridDim int
		b       int
	}{
		{"grid", gen.Grid2D(13), ord.NDGrid2D, 13, 6},
		{"cube", gen.Cube3D(5), ord.NDCube3D, 5, 8},
		{"mesh", gen.IrregularMesh(150, 5, 3, 3), ord.MinDegree, 0, 7},
		{"dense", gen.Dense(40), ord.Natural, 0, 9},
		{"lp", gen.NormalEq(100, 3, 2, 10, 4), ord.MinDegree, 0, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, pm := setup(t, tc.m, tc.method, tc.gridDim, tc.b)
			f, err := New(bs, pm)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.FactorSequential(); err != nil {
				t.Fatal(err)
			}
			b := make([]float64, pm.N)
			for i := range b {
				b[i] = math.Sin(float64(i))
			}
			x := f.Solve(b, nil)
			if r := pm.ResidualNorm(x, b); r > 1e-8 {
				t.Fatalf("residual %g", r)
			}
		})
	}
}

func TestNotPositiveDefinite(t *testing.T) {
	// Make a grid matrix indefinite by zeroing a diagonal entry.
	m := gen.Grid2D(6)
	bs, pm := setup(t, m, ord.NDGrid2D, 6, 4)
	pm.Val[pm.ColPtr[7]] = -100 // diagonal of column 7
	f, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FactorSequential(); err == nil {
		t.Fatal("expected not-positive-definite error")
	}
}

func TestNNZConsistentWithStructure(t *testing.T) {
	m := gen.IrregularMesh(200, 5, 3, 9)
	bs, pm := setup(t, m, ord.MinDegree, 0, 8)
	f, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for j := range bs.Cols {
		w := int64(bs.Part.Width(j))
		want += w * (w - 1) / 2
		for bi := 1; bi < len(bs.Cols[j].Blocks); bi++ {
			want += int64(len(bs.Cols[j].Blocks[bi].Rows)) * w
		}
	}
	if f.NNZ() != want {
		t.Fatalf("NNZ=%d, want %d", f.NNZ(), want)
	}
}

func TestNewRejectsMismatchedMatrix(t *testing.T) {
	m := gen.Grid2D(6)
	bs, _ := setup(t, m, ord.NDGrid2D, 6, 4)
	other := gen.Grid2D(7)
	if _, err := New(bs, other); err == nil {
		t.Fatal("accepted matrix of wrong size")
	}
}

func TestBMODRejectsBadOrder(t *testing.T) {
	m := gen.Grid2D(8)
	bs, pm := setup(t, m, ord.NDGrid2D, 8, 4)
	f, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	// Find a column with two off-diagonal blocks and call BMOD with the
	// sources swapped (I < J must error).
	for k := range bs.Cols {
		if len(bs.Cols[k].Blocks) >= 3 {
			if err := f.BMOD(k, 1, 2, new(Workspace)); err == nil {
				t.Fatal("BMOD accepted I < J")
			}
			return
		}
	}
	t.Skip("no column with two off-diagonal blocks")
}

func TestSolveNMatchesSolve(t *testing.T) {
	m := gen.IrregularMesh(200, 5, 3, 71)
	bs, pm := setup(t, m, ord.MinDegree, 0, 8)
	f, err := New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FactorSequential(); err != nil {
		t.Fatal(err)
	}
	rhs := make([][]float64, 4)
	for r := range rhs {
		rhs[r] = make([]float64, pm.N)
		for i := range rhs[r] {
			rhs[r][i] = math.Sin(float64(i*(r+1)) * 0.31)
		}
	}
	batch := f.SolveN(rhs, nil)
	for r := range rhs {
		single := f.Solve(rhs[r], nil)
		for i := range single {
			if batch[r][i] != single[i] {
				t.Fatalf("rhs %d differs at %d: %g vs %g", r, i, batch[r][i], single[i])
			}
		}
		// Inputs untouched.
		if rhs[r][0] != math.Sin(0) {
			t.Fatal("rhs modified")
		}
	}
}
