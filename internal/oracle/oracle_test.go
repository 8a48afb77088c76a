package oracle

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"blockfanout/internal/etree"
	"blockfanout/internal/gen"
	"blockfanout/internal/kernels"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// prep orders m, postorders it, and returns the permuted matrix with its
// supernodal analysis under amalg.
func prep(t *testing.T, m *sparse.Matrix, method ord.Method, gridDim int,
	amalg symbolic.AmalgamationConfig) (*sparse.Matrix, *symbolic.Structure) {
	t.Helper()
	p, err := ord.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, _, st, err := symbolic.AnalyzeOrdering(m, p, amalg)
	if err != nil {
		t.Fatal(err)
	}
	return m2, st
}

// methods are the factorizations that take a supernodal analysis; each is
// checked against UpLooking.
var methods = []struct {
	name string
	run  func(*sparse.Matrix, *symbolic.Structure) (*Factor, error)
}{
	{"left-looking", LeftLooking},
	{"multifrontal", Multifrontal},
	{"column-fan-out/P=1", columnFanOutOn(1)},
	{"column-fan-out/P=3", columnFanOutOn(3)},
}

func columnFanOutOn(p int) func(*sparse.Matrix, *symbolic.Structure) (*Factor, error) {
	return func(a *sparse.Matrix, st *symbolic.Structure) (*Factor, error) {
		f, _, err := ColumnFanOut(a, st, p)
		return f, err
	}
}

// agree reports the first entry stored by f or ref on which they differ by
// more than 1e-12 relative, or nil.
func agree(f, ref *Factor) error {
	if f.N != ref.N {
		return fmt.Errorf("n=%d, up-looking n=%d", f.N, ref.N)
	}
	for j := 0; j < ref.N; j++ {
		rows := append(append([]int32{int32(j)}, f.Rows[j]...), ref.Rows[j]...)
		for _, r := range rows {
			got, want := f.At(int(r), j), ref.At(int(r), j)
			if !(math.Abs(got-want) <= 1e-12*(1+math.Abs(want))) {
				return fmt.Errorf("L(%d,%d) = %g, up-looking %g", r, j, got, want)
			}
		}
	}
	return nil
}

// TestFourWayAgreement factors the same matrices with all four
// organizations and checks every entry against up-looking; on indefinite
// input every method must report the same breakdown row, and a structure
// of another matrix must be refused.
func TestFourWayAgreement(t *testing.T) {
	for _, in := range []struct {
		name    string
		m       *sparse.Matrix
		method  ord.Method
		gridDim int
	}{
		{"mesh", gen.IrregularMesh(220, 5, 3, 33), ord.MinDegree, 0},
		{"grid", gen.Grid2D(11), ord.NDGrid2D, 11},
		{"dense", gen.Dense(25), ord.Natural, 0},
	} {
		for _, sc := range []struct {
			name  string
			amalg symbolic.AmalgamationConfig
		}{
			{"exact", symbolic.NoAmalgamation()},
			{"amalgamated", symbolic.DefaultAmalgamation()},
		} {
			t.Run(in.name+"/"+sc.name, func(t *testing.T) {
				m, st := prep(t, in.m, in.method, in.gridDim, sc.amalg)
				up, err := UpLooking(m)
				if err != nil {
					t.Fatal(err)
				}
				for _, meth := range methods {
					t.Run(meth.name, func(t *testing.T) {
						f, err := meth.run(m, st)
						if err != nil {
							t.Fatal(err)
						}
						if err := agree(f, up); err != nil {
							t.Fatal(err)
						}
						// Exact structure stores exactly the fill.
						if sc.name == "exact" && f.NNZ() != up.NNZ() {
							t.Fatalf("nnz %d, up-looking %d", f.NNZ(), up.NNZ())
						}
					})
				}
			})
		}
	}

	for _, bad := range []struct {
		name string
		col  int
		val  float64
	}{
		{"negative", 20, -4},
		{"nan", 35, math.NaN()},
		{"inf", 10, math.Inf(1)},
	} {
		t.Run(bad.name, func(t *testing.T) {
			m, st := prep(t, gen.Grid2D(6), ord.NDGrid2D, 6, symbolic.NoAmalgamation())
			m.Val[m.ColPtr[bad.col]] = bad.val
			check := func(t *testing.T, err error) {
				t.Helper()
				var pe *kernels.PivotError
				if !errors.Is(err, ErrNotPositiveDefinite) || !errors.As(err, &pe) || pe.Row != bad.col {
					t.Fatalf("err %v, want a breakdown at row %d", err, bad.col)
				}
			}
			t.Run("up-looking", func(t *testing.T) {
				_, err := UpLooking(m)
				check(t, err)
			})
			for _, meth := range methods {
				t.Run(meth.name, func(t *testing.T) {
					_, err := meth.run(m, st)
					check(t, err)
				})
			}
		})
	}

	t.Run("dimension_mismatch", func(t *testing.T) {
		_, st := prep(t, gen.Grid2D(6), ord.NDGrid2D, 6, symbolic.NoAmalgamation())
		for _, meth := range methods {
			t.Run(meth.name, func(t *testing.T) {
				if _, err := meth.run(gen.Grid2D(7), st); err == nil || errors.Is(err, ErrNotPositiveDefinite) {
					t.Fatalf("mismatched dimensions gave err %v", err)
				}
			})
		}
	})
}

func TestAgainstDense(t *testing.T) {
	m := gen.IrregularMesh(80, 4, 3, 9)
	f, err := UpLooking(m)
	if err != nil {
		t.Fatal(err)
	}
	// Dense reference.
	d := m.Dense()
	n := m.N
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		v := d[j][j]
		for k := 0; k < j; k++ {
			v -= l[j][k] * l[j][k]
		}
		l[j][j] = math.Sqrt(v)
		for i := j + 1; i < n; i++ {
			s := d[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			l[i][j] = s / l[j][j]
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(f.At(i, j)-l[i][j]) > 1e-10*(1+math.Abs(l[i][j])) {
				t.Fatalf("L(%d,%d)=%g, want %g", i, j, f.At(i, j), l[i][j])
			}
		}
	}
}

func TestNNZMatchesSymbolicPrediction(t *testing.T) {
	m := gen.Grid2D(11)
	f, err := UpLooking(m)
	if err != nil {
		t.Fatal(err)
	}
	want := etree.FactorStats(etree.Build(m).ColCounts()).NZinL
	if f.NNZ() != want {
		t.Fatalf("numeric nnz %d != symbolic %d", f.NNZ(), want)
	}
}

func TestSolve(t *testing.T) {
	for _, m := range []*sparse.Matrix{
		gen.Grid2D(12),
		gen.Cube3D(4),
		gen.IrregularMesh(150, 5, 3, 6),
		gen.Dense(30),
	} {
		f, err := UpLooking(m)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, m.N)
		for i := range b {
			b[i] = math.Cos(float64(i) * 0.3)
		}
		x := f.Solve(b)
		if r := m.ResidualNorm(x, b); r > 1e-9 {
			t.Fatalf("residual %g", r)
		}
	}
}

func TestWithFillReducingPermutation(t *testing.T) {
	m := gen.IrregularMesh(200, 5, 3, 14)
	p, err := ord.Compute(ord.MinDegree, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := m.Permute(p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := UpLooking(pm)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, m.N)
	for i := range b {
		b[i] = 1
	}
	x := f.Solve(b)
	if r := pm.ResidualNorm(x, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

// Property: UpLooking solves random SPD meshes to tiny residuals.
func TestQuickSolve(t *testing.T) {
	f := func(seed uint16) bool {
		n := 30 + int(seed%60)
		m := gen.IrregularMesh(n, 4, 3, uint64(seed)+3)
		fac, err := UpLooking(m)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%5) - 2
		}
		x := fac.Solve(b)
		return m.ResidualNorm(x, b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
