package kernels

import (
	"math"
	"testing"
	"testing/quick"
)

// spd fills a w×w row-major matrix with a deterministic SPD matrix
// (diagonally dominant).
func spd(w int, seed int) []float64 {
	a := make([]float64, w*w)
	for i := 0; i < w; i++ {
		for j := 0; j <= i; j++ {
			if i == j {
				a[i*w+j] = float64(w) + 2
			} else {
				v := -0.3 - 0.5*float64((i*7+j*13+seed)%10)/10
				a[i*w+j] = v
				a[j*w+i] = v
			}
		}
	}
	return a
}

func matMulLLT(l []float64, w int) []float64 {
	out := make([]float64, w*w)
	for i := 0; i < w; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += l[i*w+k] * l[j*w+k]
			}
			out[i*w+j] = s
		}
	}
	return out
}

func TestCholeskyReconstructs(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5, 8, 17, 48} {
		a := spd(w, w)
		l := append([]float64(nil), a...)
		if err := Cholesky(l, w); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		llt := matMulLLT(l, w)
		for i := 0; i < w; i++ {
			for j := 0; j <= i; j++ {
				if math.Abs(llt[i*w+j]-a[i*w+j]) > 1e-10*float64(w) {
					t.Fatalf("w=%d: LLᵀ(%d,%d)=%g, want %g", w, i, j, llt[i*w+j], a[i*w+j])
				}
			}
		}
	}
}

func TestCholeskyPreservesUpper(t *testing.T) {
	w := 6
	a := spd(w, 1)
	a[0*w+5] = 123.456 // poison the strict upper triangle
	l := append([]float64(nil), a...)
	if err := Cholesky(l, w); err != nil {
		t.Fatal(err)
	}
	if l[0*w+5] != 123.456 {
		t.Fatal("upper triangle was modified")
	}
}

func TestCholeskyIndefinite(t *testing.T) {
	w := 3
	a := []float64{
		1, 0, 0,
		2, 1, 0, // (1,1) becomes 1-4 < 0 after elimination
		0, 0, 1,
	}
	if err := Cholesky(a, w); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestCholeskyShortBuffer(t *testing.T) {
	if err := Cholesky(make([]float64, 3), 2); err == nil {
		t.Fatal("expected buffer error")
	}
}

func TestSolveRight(t *testing.T) {
	w, r := 5, 4
	a := spd(w, 3)
	l := append([]float64(nil), a...)
	if err := Cholesky(l, w); err != nil {
		t.Fatal(err)
	}
	// Build X, compute B = X·Lᵀ, then SolveRight(B) must return X.
	x := make([]float64, r*w)
	for i := range x {
		x[i] = float64((i*5)%7) - 3
	}
	b := make([]float64, r*w)
	for s := 0; s < r; s++ {
		for j := 0; j < w; j++ {
			var sum float64
			for k := 0; k <= j; k++ {
				sum += x[s*w+k] * l[j*w+k] // (Lᵀ)(k,j) = L(j,k)
			}
			b[s*w+j] = sum
		}
	}
	if err := solveRight(b, r, l, w); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-10 {
			t.Fatalf("X[%d]=%g, want %g", i, b[i], x[i])
		}
	}
}

func TestMulSub(t *testing.T) {
	// C (4×3, ldc=3) -= A(2×2)·B(3×2)ᵀ with scattering.
	w := 2
	a := []float64{1, 2, 3, 4}       // rows → dest rows 1,3
	b := []float64{1, 0, 0, 1, 1, 1} // rows → dest cols 0,1,2
	c := make([]float64, 12)         // zero
	relRow := []int{1, 3}
	relCol := []int{0, 1, 2}
	MulSub(c, 3, a, 2, b, 3, w, relRow, relCol, false, nil, nil)
	// Row 1 of C gets -[1·(1,0)ᵀ... A row0=(1,2): dot with B rows: (1,0)→1, (0,1)→2, (1,1)→3.
	want := []float64{
		0, 0, 0,
		-1, -2, -3,
		0, 0, 0,
		-3, -4, -7, // A row1=(3,4): dots 3, 4, 7
	}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("C[%d]=%g, want %g", i, c[i], want[i])
		}
	}
}

func TestMulSubLowerOnly(t *testing.T) {
	// Diagonal destination: entries with global row < global col skipped.
	w := 1
	a := []float64{2, 3} // global rows 10, 20
	b := []float64{2, 3} // global rows 10, 20 (same block)
	c := make([]float64, 4)
	relRow := []int{0, 1}
	relCol := []int{0, 1}
	rows := []int{10, 20}
	MulSub(c, 2, a, 2, b, 2, w, relRow, relCol, true, rows, rows)
	want := []float64{-4, 0, -6, -9} // (0,1) skipped: row 10 < col 20
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("C[%d]=%g, want %g", i, c[i], want[i])
		}
	}
}

func TestForwardBackSolveDiag(t *testing.T) {
	w := 6
	a := spd(w, 9)
	l := append([]float64(nil), a...)
	if err := Cholesky(l, w); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -2, 3, -4, 5, -6}
	// b = L·(Lᵀ·x)
	lt := make([]float64, w)
	for j := 0; j < w; j++ {
		var s float64
		for i := j; i < w; i++ {
			s += l[i*w+j] * x[i]
		}
		lt[j] = s
	}
	b := make([]float64, w)
	for i := 0; i < w; i++ {
		var s float64
		for j := 0; j <= i; j++ {
			s += l[i*w+j] * lt[j]
		}
		b[i] = s
	}
	ForwardSolveDiag(l, w, b)
	BackSolveDiag(l, w, b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-9 {
			t.Fatalf("x[%d]=%g, want %g", i, b[i], x[i])
		}
	}
}

// Property: Cholesky → SolveRight of the identity rows reproduces L⁻ᵀ rows,
// i.e. X·Lᵀ = I up to round-off.
func TestQuickSolveRightInverse(t *testing.T) {
	f := func(seed uint8) bool {
		w := 2 + int(seed%6)
		l := spd(w, int(seed))
		if err := Cholesky(l, w); err != nil {
			return false
		}
		x := make([]float64, w*w)
		for i := 0; i < w; i++ {
			x[i*w+i] = 1
		}
		if err := solveRight(x, w, l, w); err != nil {
			return false
		}
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				var s float64
				for k := 0; k <= j; k++ { // L is lower triangular
					s += x[i*w+k] * l[j*w+k]
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(s-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
