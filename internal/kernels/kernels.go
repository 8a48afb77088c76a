// Package kernels implements the three dense block primitives of the block
// fan-out method (§2.1) on the packed block formats used by the factor:
//
//	BFAC: Cholesky factorization of a dense diagonal block
//	BDIV: right triangular solve  L_IK ← L_IK · L_KK⁻ᵀ
//	BMOD: indexed outer-product update  L_IJ ← L_IJ − L_IK · L_JKᵀ
//
// The paper uses hand-optimized Level-3 BLAS for BDIV (triangular solve
// with multiple right-hand sides) and BMOD (matrix multiplication). These
// pure-Go kernels perform the identical arithmetic with register tiling in
// the same spirit: BMOD sweeps 4×2 register tiles over the panel (w)
// dimension so eight accumulators stay in registers and every loaded
// source element feeds multiple products, BDIV solves four
// right-hand-side rows per pass so every loaded L entry is used four
// times, and BFAC is a blocked right-looking factorization whose trailing
// update reuses the tiled multiply. The naive triple-loop
// reference variants the property tests and benchmarks compare against
// live in naive_test.go.
//
// Storage conventions: a diagonal block of panel width w is a full w×w
// row-major matrix of which only the lower triangle is meaningful; an
// off-diagonal block with r dense rows is an r×w row-major matrix whose
// row s corresponds to global row Rows[s].
package kernels

import (
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// unsafeSlice adapts the pointer-based dot4x2fma calling convention (shared
// with the assembly kernel) back to a bounds-checked slice.
func unsafeSlice(p *float64, n int) []float64 { return unsafe.Slice(p, n) }

// ErrNotPositiveDefinite is returned by Cholesky when a pivot is not
// strictly positive.
var ErrNotPositiveDefinite = errors.New("kernels: matrix is not positive definite")

// PivotError is the structured form of a numerical breakdown: the
// factorization hit a pivot that is non-positive, NaN, or infinite, so the
// matrix is not (numerically) positive definite. The kernels fill Row with
// the local row index within the block being factored and leave Block at
// -1; the numeric layer rewrites both into panel/global coordinates so the
// error that reaches a caller (or an HTTP client) names the exact failure
// site. PivotError matches ErrNotPositiveDefinite under errors.Is, so
// pre-existing sentinel checks keep working.
type PivotError struct {
	Block int     // panel (block column) index, -1 until a caller fills it in
	Row   int     // row of the offending pivot (local in kernels, global above)
	Pivot float64 // the offending pivot value (NaN, ±Inf, zero, or negative)
}

func (e *PivotError) Error() string {
	if e.Block >= 0 {
		return fmt.Sprintf("kernels: pivot breakdown at block %d, row %d (pivot %g): matrix is not positive definite", e.Block, e.Row, e.Pivot)
	}
	return fmt.Sprintf("kernels: pivot breakdown at row %d (pivot %g): matrix is not positive definite", e.Row, e.Pivot)
}

// Is reports PivotError as a kind of ErrNotPositiveDefinite.
func (e *PivotError) Is(target error) bool { return target == ErrNotPositiveDefinite }

// badPivot reports whether d cannot serve as a Cholesky pivot: it must be
// strictly positive and finite. !(d > 0) also catches NaN.
func badPivot(d float64) bool { return !(d > 0) || math.IsInf(d, 1) }

// choleskyNB is the panel width of the blocked right-looking Cholesky:
// diagonal tiles up to this size are factored with the unblocked kernel,
// larger blocks are processed in choleskyNB-wide panels so the trailing
// update runs through the register-tiled rank-nb multiply.
const choleskyNB = 32

// Cholesky factors the lower triangle of the w×w row-major matrix a in
// place: on return the lower triangle holds L with a = L·Lᵀ. The strict
// upper triangle is ignored and left untouched.
//
// Blocks wider than choleskyNB are factored with a blocked right-looking
// sweep: factor an nb×nb diagonal tile, triangular-solve the panel below
// it, then rank-nb update the trailing submatrix with the register-tiled
// multiply.
func Cholesky(a []float64, w int) error {
	if len(a) < w*w {
		return fmt.Errorf("kernels: Cholesky buffer %d < %d", len(a), w*w)
	}
	if w <= choleskyNB {
		return choleskyUnblockedLD(a, w, w, 0)
	}
	for k := 0; k < w; k += choleskyNB {
		nb := choleskyNB
		if w-k < nb {
			nb = w - k
		}
		diag := a[k*w+k:]
		if err := choleskyUnblockedLD(diag, nb, w, k); err != nil {
			return err
		}
		rem := w - k - nb
		if rem == 0 {
			continue
		}
		panel := a[(k+nb)*w+k:]
		// The diagonal tile just factored cleanly, so its pivots are all
		// strictly positive and the triangular solve cannot break down.
		solveRightLD(panel, rem, w, diag, nb, w)
		syrkLowerLD(a[(k+nb)*w+(k+nb):], rem, w, panel, nb, w)
	}
	return nil
}

// choleskyUnblockedLD factors the leading n×n lower triangle of a matrix
// with leading dimension lda. row0 is the caller's row offset of a's first
// row, used only to report breakdown locations in the caller's coordinates.
//
// On breakdown the sweep records the offending row and constructs the
// PivotError only after exiting: an escaping allocation inside the loop
// body — even on a branch that never executes — costs the hot loop double-
// digit percent by forcing spills around every iteration.
func choleskyUnblockedLD(a []float64, n, lda, row0 int) error {
	badRow := -1
	var badVal float64
	for k := 0; k < n; k++ {
		d := a[k*lda+k]
		ak := a[k*lda : k*lda+k]
		for _, v := range ak {
			d -= v * v
		}
		if badPivot(d) {
			badRow, badVal = k, d
			break
		}
		d = math.Sqrt(d)
		a[k*lda+k] = d
		inv := 1 / d
		for i := k + 1; i < n; i++ {
			s := a[i*lda+k]
			ai := a[i*lda : i*lda+k]
			for t, v := range ai {
				s -= v * ak[t]
			}
			a[i*lda+k] = s * inv
		}
	}
	if badRow >= 0 {
		return &PivotError{Block: -1, Row: row0 + badRow, Pivot: badVal}
	}
	return nil
}

// syrkLowerLD performs the symmetric rank-nb update C ← C − P·Pᵀ on the
// lower triangle of the n×n matrix c (leading dimension ldc), where P is
// n×nb with leading dimension ldp. Full 4×2 tiles at or below the
// diagonal go through the register-tiled dot kernel; the ragged fringe at
// the diagonal is finished element-wise.
func syrkLowerLD(c []float64, n, ldc int, p []float64, nb, ldp int) {
	i := 0
	for ; i+4 <= n; i += 4 {
		p0 := p[i*ldp : i*ldp+nb]
		p1 := p[(i+1)*ldp : (i+1)*ldp+nb]
		p2 := p[(i+2)*ldp : (i+2)*ldp+nb]
		p3 := p[(i+3)*ldp : (i+3)*ldp+nb]
		c0 := c[i*ldc:]
		c1 := c[(i+1)*ldc:]
		c2 := c[(i+2)*ldc:]
		c3 := c[(i+3)*ldc:]
		j := 0
		for ; j+1 <= i; j += 2 {
			q0 := p[j*ldp : j*ldp+nb]
			q1 := p[(j+1)*ldp : (j+1)*ldp+nb]
			s00, s01, s10, s11, s20, s21, s30, s31 := dot4x2(p0, p1, p2, p3, q0, q1)
			c0[j] -= s00
			c0[j+1] -= s01
			c1[j] -= s10
			c1[j+1] -= s11
			c2[j] -= s20
			c2[j+1] -= s21
			c3[j] -= s30
			c3[j+1] -= s31
		}
		for r := 0; r < 4; r++ {
			pr := p[(i+r)*ldp : (i+r)*ldp+nb]
			crow := c[(i+r)*ldc:]
			for jj := j; jj <= i+r; jj++ {
				crow[jj] -= dot(pr, p[jj*ldp:jj*ldp+nb])
			}
		}
	}
	for ; i < n; i++ {
		pi := p[i*ldp : i*ldp+nb]
		crow := c[i*ldc:]
		for j := 0; j <= i; j++ {
			crow[j] -= dot(pi, p[j*ldp:j*ldp+nb])
		}
	}
}

// checkSolvePivots validates the n diagonal entries of the triangular
// factor l (leading dimension ldl) before a BDIV-style solve divides by
// them: each must be strictly positive and finite. The O(n) pre-pass keeps
// the O(r·n²) substitution loops untouched while guaranteeing the solve can
// never emit NaN or Inf from a broken-down diagonal block.
func checkSolvePivots(l []float64, n, ldl int) error {
	badRow := -1
	for j := 0; j < n; j++ {
		if badPivot(l[j*ldl+j]) {
			badRow = j
			break
		}
	}
	if badRow >= 0 {
		return &PivotError{Block: -1, Row: badRow, Pivot: l[badRow*ldl+badRow]}
	}
	return nil
}

// SolveRight performs the BDIV operation: X ← X · L⁻ᵀ where X is r×w
// row-major and L is the w×w lower-triangular factor of the diagonal block.
// Each row x of X is replaced by the solution y of y·Lᵀ = x. Four rows are
// solved per pass so each L entry loaded from memory feeds four
// substitutions. A non-positive, NaN, or infinite diagonal in l — the
// signature of a diagonal block whose factorization broke down — yields a
// PivotError before any substitution runs.
func SolveRight(x []float64, r int, l []float64, w int) error {
	if err := checkSolvePivots(l, w, w); err != nil {
		return err
	}
	solveRightLD(x, r, w, l, w, w)
	return nil
}

// solveRightLD solves X ← X·L⁻ᵀ for an r×n block X with leading dimension
// ldx against the leading n×n lower triangle of l (leading dimension ldl),
// processing four right-hand-side rows at a time.
func solveRightLD(x []float64, r, ldx int, l []float64, n, ldl int) {
	s := 0
	for ; s+4 <= r; s += 4 {
		x0 := x[s*ldx : s*ldx+n]
		x1 := x[(s+1)*ldx : (s+1)*ldx+n]
		x2 := x[(s+2)*ldx : (s+2)*ldx+n]
		x3 := x[(s+3)*ldx : (s+3)*ldx+n]
		for j := 0; j < n; j++ {
			lj := l[j*ldl : j*ldl+j+1]
			v0, v1, v2, v3 := x0[j], x1[j], x2[j], x3[j]
			for t := 0; t < j; t++ {
				lt := lj[t]
				v0 -= x0[t] * lt
				v1 -= x1[t] * lt
				v2 -= x2[t] * lt
				v3 -= x3[t] * lt
			}
			d := lj[j]
			x0[j] = v0 / d
			x1[j] = v1 / d
			x2[j] = v2 / d
			x3[j] = v3 / d
		}
	}
	for ; s < r; s++ {
		row := x[s*ldx : s*ldx+n]
		for j := 0; j < n; j++ {
			v := row[j]
			lj := l[j*ldl:]
			for t := 0; t < j; t++ {
				v -= row[t] * lj[t]
			}
			row[j] = v / lj[j]
		}
	}
}

// MulSub performs the BMOD update C ← C − A·Bᵀ with index indirection:
// A is ra×w, B is rb×w, C is the destination block with leading dimension
// ldc, and entry (s,t) of the product lands at C[relRow[s]*ldc + relCol[t]].
//
// When the destination is a diagonal block the caller must pass lower=true
// together with the global row/column index lists (ascending, as block row
// lists always are) so only the lower triangle is updated.
//
// The destination indirection is classified once per call, not per
// element: when relRow and relCol are both consecutive runs the update is
// dispatched to the dense contiguous kernel, otherwise to the scattered
// kernel. Callers that already know the classification (package numeric
// fuses it into index construction) can invoke MulSubContig or
// MulSubScattered directly.
func MulSub(c []float64, ldc int, a []float64, ra int, b []float64, rb int, w int,
	relRow, relCol []int, lower bool, rowsA, rowsB []int) {
	if ra == 0 || rb == 0 {
		return
	}
	if lower {
		MulSubLower(c, ldc, a, ra, b, rb, w, relRow, relCol, rowsA, rowsB)
		return
	}
	if consecutive(relRow, ra) && consecutive(relCol, rb) {
		MulSubContig(c[relRow[0]*ldc+relCol[0]:], ldc, a, ra, b, rb, w)
		return
	}
	MulSubScattered(c, ldc, a, ra, b, rb, w, relRow, relCol)
}

// consecutive reports whether rel[:n] is the run rel[0], rel[0]+1, … .
func consecutive(rel []int, n int) bool {
	r0 := rel[0]
	for s := 1; s < n; s++ {
		if rel[s] != r0+s {
			return false
		}
	}
	return true
}

// MulSubContig performs C ← C − A·Bᵀ for a dense consecutive destination:
// product entry (s,t) lands at c[s*ldc+t] (the caller applies the
// destination origin by slicing c). This is the no-indirection fast path
// of the BMOD kernel: 4×2 register tiles accumulate eight inner products
// per sweep over the panel dimension w.
func MulSubContig(c []float64, ldc int, a []float64, ra int, b []float64, rb, w int) {
	s := 0
	for ; s+4 <= ra; s += 4 {
		a0 := a[s*w : s*w+w]
		a1 := a[(s+1)*w : (s+1)*w+w]
		a2 := a[(s+2)*w : (s+2)*w+w]
		a3 := a[(s+3)*w : (s+3)*w+w]
		c0 := c[s*ldc:]
		c1 := c[(s+1)*ldc:]
		c2 := c[(s+2)*ldc:]
		c3 := c[(s+3)*ldc:]
		t := 0
		if useFMA {
			var acc [8]float64
			for ; t+2 <= rb; t += 2 {
				b0 := b[t*w : t*w+w]
				b1 := b[(t+1)*w : (t+1)*w+w]
				dot4x2fma(&a0[0], &a1[0], &a2[0], &a3[0], &b0[0], &b1[0], w, &acc)
				c0[t] -= acc[0]
				c0[t+1] -= acc[1]
				c1[t] -= acc[2]
				c1[t+1] -= acc[3]
				c2[t] -= acc[4]
				c2[t+1] -= acc[5]
				c3[t] -= acc[6]
				c3[t+1] -= acc[7]
			}
		}
		for ; t+2 <= rb; t += 2 {
			b0 := b[t*w : t*w+w]
			b1 := b[(t+1)*w : (t+1)*w+w]
			// The 4×2 micro-kernel is written out in place: the call to
			// dot4x2 costs ~8% here, and this loop is the single hottest
			// in the library.
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for k := 0; k < w; k++ {
				av0, av1, av2, av3 := a0[k], a1[k], a2[k], a3[k]
				bv0, bv1 := b0[k], b1[k]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s10 += av1 * bv0
				s11 += av1 * bv1
				s20 += av2 * bv0
				s21 += av2 * bv1
				s30 += av3 * bv0
				s31 += av3 * bv1
			}
			c0[t] -= s00
			c0[t+1] -= s01
			c1[t] -= s10
			c1[t+1] -= s11
			c2[t] -= s20
			c2[t+1] -= s21
			c3[t] -= s30
			c3[t+1] -= s31
		}
		if t < rb {
			s0, s1, s2, s3 := dot4x1(a0, a1, a2, a3, b[t*w:t*w+w])
			c0[t] -= s0
			c1[t] -= s1
			c2[t] -= s2
			c3[t] -= s3
		}
	}
	for ; s < ra; s++ {
		as := a[s*w : s*w+w]
		cs := c[s*ldc:]
		t := 0
		for ; t+4 <= rb; t += 4 {
			s0, s1, s2, s3 := dot1x4(as, b[t*w:t*w+w], b[(t+1)*w:(t+1)*w+w], b[(t+2)*w:(t+2)*w+w], b[(t+3)*w:(t+3)*w+w])
			cs[t] -= s0
			cs[t+1] -= s1
			cs[t+2] -= s2
			cs[t+3] -= s3
		}
		for ; t < rb; t++ {
			cs[t] -= dot(as, b[t*w:t*w+w])
		}
	}
}

// MulSubScattered performs the indexed BMOD update for destinations whose
// rows or columns are not consecutive: the same 4×2 register tiles as the
// contiguous path, with the results scattered through relRow/relCol.
func MulSubScattered(c []float64, ldc int, a []float64, ra int, b []float64, rb, w int,
	relRow, relCol []int) {
	s := 0
	for ; s+4 <= ra; s += 4 {
		a0 := a[s*w : s*w+w]
		a1 := a[(s+1)*w : (s+1)*w+w]
		a2 := a[(s+2)*w : (s+2)*w+w]
		a3 := a[(s+3)*w : (s+3)*w+w]
		c0 := c[relRow[s]*ldc:]
		c1 := c[relRow[s+1]*ldc:]
		c2 := c[relRow[s+2]*ldc:]
		c3 := c[relRow[s+3]*ldc:]
		t := 0
		if useFMA {
			var acc [8]float64
			for ; t+2 <= rb; t += 2 {
				b0 := b[t*w : t*w+w]
				b1 := b[(t+1)*w : (t+1)*w+w]
				dot4x2fma(&a0[0], &a1[0], &a2[0], &a3[0], &b0[0], &b1[0], w, &acc)
				j0, j1 := relCol[t], relCol[t+1]
				c0[j0] -= acc[0]
				c0[j1] -= acc[1]
				c1[j0] -= acc[2]
				c1[j1] -= acc[3]
				c2[j0] -= acc[4]
				c2[j1] -= acc[5]
				c3[j0] -= acc[6]
				c3[j1] -= acc[7]
			}
		}
		for ; t+2 <= rb; t += 2 {
			b0 := b[t*w : t*w+w]
			b1 := b[(t+1)*w : (t+1)*w+w]
			// Micro-kernel written out in place, as in MulSubContig.
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for k := 0; k < w; k++ {
				av0, av1, av2, av3 := a0[k], a1[k], a2[k], a3[k]
				bv0, bv1 := b0[k], b1[k]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s10 += av1 * bv0
				s11 += av1 * bv1
				s20 += av2 * bv0
				s21 += av2 * bv1
				s30 += av3 * bv0
				s31 += av3 * bv1
			}
			j0, j1 := relCol[t], relCol[t+1]
			c0[j0] -= s00
			c0[j1] -= s01
			c1[j0] -= s10
			c1[j1] -= s11
			c2[j0] -= s20
			c2[j1] -= s21
			c3[j0] -= s30
			c3[j1] -= s31
		}
		if t < rb {
			s0, s1, s2, s3 := dot4x1(a0, a1, a2, a3, b[t*w:t*w+w])
			j := relCol[t]
			c0[j] -= s0
			c1[j] -= s1
			c2[j] -= s2
			c3[j] -= s3
		}
	}
	for ; s < ra; s++ {
		as := a[s*w : s*w+w]
		cs := c[relRow[s]*ldc:]
		t := 0
		for ; t+4 <= rb; t += 4 {
			s0, s1, s2, s3 := dot1x4(as, b[t*w:t*w+w], b[(t+1)*w:(t+1)*w+w], b[(t+2)*w:(t+2)*w+w], b[(t+3)*w:(t+3)*w+w])
			cs[relCol[t]] -= s0
			cs[relCol[t+1]] -= s1
			cs[relCol[t+2]] -= s2
			cs[relCol[t+3]] -= s3
		}
		for ; t < rb; t++ {
			cs[relCol[t]] -= dot(as, b[t*w:t*w+w])
		}
	}
}

// MulSubLower performs the BMOD update onto a diagonal destination block:
// only product entries with rowsA[s] ≥ rowsB[t] (the lower triangle in
// global coordinates) are applied. Both row lists must be ascending — true
// of every block row list — which turns the triangular mask into a
// monotone per-row cutoff so the inner loop runs unmasked and 4-wide.
func MulSubLower(c []float64, ldc int, a []float64, ra int, b []float64, rb, w int,
	relRow, relCol []int, rowsA, rowsB []int) {
	cut := 0
	for s := 0; s < ra; s++ {
		for cut < rb && rowsB[cut] <= rowsA[s] {
			cut++
		}
		as := a[s*w : s*w+w]
		crow := c[relRow[s]*ldc:]
		t := 0
		for ; t+4 <= cut; t += 4 {
			s0, s1, s2, s3 := dot1x4(as, b[t*w:t*w+w], b[(t+1)*w:(t+1)*w+w], b[(t+2)*w:(t+2)*w+w], b[(t+3)*w:(t+3)*w+w])
			crow[relCol[t]] -= s0
			crow[relCol[t+1]] -= s1
			crow[relCol[t+2]] -= s2
			crow[relCol[t+3]] -= s3
		}
		for ; t < cut; t++ {
			crow[relCol[t]] -= dot(as, b[t*w:t*w+w])
		}
	}
}

// dot4x2 accumulates the eight inner products of four A rows against two
// B rows in registers over a single sweep of the shared panel dimension.
// 4×2 is the largest micro-tile whose accumulators and operands (8 + 6
// values) stay resident in the sixteen amd64 vector registers; a 4×4 tile
// spills and runs markedly slower. All slices must have length ≥ len(a0);
// they are re-sliced so the compiler can elide bounds checks in the hot
// loop.
func dot4x2(a0, a1, a2, a3, b0, b1 []float64) (s00, s01, s10, s11, s20, s21, s30, s31 float64) {
	n := len(a0)
	a1 = a1[:n]
	a2 = a2[:n]
	a3 = a3[:n]
	b0 = b0[:n]
	b1 = b1[:n]
	for k := 0; k < n; k++ {
		av0, av1, av2, av3 := a0[k], a1[k], a2[k], a3[k]
		bv0, bv1 := b0[k], b1[k]
		s00 += av0 * bv0
		s01 += av0 * bv1
		s10 += av1 * bv0
		s11 += av1 * bv1
		s20 += av2 * bv0
		s21 += av2 * bv1
		s30 += av3 * bv0
		s31 += av3 * bv1
	}
	return
}

// dot4x1 accumulates four A rows against one B row.
func dot4x1(a0, a1, a2, a3, bt []float64) (s0, s1, s2, s3 float64) {
	n := len(bt)
	a0 = a0[:n]
	a1 = a1[:n]
	a2 = a2[:n]
	a3 = a3[:n]
	for k := 0; k < n; k++ {
		bv := bt[k]
		s0 += a0[k] * bv
		s1 += a1[k] * bv
		s2 += a2[k] * bv
		s3 += a3[k] * bv
	}
	return
}

// dot1x4 accumulates one A row against four B rows.
func dot1x4(as, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	n := len(as)
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	for k := 0; k < n; k++ {
		av := as[k]
		s0 += av * b0[k]
		s1 += av * b1[k]
		s2 += av * b2[k]
		s3 += av * b3[k]
	}
	return
}

// dot is the scalar inner product over len(as) entries.
func dot(as, bt []float64) float64 {
	bt = bt[:len(as)]
	var sum float64
	for k, av := range as {
		sum += av * bt[k]
	}
	return sum
}

// ForwardSolveDiag solves L·y = b in place for the lower-triangular w×w
// diagonal block (b overwritten by y).
func ForwardSolveDiag(l []float64, w int, b []float64) {
	for j := 0; j < w; j++ {
		lj := l[j*w:]
		v := b[j]
		for t := 0; t < j; t++ {
			v -= lj[t] * b[t]
		}
		b[j] = v / lj[j]
	}
}

// BackSolveDiag solves Lᵀ·y = b in place for the lower-triangular w×w
// diagonal block.
func BackSolveDiag(l []float64, w int, b []float64) {
	for j := w - 1; j >= 0; j-- {
		v := b[j]
		for t := j + 1; t < w; t++ {
			v -= l[t*w+j] * b[t]
		}
		b[j] = v / l[j*w+j]
	}
}

// CholeskyNoChecks is the pivot-check-free twin of Cholesky, kept solely as
// the baseline TestPivotCheckOverhead and BenchmarkKernelCholeskyNoChecks
// measure the breakdown-detection overhead against. On indefinite input it
// silently emits NaN — exactly the failure mode the checked kernels exist
// to prevent — so nothing outside those measurements may call it.
func CholeskyNoChecks(a []float64, w int) {
	if w <= choleskyNB {
		choleskyUncheckedLD(a, w, w)
		return
	}
	for k := 0; k < w; k += choleskyNB {
		nb := choleskyNB
		if w-k < nb {
			nb = w - k
		}
		diag := a[k*w+k:]
		choleskyUncheckedLD(diag, nb, w)
		rem := w - k - nb
		if rem == 0 {
			continue
		}
		panel := a[(k+nb)*w+k:]
		solveRightLD(panel, rem, w, diag, nb, w)
		syrkLowerLD(a[(k+nb)*w+(k+nb):], rem, w, panel, nb, w)
	}
}

// choleskyUncheckedLD is choleskyUnblockedLD without the pivot guard.
func choleskyUncheckedLD(a []float64, n, lda int) {
	for k := 0; k < n; k++ {
		d := a[k*lda+k]
		ak := a[k*lda : k*lda+k]
		for _, v := range ak {
			d -= v * v
		}
		d = math.Sqrt(d)
		a[k*lda+k] = d
		inv := 1 / d
		for i := k + 1; i < n; i++ {
			s := a[i*lda+k]
			ai := a[i*lda : i*lda+k]
			for t, v := range ai {
				s -= v * ak[t]
			}
			a[i*lda+k] = s * inv
		}
	}
}

// dot4x2fmaGeneric is the portable implementation of the dot4x2fma
// contract: out[2i+j] = Σₖ aᵢ[k]·bⱼ[k] over n shared elements. It backs
// dot4x2fma on platforms without the assembly micro-kernel and is exercised
// directly by tests on every platform, so the non-amd64 dispatch path can
// never reach an unimplemented kernel.
func dot4x2fmaGeneric(a0, a1, a2, a3, b0, b1 *float64, n int, out *[8]float64) {
	s0 := unsafeSlice(a0, n)
	s1 := unsafeSlice(a1, n)
	s2 := unsafeSlice(a2, n)
	s3 := unsafeSlice(a3, n)
	t0 := unsafeSlice(b0, n)
	t1 := unsafeSlice(b1, n)
	v00, v01, v10, v11, v20, v21, v30, v31 := dot4x2(s0, s1, s2, s3, t0, t1)
	out[0], out[1], out[2], out[3] = v00, v01, v10, v11
	out[4], out[5], out[6], out[7] = v20, v21, v30, v31
}

// HasFMA reports whether the AVX2+FMA micro-kernel is active.
func HasFMA() bool { return useFMA }

// setFMA enables or disables the FMA micro-kernel and reports the previous
// setting. It exists for tests that exercise the portable path.
// Dispatch is gated on the single hasFMA capability check performed at
// init: requesting FMA on hardware (or a build) without support is a no-op
// rather than a crash, so the pure-Go path is always safe to select.
func setFMA(on bool) bool {
	prev := useFMA
	useFMA = on && hasFMA
	return prev
}
