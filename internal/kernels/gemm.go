package kernels

import "sync"

// The packed outer-product kernel behind BMOD and BDIV (Goto & van de
// Geijn, "Anatomy of High-Performance Matrix Multiplication", TOMS 2008).
// Per operation the B operand — the rb rows the update multiplies
// against — is packed into k-major micro-panels of tileCols columns,
// zero-padded to the tile width. A strip of up to tileRows rows of A then
// sweeps every panel, keeping one tileRows×tileCols block of C in
// registers for the whole k loop, fed by broadcasts of A's entries: no
// horizontal reduction, and one kernel call per strip. Every element of C
// accumulates its products in k order and is then subtracted once, so
// for a given shape the result depends only on the operands.

const (
	tileRows = 4 // rows of A per strip (broadcast side)
	tileCols = 8 // packed B columns per micro-panel (vector side)
)

// usePacked reports whether an ra×rb×w block product goes through the
// packed kernel rather than the small-op code. Below 8-wide panels, below
// half a panel of B rows, or below 32 destination entries the per-op
// packing and strip calls cost more than they save; the bounds come from
// BenchmarkKernelShapes (table in CHANGES.md).
func usePacked(ra, rb, w int) bool {
	return w >= tileCols && rb >= tileCols/2 && ra*rb >= 32
}

// useBlockedSolve reports whether an r-row BDIV against a w-wide diagonal
// block takes the blocked TRSM: from three chunks on with at least two
// rows, or from two chunks with at least a panel's worth of rows
// (BenchmarkKernelShapes).
func useBlockedSolve(r, w int) bool {
	return (w >= 3*tileCols && r >= 2) || (w >= 2*tileCols && r >= tileCols)
}

// Workspace is the reusable scratch of the packed kernels: the packed B
// micro-panels, one strip of products for scattered and masked
// write-back, and MulSub's int32 copies of its index maps. The scattered
// and lower methods take strictly increasing index maps. Each
// concurrent caller owns one; the zero value is ready and grows to the
// largest operation seen, after which the kernels never allocate.
type Workspace struct {
	pack []float64
	edge []float64 // the last partial panel's rows, zero-padded
	tile []float64
	rel  []int32
}

// packedLen is the length of ncols columns of depth w packed into
// tileCols-wide micro-panels.
func packedLen(ncols, w int) int {
	return (ncols + tileCols - 1) / tileCols * tileCols * w
}

// packB packs the first w entries of rb rows of b (leading dimension ldb)
// into k-major micro-panels: row t's entry k lands at
// pack[(t/tileCols·w + k)·tileCols + t%tileCols]. Lanes past rb are zero.
func (ws *Workspace) packB(b []float64, rb, ldb, w int) []float64 {
	n := packedLen(rb, w)
	if cap(ws.pack) < n {
		ws.pack = make([]float64, n)
	}
	bp := ws.pack[:n]
	for t := 0; t < rb; t += tileCols {
		src, ld := b[t*ldb:], ldb
		if t+tileCols > rb {
			// The last, partial panel: copy its rows into a zero-padded
			// block so the same full-panel transpose packs it.
			if cap(ws.edge) < tileCols*w {
				ws.edge = make([]float64, tileCols*w)
			}
			edge := ws.edge[:tileCols*w]
			for l := 0; l < tileCols; l++ {
				if t+l < rb {
					copy(edge[l*w:(l+1)*w], b[(t+l)*ldb:(t+l)*ldb+w])
				} else {
					clear(edge[l*w : (l+1)*w])
				}
			}
			src, ld = edge, w
		}
		src = src[:(tileCols-1)*ld+w]
		panel := bp[t*w : t*w+tileCols*w]
		if useFMA {
			packPanelAVX(&panel[0], &src[0], ld, w)
		} else {
			packPanelGo(panel, src, ld, w)
		}
	}
	return bp
}

// packPanelGo packs one full panel: panel[k·tileCols + l] = src[l·ldb + k]
// for l < tileCols and k < w, an 8×w → w×8 transpose.
func packPanelGo(panel, src []float64, ldb, w int) {
	r0 := src[:w]
	r1 := src[ldb:][:len(r0)]
	r2 := src[2*ldb:][:len(r0)]
	r3 := src[3*ldb:][:len(r0)]
	r4 := src[4*ldb:][:len(r0)]
	r5 := src[5*ldb:][:len(r0)]
	r6 := src[6*ldb:][:len(r0)]
	r7 := src[7*ldb:][:len(r0)]
	for k := range r0 {
		d := panel[k*tileCols : k*tileCols+tileCols]
		d[0], d[1], d[2], d[3] = r0[k], r1[k], r2[k], r3[k]
		d[4], d[5], d[6], d[7] = r4[k], r5[k], r6[k], r7[k]
	}
}

// tileBuf returns n entries of the write-back scratch.
func (ws *Workspace) tileBuf(n int) []float64 {
	if cap(ws.tile) < n {
		ws.tile = make([]float64, n)
	}
	return ws.tile[:n]
}

// mulSubStrip runs the strip kernel: for rows i < mr ≤ tileRows and
// columns j < ncols, c[rows[i] + j] −= Σₖ a[i·lda + k]·B(j, k), with B
// packed by packB (depth w). Destination rows may lie anywhere in c; the
// slice expressions check every operand's extent before the assembly
// touches it.
func mulSubStrip(c []float64, rows *[tileRows]int, a []float64, lda, mr int, bp []float64, w, ncols int) {
	for _, r := range rows[:mr] {
		_ = c[r : r+ncols]
	}
	a = a[:(mr-1)*lda+w]
	bp = bp[:packedLen(ncols, w)]
	if useFMA {
		mulSubStripFMA(&c[0], rows, &a[0], lda, mr, &bp[0], w, ncols)
		return
	}
	mulSubStripGo(c, rows, a, lda, mr, bp, w, ncols)
}

// mulSubStripGo is the pure-Go twin of the assembly strip kernel, run on
// builds and CPUs without AVX2+FMA: the same contract and the same
// per-element order (products summed in k order, then subtracted once),
// computed as 4×2 register sub-tiles of each packed panel so the
// accumulators stay in registers without vector instructions.
func mulSubStripGo(c []float64, rows *[tileRows]int, a []float64, lda, mr int, bp []float64, w, ncols int) {
	var ar [tileRows][]float64
	for i := range ar {
		r := 0
		if i < mr {
			r = i
		}
		ar[i] = a[r*lda : r*lda+w]
	}
	a0 := ar[0]
	a1, a2, a3 := ar[1][:len(a0)], ar[2][:len(a0)], ar[3][:len(a0)]
	for p := 0; p*tileCols < ncols; p++ {
		panel := bp[p*tileCols*w : (p+1)*tileCols*w]
		nc := min(tileCols, ncols-p*tileCols)
		for j := 0; j < nc; j += 2 {
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for k, av0 := range a0 {
				b0, b1 := panel[k*tileCols+j], panel[k*tileCols+j+1]
				av1, av2, av3 := a1[k], a2[k], a3[k]
				s00 += av0 * b0
				s01 += av0 * b1
				s10 += av1 * b0
				s11 += av1 * b1
				s20 += av2 * b0
				s21 += av2 * b1
				s30 += av3 * b0
				s31 += av3 * b1
			}
			acc := [tileRows][2]float64{{s00, s01}, {s10, s11}, {s20, s21}, {s30, s31}}
			for i := 0; i < mr; i++ {
				crow := c[rows[i]+p*tileCols:]
				crow[j] -= acc[i][0]
				if j+1 < nc {
					crow[j+1] -= acc[i][1]
				}
			}
		}
	}
}

// stripRows fills the destination row offsets of the strip starting at
// row s: rel[s+i]·ldc + col0, or (s+i)·ldc + col0 when rel is nil.
func stripRows(rows *[tileRows]int, rel []int32, s, mr, ldc, col0 int) {
	for i := 0; i < mr; i++ {
		r := s + i
		if rel != nil {
			r = int(rel[s+i])
		}
		rows[i] = r*ldc + col0
	}
}

// MulSubContig performs C ← C − A·Bᵀ for a dense consecutive destination:
// A is ra×w, B is rb×w (both row-major), and product entry (s,t) lands at
// c[s·ldc + t] (the caller applies the destination origin by slicing c).
// The kernel writes straight into c.
func (ws *Workspace) MulSubContig(c []float64, ldc int, a []float64, ra int, b []float64, rb, w int) {
	if !usePacked(ra, rb, w) {
		mulSubContigSmall(c, ldc, a, ra, b, rb, w)
		return
	}
	ws.mulSubContigPacked(c, ldc, a, ra, b, rb, w)
}

// mulSubContigPacked is MulSubContig's packed-kernel path.
func (ws *Workspace) mulSubContigPacked(c []float64, ldc int, a []float64, ra int, b []float64, rb, w int) {
	bp := ws.packB(b, rb, w, w)
	var rows [tileRows]int
	for s := 0; s < ra; s += tileRows {
		mr := min(tileRows, ra-s)
		stripRows(&rows, nil, s, mr, ldc, 0)
		mulSubStrip(c, &rows, a[s*w:], w, mr, bp, w, rb)
	}
}

// MulSubScattered performs the indexed BMOD update for destinations whose
// rows or columns are not consecutive: product entry (s,t) lands at
// c[relRow[s]·ldc + relCol[t]]. With consecutive columns the kernel
// writes each destination row in place; otherwise each strip of products
// is computed into the workspace at the contiguous rate and scatter-added
// once.
func (ws *Workspace) MulSubScattered(c []float64, ldc int, a []float64, ra int, b []float64, rb, w int,
	relRow, relCol []int32) {
	if !usePacked(ra, rb, w) {
		mulSubScatteredSmall(c, ldc, a, ra, b, rb, w, relRow, relCol)
		return
	}
	bp := ws.packB(b, rb, w, w)
	relCol = relCol[:rb]
	colContig := consecutive32(relCol)
	tile := ws.tileBuf(tileRows * rb)
	var rows, trows [tileRows]int
	for s := 0; s < ra; s += tileRows {
		mr := min(tileRows, ra-s)
		if colContig {
			stripRows(&rows, relRow, s, mr, ldc, int(relCol[0]))
			mulSubStrip(c, &rows, a[s*w:], w, mr, bp, w, rb)
			continue
		}
		t := tile[:mr*rb]
		clear(t)
		stripRows(&trows, nil, 0, mr, rb, 0)
		mulSubStrip(t, &trows, a[s*w:], w, mr, bp, w, rb)
		for i := 0; i < mr; i++ {
			crow := c[int(relRow[s+i])*ldc:]
			for j, v := range t[i*rb : i*rb+rb] {
				crow[relCol[j]] += v
			}
		}
	}
}

// MulSubLower performs the BMOD update onto a diagonal destination block:
// only product entries with rowsA[s] ≥ rowsB[t] (the lower triangle in
// global coordinates) are applied. Both row lists must be ascending — true
// of every block row list — so the mask is a monotone per-row cut. In
// each strip the whole panels left of the strip's first cut go straight
// into the destination rows when its columns are consecutive; only the
// columns that straddle the diagonal (and every column of a
// column-scattered destination) pass through the workspace and a masked
// write-back.
func (ws *Workspace) MulSubLower(c []float64, ldc int, a []float64, ra int, b []float64, rb, w int,
	relRow, relCol []int32, rowsA, rowsB []int) {
	if !usePacked(ra, rb, w) {
		mulSubLowerSmall(c, ldc, a, ra, b, rb, w, relRow, relCol, rowsA, rowsB)
		return
	}
	bp := ws.packB(b, rb, w, w)
	relCol, rowsB = relCol[:rb], rowsB[:rb]
	colContig := consecutive32(relCol)
	tile := ws.tileBuf(tileRows * rb)
	var rows, trows [tileRows]int
	lo := 0
	for s := 0; s < ra; s += tileRows {
		mr := min(tileRows, ra-s)
		lo = cutAt(rowsB, rowsA[s], lo)
		hi := cutAt(rowsB, rowsA[s+mr-1], lo)
		start := 0
		if full := lo &^ (tileCols - 1); colContig && full > 0 {
			stripRows(&rows, relRow, s, mr, ldc, int(relCol[0]))
			mulSubStrip(c, &rows, a[s*w:], w, mr, bp, w, full)
			start = full
		}
		n := hi - start
		if n == 0 {
			continue
		}
		t := tile[:mr*n]
		clear(t)
		stripRows(&trows, nil, 0, mr, n, 0)
		mulSubStrip(t, &trows, a[s*w:], w, mr, bp[start*w:], w, n)
		cut := lo
		for i := 0; i < mr; i++ {
			cut = cutAt(rowsB, rowsA[s+i], cut)
			crow := c[int(relRow[s+i])*ldc:]
			for j, v := range t[i*n : i*n+cut-start] {
				crow[relCol[start+j]] += v
			}
		}
	}
}

// cutAt advances from to the number of leading entries of the ascending
// list rows that are ≤ g.
func cutAt(rows []int, g, from int) int {
	for from < len(rows) && rows[from] <= g {
		from++
	}
	return from
}

// consecutive32 reports whether rel is the run rel[0], rel[0]+1, … .
// Index maps are strictly increasing, so the endpoints decide it.
func consecutive32(rel []int32) bool {
	return int(rel[len(rel)-1]-rel[0]) == len(rel)-1
}

// SolveRight performs the BDIV operation: X ← X · L⁻ᵀ where X is r×w
// row-major and L is the w×w lower-triangular factor of the diagonal block.
// Each row x of X is replaced by the solution y of y·Lᵀ = x. A
// non-positive, NaN, or infinite diagonal in l — the signature of a
// diagonal block whose factorization broke down — yields a PivotError
// before anything is written.
//
// The solve is a blocked TRSM over tileCols-column chunks: each chunk
// first receives the update from every column already solved, through the
// packed kernel with the chunk's rows of L as the packed operand (so the
// chunk's block of X stays in registers across the whole solved prefix),
// then is substituted in place, four rows at a time, multiplying by each
// pivot's reciprocal. Narrow or short blocks take the four-row
// substitution alone.
func (ws *Workspace) SolveRight(x []float64, r int, l []float64, w int) error {
	if err := checkSolvePivots(l, w, w); err != nil {
		return err
	}
	if !useBlockedSolve(r, w) {
		solveRightLD(x, r, w, l, w, w)
		return nil
	}
	ws.solveRightBlocked(x, r, l, w)
	return nil
}

// solveRightBlocked is SolveRight's blocked path, after the pivot check.
func (ws *Workspace) solveRightBlocked(x []float64, r int, l []float64, w int) {
	var rows [tileRows]int
	for j0 := 0; j0 < w; j0 += tileCols {
		n := min(tileCols, w-j0)
		if j0 > 0 {
			bp := ws.packB(l[j0*w:], n, w, j0)
			for s := 0; s < r; s += tileRows {
				mr := min(tileRows, r-s)
				stripRows(&rows, nil, s, mr, w, j0)
				mulSubStrip(x, &rows, x[s*w:], w, mr, bp, j0, n)
			}
		}
		solveRightLD(x[j0:], r, w, l[j0*w+j0:], n, w)
	}
}

// wsPool lends MulSub a Workspace, so the exported one-shot entry point
// allocates nothing once the pool holds one of sufficient size.
var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// MulSub performs the BMOD update C ← C − A·Bᵀ with index indirection:
// A is ra×w, B is rb×w, C is the destination block with leading dimension
// ldc, and entry (s,t) of the product lands at C[relRow[s]*ldc + relCol[t]].
//
// When the destination is a diagonal block the caller must pass lower=true
// together with the global row/column index lists (ascending, as block row
// lists always are) so only the lower triangle is updated.
//
// Both index maps must be strictly increasing, as every block's are. The
// destination indirection is classified once per call: consecutive
// relRow and relCol runs go to the contiguous kernel, anything else to
// the scattered one. Callers that own a Workspace and already know the
// classification (package numeric) call Workspace's methods directly.
func MulSub(c []float64, ldc int, a []float64, ra int, b []float64, rb int, w int,
	relRow, relCol []int, lower bool, rowsA, rowsB []int) {
	if ra == 0 || rb == 0 {
		return
	}
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	if !lower && consecutive(relRow, ra) && consecutive(relCol, rb) {
		ws.MulSubContig(c[relRow[0]*ldc+relCol[0]:], ldc, a, ra, b, rb, w)
		return
	}
	if cap(ws.rel) < ra+rb {
		ws.rel = make([]int32, ra+rb)
	}
	rr, rc := ws.rel[:ra], ws.rel[ra:ra+rb]
	for s := range rr {
		rr[s] = int32(relRow[s])
	}
	for t := range rc {
		rc[t] = int32(relCol[t])
	}
	if lower {
		ws.MulSubLower(c, ldc, a, ra, b, rb, w, rr, rc, rowsA, rowsB)
		return
	}
	ws.MulSubScattered(c, ldc, a, ra, b, rb, w, rr, rc)
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
