// Package numeric stores and computes the numeric Cholesky factor over a
// block structure. It provides the block-level operation executors shared
// by the sequential driver (this package) and the parallel block fan-out
// driver (package fanout), plus forward/backward triangular solves.
package numeric

import (
	"errors"
	"fmt"

	"blockfanout/internal/blocks"
	"blockfanout/internal/kernels"
	"blockfanout/internal/sparse"
)

// Factor holds the numeric data of every block of L. Data[j][bi] is the
// dense storage of bs.Cols[j].Blocks[bi]: w×w row-major for the diagonal
// block (bi == 0), r×w row-major for off-diagonal blocks.
type Factor struct {
	BS   *blocks.Structure
	Data [][][]float64
	// scatter maps each nonzero position p of the matrix the factor was
	// built from to its destination slot in Data — the precomputed symbolic
	// half of the scatter, which is what lets Reload refill the factor with
	// new numeric values without touching the block structure.
	scatter []scatterRef
}

// scatterRef addresses one Data slot: Data[J][BI][Off].
type scatterRef struct {
	J, BI, Off int32
}

// New allocates the factor and scatters the (permuted) matrix a into it.
// a must be the same matrix the block structure was built from.
func New(bs *blocks.Structure, a *sparse.Matrix) (*Factor, error) {
	if a.N != len(bs.Part.PanelOf) {
		return nil, fmt.Errorf("numeric: matrix n=%d does not match partition n=%d", a.N, len(bs.Part.PanelOf))
	}
	f := &Factor{
		BS:      bs,
		Data:    make([][][]float64, bs.N()),
		scatter: make([]scatterRef, a.NNZ()),
	}
	part := bs.Part
	for j := range bs.Cols {
		w := part.Width(j)
		col := &bs.Cols[j]
		f.Data[j] = make([][]float64, len(col.Blocks))
		for bi := range col.Blocks {
			r := len(col.Blocks[bi].Rows)
			f.Data[j][bi] = make([]float64, r*w)
		}
	}
	// Scatter A's lower triangle, recording each entry's destination.
	for gcol := 0; gcol < a.N; gcol++ {
		j := part.PanelOf[gcol]
		lc := gcol - part.Start[j]
		w := part.Width(j)
		col := &bs.Cols[j]
		bi := 0
		for p := a.ColPtr[gcol]; p < a.ColPtr[gcol+1]; p++ {
			grow := a.RowInd[p]
			rowPanel := part.PanelOf[grow]
			// Advance to the block holding rowPanel (rows are sorted, so
			// entries visit blocks in increasing order).
			for bi < len(col.Blocks) && col.Blocks[bi].I < rowPanel {
				bi++
			}
			if bi >= len(col.Blocks) || col.Blocks[bi].I != rowPanel {
				return nil, fmt.Errorf("numeric: A(%d,%d) falls outside block structure", grow, gcol)
			}
			b := &col.Blocks[bi]
			lr := searchRows(b.Rows, grow)
			if lr < 0 {
				return nil, fmt.Errorf("numeric: row %d missing from block (%d,%d)", grow, b.I, j)
			}
			f.Data[j][bi][lr*w+lc] = a.Val[p]
			f.scatter[p] = scatterRef{J: int32(j), BI: int32(bi), Off: int32(lr*w + lc)}
		}
	}
	return f, nil
}

// Reload refills the factor's block storage with new numeric values and
// leaves it ready to be factored again. values must be laid out exactly
// like the Val slice of the matrix the factor was built from (same
// pattern, same CSC entry order). The symbolic work — block structure,
// row lists, scatter destinations — is all reused; the call performs no
// allocation.
func (f *Factor) Reload(values []float64) error {
	if f.scatter == nil {
		return fmt.Errorf("numeric: factor was not built by New; cannot Reload")
	}
	if len(values) != len(f.scatter) {
		return fmt.Errorf("numeric: Reload got %d values, factor holds %d nonzeros", len(values), len(f.scatter))
	}
	for j := range f.Data {
		for bi := range f.Data[j] {
			d := f.Data[j][bi]
			for i := range d {
				d[i] = 0
			}
		}
	}
	for p := range f.scatter {
		s := &f.scatter[p]
		f.Data[s.J][s.BI][s.Off] = values[p]
	}
	return nil
}

// ReloadWhere restores original values into every block for which keep
// returns false, leaving kept blocks' current (factored) data untouched.
// The cluster's failover restart uses it: blocks completed before a node
// died keep their final values, everything else reverts to the matrix and
// is refactored in the next epoch. keep receives the block's column j and
// its index bi within the column.
func (f *Factor) ReloadWhere(values []float64, keep func(j, bi int) bool) error {
	if f.scatter == nil {
		return fmt.Errorf("numeric: factor was not built by New; cannot Reload")
	}
	if len(values) != len(f.scatter) {
		return fmt.Errorf("numeric: Reload got %d values, factor holds %d nonzeros", len(values), len(f.scatter))
	}
	for j := range f.Data {
		for bi := range f.Data[j] {
			if keep(j, bi) {
				continue
			}
			d := f.Data[j][bi]
			for i := range d {
				d[i] = 0
			}
		}
	}
	for p := range f.scatter {
		s := &f.scatter[p]
		if keep(int(s.J), int(s.BI)) {
			continue
		}
		f.Data[s.J][s.BI][s.Off] = values[p]
	}
	return nil
}

// searchRows returns the position of g in the sorted slice rows, or -1.
func searchRows(rows []int, g int) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := (lo + hi) / 2
		if rows[mid] < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(rows) && rows[lo] == g {
		return lo
	}
	return -1
}

// pivotAt rewrites a kernel-level pivot breakdown into factor coordinates:
// Block becomes the panel index and Row the global (permuted) row, so the
// error that propagates to callers names the exact failure site. Non-pivot
// errors are wrapped with the operation context instead.
func pivotAt(err error, k, start int, op string) error {
	var pe *kernels.PivotError
	if errors.As(err, &pe) {
		return &kernels.PivotError{Block: k, Row: start + pe.Row, Pivot: pe.Pivot}
	}
	return fmt.Errorf("numeric: %s: %w", op, err)
}

// BFAC factors the diagonal block of panel k in place. A numerical
// breakdown surfaces as a *kernels.PivotError carrying the panel index and
// global row of the offending pivot.
func (f *Factor) BFAC(k int) error {
	w := f.BS.Part.Width(k)
	if err := kernels.Cholesky(f.Data[k][0], w); err != nil {
		return pivotAt(err, k, f.BS.Part.Start[k], fmt.Sprintf("BFAC(%d)", k))
	}
	return nil
}

// BDIV applies the factored diagonal block of panel k to off-diagonal
// block bi of column k: L_IK ← L_IK · L_KK⁻ᵀ. A broken-down diagonal
// (non-positive, NaN, or Inf pivot) yields a *kernels.PivotError instead of
// silently dividing NaN into the factor.
func (f *Factor) BDIV(k, bi int) error {
	w := f.BS.Part.Width(k)
	r := len(f.BS.Cols[k].Blocks[bi].Rows)
	if err := kernels.SolveRight(f.Data[k][bi], r, f.Data[k][0], w); err != nil {
		return pivotAt(err, k, f.BS.Part.Start[k], fmt.Sprintf("BDIV(%d,%d)", k, bi))
	}
	return nil
}

// Workspace holds the per-executor scratch of BMOD: the destination index
// maps relRow/relCol. Each parallel processor (and the sequential driver)
// owns one Workspace, replacing the ad-hoc threading of the two slices
// through every call; Reserve lets executors preallocate once so the
// factorization hot path never allocates.
type Workspace struct {
	relRow, relCol []int
}

// Reserve grows the index scratch to hold destinations of up to r rows.
func (ws *Workspace) Reserve(r int) {
	if cap(ws.relRow) < r {
		ws.relRow = make([]int, r)
	}
	if cap(ws.relCol) < r {
		ws.relCol = make([]int, r)
	}
}

// MaxBlockRows returns the largest row count of any block of the factor —
// the Workspace.Reserve bound that makes every BMOD allocation-free.
func (f *Factor) MaxBlockRows() int {
	max := 0
	for j := range f.BS.Cols {
		for _, blk := range f.BS.Cols[j].Blocks {
			if len(blk.Rows) > max {
				max = len(blk.Rows)
			}
		}
	}
	return max
}

// BMOD applies the update L_IJ ← L_IJ − L_IK·L_JKᵀ, where the sources are
// blocks ia (the I side) and jb (the J side) of column k, with
// Blocks[ia].I ≥ Blocks[jb].I. ws supplies the index scratch, reused
// across calls.
//
// While building the index maps BMOD classifies the destination once per
// (k, ia, jb) pairing: when the source rows land in consecutive
// destination rows and columns the update dispatches to the
// no-indirection contiguous kernel, otherwise to the scattered (or, for
// diagonal destinations, lower-masked) kernel.
func (f *Factor) BMOD(k, ia, jb int, ws *Workspace) error {
	colK := &f.BS.Cols[k]
	srcA, srcB := &colK.Blocks[ia], &colK.Blocks[jb]
	destI, destJ := srcA.I, srcB.I
	if destI < destJ {
		return fmt.Errorf("numeric: BMOD sources out of order (I=%d < J=%d)", destI, destJ)
	}
	part := f.BS.Part
	destCol := &f.BS.Cols[destJ]
	dbi := findBlock(destCol, destI)
	if dbi < 0 {
		return fmt.Errorf("numeric: BMOD dest (%d,%d) missing", destI, destJ)
	}
	dest := &destCol.Blocks[dbi]
	wK := part.Width(k)
	wJ := part.Width(destJ)
	ra, rb := len(srcA.Rows), len(srcB.Rows)

	// relRow[s]: position of srcA.Rows[s] in dest.Rows (merge of two
	// sorted lists). relCol[t]: srcB.Rows[t] − Start[destJ]. Contiguity of
	// each map is detected here, fused into the same pass that builds it.
	ws.Reserve(ra)
	ws.Reserve(rb)
	relRow := ws.relRow[:ra]
	relCol := ws.relCol[:rb]
	rowContig := true
	d := 0
	for s, g := range srcA.Rows {
		for d < len(dest.Rows) && dest.Rows[d] < g {
			d++
		}
		if d >= len(dest.Rows) || dest.Rows[d] != g {
			return fmt.Errorf("numeric: BMOD row %d of source (%d,%d) missing from dest (%d,%d)", g, destI, k, destI, destJ)
		}
		relRow[s] = d
		rowContig = rowContig && d == relRow[0]+s
	}
	start := part.Start[destJ]
	colContig := true
	for t, g := range srcB.Rows {
		relCol[t] = g - start
		colContig = colContig && g-start == relCol[0]+t
	}
	cd := f.Data[destJ][dbi]
	switch {
	case destI == destJ:
		kernels.MulSubLower(cd, wJ, f.Data[k][ia], ra, f.Data[k][jb], rb, wK,
			relRow, relCol, srcA.Rows, srcB.Rows)
	case rowContig && colContig:
		kernels.MulSubContig(cd[relRow[0]*wJ+relCol[0]:], wJ,
			f.Data[k][ia], ra, f.Data[k][jb], rb, wK)
	default:
		kernels.MulSubScattered(cd, wJ, f.Data[k][ia], ra, f.Data[k][jb], rb, wK,
			relRow, relCol)
	}
	return nil
}

func findBlock(col *blocks.BlockCol, i int) int {
	lo, hi := 0, len(col.Blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if col.Blocks[mid].I < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(col.Blocks) && col.Blocks[lo].I == i {
		return lo
	}
	return -1
}

// FactorSequential runs the right-looking block factorization on a single
// processor — the paper's baseline t_seq measurement uses exactly this
// "parallel algorithm on one processor".
func (f *Factor) FactorSequential() error {
	var ws Workspace
	ws.Reserve(f.MaxBlockRows())
	for k := 0; k < f.BS.N(); k++ {
		if err := f.BFAC(k); err != nil {
			return err
		}
		col := &f.BS.Cols[k]
		for bi := 1; bi < len(col.Blocks); bi++ {
			if err := f.BDIV(k, bi); err != nil {
				return err
			}
		}
		for jb := 1; jb < len(col.Blocks); jb++ {
			for ia := jb; ia < len(col.Blocks); ia++ {
				if err := f.BMOD(k, ia, jb, &ws); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Solve solves L·Lᵀ·x = b in the permuted index space, returning x (b is
// not modified). It is SolveN with one right-hand side.
func (f *Factor) Solve(b []float64) []float64 {
	return f.SolveN([][]float64{b})[0]
}

// SolveN solves L·Lᵀ·X = B for several right-hand sides in one pair of
// sweeps over the factor — the package's one block triangular solve. Each
// block is loaded once and applied to every vector, which is substantially
// more cache-friendly than one sweep per vector when nrhs is large, and
// costs nothing extra when nrhs is 1. B is not modified.
func (f *Factor) SolveN(bs [][]float64) [][]float64 {
	part := f.BS.Part
	n := f.BS.N()
	xs := make([][]float64, len(bs))
	for r := range bs {
		xs[r] = append([]float64(nil), bs[r]...)
	}
	for k := 0; k < n; k++ {
		w := part.Width(k)
		start := part.Start[k]
		diag := f.Data[k][0]
		col := &f.BS.Cols[k]
		for _, x := range xs {
			seg := x[start : start+w]
			kernels.ForwardSolveDiag(diag, w, seg)
			for bi := 1; bi < len(col.Blocks); bi++ {
				blk := &col.Blocks[bi]
				data := f.Data[k][bi]
				for s, g := range blk.Rows {
					row := data[s*w : s*w+w]
					var sum float64
					for t := 0; t < w; t++ {
						sum += row[t] * seg[t]
					}
					x[g] -= sum
				}
			}
		}
	}
	for k := n - 1; k >= 0; k-- {
		w := part.Width(k)
		start := part.Start[k]
		diag := f.Data[k][0]
		col := &f.BS.Cols[k]
		for _, x := range xs {
			seg := x[start : start+w]
			for bi := 1; bi < len(col.Blocks); bi++ {
				blk := &col.Blocks[bi]
				data := f.Data[k][bi]
				for s, g := range blk.Rows {
					row := data[s*w : s*w+w]
					xg := x[g]
					for t := 0; t < w; t++ {
						seg[t] -= row[t] * xg
					}
				}
			}
			kernels.BackSolveDiag(diag, w, seg)
		}
	}
	return xs
}

// NNZ returns the number of explicitly stored factor entries excluding the
// diagonal (matching the paper's "NZ in L" convention applied to the
// relaxed block structure).
func (f *Factor) NNZ() int64 {
	var nz int64
	for j := range f.BS.Cols {
		w := int64(f.BS.Part.Width(j))
		for bi, blk := range f.BS.Cols[j].Blocks {
			if bi == 0 {
				nz += w * (w - 1) / 2
			} else {
				nz += int64(len(blk.Rows)) * w
			}
		}
	}
	return nz
}

// ExportBlocks copies every block's dense payload out of the factor in
// (column, block-index) order — the canonical flattening the snapshot
// store persists. The copies are private: later factorizations or reloads
// cannot mutate an exported snapshot under a concurrent writer. All block
// copies share one backing array: the export runs on the request path
// (under the factor entry's lock), and one large allocation plus straight
// memcpy is severalfold cheaper than thousands of per-block allocations.
func (f *Factor) ExportBlocks() [][]float64 {
	var nblk, nval int
	for j := range f.Data {
		nblk += len(f.Data[j])
		for bi := range f.Data[j] {
			nval += len(f.Data[j][bi])
		}
	}
	out := make([][]float64, 0, nblk)
	buf := make([]float64, nval)
	for j := range f.Data {
		for bi := range f.Data[j] {
			n := copy(buf, f.Data[j][bi])
			out = append(out, buf[:n:n])
			buf = buf[n:]
		}
	}
	return out
}

// ImportBlocks copies snapshotted block payloads back into the factor, in
// the same (column, block-index) order ExportBlocks produced. Every
// block's length must match the factor's structure exactly — a snapshot
// from a differently-partitioned plan is rejected rather than silently
// truncated.
func (f *Factor) ImportBlocks(blocks [][]float64) error {
	k := 0
	for j := range f.Data {
		for bi := range f.Data[j] {
			if k >= len(blocks) {
				return fmt.Errorf("numeric: snapshot holds %d blocks, factor has more", len(blocks))
			}
			dst := f.Data[j][bi]
			if len(blocks[k]) != len(dst) {
				return fmt.Errorf("numeric: snapshot block %d has %d entries, factor block (%d,%d) holds %d",
					k, len(blocks[k]), j, bi, len(dst))
			}
			copy(dst, blocks[k])
			k++
		}
	}
	if k != len(blocks) {
		return fmt.Errorf("numeric: snapshot holds %d blocks, factor has %d", len(blocks), k)
	}
	return nil
}
