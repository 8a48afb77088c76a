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
// silently dividing NaN into the factor. ws supplies the kernel scratch.
func (f *Factor) BDIV(k, bi int, ws *Workspace) error {
	w := f.BS.Part.Width(k)
	r := len(f.BS.Cols[k].Blocks[bi].Rows)
	if err := ws.kw.SolveRight(f.Data[k][bi], r, f.Data[k][0], w); err != nil {
		return pivotAt(err, k, f.BS.Part.Start[k], fmt.Sprintf("BDIV(%d,%d)", k, bi))
	}
	return nil
}

// Workspace is the per-executor scratch of BDIV and BMOD: the kernels'
// packing and write-back buffers and BMOD's destination index maps. Each
// parallel processor (and the sequential driver) owns one; Reserve lets
// executors preallocate the index maps, and the kernel buffers reach
// their high-water mark within the first factorization, so refactors
// never allocate.
type Workspace struct {
	kw             kernels.Workspace
	relRow, relCol []int32
}

// Reserve grows the index scratch to hold destinations of up to r rows.
func (ws *Workspace) Reserve(r int) {
	if cap(ws.relRow) < r {
		ws.relRow = make([]int32, r)
	}
	if cap(ws.relCol) < r {
		ws.relCol = make([]int32, r)
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
// Blocks[ia].I ≥ Blocks[jb].I. It reads the destination from the block
// structure's ModDest table and builds the row index map by a sorted
// merge, then runs BMODMapped; executors that precompute the map per
// pairing (blocks.PairTable) call BMODMapped directly.
func (f *Factor) BMOD(k, ia, jb int, ws *Workspace) error {
	colK := &f.BS.Cols[k]
	srcA, srcB := &colK.Blocks[ia], &colK.Blocks[jb]
	destI, destJ := srcA.I, srcB.I
	if destI < destJ {
		return fmt.Errorf("numeric: BMOD sources out of order (I=%d < J=%d)", destI, destJ)
	}
	dbi := int(f.BS.IdxOf[f.BS.ModDestID(k, ia, jb)])
	dest := &f.BS.Cols[destJ].Blocks[dbi]
	ws.Reserve(len(srcA.Rows))
	relRow := ws.relRow[:len(srcA.Rows)]
	d := 0
	for s, g := range srcA.Rows {
		for d < len(dest.Rows) && dest.Rows[d] < g {
			d++
		}
		if d >= len(dest.Rows) || dest.Rows[d] != g {
			return fmt.Errorf("numeric: BMOD row %d of source (%d,%d) missing from dest (%d,%d)", g, destI, k, destI, destJ)
		}
		relRow[s] = int32(d)
	}
	f.BMODMapped(k, ia, jb, dbi, relRow, ws)
	return nil
}

// BMODMapped is BMOD with the destination's index dbi within column
// Blocks[jb].I and the row map relRow (the position of each row of
// Blocks[ia] in the destination's row list) supplied by the caller; a
// relRow shorter than the source (blocks.PairTable's compressed form)
// stands for the consecutive run from relRow[0]. The column map is the
// source rows' offsets within panel Blocks[jb].I.
//
// The destination is classified here: a diagonal block takes the
// lower-masked kernel; a destination whose rows and columns are both
// consecutive runs takes the contiguous kernel; anything else the
// scattered one. Row maps are strictly increasing, so a map is
// consecutive exactly when its endpoints are len−1 apart.
func (f *Factor) BMODMapped(k, ia, jb, dbi int, relRow []int32, ws *Workspace) {
	colK := &f.BS.Cols[k]
	srcA, srcB := &colK.Blocks[ia], &colK.Blocks[jb]
	destI, destJ := srcA.I, srcB.I
	part := f.BS.Part
	wK, wJ := part.Width(k), part.Width(destJ)
	ra, rb := len(srcA.Rows), len(srcB.Rows)
	start := part.Start[destJ]
	a, b := f.Data[k][ia], f.Data[k][jb]
	cd := f.Data[destJ][dbi]
	rowContig := len(relRow) < ra || int(relRow[ra-1]-relRow[0]) == ra-1
	colContig := srcB.Rows[rb-1]-srcB.Rows[0] == rb-1
	if destI != destJ && rowContig && colContig {
		ws.kw.MulSubContig(cd[int(relRow[0])*wJ+srcB.Rows[0]-start:], wJ, a, ra, b, rb, wK)
		return
	}
	ws.Reserve(max(ra, rb))
	if len(relRow) < ra {
		run := ws.relRow[:ra]
		for s := range run {
			run[s] = relRow[0] + int32(s)
		}
		relRow = run
	}
	relCol := ws.relCol[:rb]
	for t, g := range srcB.Rows {
		relCol[t] = int32(g - start)
	}
	if destI == destJ {
		ws.kw.MulSubLower(cd, wJ, a, ra, b, rb, wK, relRow, relCol, srcA.Rows, srcB.Rows)
		return
	}
	ws.kw.MulSubScattered(cd, wJ, a, ra, b, rb, wK, relRow, relCol)
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
			if err := f.BDIV(k, bi, &ws); err != nil {
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
