package numeric

import (
	"sync"

	"blockfanout/internal/blocks"
	"blockfanout/internal/domains"
	"blockfanout/internal/kernels"
)

// Split is the triangular sweep's schedule under the paper's §2.3
// domain/root split: one lane per domain owner, holding that owner's
// domain panels, plus the root-portion panels. A domain panel's
// off-diagonal blocks lie in its own subtree or in the root portion, so a
// lane writes only its own columns of x and, in the forward sweep, its
// contributions to root rows, which it adds into a private buffer indexed
// by root column. The lane list is the whole schedule: SolveN runs each
// lane on its own goroutine (lane 0 on the caller's) and joins them, with
// no queue between.
type Split struct {
	lanes [][]int32 // lane → its owner's domain panels, ascending
	root  []int32   // root-portion panels, ascending
	// rootOff[j] is root panel j's first column in the compact root
	// numbering the lane buffers use, or -1 for a domain panel.
	rootOff  []int32
	rootCols int
}

// NewSplit builds the sweep schedule of a domain selection over the block
// structure, one lane per owner that holds domain panels, in owner order.
// It returns nil, the sequential sweep, when dom is nil or selects no
// domain panel, and also when a domain panel has a block outside its
// owner's panels and the root portion, or a root panel has one in a
// domain: the §2.3 selection never produces either, and under them two
// goroutines would write the same entries of x.
func NewSplit(bs *blocks.Structure, dom *domains.Domains) *Split {
	if dom == nil {
		return nil
	}
	owner := dom.PanelOwner
	sp := &Split{rootOff: make([]int32, bs.N())}
	var byOwner [][]int32
	for j := range bs.Cols {
		o := owner[j]
		if o < 0 {
			for _, blk := range bs.Cols[j].Blocks[1:] {
				if owner[blk.I] >= 0 {
					return nil
				}
			}
			sp.root = append(sp.root, int32(j))
			sp.rootOff[j] = int32(sp.rootCols)
			sp.rootCols += bs.Part.Width(j)
			continue
		}
		for _, blk := range bs.Cols[j].Blocks[1:] {
			if oi := owner[blk.I]; oi >= 0 && oi != o {
				return nil
			}
		}
		sp.rootOff[j] = -1
		for len(byOwner) <= o {
			byOwner = append(byOwner, nil)
		}
		byOwner[o] = append(byOwner[o], int32(j))
	}
	for _, panels := range byOwner {
		if len(panels) > 0 {
			sp.lanes = append(sp.lanes, panels)
		}
	}
	if len(sp.lanes) == 0 {
		return nil
	}
	return sp
}

// Lanes returns the number of lanes: 0 for the sequential (nil) split.
func (sp *Split) Lanes() int {
	if sp == nil {
		return 0
	}
	return len(sp.lanes)
}

// RootCols returns the number of columns in the root portion, the length
// of each lane's buffer per right-hand side.
func (sp *Split) RootCols() int {
	if sp == nil {
		return 0
	}
	return sp.rootCols
}

// fork runs lane(l) for every lane, lane 0 on the calling goroutine, and
// returns when all have finished.
func (sp *Split) fork(lane func(l int)) {
	var wg sync.WaitGroup
	for l := 1; l < len(sp.lanes); l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane(l)
		}()
	}
	lane(0)
	wg.Wait()
}

// Solve solves L·Lᵀ·x = b in the permuted index space, returning x (b is
// not modified). It is SolveN with one right-hand side.
func (f *Factor) Solve(b []float64, sp *Split) []float64 {
	return f.SolveN([][]float64{b}, sp)[0]
}

// SolveN solves L·Lᵀ·X = B for several right-hand sides in one pair of
// sweeps over the factor — the package's one block triangular solve. Each
// block is loaded once and applied to every vector. B is not modified.
//
// With a nil split both sweeps run every panel in order on the calling
// goroutine. With a split the forward sweep runs the lanes concurrently,
// adds their root buffers into x in lane order and then runs the root
// panels; the backward sweep runs the root panels and then the lanes
// concurrently, each in descending panel order. Every entry of x is
// updated in an order fixed by the factor and the split alone, so the
// answer is bit-identical across runs, GOMAXPROCS settings and batch
// sizes (a vector's arithmetic never depends on its neighbours).
func (f *Factor) SolveN(bs [][]float64, sp *Split) [][]float64 {
	n := f.BS.N()
	xs := make([][]float64, len(bs))
	for r := range bs {
		xs[r] = append([]float64(nil), bs[r]...)
	}
	if sp == nil {
		for k := 0; k < n; k++ {
			f.forward(k, xs, nil, nil)
		}
		for k := n - 1; k >= 0; k-- {
			f.backward(k, xs)
		}
		return xs
	}
	part := f.BS.Part
	per := len(xs) * sp.rootCols // one lane's buffer
	acc := make([]float64, len(sp.lanes)*per)
	sp.fork(func(l int) {
		for _, k := range sp.lanes[l] {
			f.forward(int(k), xs, acc[l*per:(l+1)*per], sp)
		}
	})
	for _, j := range sp.root {
		start, w, off := part.Start[j], part.Width(int(j)), int(sp.rootOff[j])
		for r, x := range xs {
			seg := x[start : start+w]
			for l := range sp.lanes {
				a := acc[l*per+r*sp.rootCols+off:]
				for c := range seg {
					seg[c] += a[c]
				}
			}
		}
	}
	for _, k := range sp.root {
		f.forward(int(k), xs, nil, nil)
	}
	for i := len(sp.root) - 1; i >= 0; i-- {
		f.backward(int(sp.root[i]), xs)
	}
	sp.fork(func(l int) {
		lane := sp.lanes[l]
		for i := len(lane) - 1; i >= 0; i-- {
			f.backward(int(lane[i]), xs)
		}
	})
	return xs
}

// forward runs panel k's step of the forward sweep on every vector: the
// diagonal solve of its segment, then the subtraction of its off-diagonal
// products from the rows below. With a lane buffer acc, products aimed at
// root rows go to acc (vector r's part starts at r·sp.rootCols) instead
// of x.
func (f *Factor) forward(k int, xs [][]float64, acc []float64, sp *Split) {
	part := f.BS.Part
	w := part.Width(k)
	start := part.Start[k]
	diag := f.Data[k][0]
	col := &f.BS.Cols[k]
	for r, x := range xs {
		seg := x[start : start+w]
		kernels.ForwardSolveDiag(diag, w, seg)
		for bi := 1; bi < len(col.Blocks); bi++ {
			blk := &col.Blocks[bi]
			dst, base := x, 0
			if acc != nil {
				if off := sp.rootOff[blk.I]; off >= 0 {
					dst, base = acc[r*sp.rootCols:], int(off)-part.Start[blk.I]
				}
			}
			data := f.Data[k][bi]
			for s, g := range blk.Rows {
				row := data[s*w : s*w+w]
				var sum float64
				for t := 0; t < w; t++ {
					sum += row[t] * seg[t]
				}
				dst[base+g] -= sum
			}
		}
	}
}

// backward runs panel k's step of the backward sweep on every vector: the
// subtraction of the off-diagonal blocks' products with the (final) rows
// below, then the transposed diagonal solve. It writes only panel k's
// segment.
func (f *Factor) backward(k int, xs [][]float64) {
	part := f.BS.Part
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
