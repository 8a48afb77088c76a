// Package oracle holds the reference factorizations and the baseline
// traffic model that the blocked supernodal path (packages
// symbolic/blocks/numeric) is checked and compared against:
//
//   - UpLooking, the classical row-by-row algorithm driven by the
//     elimination tree. It calls only etree and sparse, so agreement with
//     it validates the blocked path independently; it is also the "true
//     sequential algorithm" the paper mentions as slightly faster than
//     running the parallel algorithm on one processor.
//   - LeftLooking and Multifrontal, the other sequential organizations of
//     the authors' earlier comparison [Rothberg & Gupta 1991].
//   - ColumnFanOut, the 1-D column fan-out method the paper's introduction
//     argues against, executed on goroutine-processors, and Column1D, its
//     communication count without the execution.
//
// All four factorizations return the same column-compressed Factor and
// report a breakdown as ErrNotPositiveDefinite wrapping a
// *kernels.PivotError that names the global row.
package oracle

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"blockfanout/internal/kernels"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// ErrNotPositiveDefinite reports a pivot that is non-positive, NaN or +Inf.
var ErrNotPositiveDefinite = errors.New("oracle: matrix is not positive definite")

// Factor is a sparse lower-triangular Cholesky factor stored by columns:
// column j holds the strictly-below-diagonal rows (ascending) in Rows[j] /
// Vals[j], and its diagonal entry in Diag[j].
type Factor struct {
	N    int
	Diag []float64
	Rows [][]int32
	Vals [][]float64
}

func newFactor(n int) *Factor {
	return &Factor{
		N:    n,
		Diag: make([]float64, n),
		Rows: make([][]int32, n),
		Vals: make([][]float64, n),
	}
}

// pivot returns √d, or the breakdown error for global row row when d is
// not a usable pivot. block is the supernode, or -1 for the column methods.
func pivot(d float64, block, row int) (float64, error) {
	if !(d > 0) || math.IsInf(d, 1) {
		return 0, fmt.Errorf("%w: %w", ErrNotPositiveDefinite,
			&kernels.PivotError{Block: block, Row: row, Pivot: d})
	}
	return math.Sqrt(d), nil
}

// NNZ returns the number of below-diagonal factor entries.
func (f *Factor) NNZ() int64 {
	var nz int64
	for _, r := range f.Rows {
		nz += int64(len(r))
	}
	return nz
}

// At returns L(i,j) (i ≥ j); zero when the entry is not stored.
func (f *Factor) At(i, j int) float64 {
	if i == j {
		return f.Diag[j]
	}
	rows := f.Rows[j]
	k := sort.Search(len(rows), func(t int) bool { return int(rows[t]) >= i })
	if k < len(rows) && int(rows[k]) == i {
		return f.Vals[j][k]
	}
	return 0
}

// Solve solves L·Lᵀ·x = b and returns x; b is not modified.
func (f *Factor) Solve(b []float64) []float64 {
	x := append([]float64(nil), b...)
	for j := 0; j < f.N; j++ {
		x[j] /= f.Diag[j]
		xj := x[j]
		rows, vals := f.Rows[j], f.Vals[j]
		for p := range rows {
			x[rows[p]] -= vals[p] * xj
		}
	}
	for j := f.N - 1; j >= 0; j-- {
		rows, vals := f.Rows[j], f.Vals[j]
		s := x[j]
		for p := range rows {
			s -= vals[p] * x[rows[p]]
		}
		x[j] = s / f.Diag[j]
	}
	return x
}

// checkN refuses an analysis of a different matrix.
func checkN(a *sparse.Matrix, st *symbolic.Structure) error {
	if a.N != st.N {
		return fmt.Errorf("oracle: matrix n=%d vs analysis n=%d", a.N, st.N)
	}
	return nil
}

// snodeIndex returns supernode s's index list: its columns, then its
// below-diagonal rows, all ascending. Row li of a panel or front of s
// holds global row snodeIndex(st, s)[li].
func snodeIndex(st *symbolic.Structure, s int) []int {
	sn := st.Snodes[s]
	idx := make([]int, sn.Width, sn.Width+len(st.Rows[s]))
	for t := range idx {
		idx[t] = sn.First + t
	}
	return append(idx, st.Rows[s]...)
}

// scatter adds A's entries in sn's columns into buf, a dense matrix over
// the rows idx whose entry (li, t) lives at buf[li*ld+t].
func scatter(a *sparse.Matrix, sn symbolic.Supernode, idx []int, buf []float64, ld int) error {
	for t := 0; t < sn.Width; t++ {
		j := sn.First + t
		for q := a.ColPtr[j]; q < a.ColPtr[j+1]; q++ {
			li := localIndex(idx, a.RowInd[q])
			if li < 0 {
				return fmt.Errorf("oracle: A(%d,%d) outside structure", a.RowInd[q], j)
			}
			buf[li*ld+t] += a.Val[q]
		}
	}
	return nil
}

// harvest copies sn's columns out of buf (laid out as for scatter) into
// f. The columns share one row list.
func (f *Factor) harvest(sn symbolic.Supernode, idx []int, buf []float64, ld int) {
	rows := make([]int32, len(idx))
	for u, g := range idx {
		rows[u] = int32(g)
	}
	for t := 0; t < sn.Width; t++ {
		j := sn.First + t
		f.Diag[j] = buf[t*ld+t]
		f.Rows[j] = rows[t+1:]
		vals := make([]float64, len(idx)-t-1)
		for u := range vals {
			vals[u] = buf[(t+1+u)*ld+t]
		}
		f.Vals[j] = vals
	}
}

// localIndex binary-searches g in the ascending index list, or returns -1.
func localIndex(idx []int, g int) int {
	k := sort.SearchInts(idx, g)
	if k < len(idx) && idx[k] == g {
		return k
	}
	return -1
}
