package oracle

import (
	"sort"

	"blockfanout/internal/etree"
	"blockfanout/internal/sparse"
)

// UpLooking factors the (already permuted, if desired) matrix a = L·Lᵀ
// row by row: row k of L is produced by a sparse triangular solve whose
// pattern is found by walking the elimination tree from the entries of A's
// row k.
func UpLooking(a *sparse.Matrix) (*Factor, error) {
	n := a.N
	t := etree.Build(a)
	f := newFactor(n)

	// rowAdj: for row k, the columns j < k with A(k,j) ≠ 0.
	rowPtr := make([]int, n+1)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if i := a.RowInd[p]; i != j {
				rowPtr[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	rowInd := make([]int, rowPtr[n])
	rowVal := make([]float64, rowPtr[n])
	next := append([]int(nil), rowPtr[:n]...)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if i := a.RowInd[p]; i != j {
				rowInd[next[i]] = j
				rowVal[next[i]] = a.Val[p]
				next[i]++
			}
		}
	}

	x := make([]float64, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	pattern := make([]int, 0, 64)

	for k := 0; k < n; k++ {
		// Row-k pattern: union of etree paths from A(k,j), j<k, up to k.
		pattern = pattern[:0]
		for p := rowPtr[k]; p < rowPtr[k+1]; p++ {
			j := rowInd[p]
			x[j] = rowVal[p]
			for r := j; r != -1 && r < k && mark[r] != k; r = t.Parent[r] {
				mark[r] = k
				pattern = append(pattern, r)
			}
		}
		sort.Ints(pattern)

		d := a.Val[a.ColPtr[k]] // diagonal of column k
		for _, j := range pattern {
			lkj := x[j] / f.Diag[j]
			x[j] = 0
			rows, vals := f.Rows[j], f.Vals[j]
			for p := range rows {
				x[rows[p]] -= lkj * vals[p]
			}
			d -= lkj * lkj
			f.Rows[j] = append(f.Rows[j], int32(k))
			f.Vals[j] = append(f.Vals[j], lkj)
		}
		var err error
		if f.Diag[k], err = pivot(d, -1, k); err != nil {
			return nil, err
		}
	}
	return f, nil
}
