package main

import (
	"fmt"
	"math"

	"blockfanout/internal/sparse"
)

// residualTol is the accepted backward error: a solution x of A·x = b
// passes when ‖A·x − b‖∞ ≤ residualTol·‖A‖∞·‖x‖∞.
const residualTol = 1e-10

// checkSolution verifies x against the matrix the client last sent for the
// factor (symmetric, lower triangle stored) and b.
func checkSolution(a *sparse.Matrix, x, b []float64) error {
	if len(x) != a.N || len(b) != a.N {
		return fmt.Errorf("solution length %d, rhs length %d, want %d", len(x), len(b), a.N)
	}
	ax := a.MulVec(x)
	var res, xnorm float64
	for i := range ax {
		res = math.Max(res, math.Abs(ax[i]-b[i]))
		xnorm = math.Max(xnorm, math.Abs(x[i]))
	}
	bound := residualTol * normInf(a) * xnorm
	if !(res <= bound) { // also rejects NaN
		return fmt.Errorf("residual %.3g exceeds %.3g", res, bound)
	}
	return nil
}

// normInf is the largest absolute row sum of the symmetric matrix whose
// lower triangle a stores.
func normInf(a *sparse.Matrix) float64 {
	row := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i, v := a.RowInd[p], math.Abs(a.Val[p])
			row[i] += v
			if i != j {
				row[j] += v
			}
		}
	}
	var m float64
	for _, s := range row {
		m = math.Max(m, s)
	}
	return m
}
