package kernels

import "fmt"

// The naive variants below are the reference implementations the tiled
// kernels are validated and benchmarked against. No production path calls
// them, so they live with the tests.

// choleskyNaive is the unblocked reference factorization the tiled kernel
// is validated and benchmarked against.
func choleskyNaive(a []float64, w int) error {
	if len(a) < w*w {
		return fmt.Errorf("kernels: Cholesky buffer %d < %d", len(a), w*w)
	}
	return choleskyUnblockedLD(a, w, w, 0)
}

// solveRightNaive is the one-row-at-a-time reference implementation.
func solveRightNaive(x []float64, r int, l []float64, w int) error {
	if err := checkSolvePivots(l, w, w); err != nil {
		return err
	}
	for s := 0; s < r; s++ {
		row := x[s*w : s*w+w]
		for j := 0; j < w; j++ {
			v := row[j]
			lj := l[j*w:]
			for t := 0; t < j; t++ {
				v -= row[t] * lj[t]
			}
			row[j] = v / lj[j]
		}
	}
	return nil
}

// mulSubNaive is the reference triple-loop BMOD the tiled kernels are
// validated and benchmarked against. Unlike MulSub it accepts unsorted
// rowsA/rowsB in the lower case.
func mulSubNaive(c []float64, ldc int, a []float64, ra int, b []float64, rb int, w int,
	relRow, relCol []int, lower bool, rowsA, rowsB []int) {
	for s := 0; s < ra; s++ {
		as := a[s*w : s*w+w]
		crow := c[relRow[s]*ldc:]
		for t := 0; t < rb; t++ {
			if lower && rowsA[s] < rowsB[t] {
				continue
			}
			bt := b[t*w : t*w+w]
			var sum float64
			for k := 0; k < w; k++ {
				sum += as[k] * bt[k]
			}
			crow[relCol[t]] -= sum
		}
	}
}
