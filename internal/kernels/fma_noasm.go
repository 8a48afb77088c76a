//go:build !amd64

package kernels

import "unsafe"

// Non-amd64 builds have no assembly micro-kernel: the single capability
// gate hasFMA is constant-false, so dispatch can never select the FMA path
// (setFMA(true) is a no-op). mulSubStripFMA nevertheless runs the pure-Go
// twin rather than panicking, so even a hypothetical dispatch bug degrades
// to correct, slower code instead of crashing the process.
const hasFMA = false

var useFMA = false

func mulSubStripFMA(c *float64, rows *[tileRows]int, a *float64, lda, mr int, bp *float64, w, ncols int) {
	n := 0
	for _, r := range rows[:mr] {
		n = max(n, r+ncols)
	}
	mulSubStripGo(unsafe.Slice(c, n), rows, unsafe.Slice(a, (mr-1)*lda+w), lda, mr,
		unsafe.Slice(bp, packedLen(ncols, w)), w, ncols)
}

func packPanelAVX(dst *float64, src *float64, ldb, w int) {
	packPanelGo(unsafe.Slice(dst, tileCols*w), unsafe.Slice(src, (tileCols-1)*ldb+w), ldb, w)
}
