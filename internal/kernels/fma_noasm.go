//go:build !amd64

package kernels

// Non-amd64 builds have no assembly micro-kernel: the single capability
// gate hasFMA is constant-false, so dispatch can never select the FMA path
// (setFMA(true) is a no-op). dot4x2fma nevertheless has a real pure-Go
// implementation — not a panic — so even a hypothetical dispatch bug
// degrades to correct, slower code instead of crashing the process.
const hasFMA = false

var useFMA = false

func dot4x2fma(a0, a1, a2, a3, b0, b1 *float64, n int, out *[8]float64) {
	dot4x2fmaGeneric(a0, a1, a2, a3, b0, b1, n, out)
}
