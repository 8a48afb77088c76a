package kernels

import (
	"fmt"
	"testing"
)

// Kernel micro-benchmarks across the block sizes the partitioner actually
// produces: these are the operations the paper implements with
// hand-optimized Level-3 BLAS, so their throughput sets the library's
// single-node "machine rate". Each benchmark reports GFlop/s; the *Naive
// variants time the retained reference kernels so the tiling win is
// measured in-tree. Run with:
//
//	go test -bench 'Kernel|Fanout' -benchmem ./...
const benchRows = 64

var benchWidths = []int{8, 16, 24, 32, 48, 64}

func reportGFlops(b *testing.B, flopsPerOp int64) {
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(flopsPerOp)*float64(b.N)/sec/1e9, "GFlop/s")
	}
}

func benchMulSub(b *testing.B, w int, fn func(c []float64, ldc int, a []float64, ra int, bb []float64, rb, w int, relRow, relCol []int)) {
	r := benchRows
	_, _, a, bm, c, relRow, relCol := benchBlocks(w, r)
	b.SetBytes(int64(2*r*w+r*r) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(c, r, a, r, bm, r, w, relRow, relCol)
	}
	reportGFlops(b, int64(2*r*r*w))
}

func BenchmarkKernelMulSub(b *testing.B) {
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			benchMulSub(b, w, func(c []float64, ldc int, a []float64, ra int, bb []float64, rb, w int, relRow, relCol []int) {
				MulSub(c, ldc, a, ra, bb, rb, w, relRow, relCol, false, nil, nil)
			})
		})
	}
}

func BenchmarkKernelMulSubScattered(b *testing.B) {
	var ws Workspace
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			var rr, rc []int32
			benchMulSub(b, w, func(c []float64, ldc int, a []float64, ra int, bb []float64, rb, w int, relRow, relCol []int) {
				if rr == nil {
					rr, rc = int32s(relRow), int32s(relCol)
				}
				ws.MulSubScattered(c, ldc, a, ra, bb, rb, w, rr, rc)
			})
		})
	}
}

func BenchmarkKernelMulSubNaive(b *testing.B) {
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			benchMulSub(b, w, func(c []float64, ldc int, a []float64, ra int, bb []float64, rb, w int, relRow, relCol []int) {
				mulSubNaive(c, ldc, a, ra, bb, rb, w, relRow, relCol, false, nil, nil)
			})
		})
	}
}

func benchCholesky(b *testing.B, w int, fn func([]float64, int) error) {
	src := spd(w, 2)
	dst := make([]float64, w*w)
	b.SetBytes(int64(w * w * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, src)
		if err := fn(dst, w); err != nil {
			b.Fatal(err)
		}
	}
	reportGFlops(b, int64(w)*int64(w)*int64(w)/3)
}

func BenchmarkKernelCholesky(b *testing.B) {
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) { benchCholesky(b, w, Cholesky) })
	}
}

func BenchmarkKernelCholeskyNaive(b *testing.B) {
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) { benchCholesky(b, w, choleskyNaive) })
	}
}

// BenchmarkKernelCholeskyNoChecks is the pivot-check-free baseline for the
// BFAC overhead TestPivotCheckOverhead gates: the delta against
// BenchmarkKernelCholesky is the full cost of breakdown detection.
func BenchmarkKernelCholeskyNoChecks(b *testing.B) {
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			benchCholesky(b, w, func(a []float64, w int) error {
				CholeskyNoChecks(a, w)
				return nil
			})
		})
	}
}

func benchSolveRight(b *testing.B, w int, fn func(x []float64, r int, l []float64, w int) error) {
	r := benchRows
	l, x, _, _, _, _, _ := benchBlocks(w, r)
	work := make([]float64, len(x))
	b.SetBytes(int64(r * w * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		fn(work, r, l, w)
	}
	reportGFlops(b, int64(r)*int64(w)*int64(w))
}

func BenchmarkKernelSolveRight(b *testing.B) {
	var ws Workspace
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) { benchSolveRight(b, w, ws.SolveRight) })
	}
}

func BenchmarkKernelSolveRightNaive(b *testing.B) {
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) { benchSolveRight(b, w, solveRightNaive) })
	}
}

func benchBlocks(w, r int) (l, x, a, b, c []float64, relRow, relCol []int) {
	l = spd(w, 1)
	if err := Cholesky(l, w); err != nil {
		panic(err)
	}
	x = make([]float64, r*w)
	a = make([]float64, r*w)
	b = make([]float64, r*w)
	c = make([]float64, r*r)
	for i := range x {
		x[i] = float64(i%13) - 6
		a[i] = float64(i%7) - 3
		b[i] = float64(i%11) - 5
	}
	relRow = make([]int, r)
	relCol = make([]int, r)
	for i := 0; i < r; i++ {
		relRow[i] = i
		relCol[i] = i
	}
	return
}

// BenchmarkKernelMulSubPortable times the pure-Go twin of the strip kernel
// with the assembly disabled — the throughput non-amd64 builds get.
func BenchmarkKernelMulSubPortable(b *testing.B) {
	if !useFMA {
		b.Skip("portable path already measured by BenchmarkKernelMulSub")
	}
	useFMA = false
	defer func() { useFMA = true }()
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			benchMulSub(b, w, func(c []float64, ldc int, a []float64, ra int, bb []float64, rb, w int, relRow, relCol []int) {
				MulSub(c, ldc, a, ra, bb, rb, w, relRow, relCol, false, nil, nil)
			})
		})
	}
}

// BenchmarkKernelShapes is the table behind usePacked: the small-op
// dot-product code against the packed kernel on one contiguous BMOD, and
// the four-row substitution against the blocked TRSM on one BDIV, across
// the widths and row counts factorizations produce. The packed path must
// win wherever usePacked selects it.
func BenchmarkKernelShapes(b *testing.B) {
	var ws Workspace
	for _, w := range []int{4, 6, 8, 12, 16, 24, 32, 48} {
		for _, rr := range [][2]int{{1, 1}, {2, 2}, {1, 16}, {16, 1}, {47, 2}, {4, 4}, {16, 4}, {47, 4}, {2, 8}, {8, 8}, {16, 16}, {47, 47}} {
			ra, rb := rr[0], rr[1]
			a, bm := make([]float64, ra*w), make([]float64, rb*w)
			c := make([]float64, ra*rb)
			for i := range a {
				a[i] = float64(i%7) - 3
			}
			for i := range bm {
				bm[i] = float64(i%5) - 2
			}
			for _, path := range []struct {
				name string
				f    func()
			}{
				{"small", func() { mulSubContigSmall(c, rb, a, ra, bm, rb, w) }},
				{"packed", func() { ws.mulSubContigPacked(c, rb, a, ra, bm, rb, w) }},
			} {
				b.Run(fmt.Sprintf("bmod/w=%d/%dx%d/%s", w, ra, rb, path.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						path.f()
					}
					reportGFlops(b, int64(2*ra*rb*w))
				})
			}
		}
		if w <= tileCols {
			continue
		}
		for _, r := range []int{1, 2, 4, 8, 16, 47} {
			l, x, _, _, _, _, _ := benchBlocks(w, r)
			for _, path := range []struct {
				name string
				f    func()
			}{
				{"small", func() { solveRightLD(x, r, w, l, w, w) }},
				{"packed", func() { ws.solveRightBlocked(x, r, l, w) }},
			} {
				b.Run(fmt.Sprintf("bdiv/w=%d/r=%d/%s", w, r, path.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						path.f()
					}
					reportGFlops(b, int64(r)*int64(w)*int64(w))
				})
			}
		}
	}
}
