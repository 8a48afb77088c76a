package kernels

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Property tests: every tiled kernel must match its retained naive
// reference to 1e-12 (relative) on randomized shapes, including odd
// remainders, the lower-triangular masked diagonal case, and
// non-contiguous relRow/relCol indirection.

const tiledTol = 1e-12

func closeEnough(got, want float64) bool {
	return math.Abs(got-want) <= tiledTol*(1+math.Abs(want))
}

// randRel draws n strictly-increasing indices in [0, limit); contig forces
// the consecutive run the fast path detects.
func randRel(rng *rand.Rand, n, limit int, contig bool) []int {
	if contig {
		start := rng.Intn(limit - n + 1)
		rel := make([]int, n)
		for i := range rel {
			rel[i] = start + i
		}
		return rel
	}
	perm := rng.Perm(limit)[:n]
	sort.Ints(perm)
	return perm
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// solveRight is the BDIV entry point on a fresh workspace.
func solveRight(x []float64, r int, l []float64, w int) error {
	var ws Workspace
	return ws.SolveRight(x, r, l, w)
}

func TestMulSubMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 48, 63, 64, 65}
	for trial := 0; trial < 400; trial++ {
		w := widths[rng.Intn(len(widths))]
		ra := 1 + rng.Intn(70)
		rb := 1 + rng.Intn(70)
		nrows := ra + rng.Intn(8)
		ldc := rb + rng.Intn(8)
		contigR := rng.Intn(2) == 0
		contigC := rng.Intn(2) == 0
		relRow := randRel(rng, ra, nrows, contigR)
		relCol := randRel(rng, rb, ldc, contigC)
		a := randSlice(rng, ra*w)
		b := randSlice(rng, rb*w)
		c := randSlice(rng, nrows*ldc)
		cNaive := append([]float64(nil), c...)
		MulSub(c, ldc, a, ra, b, rb, w, relRow, relCol, false, nil, nil)
		mulSubNaive(cNaive, ldc, a, ra, b, rb, w, relRow, relCol, false, nil, nil)
		for i := range c {
			if !closeEnough(c[i], cNaive[i]) {
				t.Fatalf("trial %d (w=%d ra=%d rb=%d contig=%v/%v): C[%d]=%g, naive %g",
					trial, w, ra, rb, contigR, contigC, i, c[i], cNaive[i])
			}
		}
	}
}

func TestMulSubLowerMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		w := 1 + rng.Intn(65)
		ra := 1 + rng.Intn(70)
		rb := 1 + rng.Intn(70)
		// Ascending global row lists drawn from a shared range so the
		// lower mask actually cuts (including ties, which must update).
		rowsA := randRel(rng, ra, ra+rb+6, false)
		rowsB := randRel(rng, rb, ra+rb+6, false)
		nrows := ra + rng.Intn(4)
		ldc := rb + rng.Intn(4)
		relRow := randRel(rng, ra, nrows, rng.Intn(2) == 0)
		relCol := randRel(rng, rb, ldc, rng.Intn(2) == 0)
		a := randSlice(rng, ra*w)
		b := randSlice(rng, rb*w)
		if trial%3 == 0 {
			// The shape every real diagonal destination has: both
			// sources are the same block, so the cut is the diagonal.
			rb, rowsB, b = ra, rowsA, a
			ldc = nrows
			relCol = relRow
		}
		c := randSlice(rng, nrows*ldc)
		cNaive := append([]float64(nil), c...)
		MulSub(c, ldc, a, ra, b, rb, w, relRow, relCol, true, rowsA, rowsB)
		mulSubNaive(cNaive, ldc, a, ra, b, rb, w, relRow, relCol, true, rowsA, rowsB)
		for i := range c {
			if !closeEnough(c[i], cNaive[i]) {
				t.Fatalf("trial %d (w=%d ra=%d rb=%d): C[%d]=%g, naive %g",
					trial, w, ra, rb, i, c[i], cNaive[i])
			}
		}
	}
}

func TestCholeskyMatchesNaive(t *testing.T) {
	// Straddles the blocking threshold: unblocked path, exact multiples of
	// the panel width, and ragged final panels.
	for _, w := range []int{1, 2, 3, 5, 31, 32, 33, 47, 48, 63, 64, 65, 96, 100} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			src := spd(w, w+3)
			tiled := append([]float64(nil), src...)
			naive := append([]float64(nil), src...)
			if err := Cholesky(tiled, w); err != nil {
				t.Fatal(err)
			}
			if err := choleskyNaive(naive, w); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < w; i++ {
				for j := 0; j < w; j++ {
					got, want := tiled[i*w+j], naive[i*w+j]
					if j > i {
						want = src[i*w+j] // strict upper untouched
					}
					if !closeEnough(got, want) {
						t.Fatalf("L(%d,%d)=%g, naive %g", i, j, got, want)
					}
				}
			}
		})
	}
}

func TestCholeskyBlockedIndefinite(t *testing.T) {
	// A pivot failure inside a later panel must surface through the
	// blocked path too.
	w := choleskyNB + 8
	a := spd(w, 1)
	a[(w-1)*w+(w-1)] = -1
	err := Cholesky(a, w)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("got %v, want ErrNotPositiveDefinite", err)
	}
	var pe *PivotError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PivotError", err)
	}
	if pe.Row != w-1 || !(pe.Pivot < 0) {
		t.Fatalf("PivotError = %+v, want Row %d with negative pivot", pe, w-1)
	}
}

func TestSolveRightMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var ws Workspace // reused across shapes, as an executor's is
	for _, w := range []int{1, 2, 3, 5, 8, 9, 16, 17, 24, 32, 47, 48, 64, 65} {
		for _, r := range []int{1, 2, 3, 4, 5, 7, 8, 13, 21, 47, 100} {
			l := spd(w, w+r)
			if err := Cholesky(l, w); err != nil {
				t.Fatal(err)
			}
			x := randSlice(rng, r*w)
			xNaive := append([]float64(nil), x...)
			if err := ws.SolveRight(x, r, l, w); err != nil {
				t.Fatal(err)
			}
			if err := solveRightNaive(xNaive, r, l, w); err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if !closeEnough(x[i], xNaive[i]) {
					t.Fatalf("w=%d r=%d: X[%d]=%g, naive %g", w, r, i, x[i], xNaive[i])
				}
			}
			// A broken pivot in a late chunk of the blocked path names
			// the same row as the reference, before any write.
			bad := w - 1 - w/3
			l[bad*w+bad] = -l[bad*w+bad]
			x = randSlice(rng, r*w)
			orig := append([]float64(nil), x...)
			var pe, peNaive *PivotError
			if err := ws.SolveRight(x, r, l, w); !errors.As(err, &pe) {
				t.Fatalf("w=%d r=%d: got %v, want *PivotError", w, r, err)
			}
			if err := solveRightNaive(append([]float64(nil), orig...), r, l, w); !errors.As(err, &peNaive) {
				t.Fatalf("w=%d r=%d: naive got %v, want *PivotError", w, r, err)
			}
			if pe.Row != bad || pe.Row != peNaive.Row {
				t.Fatalf("w=%d r=%d: PivotError row %d, naive %d, want %d", w, r, pe.Row, peNaive.Row, bad)
			}
			for i := range x {
				if x[i] != orig[i] {
					t.Fatalf("w=%d r=%d: X[%d] written before the pivot error", w, r, i)
				}
			}
		}
	}
}

// The dispatcher must agree with the explicitly-routed kernels, so callers
// that classify the destination themselves (package numeric) get the same
// arithmetic as callers going through MulSub.
func TestMulSubDispatchRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w, ra, rb, ldc := 16, 9, 7, 12
	a := randSlice(rng, ra*w)
	b := randSlice(rng, rb*w)

	contigRow := randRel(rng, ra, ra, true)
	contigCol := randRel(rng, rb, ldc, true)
	c1 := randSlice(rng, ra*ldc)
	c2 := append([]float64(nil), c1...)
	MulSub(c1, ldc, a, ra, b, rb, w, contigRow, contigCol, false, nil, nil)
	var ws Workspace
	ws.MulSubContig(c2[contigRow[0]*ldc+contigCol[0]:], ldc, a, ra, b, rb, w)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("contig route diverges at %d: %g vs %g", i, c1[i], c2[i])
		}
	}

	scatRow := []int{0, 2, 3, 5, 6, 8, 9, 10, 11}
	scatCol := []int{0, 1, 3, 4, 7, 8, 11}
	c1 = randSlice(rng, 12*ldc)
	c2 = append([]float64(nil), c1...)
	MulSub(c1, ldc, a, ra, b, rb, w, scatRow, scatCol, false, nil, nil)
	ws.MulSubScattered(c2, ldc, a, ra, b, rb, w, int32s(scatRow), int32s(scatCol))
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("scattered route diverges at %d: %g vs %g", i, c1[i], c2[i])
		}
	}
}

func int32s(v []int) []int32 {
	out := make([]int32, len(v))
	for i, x := range v {
		out[i] = int32(x)
	}
	return out
}

// The pure-Go twin of the strip kernel must stay correct even on hardware
// where the assembly is selected: every build without AVX2+FMA (and every
// non-amd64 build) runs it.
func TestMulSubPortablePathMatchesNaive(t *testing.T) {
	if !useFMA {
		t.Log("FMA micro-kernel unavailable; main tests already cover the portable path")
		return
	}
	useFMA = false
	defer func() { useFMA = true }()
	TestMulSubMatchesNaiveRandom(t)
	TestMulSubLowerMatchesNaiveRandom(t)
	TestSolveRightMatchesNaive(t)
	TestMulSubDispatchRoutes(t)
}

// TestStripKernelMatchesReference holds the strip kernel's pure-Go twin —
// and, where the CPU has it, the assembly — to a direct triple loop over
// the unpacked operands: every row count 1…tileRows, column counts on and
// off the panel width, odd and even depths, and a leading dimension
// wider than the row so nothing outside the mr×ncols destination moves.
func TestStripKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var ws Workspace
	for _, w := range []int{1, 2, 3, 8, 17, 48} {
		for _, ncols := range []int{1, 5, 8, 9, 16, 23} {
			for mr := 1; mr <= tileRows; mr++ {
				lda, ldc := w+3, ncols+5
				a := randSlice(rng, tileRows*lda)
				b := randSlice(rng, ncols*w)
				c := randSlice(rng, tileRows*ldc)
				want := append([]float64(nil), c...)
				for i := 0; i < mr; i++ {
					for j := 0; j < ncols; j++ {
						var sum float64
						for k := 0; k < w; k++ {
							sum += a[i*lda+k] * b[j*w+k]
						}
						want[i*ldc+j] -= sum
					}
				}
				bp := ws.packB(b, ncols, w, w)
				var rows [tileRows]int
				stripRows(&rows, nil, 0, mr, ldc, 0)
				strips := map[string]func([]float64){
					"go": func(c []float64) { mulSubStripGo(c, &rows, a, lda, mr, bp, w, ncols) },
				}
				if hasFMA {
					strips["fma"] = func(c []float64) { mulSubStripFMA(&c[0], &rows, &a[0], lda, mr, &bp[0], w, ncols) }
				}
				for name, strip := range strips {
					got := append([]float64(nil), c...)
					strip(got)
					for i := range got {
						if !closeEnough(got[i], want[i]) {
							t.Fatalf("%s w=%d ncols=%d mr=%d: C[%d]=%g, want %g", name, w, ncols, mr, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// raceEnabled is set by race_on_test.go under the race detector, whose
// sync.Pool drops a share of Puts on purpose.
var raceEnabled bool

// MulSub is the exported one-shot entry point the benchmark harness times;
// once its pooled workspace has grown, no destination kind allocates.
func TestMulSubSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rng := rand.New(rand.NewSource(31))
	const w, r = 24, 20
	a, b := randSlice(rng, r*w), randSlice(rng, r*w)
	c := randSlice(rng, (r+4)*(r+4))
	contig := randRel(rng, r, r+4, true)
	scat := randRel(rng, r, r+4, false)
	rows := randRel(rng, r, 2*r, false)
	for _, tc := range []struct {
		name           string
		relRow, relCol []int
		lower          bool
	}{
		{"contig", contig, contig, false},
		{"scattered", scat, scat, false},
		{"lower", scat, scat, true},
	} {
		if n := testing.AllocsPerRun(20, func() {
			MulSub(c, r+4, a, r, b, r, w, tc.relRow, tc.relCol, tc.lower, rows, rows)
		}); n != 0 {
			t.Errorf("%s: %v allocations per MulSub", tc.name, n)
		}
	}
}
