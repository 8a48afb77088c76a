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

func TestMulSubMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 48, 63, 64}
	for trial := 0; trial < 400; trial++ {
		w := widths[rng.Intn(len(widths))]
		ra := 1 + rng.Intn(20)
		rb := 1 + rng.Intn(20)
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
		w := 1 + rng.Intn(40)
		ra := 1 + rng.Intn(16)
		rb := 1 + rng.Intn(16)
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
	for _, w := range []int{1, 2, 3, 5, 8, 16, 17, 32, 48, 64} {
		for _, r := range []int{1, 2, 3, 4, 5, 7, 8, 13, 21} {
			l := spd(w, w+r)
			if err := Cholesky(l, w); err != nil {
				t.Fatal(err)
			}
			x := randSlice(rng, r*w)
			xNaive := append([]float64(nil), x...)
			if err := SolveRight(x, r, l, w); err != nil {
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
	MulSubContig(c2[contigRow[0]*ldc+contigCol[0]:], ldc, a, ra, b, rb, w)
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
	MulSubScattered(c2, ldc, a, ra, b, rb, w, scatRow, scatCol)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("scattered route diverges at %d: %g vs %g", i, c1[i], c2[i])
		}
	}
}

// The portable register-tiled path must stay correct even on hardware where
// the FMA micro-kernel is selected: every build without AVX2+FMA (and every
// non-amd64 build) runs it.
func TestMulSubPortablePathMatchesNaive(t *testing.T) {
	if !useFMA {
		t.Log("FMA micro-kernel unavailable; main tests already cover the portable path")
		return
	}
	useFMA = false
	defer func() { useFMA = true }()
	TestMulSubMatchesNaiveRandom(t)
	TestMulSubDispatchRoutes(t)
}
