package kernels

import (
	"math/rand"
	"testing"
)

// FuzzMulSub holds every BMOD destination kind — contiguous, scattered
// and lower-triangular — on both the assembly and the pure-Go strip
// kernel, for ra, rb and w in 1…70, to the naive reference at 1e-12
// relative. MulSub's pooled workspace is reused across inputs, so stale
// packing or write-back scratch would show up as a mismatch.
func FuzzMulSub(f *testing.F) {
	shapes := [][3]uint8{
		{1, 1, 1}, {1, 70, 8}, {70, 1, 8}, {4, 4, 8}, {4, 8, 8}, {5, 9, 7},
		{16, 4, 8}, {16, 16, 16}, {47, 47, 47}, {3, 70, 24}, {70, 3, 24},
		{33, 17, 65}, {70, 70, 70}, {9, 31, 48}, {2, 8, 33},
	}
	for i, s := range shapes {
		for kind := uint8(0); kind < 3; kind++ {
			f.Add(s[0]-1, s[1]-1, s[2]-1, kind, i%2 == 0, int64(i))
		}
	}
	f.Fuzz(func(t *testing.T, ra8, rb8, w8, kind uint8, fma bool, seed int64) {
		ra, rb, w := 1+int(ra8)%70, 1+int(rb8)%70, 1+int(w8)%70
		prev := setFMA(fma)
		defer setFMA(prev)
		rng := rand.New(rand.NewSource(seed))
		nrows, ldc := ra+rng.Intn(5), rb+rng.Intn(5)
		var relRow, relCol, rowsA, rowsB []int
		lower := false
		a := randSlice(rng, ra*w)
		b := randSlice(rng, rb*w)
		switch kind % 3 {
		case 0: // contiguous
			relRow = randRel(rng, ra, nrows, true)
			relCol = randRel(rng, rb, ldc, true)
		case 1: // scattered rows, columns, or both
			relRow = randRel(rng, ra, nrows, rng.Intn(2) == 0)
			relCol = randRel(rng, rb, ldc, rng.Intn(2) == 0)
		default: // lower: a diagonal destination
			lower = true
			rowsA = randRel(rng, ra, ra+rb+6, false)
			rowsB = randRel(rng, rb, ra+rb+6, false)
			relRow = randRel(rng, ra, nrows, rng.Intn(2) == 0)
			relCol = randRel(rng, rb, ldc, rng.Intn(2) == 0)
			if seed%2 == 0 { // both sources the same block
				rb, b, rowsB, relCol, ldc = ra, a, rowsA, relRow, nrows
			}
		}
		c := randSlice(rng, nrows*ldc)
		want := append([]float64(nil), c...)
		MulSub(c, ldc, a, ra, b, rb, w, relRow, relCol, lower, rowsA, rowsB)
		mulSubNaive(want, ldc, a, ra, b, rb, w, relRow, relCol, lower, rowsA, rowsB)
		for i := range c {
			if !closeEnough(c[i], want[i]) {
				t.Fatalf("ra=%d rb=%d w=%d kind=%d fma=%v: C[%d]=%g, naive %g",
					ra, rb, w, kind%3, useFMA, i, c[i], want[i])
			}
		}
	})
}
