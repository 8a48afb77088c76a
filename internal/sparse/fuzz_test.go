package sparse

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// mapFromTriplets is the hash-map assembler FromTriplets replaced, kept as
// the reference: duplicates accumulate in a map in input order from +0,
// missing diagonals are set to +0, and each column is sorted by row.
func mapFromTriplets(n int, ts []Triplet) (*Matrix, error) {
	type key struct{ r, c int }
	acc := make(map[key]float64, len(ts)+n)
	for _, t := range ts {
		r, c := t.Row, t.Col
		if r < 0 || r >= n || c < 0 || c >= n {
			return nil, fmt.Errorf("sparse: triplet (%d,%d) out of range for n=%d", r, c, n)
		}
		if r < c {
			r, c = c, r
		}
		acc[key{r, c}] += t.Val
	}
	for j := 0; j < n; j++ {
		if _, ok := acc[key{j, j}]; !ok {
			acc[key{j, j}] = 0
		}
	}
	keys := make([]key, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].c != keys[b].c {
			return keys[a].c < keys[b].c
		}
		return keys[a].r < keys[b].r
	})
	m := &Matrix{N: n, ColPtr: make([]int, n+1)}
	for _, k := range keys {
		m.ColPtr[k.c+1]++
		m.RowInd = append(m.RowInd, k.r)
		m.Val = append(m.Val, acc[k])
	}
	for j := 0; j < n; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	return m, nil
}

// fuzzValues are the values a fuzzed triplet can carry: signed zeros,
// values whose sums depend on the order they are added in, and the
// non-finite ones.
var fuzzValues = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 0.2, 0.3, 1e300, -1e300, 1e-300, math.Inf(1), math.Inf(-1), math.NaN(), 3}

// FuzzFromTriplets checks FromTriplets against the map-based reference,
// bit for bit (NaN payloads aside). The input's first byte picks n in [0, 8]; each following
// triple of bytes is one triplet (row and column in [0, n], so n itself is
// out of range; a value from fuzzValues). Duplicates, both triangles and
// missing diagonals all come up.
func FuzzFromTriplets(f *testing.F) {
	f.Add([]byte{3, 0, 0, 2, 1, 0, 3, 0, 1, 3, 1, 0, 1})
	f.Add([]byte{2, 0, 0, 1, 0, 0, 0, 1, 1, 2})
	f.Add([]byte{4, 3, 0, 12, 0, 3, 12, 2, 2, 4, 3, 0, 4, 0, 3, 5})
	f.Add([]byte{1, 0, 0, 1, 0, 0, 1})
	f.Add([]byte{2, 1, 0, 7, 0, 1, 8, 1, 0, 9})
	f.Add([]byte{2, 2, 0, 0})
	f.Add([]byte{0})
	f.Add([]byte{2, 1, 0, 1})          // a lone −0 off the diagonal sums to +0
	f.Add([]byte{2, 0, 0, 1, 1, 1, 1}) // and so does a lone −0 diagonal
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 9)
		var ts []Triplet
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			ts = append(ts, Triplet{
				Row: int(b[0]) % (n + 1),
				Col: int(b[1]) % (n + 1),
				Val: fuzzValues[int(b[2])%len(fuzzValues)],
			})
		}
		want, werr := mapFromTriplets(n, ts)
		got, err := FromTriplets(n, ts)
		if (err != nil) != (werr != nil) {
			t.Fatalf("error %v, reference error %v", err, werr)
		}
		if err != nil {
			if err.Error() != werr.Error() {
				t.Fatalf("error %q, reference %q", err, werr)
			}
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if got.N != want.N || fmt.Sprint(got.ColPtr, got.RowInd) != fmt.Sprint(want.ColPtr, want.RowInd) {
			t.Fatalf("pattern %v %v, reference %v %v", got.ColPtr, got.RowInd, want.ColPtr, want.RowInd)
		}
		for p := range want.Val {
			// Go leaves a NaN's payload unspecified (the compiler may
			// commute an addition), so any two NaNs agree; every other
			// value, signed zeros included, must match bit for bit.
			if math.IsNaN(got.Val[p]) && math.IsNaN(want.Val[p]) {
				continue
			}
			if math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
				t.Fatalf("value %d: %v (%#x), reference %v (%#x)", p, got.Val[p], math.Float64bits(got.Val[p]), want.Val[p], math.Float64bits(want.Val[p]))
			}
		}
	})
}
