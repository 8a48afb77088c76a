package numeric

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"blockfanout/internal/domains"
	"blockfanout/internal/gen"
	"blockfanout/internal/kernels"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// referenceSolveN is the block sweep as it stood before the lane split:
// every panel in order on one goroutine, each product subtracted from x in
// place. A nil split must reproduce it bit for bit.
func referenceSolveN(f *Factor, bs [][]float64) [][]float64 {
	part := f.BS.Part
	n := f.BS.N()
	xs := make([][]float64, len(bs))
	for r := range bs {
		xs[r] = append([]float64(nil), bs[r]...)
	}
	for k := 0; k < n; k++ {
		w, start := part.Width(k), part.Start[k]
		for _, x := range xs {
			seg := x[start : start+w]
			kernels.ForwardSolveDiag(f.Data[k][0], w, seg)
			for bi := 1; bi < len(f.BS.Cols[k].Blocks); bi++ {
				data := f.Data[k][bi]
				for s, g := range f.BS.Cols[k].Blocks[bi].Rows {
					var sum float64
					for t := 0; t < w; t++ {
						sum += data[s*w+t] * seg[t]
					}
					x[g] -= sum
				}
			}
		}
	}
	for k := n - 1; k >= 0; k-- {
		w, start := part.Width(k), part.Start[k]
		for _, x := range xs {
			seg := x[start : start+w]
			for bi := 1; bi < len(f.BS.Cols[k].Blocks); bi++ {
				data := f.Data[k][bi]
				for s, g := range f.BS.Cols[k].Blocks[bi].Rows {
					xg := x[g]
					for t := 0; t < w; t++ {
						seg[t] -= data[s*w+t] * xg
					}
				}
			}
			kernels.BackSolveDiag(f.Data[k][0], w, seg)
		}
	}
	return xs
}

// sameBits reports the first index where two solutions differ in any bit,
// or -1.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// relDiff is max|a−b| / max|b|.
func relDiff(a, b []float64) float64 {
	var d, m float64
	for i := range a {
		d = max(d, math.Abs(a[i]-b[i]))
		m = max(m, math.Abs(b[i]))
	}
	return d / m
}

// TestSolveSplitProperties runs the sweep on three problem families under
// domain selections for P = 1–4 (β = 2) and without domains (β = 0), with
// one and three right-hand sides. Each case checks that the lane sweep
// agrees with the pre-split sweep to 1e-12 (bit for bit for a nil split),
// that its answer is bit-identical across 20 repeats and under GOMAXPROCS
// 1 and 4, that a vector solved in a batch is bit-identical to the same
// vector solved alone, and that the inputs are left untouched.
func TestSolveSplitProperties(t *testing.T) {
	cases := []struct {
		name    string
		m       *sparse.Matrix
		method  ord.Method
		gridDim int
		b       int
	}{
		{"cube", gen.Cube3D(7), ord.NDCube3D, 7, 8},
		{"grid", gen.Grid2D(24), ord.NDGrid2D, 24, 6},
		{"mesh", gen.IrregularMesh(500, 6, 3, 5), ord.MinDegree, 0, 8},
	}
	for _, tc := range cases {
		st, bs, pm := setupSym(t, tc.m, tc.method, tc.gridDim, tc.b)
		f, err := New(bs, pm)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.FactorSequential(); err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= 4; p++ {
			for _, beta := range []float64{0, 2} {
				var sp *Split
				if beta > 0 {
					sp = NewSplit(bs, domains.Select(st, bs, p, beta))
					if sp == nil || sp.Lanes() < 1 || sp.Lanes() > p {
						t.Fatalf("%s P=%d: domain selection gave %d lanes", tc.name, p, sp.Lanes())
					}
				}
				for _, nrhs := range []int{1, 3} {
					name := fmt.Sprintf("%s/P=%d/beta=%g/nrhs=%d", tc.name, p, beta, nrhs)
					checkSplitSolve(t, name, f, sp, nrhs)
				}
			}
		}
	}
}

func checkSplitSolve(t *testing.T, name string, f *Factor, sp *Split, nrhs int) {
	t.Helper()
	n := len(f.BS.Part.PanelOf)
	rhs := make([][]float64, nrhs)
	orig := make([][]float64, nrhs)
	for r := range rhs {
		rhs[r] = make([]float64, n)
		for i := range rhs[r] {
			rhs[r][i] = math.Sin(float64(i*(r+2))*0.37) + 0.1*float64(r)
		}
		orig[r] = append([]float64(nil), rhs[r]...)
	}
	ref := referenceSolveN(f, rhs)
	got := f.SolveN(rhs, sp)
	for r := range got {
		if sp == nil {
			if i := sameBits(got[r], ref[r]); i >= 0 {
				t.Fatalf("%s: nil split differs from the reference sweep at rhs %d entry %d: %g vs %g", name, r, i, got[r][i], ref[r][i])
			}
		} else if d := relDiff(got[r], ref[r]); d > 1e-12 {
			t.Fatalf("%s: lane sweep rhs %d differs from the reference sweep by %g relative", name, r, d)
		}
	}
	same := func(what string, xs [][]float64) {
		t.Helper()
		for r := range xs {
			if i := sameBits(xs[r], got[r]); i >= 0 {
				t.Fatalf("%s: %s: rhs %d differs at %d: %g vs %g", name, what, r, i, xs[r][i], got[r][i])
			}
		}
	}
	for rep := 0; rep < 20; rep++ {
		same(fmt.Sprintf("repeat %d", rep), f.SolveN(rhs, sp))
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		xs := f.SolveN(rhs, sp)
		runtime.GOMAXPROCS(prev)
		same(fmt.Sprintf("GOMAXPROCS=%d", procs), xs)
	}
	for r := range rhs {
		if i := sameBits(f.Solve(rhs[r], sp), got[r]); i >= 0 {
			t.Fatalf("%s: rhs %d solved alone differs from its batch answer at %d", name, r, i)
		}
	}
	for r := range rhs {
		if i := sameBits(rhs[r], orig[r]); i >= 0 {
			t.Fatalf("%s: rhs %d modified at %d", name, r, i)
		}
	}
}

// TestNewSplitRejectsCrossingOwners checks that an owner map under which a
// domain panel has a block in another owner's panel, or which names no
// domain panel, yields the sequential (nil) split rather than lanes that
// would write the same entries.
func TestNewSplitRejectsCrossingOwners(t *testing.T) {
	st, bs, _ := setupSym(t, gen.Grid2D(16), ord.NDGrid2D, 16, 4)
	dom := domains.Select(st, bs, 2, 2)
	if NewSplit(bs, dom) == nil {
		t.Fatal("a real domain selection gave no split")
	}
	if NewSplit(bs, nil) != nil {
		t.Fatal("nil domains gave a split")
	}
	alt := &domains.Domains{PanelOwner: make([]int, bs.N())}
	for j := range alt.PanelOwner {
		alt.PanelOwner[j] = j % 2
	}
	if NewSplit(bs, alt) != nil {
		t.Fatal("alternating owners (blocks crossing lanes) gave a split")
	}
	for j := range alt.PanelOwner {
		alt.PanelOwner[j] = -1
	}
	if NewSplit(bs, alt) != nil {
		t.Fatal("an all-root owner map gave a split")
	}
}
