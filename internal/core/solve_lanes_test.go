package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// laneFactor factors m in parallel on p processors (best-fit grid, ID×CY)
// with domains at β (β = 0: none).
func laneFactor(t testing.TB, m *sparse.Matrix, opts Options, p int, beta float64) *Factor {
	t.Helper()
	plan, err := NewPlan(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := plan.Assign(plan.Map(mapping.BestGrid(p), mapping.ID, mapping.CY), beta)
	f, err := plan.Factor(context.Background(), a, FactorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func rhsSet(n, nrhs int) [][]float64 {
	bs := make([][]float64, nrhs)
	for r := range bs {
		bs[r] = make([]float64, n)
		for i := range bs[r] {
			bs[r][i] = math.Cos(float64(i*(r+3))*0.29) - 0.2*float64(r)
		}
	}
	return bs
}

// firstBitDiff returns the first index where a and b differ in any bit, or
// -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestSolveManyLaneProperties checks SolveMany on factors computed under
// domains at P = 1–4 (β = 2) and without them (β = 0), on three problem
// families, with one and three right-hand sides: a domain factor carries a
// lane split and a domain-free one none; the answer agrees with the
// nil-split sweep of the same factor to 1e-12; it is bit-identical across
// 20 repeats and under GOMAXPROCS 1 and 4; a vector solved in a batch is
// bit-identical to the same vector solved alone; the inputs are untouched.
func TestSolveManyLaneProperties(t *testing.T) {
	cases := []struct {
		name string
		m    *sparse.Matrix
		opts Options
	}{
		{"cube", gen.Cube3D(7), Options{Ordering: order.NDCube3D, GridDim: 7, BlockSize: 8}},
		{"grid", gen.Grid2D(24), Options{Ordering: order.NDGrid2D, GridDim: 24, BlockSize: 6}},
		{"mesh", gen.IrregularMesh(500, 6, 3, 5), Options{Ordering: order.MinDegree, BlockSize: 8}},
	}
	for _, tc := range cases {
		for p := 1; p <= 4; p++ {
			for _, beta := range []float64{0, 2} {
				f := laneFactor(t, tc.m, tc.opts, p, beta)
				sp := f.Program().Split
				if (sp != nil) != (beta > 0) {
					t.Fatalf("%s P=%d β=%g: split %v", tc.name, p, beta, sp != nil)
				}
				for _, nrhs := range []int{1, 3} {
					name := fmt.Sprintf("%s/P=%d/beta=%g/nrhs=%d", tc.name, p, beta, nrhs)
					checkLaneSolve(t, name, f, nrhs)
				}
			}
		}
	}
}

func checkLaneSolve(t *testing.T, name string, f *Factor, nrhs int) {
	t.Helper()
	bs := rhsSet(f.plan.A.N, nrhs)
	orig := rhsSet(f.plan.A.N, nrhs)
	got, err := f.SolveMany(bs)
	if err != nil {
		t.Fatal(err)
	}
	for r, b := range bs {
		seq := f.plan.Perm.ApplyInverse(f.nf.Solve(f.plan.Perm.Apply(b), nil))
		var d, m float64
		for i := range seq {
			d = max(d, math.Abs(got[r][i]-seq[i]))
			m = max(m, math.Abs(seq[i]))
		}
		if d > 1e-12*m {
			t.Fatalf("%s: rhs %d differs from the nil-split sweep by %g relative", name, r, d/m)
		}
	}
	same := func(what string, xs [][]float64) {
		t.Helper()
		for r := range xs {
			if i := firstBitDiff(xs[r], got[r]); i >= 0 {
				t.Fatalf("%s: %s: rhs %d differs at %d: %g vs %g", name, what, r, i, xs[r][i], got[r][i])
			}
		}
	}
	solve := func() [][]float64 {
		xs, err := f.SolveMany(bs)
		if err != nil {
			t.Fatal(err)
		}
		return xs
	}
	for rep := 0; rep < 20; rep++ {
		same(fmt.Sprintf("repeat %d", rep), solve())
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		xs := solve()
		runtime.GOMAXPROCS(prev)
		same(fmt.Sprintf("GOMAXPROCS=%d", procs), xs)
	}
	for r, b := range bs {
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstBitDiff(x, got[r]); i >= 0 {
			t.Fatalf("%s: rhs %d solved alone differs from its batch answer at %d", name, r, i)
		}
	}
	for r := range bs {
		if i := firstBitDiff(bs[r], orig[r]); i >= 0 {
			t.Fatalf("%s: rhs %d modified at %d", name, r, i)
		}
	}
}

// TestSolveManyConcurrent runs SolveMany from 8 goroutines on one domain
// factor; every answer must be bit-identical to a serial call. Under -race
// it also checks that concurrent lane sweeps share only reads of the
// factor.
func TestSolveManyConcurrent(t *testing.T) {
	f := laneFactor(t, gen.IrregularMesh(600, 6, 3, 9), Options{Ordering: order.MinDegree, BlockSize: 8}, 2, 2)
	if f.Program().Split.Lanes() < 2 {
		t.Fatalf("fixture has %d lanes, want ≥ 2", f.Program().Split.Lanes())
	}
	bs := rhsSet(f.plan.A.N, 3)
	want, err := f.SolveMany(bs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				xs, err := f.SolveMany(bs)
				if err != nil {
					errs <- err
					return
				}
				for r := range xs {
					if i := firstBitDiff(xs[r], want[r]); i >= 0 {
						errs <- fmt.Errorf("goroutine %d repeat %d: rhs %d differs at %d", g, rep, r, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSolveAllocBudget pins Factor.Solve's per-call scratch: the output
// vectors (the permuted right-hand side, the sweep's solution and the
// unpermuted answer) plus one root-column buffer per lane, never a
// length-n buffer per lane.
func TestSolveAllocBudget(t *testing.T) {
	f := laneFactor(t, gen.IrregularMesh(2000, 8, 3, 8), Options{Ordering: order.MinDegree, BlockSize: 8}, 2, 2)
	sp := f.Program().Split
	n := f.plan.A.N
	lanes, rootCols := sp.Lanes(), sp.RootCols()
	if lanes < 2 || rootCols >= n/4 {
		t.Fatalf("fixture: %d lanes, %d root columns of n = %d", lanes, rootCols, n)
	}
	b := rhsSet(n, 1)[0]
	solve := func() {
		if _, err := f.Solve(b); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, solve)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	// 10% covers the allocator's rounding up to size classes, and 1 KiB the
	// slice headers, the fork's closures and WaitGroups. A length-n buffer
	// per lane would add 8·lanes·n bytes, far past the slack.
	budget := 1.1*float64(8*(3*n+lanes*rootCols)) + 1024
	t.Logf("Solve: %.0f allocations, %.0f bytes per call (budget %.0f; n = %d, %d lanes × %d root columns)",
		allocs, bytes, budget, n, lanes, rootCols)
	if bytes > budget {
		t.Fatalf("Solve allocates %.0f bytes per call, budget %.0f", bytes, budget)
	}
	if maxAllocs := float64(8 + 3*lanes); allocs > maxAllocs {
		t.Fatalf("Solve averaged %.1f allocations, want ≤ %.0f", allocs, maxAllocs)
	}
}
