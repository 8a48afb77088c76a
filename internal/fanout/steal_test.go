package fanout

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"blockfanout/internal/blocks"
	"blockfanout/internal/gen"
	"blockfanout/internal/kernels"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
	"blockfanout/internal/obs"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// setupIrregular prepares a block structure over the structure-aware
// irregular partition (amalgamation + supernode-aligned panels), the
// blocking the work-stealing executor exists to serve.
func setupIrregular(t testing.TB, m *sparse.Matrix, method ord.Method, gridDim, maxPanel int) (*blocks.Structure, *sparse.Matrix) {
	t.Helper()
	p, err := ord.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, _, st, err := symbolic.AnalyzeOrdering(m, p, symbolic.RelativeAmalgamation(0.125))
	if err != nil {
		t.Fatal(err)
	}
	part, err := blocks.NewPartitionIrregular(st, blocks.IrregularConfig{MaxPanel: maxPanel})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blocks.Build(st, part)
	if err != nil {
		t.Fatal(err)
	}
	return bs, m2
}

// compareToSequential factors in parallel with the given executor mode and
// checks every stored entry against the sequential reference.
func compareToSequential(t *testing.T, bs *blocks.Structure, pm *sparse.Matrix, a sched.Assignment, mode Mode, tol float64) {
	t.Helper()
	seq, err := numeric.New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.FactorSequential(); err != nil {
		t.Fatal(err)
	}
	par, err := numeric.New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	pr := sched.Build(bs, a)
	if _, err := NewExecutorMode(par, pr, mode).Run(); err != nil {
		t.Fatal(err)
	}
	for j := range bs.Cols {
		for bi := range bs.Cols[j].Blocks {
			sd, pd := seq.Data[j][bi], par.Data[j][bi]
			for k := range sd {
				if math.Abs(sd[k]-pd[k]) > tol*(1+math.Abs(sd[k])) {
					t.Fatalf("block (%d,%d) entry %d: seq %g par %g",
						bs.Cols[j].Blocks[bi].I, j, k, sd[k], pd[k])
				}
			}
		}
	}
}

// TestWorkStealingRandomizedBlockSizes stresses the stealing executor over
// randomized uniform block sizes, randomized irregular partitions, and
// varying grids, always comparing against the sequential factorization.
// Runs under -race in CI.
func TestWorkStealingRandomizedBlockSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	grids := []mapping.Grid{{Pr: 1, Pc: 1}, {Pr: 2, Pc: 2}, {Pr: 2, Pc: 4}, {Pr: 4, Pc: 4}, {Pr: 3, Pc: 5}}
	iters := 8
	if testing.Short() {
		iters = 3
	}
	for i := 0; i < iters; i++ {
		m := gen.IrregularMesh(150+rng.Intn(150), 4+rng.Intn(3), 3, uint64(rng.Int63()))
		g := grids[rng.Intn(len(grids))]
		if i%2 == 0 {
			b := 2 + rng.Intn(15) // randomized uniform block size
			_, bs, pm := setup(t, m, ord.MinDegree, 0, b)
			compareToSequential(t, bs, pm, sched.Assignment{Map: mapping.Cyclic(g, bs.N())}, ModeWorkStealing, 1e-9)
		} else {
			maxPanel := 4 + rng.Intn(28) // randomized irregular panel cap
			bs, pm := setupIrregular(t, m, ord.MinDegree, 0, maxPanel)
			compareToSequential(t, bs, pm, sched.Assignment{Map: mapping.Cyclic(g, bs.N())}, ModeWorkStealing, 1e-9)
		}
	}
}

// TestWorkStealingCancelMidRun cancels at randomized points — including
// while workers are actively stealing from each other's deques, or, under
// ModeSPMD, sending to each other's inbox channels — and requires every
// outcome to be either clean success or a context error, with the executor
// fully reusable afterwards (reset must drain stranded inbox entries). Runs
// under -race in CI.
func TestWorkStealingCancelMidRun(t *testing.T) {
	_, bs, pm := setup(t, gen.IrregularMesh(300, 6, 3, 77), ord.MinDegree, 0, 6)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 4, Pc: 4}, bs.N())})
	for _, mode := range []Mode{ModeWorkStealing, ModeSPMD} {
		t.Run(mode.String(), func(t *testing.T) {
			f, err := numeric.New(bs, pm)
			if err != nil {
				t.Fatal(err)
			}
			ex := NewExecutorMode(f, pr, mode)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 30; i++ {
				if err := f.Reload(pm.Val); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				delay := time.Duration(rng.Intn(2_000_000)) // 0–2ms: lands anywhere in the run
				timer := time.AfterFunc(delay, cancel)
				_, err := ex.RunContext(ctx)
				timer.Stop()
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("iteration %d: unexpected error %v", i, err)
				}
			}
			// The executor must still produce a correct factor after all that.
			if err := f.Reload(pm.Val); err != nil {
				t.Fatal(err)
			}
			if _, err := ex.Run(); err != nil {
				t.Fatal(err)
			}
			b := make([]float64, pm.N)
			for i := range b {
				b[i] = 1
			}
			x := f.Solve(b, nil)
			if r := pm.ResidualNorm(x, b); r > 1e-8 {
				t.Fatalf("residual %g after cancellation stress", r)
			}
		})
	}
}

// TestWorkStealingPivotInjection poisons randomized subsets of seed
// diagonal blocks and asserts the deterministic first-error contract under
// work stealing: every run of a given poison set reports the PivotError
// with the lowest (Block, Row). Runs under -race in CI.
func TestWorkStealingPivotInjection(t *testing.T) {
	_, bs, pm := setup(t, gen.Grid2D(12), ord.NDGrid2D, 12, 4)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 3, Pc: 3}, bs.N())})
	var seeds []int
	for k := range bs.Cols {
		if pr.NMods[pr.BlockID(k, 0)] == 0 {
			seeds = append(seeds, k)
		}
	}
	if len(seeds) < 3 {
		t.Fatalf("want ≥3 seed panels, got %d", len(seeds))
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(len(seeds))
		poison := perm[:2+rng.Intn(2)]
		lowest := seeds[poison[0]]
		bad := pm.Clone()
		for _, pi := range poison {
			k := seeds[pi]
			if k < lowest {
				lowest = k
			}
			j := bs.Part.Start[k]
			bad.Val[bad.ColPtr[j]] = -3
		}
		f, err := numeric.New(bs, bad)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(f, pr)
		for run := 0; run < 10; run++ {
			if err := f.Reload(bad.Val); err != nil {
				t.Fatal(err)
			}
			_, err := ex.Run()
			var pe *kernels.PivotError
			if !errors.As(err, &pe) {
				t.Fatalf("trial %d run %d: got %v, want *PivotError", trial, run, err)
			}
			if pe.Block != lowest || pe.Row != bs.Part.Start[lowest] {
				t.Fatalf("trial %d run %d: PivotError{Block:%d Row:%d}, want {Block:%d Row:%d}",
					trial, run, pe.Block, pe.Row, lowest, bs.Part.Start[lowest])
			}
		}
	}
}

// TestSPMDModeEquivalence keeps the paper-faithful SPMD engine covered now
// that work stealing is the default: it must still match the sequential
// factorization across grids, block sizes, and the irregular partition.
func TestSPMDModeEquivalence(t *testing.T) {
	_, bs, pm := setup(t, gen.IrregularMesh(250, 5, 3, 31), ord.MinDegree, 0, 8)
	for _, g := range []mapping.Grid{{Pr: 1, Pc: 1}, {Pr: 2, Pc: 3}, {Pr: 4, Pc: 4}} {
		compareToSequential(t, bs, pm, sched.Assignment{Map: mapping.Cyclic(g, bs.N())}, ModeSPMD, 1e-9)
	}
	ibs, ipm := setupIrregular(t, gen.IrregularMesh(220, 5, 3, 5), ord.MinDegree, 0, 12)
	compareToSequential(t, ibs, ipm, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, ibs.N())}, ModeSPMD, 1e-9)
}

// TestSPMDPivotDeterminism mirrors TestPivotErrorDeterministic for the
// explicitly-selected SPMD engine.
func TestSPMDPivotDeterminism(t *testing.T) {
	_, bs, pm := setup(t, gen.Grid2D(12), ord.NDGrid2D, 12, 4)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
	var seeds []int
	for k := range bs.Cols {
		if pr.NMods[pr.BlockID(k, 0)] == 0 {
			seeds = append(seeds, k)
		}
	}
	lo, hi := seeds[0], seeds[len(seeds)-1]
	bad := pm.Clone()
	for _, k := range []int{lo, hi} {
		bad.Val[bad.ColPtr[bs.Part.Start[k]]] = -7
	}
	f, err := numeric.New(bs, bad)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutorMode(f, pr, ModeSPMD)
	for run := 0; run < 10; run++ {
		if err := f.Reload(bad.Val); err != nil {
			t.Fatal(err)
		}
		_, err := ex.Run()
		var pe *kernels.PivotError
		if !errors.As(err, &pe) {
			t.Fatalf("run %d: got %v, want *PivotError", run, err)
		}
		if pe.Block != lo {
			t.Fatalf("run %d: block %d, want %d", run, pe.Block, lo)
		}
	}
}

// TestSPMDOwnerComputes pins down what makes ModeSPMD the paper's method
// rather than just another correct schedule: every BFAC/BDIV/BMOD of block
// d runs on worker Owner[d], nothing is stolen, and every operation runs
// exactly once. The 1e-12 equivalence tests cannot see a placement leak —
// a misplaced operation computes the same numbers — so this checks the
// spans directly, over repeated runs to give a racy leak room to show.
func TestSPMDOwnerComputes(t *testing.T) {
	_, bs, pm := setup(t, gen.IrregularMesh(400, 6, 3, 5), ord.MinDegree, 0, 8)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
	f, err := numeric.New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutorMode(f, pr, ModeSPMD)
	rec := ex.NewMeasureRecorder()
	rec.Enable()
	want := pr.NBlocks + len(pr.ModDest)
	for run := 0; run < 20; run++ {
		rec.Reset()
		if err := f.Reload(pm.Val); err != nil {
			t.Fatal(err)
		}
		st, err := ex.Run()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if st.Steals != 0 {
			t.Fatalf("run %d: Stats.Steals = %d under ModeSPMD", run, st.Steals)
		}
		if rec.Dropped() != 0 {
			t.Fatalf("run %d: measure recorder dropped %d spans", run, rec.Dropped())
		}
		compute := 0
		for _, s := range rec.Spans() {
			switch s.Op {
			case obs.OpBFAC, obs.OpBDIV, obs.OpBMOD:
				compute++
				if owner := pr.Owner[s.Block]; s.Proc != owner {
					t.Fatalf("run %d: %v of block %d ran on worker %d, owner is %d", run, s.Op, s.Block, s.Proc, owner)
				}
			case obs.OpSteal:
				t.Fatalf("run %d: worker %d stole block %d under ModeSPMD", run, s.Proc, s.Block)
			}
		}
		if compute != want {
			t.Fatalf("run %d: %d compute spans, want NBlocks+mods = %d", run, compute, want)
		}
	}
}
