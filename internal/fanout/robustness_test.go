package fanout

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"blockfanout/internal/gen"
	"blockfanout/internal/kernels"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sched"
)

// TestPivotErrorDeterministic poisons two seed diagonal blocks owned (in
// general) by different processors and runs the parallel factorization many
// times: every run must report the same structured PivotError — the lowest
// (Block, Row) — no matter how the goroutines interleave. Runs under -race
// in CI.
func TestPivotErrorDeterministic(t *testing.T) {
	_, bs, pm := setup(t, gen.Grid2D(12), ord.NDGrid2D, 12, 4)
	for _, g := range []mapping.Grid{{Pr: 2, Pc: 2}, {Pr: 3, Pc: 3}} {
		pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(g, bs.N())})

		// Seed panels: diagonal blocks with no pending modifications. These
		// always execute on every run, so breakdowns there are fully
		// deterministic.
		var seeds []int
		for k := range bs.Cols {
			if pr.NMods[pr.BlockID(k, 0)] == 0 {
				seeds = append(seeds, k)
			}
		}
		if len(seeds) < 2 {
			t.Fatalf("grid %v: want ≥2 seed panels, got %d", g, len(seeds))
		}
		lo, hi := seeds[0], seeds[len(seeds)-1]

		bad := pm.Clone()
		for _, k := range []int{lo, hi} {
			j := bs.Part.Start[k]
			bad.Val[bad.ColPtr[j]] = -7
		}
		f, err := numeric.New(bs, bad)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(f, pr)
		for run := 0; run < 25; run++ {
			if err := f.Reload(bad.Val); err != nil {
				t.Fatal(err)
			}
			_, err := ex.Run()
			var pe *kernels.PivotError
			if !errors.As(err, &pe) {
				t.Fatalf("grid %v run %d: got %v, want *PivotError", g, run, err)
			}
			if !errors.Is(err, kernels.ErrNotPositiveDefinite) {
				t.Fatalf("grid %v run %d: %v does not match sentinel", g, run, err)
			}
			if pe.Block != lo || pe.Row != bs.Part.Start[lo] {
				t.Fatalf("grid %v run %d: PivotError{Block:%d Row:%d}, want {Block:%d Row:%d}",
					g, run, pe.Block, pe.Row, lo, bs.Part.Start[lo])
			}
		}
	}
}

// TestRefactorAfterBreakdown checks the executor is reusable after a failed
// run under either placement: reset must clear the abort machinery and
// drain stranded inbox entries so a Reload + Run on good values succeeds.
func TestRefactorAfterBreakdown(t *testing.T) {
	_, bs, pm := setup(t, gen.Grid2D(10), ord.NDGrid2D, 10, 4)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
	bad := pm.Clone()
	bad.Val[bad.ColPtr[0]] = -5
	for _, mode := range []Mode{ModeWorkStealing, ModeSPMD} {
		t.Run(mode.String(), func(t *testing.T) {
			f, err := numeric.New(bs, bad)
			if err != nil {
				t.Fatal(err)
			}
			ex := NewExecutorMode(f, pr, mode)
			for cycle := 0; cycle < 3; cycle++ {
				if err := f.Reload(bad.Val); err != nil {
					t.Fatal(err)
				}
				if _, err := ex.Run(); !errors.Is(err, kernels.ErrNotPositiveDefinite) {
					t.Fatalf("cycle %d: bad values: got %v", cycle, err)
				}
				if err := f.Reload(pm.Val); err != nil {
					t.Fatal(err)
				}
				if _, err := ex.Run(); err != nil {
					t.Fatalf("cycle %d: good values after breakdown: %v", cycle, err)
				}
				b := make([]float64, pm.N)
				for i := range b {
					b[i] = 1
				}
				x := f.Solve(b, nil)
				if r := pm.ResidualNorm(x, b); r > 1e-8 {
					t.Fatalf("cycle %d: residual %g after recovery", cycle, r)
				}
			}
		})
	}
}

// TestCancellationLatency asserts the cancellation-observation bound: every
// worker polls the abort channel between block operations, so RunContext
// must return within a generous wall-clock budget of the cancel — far less
// than a full factorization. Runs under -race in CI.
func TestCancellationLatency(t *testing.T) {
	_, bs, pm := setup(t, gen.Cube3D(10), ord.NDCube3D, 10, 8)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
	f, err := numeric.New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f, pr)

	// Pre-cancelled context: the run must abort after at most the seed
	// operations plus one block operation per worker.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = ex.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("pre-cancelled run took %v to abort", d)
	}

	// Mid-run cancel: the extra time after cancel() fires is bounded by one
	// block operation per worker (generous 2s budget; a full factorization
	// of this problem is orders of magnitude more block operations). The
	// cancel fires from the completion hook after a quarter of the blocks
	// are final, so it always lands mid-run whatever the machine's speed;
	// the hook holds its worker until the abort is visible, and the
	// holding worker's block is not yet retired, so the run cannot finish
	// before the cancellation is observed.
	if err := f.Reload(pm.Val); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var (
		completions atomic.Int32
		cancelled   time.Time
		mid         *Executor
	)
	trigger := int32(pr.NBlocks / 4)
	mid = NewExecutorRestricted(f, pr, &Restriction{
		OnComplete: func(id int32) {
			if completions.Add(1) != trigger {
				return
			}
			cancelled = time.Now()
			cancel2()
			<-mid.abort
		},
	})
	_, err = mid.RunContext(ctx2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: got %v", err)
	}
	if cancelled.IsZero() {
		t.Fatalf("cancel never fired: %d of %d blocks completed", completions.Load(), pr.NBlocks)
	}
	if d := time.Since(cancelled); d > 2*time.Second {
		t.Fatalf("run kept going %v after cancellation", d)
	}
	if n := completions.Load(); n >= int32(pr.NBlocks) {
		t.Fatalf("all %d blocks completed after a mid-run cancel", n)
	}
}
