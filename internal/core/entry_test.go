package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/fanout"
	"blockfanout/internal/gen"
	"blockfanout/internal/kernels"
	"blockfanout/internal/mapping"
	"blockfanout/internal/obs"
	"blockfanout/internal/oracle"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// scaledValues returns m's values with off-diagonals times off and the
// diagonal times diag: SPD again whenever m is diagonally dominant and
// off ≤ 1 ≤ diag.
func scaledValues(m *sparse.Matrix, off, diag float64) []float64 {
	vals := append([]float64(nil), m.Val...)
	for j := 0; j < m.N; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if m.RowInd[p] == j {
				vals[p] *= diag
			} else {
				vals[p] *= off
			}
		}
	}
	return vals
}

// reference factors values (laid out like plan.A.Val) with the
// up-looking oracle on the plan's permuted pattern.
func reference(t *testing.T, plan *Plan, values []float64) *oracle.Factor {
	t.Helper()
	pav := make([]float64, len(values))
	for q, src := range plan.ValMap {
		pav[q] = values[src]
	}
	ref, err := oracle.UpLooking(&sparse.Matrix{N: plan.PA.N, ColPtr: plan.PA.ColPtr, RowInd: plan.PA.RowInd, Val: pav})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// agrees reports the first block entry of f that differs from ref by more
// than 1e-12 relative, or nil.
func agrees(f *Factor, ref *oracle.Factor) error {
	part := f.plan.BS.Part
	for j, col := range f.plan.BS.Cols {
		w := part.Width(j)
		for bi, blk := range col.Blocks {
			data := f.nf.Data[j][bi]
			for s, grow := range blk.Rows {
				for c := 0; c < w; c++ {
					gcol := part.Start[j] + c
					if grow < gcol {
						continue
					}
					got, want := data[s*w+c], ref.At(grow, gcol)
					if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
						return fmt.Errorf("L(%d,%d) = %g, reference %g", grow, gcol, got, want)
					}
				}
			}
		}
	}
	return nil
}

// computeSpans counts a recording's BFAC/BDIV/BMOD spans.
func computeSpans(rec *obs.Recorder) int {
	n := 0
	for _, s := range rec.Spans() {
		switch s.Op {
		case obs.OpBFAC, obs.OpBDIV, obs.OpBMOD:
			n++
		}
	}
	return n
}

// TestRecordCoversOneFactorization: FactorOpts.Record records the
// factorization it was asked for and nothing after it — a refactor of the
// same factor adds no span and no drop to the recording.
func TestRecordCoversOneFactorization(t *testing.T) {
	plan, _, vals := refactorFixture(t)
	a := plan.Assign(plan.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY), 2)
	f, err := plan.Factor(context.Background(), a, FactorOpts{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := f.Recorder()
	spans, dropped := len(rec.Spans()), rec.Dropped()
	if want := f.Program().NBlocks + len(f.Program().ModDest); computeSpans(rec) != want || dropped != 0 {
		t.Fatalf("recording holds %d compute spans (%d dropped), want %d and 0", computeSpans(rec), dropped, want)
	}
	for i := 0; i < 3; i++ {
		if err := f.RefactorContext(context.Background(), vals, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.Spans()) != spans || rec.Dropped() != dropped {
		t.Fatalf("refactors changed the recording: %d spans (%d dropped), was %d (%d)",
			len(rec.Spans()), rec.Dropped(), spans, dropped)
	}
}

// TestFactorEntryMatrix is the configuration-matrix differential test of
// the one factor entry point: every blocking × placement × FactorOpts cell
// factors, refactors with fresh values and round-trips through
// RestoreFactor, agreeing with the up-looking oracle to 1e-12 throughout; and
// on one indefinite input every cell reports the same breakdown — the same
// global row, in the panel of its own blocking that holds that row (the
// same (block, row) wherever the partitions coincide) — except under
// Perturb, which factors it with a positive shift instead.
func TestFactorEntryMatrix(t *testing.T) {
	t.Parallel()
	m := gen.IrregularMesh(240, 6, 3, 29)
	spd := scaledValues(m, 0.7, 1.3)
	fresh := scaledValues(m, 0.5, 2)
	const badCol = 57
	bad := append([]float64(nil), m.Val...)
	bad[m.ColPtr[badCol]] = -bad[m.ColPtr[badCol]]

	opts := []struct {
		name string
		o    FactorOpts
	}{
		{"plain", FactorOpts{}},
		{"values", FactorOpts{Values: spd}},
		{"perturb", FactorOpts{Perturb: &Perturbation{}}},
		{"record", FactorOpts{Record: true}},
	}
	for _, blocking := range []blocks.Strategy{blocks.StrategyUniform, blocks.StrategyIrregular} {
		for _, mode := range []fanout.Mode{fanout.ModeWorkStealing, fanout.ModeSPMD} {
			for _, c := range opts {
				blocking, mode, c := blocking, mode, c
				t.Run(fmt.Sprintf("%v/%v/%s", blocking, mode, c.name), func(t *testing.T) {
					t.Parallel()
					plan, err := NewPlan(m, Options{Ordering: ord.MinDegree, BlockSize: 8, Blocking: blocking, Exec: mode})
					if err != nil {
						t.Fatal(err)
					}
					a := plan.Assign(plan.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY), 2)
					ctx := context.Background()

					f, err := plan.Factor(ctx, a, c.o)
					if err != nil {
						t.Fatal(err)
					}
					factored := m.Val
					if c.o.Values != nil {
						factored = c.o.Values
					}
					if err := agrees(f, reference(t, plan, factored)); err != nil {
						t.Fatalf("factor: %v", err)
					}
					if f.Shift() != 0 {
						t.Fatalf("SPD input factored with shift %g", f.Shift())
					}
					if c.o.Record {
						rec := f.Recorder()
						want := f.Program().NBlocks + len(f.Program().ModDest)
						if got := computeSpans(rec); got != want || rec.Dropped() != 0 {
							t.Fatalf("recording: %d compute spans, %d dropped; want %d and 0", got, rec.Dropped(), want)
						}
					} else if f.Recorder() != nil {
						t.Fatal("recorder attached without Record")
					}

					ref := reference(t, plan, fresh)
					if err := f.RefactorContext(ctx, fresh, c.o.Perturb); err != nil {
						t.Fatal(err)
					}
					if err := agrees(f, ref); err != nil {
						t.Fatalf("refactor: %v", err)
					}
					rf, err := plan.RestoreFactor(a, fresh, f.Numeric().ExportBlocks())
					if err != nil {
						t.Fatal(err)
					}
					if err := agrees(rf, ref); err != nil {
						t.Fatalf("restore: %v", err)
					}
					b := make([]float64, m.N)
					for i := range b {
						b[i] = 1
					}
					if x, err := rf.Solve(b); err != nil || rf.Residual(x, b) > 1e-10 {
						t.Fatalf("restored factor does not solve the snapshot's matrix (err %v)", err)
					}
					if err := rf.RefactorContext(ctx, factored, c.o.Perturb); err != nil {
						t.Fatal(err)
					}
					if err := agrees(rf, reference(t, plan, factored)); err != nil {
						t.Fatalf("refactor after restore: %v", err)
					}

					// The indefinite matrix reaches each cell the way its
					// options name: as posted values, or as the plan's own.
					mb := &sparse.Matrix{N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: bad}
					pb, err := NewPlan(mb, plan.Opts)
					if err != nil {
						t.Fatal(err)
					}
					ob := c.o
					if ob.Values != nil {
						ob.Values = bad
					}
					fb, err := pb.Factor(ctx, pb.Assign(pb.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY), 2), ob)
					if c.o.Perturb != nil {
						if err != nil || fb.Shift() <= 0 {
							t.Fatalf("perturbed indefinite factor: err %v", err)
						}
						return
					}
					var pe *kernels.PivotError
					if !errors.As(err, &pe) {
						t.Fatalf("indefinite input: got %v, want *kernels.PivotError", err)
					}
					row := 0
					for pb.Perm[row] != badCol {
						row++
					}
					if pe.Row != row || pe.Block != pb.BS.Part.PanelOf[row] {
						t.Fatalf("breakdown at (block %d, row %d), want (%d, %d)", pe.Block, pe.Row, pb.BS.Part.PanelOf[row], row)
					}
				})
			}
		}
	}
}
