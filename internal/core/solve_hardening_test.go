package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
)

// TestSolveRejectsBadRHS table-drives the total-function contract of every
// solve entry point: dimension-mismatched or non-finite right-hand sides
// must produce descriptive errors, never panics — the serving layer calls
// these with untrusted request bodies.
func TestSolveRejectsBadRHS(t *testing.T) {
	a := gen.Grid2D(12)
	plan, err := NewPlan(a, Options{Ordering: order.NDGrid2D, GridDim: 12, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	f, err := plan.Factor(context.Background(), plan.Assign(plan.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY), 2), FactorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := a.N

	good := make([]float64, n)
	for i := range good {
		good[i] = 1
	}
	withNaN := append([]float64(nil), good...)
	withNaN[n/2] = math.NaN()
	withInf := append([]float64(nil), good...)
	withInf[0] = math.Inf(-1)

	cases := []struct {
		name    string
		b       []float64
		wantErr string // substring; empty means success expected
	}{
		{"ok", good, ""},
		{"nil", nil, "length"},
		{"empty", []float64{}, "length"},
		{"short", good[:n-1], "length"},
		{"long", append(append([]float64(nil), good...), 1), "length"},
		{"nan", withNaN, "not finite"},
		{"inf", withInf, "not finite"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(op string, err error) {
				t.Helper()
				if tc.wantErr == "" {
					if err != nil {
						t.Fatalf("%s: unexpected error %v", op, err)
					}
					return
				}
				if err == nil {
					t.Fatalf("%s: no error for %s rhs", op, tc.name)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("%s: error %q does not mention %q", op, err, tc.wantErr)
				}
			}

			_, err := f.Solve(tc.b)
			check("Solve", err)
			_, err = f.SolveMany([][]float64{tc.b})
			check("SolveMany", err)
			_, _, _, err = f.SolveRefined(tc.b, 2, 1e-12)
			check("SolveRefined", err)
		})
	}

	// A bad vector anywhere in a batch fails the whole batch.
	if _, err := f.SolveMany([][]float64{good, withNaN, good}); err == nil {
		t.Fatal("SolveMany accepted a batch containing a NaN rhs")
	} else if !strings.Contains(err.Error(), "rhs 1") {
		t.Fatalf("SolveMany error %q does not identify the offending vector", err)
	}

	if _, _, _, err := f.SolveRefined(good, -1, 1e-12); err == nil {
		t.Fatal("SolveRefined accepted a negative iteration count")
	}
}
