package core

import (
	"context"
	"errors"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/store"
)

// TestSnapshotDiskRoundTrip files a parallel factor computed under
// domains in a store, reloads it through a fresh handle on the same
// directory with the calls a restarted server makes (GetFactor, Matrix,
// NewPlan, RestoreSnapshot), and holds the restored factor's Solve and
// SolveMany to the original's bit for bit (subtests Solve, SolveMany,
// Reopen). A snapshot filed under another configuration key is refused.
func TestSnapshotDiskRoundTrip(t *testing.T) {
	m := gen.IrregularMesh(400, 6, 3, 5)
	opts := Options{BlockSize: 8}
	f := laneFactor(t, m, opts, 4, 2)
	if f.Program().Split == nil {
		t.Fatal("domain factor carries no lane split")
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutFactor(f.Snapshot()); err != nil {
		t.Fatal(err)
	}

	if st, err = store.Open(dir); err != nil {
		t.Fatal(err)
	}
	fs, err := st.GetFactor(m.PatternHash(), f.Plan().Opts.ConfigKey())
	if err != nil {
		t.Fatal(err)
	}
	mm, err := fs.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(mm, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := plan.Assign(plan.Map(mapping.BestGrid(4), mapping.ID, mapping.CY), 2)
	rf, err := plan.RestoreSnapshot(a, fs)
	if err != nil {
		t.Fatal(err)
	}

	// Solve: the restored factor answers one right-hand side exactly as
	// the original does, and refuses one of the wrong length.
	t.Run("Solve", func(t *testing.T) {
		b := rhsSet(m.N, 1)[0]
		want, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rf.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("restored x[%d] = %g, original %g", i, got[i], want[i])
		}
		if _, err := rf.Solve(b[:4]); err == nil {
			t.Fatal("short right-hand side accepted")
		}
	})

	// SolveMany: several right-hand sides at once, bit for bit, and each
	// answer solves the original matrix.
	t.Run("SolveMany", func(t *testing.T) {
		bs := rhsSet(m.N, 3)
		want, err := f.SolveMany(bs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rf.SolveMany(bs)
		if err != nil {
			t.Fatal(err)
		}
		for r := range want {
			if i := firstBitDiff(got[r], want[r]); i >= 0 {
				t.Fatalf("rhs %d: restored x[%d] = %g, original %g", r, i, got[r][i], want[r][i])
			}
			if res := m.ResidualNorm(got[r], bs[r]); res > 1e-9 {
				t.Fatalf("rhs %d: residual %g", r, res)
			}
		}
	})

	// Reopen: a fresh handle on the directory finds the snapshot only
	// under the keys it was filed with, and a store in another directory
	// has none.
	t.Run("Reopen", func(t *testing.T) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		key := f.Plan().Opts.ConfigKey()
		if _, err := st.GetFactor(m.PatternHash(), key); err != nil {
			t.Fatal(err)
		}
		if _, err := st.GetFactor(m.PatternHash(), key^1); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("other configuration key: want ErrNotFound, got %v", err)
		}
		empty, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := empty.GetFactor(m.PatternHash(), key); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("empty store: want ErrNotFound, got %v", err)
		}
	})

	other := *fs
	other.ConfigKey ^= 1
	if _, err := plan.RestoreSnapshot(a, &other); err == nil {
		t.Fatal("snapshot under another configuration key restored")
	}

	// The snapshot owns its values. After a first refactor the factor's
	// values are private and the next refactor overwrites them in place;
	// a snapshot cut between the two keeps the values it was cut with.
	scaled := func(c float64) []float64 {
		v := append([]float64(nil), m.Val...)
		for i := range v {
			v[i] *= c
		}
		return v
	}
	v2 := scaled(2)
	if err := f.RefactorContext(context.Background(), v2, nil); err != nil {
		t.Fatal(err)
	}
	cut := f.Snapshot()
	if err := f.RefactorContext(context.Background(), scaled(3), nil); err != nil {
		t.Fatal(err)
	}
	if i := firstBitDiff(cut.Val, v2); i >= 0 {
		t.Fatalf("refactor changed the snapshot's value %d", i)
	}
}
