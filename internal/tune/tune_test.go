package tune_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/obs"
	"blockfanout/internal/order"
	"blockfanout/internal/store"
	"blockfanout/internal/tune"
)

// measuredProfile runs one real measured factorization of a small
// irregular mesh and aggregates it into a profile.
func measuredProfile(t *testing.T, procs int) (*core.Plan, *tune.CostProfile) {
	t.Helper()
	m := gen.IrregularMesh(420, 8, 3, 7)
	plan, err := core.NewPlan(m, core.Options{Ordering: order.MinDegree, BlockSize: 12})
	if err != nil {
		t.Fatal(err)
	}
	g := mapping.BestGrid(procs)
	a := plan.Assign(plan.Map(g, mapping.ID, mapping.CY), 2)
	f, err := plan.Factor(context.Background(), a, core.FactorOpts{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, pr := f.Recorder(), f.Program()
	if rec.Dropped() != 0 {
		t.Fatalf("measure recorder dropped %d spans; NewMeasureRecorder must size lanes drop-free", rec.Dropped())
	}
	prof, err := tune.BuildProfile(rec, pr, m.PatternHash(), plan.Opts.ConfigKey())
	if err != nil {
		t.Fatal(err)
	}
	return plan, prof
}

// TestBuildProfileRefusesTruncated is the regression test for biased
// profiles: a recorder that overflowed its lanes under-represents late
// operations, and BuildProfile must refuse it with ErrTruncated instead
// of quietly producing a skewed cost signal (the old behaviour, when
// drops were not even counted).
func TestBuildProfileRefusesTruncated(t *testing.T) {
	rec := obs.NewRecorder(1, 2)
	rec.Enable()
	for k := 0; k < 5; k++ {
		rec.Record(0, obs.OpBFAC, int32(k), -1, rec.Start())
	}
	if rec.Dropped() == 0 {
		t.Fatal("recorder did not overflow; test needs a truncated recording")
	}
	_, err := tune.BuildProfile(rec, nil, 1, 2)
	if !errors.Is(err, tune.ErrTruncated) {
		t.Fatalf("BuildProfile on truncated recording: err = %v, want ErrTruncated", err)
	}
}

// TestSearchDeterministic is the remap determinism requirement: two remap
// searches from the same CostProfile must return identical mappings, so a
// tuned plan is reproducible from its persisted profile (warm start,
// gateway propagation) and never silently diverges between participants.
func TestSearchDeterministic(t *testing.T) {
	for _, procs := range []int{8, 12} {
		_, prof := measuredProfile(t, procs)
		m1, mk1 := tune.Search(prof, procs)
		m2, mk2 := tune.Search(prof, procs)
		if m1 == nil {
			t.Fatal("Search returned no mapping")
		}
		if mk1 != mk2 || !reflect.DeepEqual(m1, m2) {
			t.Fatalf("P=%d: two searches from one profile disagree: makespan %d vs %d, maps equal=%v",
				procs, mk1, mk2, reflect.DeepEqual(m1, m2))
		}
		// And through the durable representation: snapshot → restore →
		// search must reproduce the same mapping bit-for-bit.
		prof2, err := tune.FromSnapshot(prof.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		m3, _ := tune.Search(prof2, procs)
		if !reflect.DeepEqual(m1, m3) {
			t.Fatalf("P=%d: search after snapshot round-trip diverges", procs)
		}
	}
}

// TestSearchImprovesPredictedBalance: the tuned mapping's balance over
// the measured costs must be at least the serving default's — the
// adoption criterion the server applies.
func TestSearchImprovesPredictedBalance(t *testing.T) {
	const procs = 8
	plan, prof := measuredProfile(t, procs)
	g := mapping.BestGrid(procs)
	static := plan.Assign(plan.Map(g, mapping.ID, mapping.CY), 2)
	tm, _ := tune.Search(prof, procs)
	staticBal := tune.Balance(prof.PredictedLoads(static.Owner, procs))
	tunedBal := tune.Balance(prof.PredictedLoads(plan.Assign(tm, 0).Owner, procs))
	if tunedBal < staticBal {
		t.Fatalf("tuned predicted balance %.3f below static %.3f", tunedBal, staticBal)
	}
}

// TestTunedFactorMatchesStatic: a factorization under the tuned mapping
// must produce the same factor as the static mapping (ownership moves
// work, never changes results).
func TestTunedFactorMatchesStatic(t *testing.T) {
	const procs = 8
	plan, prof := measuredProfile(t, procs)
	tm, _ := tune.Search(prof, procs)
	seq, err := plan.FactorSequential()
	if err != nil {
		t.Fatal(err)
	}
	f, err := plan.Factor(context.Background(), plan.Assign(tm, 0), core.FactorOpts{Values: plan.A.Val})
	if err != nil {
		t.Fatal(err)
	}
	sd, pd := seq.Numeric().Data, f.Numeric().Data
	for j := range sd {
		for bi := range sd[j] {
			for k, v := range sd[j][bi] {
				w := pd[j][bi][k]
				diff := v - w
				if diff < 0 {
					diff = -diff
				}
				lim := 1e-12
				if v < 0 {
					lim *= 1 - v
				} else {
					lim *= 1 + v
				}
				if diff > lim {
					t.Fatalf("tuned factor diverges at column %d block %d entry %d: %g vs %g", j, bi, k, w, v)
				}
			}
		}
	}
}

// TestFromSnapshotRejectsCorrupt: a corrupted persisted profile must be
// rejected, not index out of range.
func TestFromSnapshotRejectsCorrupt(t *testing.T) {
	bad := []*store.ProfileSnapshot{
		{N: 0, Procs: 4},
		{N: 4, Procs: 0},
		{N: 4, Procs: 4, I: []int{1}, J: []int{1}},                    // missing cost
		{N: 4, Procs: 4, I: []int{4}, J: []int{0}, Cost: []int64{1}},  // i out of range
		{N: 4, Procs: 4, I: []int{0}, J: []int{-1}, Cost: []int64{1}}, // j out of range
	}
	for i, ps := range bad {
		if _, err := tune.FromSnapshot(ps); err == nil {
			t.Fatalf("case %d: corrupt snapshot accepted", i)
		}
	}
}

// TestFingerprintSensitive: profiles differing in any cost must have
// different fingerprints (the plan-cache aliasing guard).
func TestFingerprintSensitive(t *testing.T) {
	_, prof := measuredProfile(t, 8)
	fp := prof.Fingerprint()
	if fp2 := prof.Fingerprint(); fp2 != fp {
		t.Fatalf("fingerprint not deterministic: %x vs %x", fp, fp2)
	}
	// Perturb one nonzero cost.
	perturbed := false
outer:
	for i := range prof.Cost {
		for j, c := range prof.Cost[i] {
			if c != 0 {
				prof.Cost[i][j] = c + 1
				perturbed = true
				break outer
			}
		}
	}
	if !perturbed {
		t.Fatal("profile has no nonzero cost")
	}
	if prof.Fingerprint() == fp {
		t.Fatal("fingerprint unchanged after cost perturbation")
	}
}

// TestGridCandidatesShapes: candidates cover both orientations, stay
// within the requested bound, and multiply out to exactly p.
func TestGridCandidatesShapes(t *testing.T) {
	for _, p := range []int{1, 6, 8, 16, 24} {
		grids := tune.GridCandidates(p, tune.MaxGridCandidates)
		if len(grids) == 0 || len(grids) > tune.MaxGridCandidates {
			t.Fatalf("p=%d: %d candidates", p, len(grids))
		}
		for _, g := range grids {
			if g.P() != p {
				t.Fatalf("p=%d: candidate %dx%d covers %d procs", p, g.Pr, g.Pc, g.P())
			}
		}
	}
}
