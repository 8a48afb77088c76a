package server

import (
	"fmt"

	"blockfanout/internal/core"
	"blockfanout/internal/mapping"
	"blockfanout/internal/plancache"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/tune"
)

// tuneFromMeasurement closes the feedback loop after a measured first
// factorization: it aggregates the recorder's spans into a cost profile,
// searches grid shapes for the remap with the smallest predicted makespan,
// and — only when that strictly beats the static mapping's predicted
// makespan on the same measured costs — builds the tuned plan (provenance
// folded into its configuration key), caches it, links it to the static
// entry, persists the profile, and re-registers the just-computed numeric
// blocks under the tuned ownership via RestoreFactor. No second numeric
// factorization happens; only the owners change.
//
// Called with the factor entry's write lock held. Returns (nil, nil) when
// the measurement is unusable or the remap does not win; the static factor
// then stands.
func (l *Local) tuneFromMeasurement(sentry *plancache.Entry, m *sparse.Matrix, f *core.Factor) (*core.Factor, *core.Plan) {
	s := l.s
	rec := f.Recorder()
	s.met.tuneDropped.Add(rec.Dropped())
	prof, err := tune.BuildProfile(rec, f.Program(), m.PatternHash(), s.planKey)
	if err != nil {
		// Truncated or empty recording: a biased profile must not steer the
		// mapping. The next cold factorization of the pattern re-measures.
		s.met.tuneSkipped.Add(1)
		return nil, nil
	}
	tm, tunedMax := tune.Search(prof, s.cfg.Procs)
	if tm == nil {
		s.met.tuneSkipped.Add(1)
		return nil, nil
	}
	var staticMax int64
	for _, l := range prof.PredictedLoads(sentry.Assign.Owner, s.cfg.Procs) {
		if l > staticMax {
			staticMax = l
		}
	}
	if tunedMax >= staticMax {
		s.met.tuneDeclined.Add(1)
		return nil, nil
	}

	te, tunedKey, err := l.insertTuned(sentry.Plan, prof, tm, m)
	if err != nil {
		s.met.tuneSkipped.Add(1)
		return nil, nil
	}
	tf, err := te.Plan.RestoreFactor(te.Assign, m.Val, f.Numeric().ExportBlocks())
	if err != nil {
		s.met.tuneSkipped.Add(1)
		return nil, nil
	}
	s.cache.SetTuned(sentry, tunedKey)
	s.met.tuneAdopted.Add(1)
	if s.st != nil {
		// Synchronous, once per pattern per process lifetime: the profile is
		// tiny (sparse triples) and losing it would cost a re-measure after
		// restart, not correctness.
		if err := s.st.PutProfile(prof.Snapshot()); err != nil {
			s.met.snapErrors.Add(1)
		}
	}
	return tf, te.Plan
}

// insertTuned builds the tuned sibling of a static plan — the same
// analysis with MapTuned provenance and the profile fingerprint folded into
// its configuration key — and caches it under that key. The tuned
// assignment uses the measured mapping's ownership directly (no domain
// override: the adoption decision compared predicted loads under exactly
// this ownership, and a domain layer would silently re-route panels away
// from the mapping that won).
func (l *Local) insertTuned(static *core.Plan, prof *tune.CostProfile, tm *mapping.Mapping, m *sparse.Matrix) (*plancache.Entry, uint64, error) {
	tp := *static // Plan is plain data; the analysis (A, Sym, BS) is shared read-only
	tp.Opts.MapSource = core.MapTuned
	tp.Opts.MapFingerprint = prof.Fingerprint()
	tunedKey := tp.Opts.ConfigKey()
	te, _, err := l.s.cache.GetOrBuild(m, tunedKey, func() (*core.Plan, sched.Assignment, error) {
		return &tp, tp.Assign(tm, 0), nil
	})
	if err != nil {
		return nil, 0, err
	}
	return te, tunedKey, nil
}

// restoreTuned rebuilds tuned mappings from persisted cost profiles before
// the static warm-start pass runs. For every profile measured under this
// server's configuration it re-runs the deterministic remap search, caches
// static and tuned plan entries, re-links them, and — when a factor
// snapshot written under the tuned key exists — restores the live factor
// under the tuned ownership so the pattern's id claims first (the static
// pass skips already-claimed ids). Returns the number of live factors
// restored tuned.
func (l *Local) restoreTuned() int {
	s := l.s
	if !s.cfg.Tune {
		return 0
	}
	restored := 0
	s.TunedProfiles(func(hash uint64, prof *tune.CostProfile) bool {
		if prof.Procs != s.cfg.Procs {
			// Measured at a different parallel width than this process
			// serves: re-measure rather than trust it.
			return false
		}
		tm, _ := tune.Search(prof, s.cfg.Procs)
		if tm == nil {
			return true
		}
		tunedOpts := s.planOpts
		tunedOpts.MapSource = core.MapTuned
		tunedOpts.MapFingerprint = prof.Fingerprint()
		tunedKey := tunedOpts.ConfigKey() // must match insertTuned's key: se.Plan.Opts == s.planOpts

		// The matrix comes from a factor snapshot: prefer the tuned-key one
		// (it also restores the live factor); fall back to the static one
		// (then only the plan link is restored — the next factorization of
		// the pattern runs tuned without re-measuring).
		fs, ferr := s.st.GetFactor(hash, tunedKey)
		liveTuned := ferr == nil
		if !liveTuned {
			if fs, ferr = s.st.GetFactor(hash, s.planKey); ferr != nil {
				return true // no snapshot holds the pattern; profile waits for a re-POST
			}
		}
		mtx, err := fs.Matrix()
		if err != nil {
			return true
		}
		se, _, err := s.cache.GetOrBuild(mtx, s.planKey, func() (*core.Plan, sched.Assignment, error) {
			return s.buildPlan(mtx)
		})
		if err != nil {
			return true
		}
		if se.Plan.BS.N() != prof.N {
			// The profile's block grid no longer matches what this build
			// produces for the pattern: stale measurement.
			return false
		}
		te, tkey, err := l.insertTuned(se.Plan, prof, tm, mtx)
		if err != nil {
			return true
		}
		s.cache.SetTuned(se, tkey)
		if !liveTuned {
			return true
		}
		f, err := te.Plan.RestoreSnapshot(te.Assign, fs)
		if err != nil {
			s.st.DeleteFactor(hash, tunedKey)
			return true
		}
		if l.restore(fmt.Sprintf("%016x", hash), fs.N, te.Plan, f) {
			restored++
		}
		return true
	})
	s.met.tuneRestored.Store(int64(restored))
	return restored
}
