// Package tune closes the feedback loop between measurement and mapping:
// it aggregates the per-block BFAC/BDIV/BMOD spans an obs.Recorder captured
// during a real factorization into a CostProfile of measured nanoseconds
// per block, then rebuilds the block→processor mapping from those measured
// costs instead of the modeled flop counts the §4 heuristics use
// (mapping.NewMeasured: greedy number partitioning plus a rectilinear-style
// alternating refinement). Measured costs fold in everything the flop
// model cannot see — cache behaviour of irregular panels, BMOD traffic,
// per-core throughput differences — which is why remap-after-measure beats
// every static heuristic on the irregular generators (the Yaşar et al. and
// Tzovas & Predari observation, applied to the paper's mappings).
//
// A profile is only trustworthy if the recording is complete: a recorder
// that dropped spans under-represents whatever ran late, so BuildProfile
// refuses truncated recordings outright (ErrTruncated). Use
// fanout.Executor.NewMeasureRecorder (via core.FactorOpts.Record) to get
// lanes sized so drops cannot happen.
package tune

import (
	"errors"
	"fmt"
	"sort"

	"blockfanout/internal/mapping"
	"blockfanout/internal/obs"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/store"
)

// ErrTruncated reports a recording that dropped spans: the span set is
// biased toward early operations and must not become a cost signal.
var ErrTruncated = errors.New("tune: recording dropped spans; refusing to build a biased cost profile")

// CostProfile is the measured cost of one factorization of one pattern:
// Cost[i][j] holds the total nanoseconds of compute spans attributed to
// block (i,j) — its own BFAC/BDIV plus every BMOD that targeted it — and
// zero for blocks outside the structure.
type CostProfile struct {
	PatternHash uint64 // pattern the measurement ran on
	ConfigKey   uint64 // static plan-configuration key it was analyzed under
	Procs       int    // parallel width of the measured run
	N           int    // block grid dimension (panels per side)
	Cost        [][]int64
}

// BuildProfile aggregates a recorder's spans against the schedule they were
// recorded under. It fails with ErrTruncated if the recorder dropped any
// span, and errors if no compute spans were recorded at all (a disabled or
// never-run recorder).
func BuildProfile(rec *obs.Recorder, pr *sched.Program, patternHash, cfgKey uint64) (*CostProfile, error) {
	if rec == nil {
		return nil, errors.New("tune: nil recorder")
	}
	if rec.Dropped() > 0 {
		return nil, fmt.Errorf("%w (%d dropped)", ErrTruncated, rec.Dropped())
	}
	n := pr.N()
	cost := make([][]int64, n)
	for i := range cost {
		cost[i] = make([]int64, n)
	}
	var total int64
	for _, s := range rec.Spans() {
		switch s.Op {
		case obs.OpBFAC, obs.OpBDIV, obs.OpBMOD:
		default:
			continue // steal/idle bookkeeping is not block cost
		}
		id := s.Block
		j := pr.ColOf[id]
		i := pr.Cols[j].Blocks[pr.IdxOf[id]].I
		d := s.End - s.Start
		if d <= 0 {
			// Sub-resolution span: charge one tick so the block still
			// registers as having work at all.
			d = 1
		}
		cost[i][j] += d
		total += d
	}
	if total == 0 {
		return nil, errors.New("tune: recorder holds no compute spans")
	}
	return &CostProfile{
		PatternHash: patternHash,
		ConfigKey:   cfgKey,
		Procs:       rec.Procs(),
		N:           n,
		Cost:        cost,
	}, nil
}

// Fingerprint digests the profile (FNV-1a over keys, dimensions, and every
// nonzero cost with its coordinates). It feeds core.Options.MapFingerprint
// so plans tuned from different measurements can never alias in the plan
// cache or the snapshot store.
func (p *CostProfile) Fingerprint() uint64 {
	h := uint64(sparse.FNVOffset)
	mix := func(v uint64) { h = sparse.FNVMix(h, v) }
	mix(p.PatternHash)
	mix(p.ConfigKey)
	mix(uint64(p.Procs))
	mix(uint64(p.N))
	for i := range p.Cost {
		for j, c := range p.Cost[i] {
			if c != 0 {
				mix(uint64(i))
				mix(uint64(j))
				mix(uint64(c))
			}
		}
	}
	return h
}

// Remap rebuilds the block→processor mapping from the profile's measured
// costs on the given grid. Deterministic: two calls with equal profiles
// and grids return identical mappings.
func Remap(p *CostProfile, g mapping.Grid) *mapping.Mapping {
	return mapping.NewMeasured(g, p.Cost)
}

// PredictedLoads sums the profile's measured block costs by owning
// processor under an ownership function — the predicted per-processor
// compute time if the same work re-ran under that ownership.
func (p *CostProfile) PredictedLoads(owner func(i, j int) int, procs int) []int64 {
	loads := make([]int64, procs)
	for i := range p.Cost {
		for j, c := range p.Cost[i] {
			if c != 0 {
				loads[owner(i, j)] += c
			}
		}
	}
	return loads
}

// Balance is the paper's overall balance measure over a load vector:
// total/(P·max), 1.0 meaning perfectly even.
func Balance(loads []int64) float64 {
	var total, mx int64
	for _, l := range loads {
		total += l
		if l > mx {
			mx = l
		}
	}
	if mx == 0 {
		return 0
	}
	return float64(total) / (float64(len(loads)) * float64(mx))
}

// GridCandidates returns up to max candidate Pr×Pc shapes for p
// processors, most nearly square first (both orientations of each factor
// pair), in a deterministic order. It bounds the auto-search: for highly
// composite p the full divisor set is large, but shapes far from square
// are never competitive for a 2-D block mapping.
func GridCandidates(p, max int) []mapping.Grid {
	var grids []mapping.Grid
	for c := 1; c*c <= p; c++ {
		if p%c == 0 {
			grids = append(grids, mapping.Grid{Pr: p / c, Pc: c})
			if c != p/c {
				grids = append(grids, mapping.Grid{Pr: c, Pc: p / c})
			}
		}
	}
	sort.SliceStable(grids, func(a, b int) bool {
		da, db := grids[a].Pr-grids[a].Pc, grids[b].Pr-grids[b].Pc
		if da < 0 {
			da = -da
		}
		if db < 0 {
			db = -db
		}
		if da != db {
			return da < db
		}
		return grids[a].Pr > grids[b].Pr // taller orientation first on ties
	})
	if max > 0 && len(grids) > max {
		grids = grids[:max]
	}
	return grids
}

// MaxGridCandidates bounds the Pr×Pc auto-search on first factorization.
const MaxGridCandidates = 6

// Search evaluates candidate grid shapes for procs processors against the
// profile and returns the tuned mapping with the smallest predicted
// makespan (max per-processor measured load), together with that makespan.
// Ties keep the earlier — more square — candidate, so the result is
// deterministic.
func Search(p *CostProfile, procs int) (*mapping.Mapping, int64) {
	var best *mapping.Mapping
	var bestMax int64
	for _, g := range GridCandidates(procs, MaxGridCandidates) {
		m := Remap(p, g)
		loads := p.PredictedLoads(m.Owner, procs)
		var mx int64
		for _, l := range loads {
			if l > mx {
				mx = l
			}
		}
		if best == nil || mx < bestMax {
			best, bestMax = m, mx
		}
	}
	return best, bestMax
}

// Snapshot converts the profile to its durable store representation
// (sparse coordinate triples; block cost matrices are mostly zero).
func (p *CostProfile) Snapshot() *store.ProfileSnapshot {
	ps := &store.ProfileSnapshot{
		PatternHash: p.PatternHash,
		ConfigKey:   p.ConfigKey,
		Procs:       p.Procs,
		N:           p.N,
	}
	for i := range p.Cost {
		for j, c := range p.Cost[i] {
			if c != 0 {
				ps.I = append(ps.I, i)
				ps.J = append(ps.J, j)
				ps.Cost = append(ps.Cost, c)
			}
		}
	}
	return ps
}

// FromSnapshot rebuilds a profile from its store representation,
// validating coordinates so a corrupted snapshot cannot index out of
// range.
func FromSnapshot(ps *store.ProfileSnapshot) (*CostProfile, error) {
	if ps.N <= 0 || ps.Procs <= 0 {
		return nil, fmt.Errorf("tune: profile snapshot has n=%d procs=%d", ps.N, ps.Procs)
	}
	if len(ps.I) != len(ps.J) || len(ps.I) != len(ps.Cost) {
		return nil, fmt.Errorf("tune: profile snapshot has %d/%d/%d coordinate arrays", len(ps.I), len(ps.J), len(ps.Cost))
	}
	p := &CostProfile{
		PatternHash: ps.PatternHash,
		ConfigKey:   ps.ConfigKey,
		Procs:       ps.Procs,
		N:           ps.N,
		Cost:        make([][]int64, ps.N),
	}
	for i := range p.Cost {
		p.Cost[i] = make([]int64, ps.N)
	}
	for k := range ps.I {
		i, j := ps.I[k], ps.J[k]
		if i < 0 || i >= ps.N || j < 0 || j >= ps.N {
			return nil, fmt.Errorf("tune: profile snapshot coordinate (%d,%d) outside %d×%d", i, j, ps.N, ps.N)
		}
		p.Cost[i][j] = ps.Cost[k]
	}
	return p, nil
}
