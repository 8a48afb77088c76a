// Package core is the public entry point of the library. It wires the
// substrates together into the paper's pipeline:
//
//	reorder (ND / minimum degree) → postorder → symbolic factorization
//	→ supernode amalgamation → block partition (B=48) → block mapping
//	→ {real parallel factorization | simulated multicomputer run}
//
// A Plan captures everything up to the block structure; mappings,
// factorizations, simulations, and analyses are derived from it.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"blockfanout/internal/blocks"
	"blockfanout/internal/critpath"
	"blockfanout/internal/domains"
	"blockfanout/internal/etree"
	"blockfanout/internal/fanout"
	"blockfanout/internal/kernels"
	"blockfanout/internal/loadbal"
	"blockfanout/internal/machine"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
	"blockfanout/internal/obs"
	"blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// DefaultBlockSize is the paper's block size B = 48.
const DefaultBlockSize = 48

// Options configure plan construction.
type Options struct {
	// BlockSize is the target panel width B (default 48). For the irregular
	// strategy it caps the panel width (blocks.IrregularConfig.MaxPanel).
	BlockSize int
	// Ordering selects the fill-reducing ordering. The zero value,
	// order.Default, is resolved to MinDegree inside order.Compute (and
	// keyed as MinDegree by ConfigKey), so every front end built on
	// zero-valued options orders general matrices with minimum degree. Use
	// NDGrid2D/NDCube3D with GridDim for model problems, or an explicit
	// Natural for dense matrices.
	Ordering order.Method
	// GridDim is the grid side length for the geometric orderings.
	GridDim int
	// Amalgamation controls relaxed supernode merging; zero value means
	// symbolic.DefaultAmalgamation() (or the relative-fill config derived
	// from AmalgThreshold under the irregular strategy).
	Amalgamation *symbolic.AmalgamationConfig
	// Blocking selects the partitioning strategy (default StrategyUniform,
	// the paper's fixed-width panels).
	Blocking blocks.Strategy
	// AmalgThreshold is the relative-fill amalgamation threshold used by the
	// irregular strategy when Amalgamation is nil: merging a child into its
	// parent supernode is accepted while the introduced explicit zeros stay
	// under this fraction of the merged trapezoid. ≤0 means the default
	// (symbolic.DefaultAmalgamation().MaxZeroFrac).
	AmalgThreshold float64
	// Exec selects the parallel execution engine (default
	// fanout.ModeWorkStealing). It does not change the analyzed structure,
	// but it is part of ConfigKey: an executor is built per plan entry by
	// the serving tier, so plans requested under different engines must
	// never alias in the plan cache.
	Exec fanout.Mode
	// MapSource records the provenance of the block→processor mapping the
	// plan's factors are built under. The zero value (MapStatic) is the
	// modeled-flop heuristic mapping and keeps ConfigKey identical to
	// pre-provenance keys; MapTuned marks a mapping rebuilt from a measured
	// cost profile (internal/tune). It is part of ConfigKey so a tuned plan
	// and its static-mapped ancestor — same pattern, same analysis options —
	// can never alias in the plan cache or serve each other's snapshots.
	MapSource MapSource
	// MapFingerprint distinguishes tuned mappings built from different cost
	// profiles (tune.CostProfile.Fingerprint). Zero — and ignored — under
	// MapStatic.
	MapFingerprint uint64
}

// MapSource is the provenance of a plan's block→processor mapping.
type MapSource uint8

const (
	// MapStatic is the default modeled-flop heuristic mapping.
	MapStatic MapSource = iota
	// MapTuned is a mapping rebuilt from measured span costs.
	MapTuned
)

// ConfigKey returns a 64-bit FNV-1a digest of every option that changes the
// analyzed plan. The plan cache mixes it into the pattern key so plans built
// with different blocking strategies, block sizes, orderings, or
// amalgamation settings never collide on the same matrix pattern.
func (o Options) ConfigKey() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(o.BlockSize))
	// The resolved method, so Default and MinDegree share a key.
	mix(uint64(o.Ordering.Resolve()))
	mix(uint64(o.GridDim))
	mix(uint64(o.Blocking))
	mix(uint64(o.Exec))
	mix(math.Float64bits(o.AmalgThreshold))
	if o.Amalgamation != nil {
		mix(1)
		mix(uint64(o.Amalgamation.MaxZeros))
		mix(math.Float64bits(o.Amalgamation.MaxZeroFrac))
	}
	// Mapping provenance is mixed only when non-static so every pre-existing
	// static key (and the snapshots filed under it) stays valid.
	if o.MapSource != MapStatic {
		mix(uint64(o.MapSource))
		mix(o.MapFingerprint)
	}
	return h
}

// Plan is the analyzed, partitioned problem, ready to be mapped and
// factored. A Plan depends only on the matrix's sparsity structure (values
// ride along but are never consulted by the analysis), so one Plan can
// factor any matrix sharing A's pattern — the refactorization and
// plan-cache machinery is built on exactly that property. All Plan methods
// are safe for concurrent use; the Plan itself is never mutated after
// NewPlan.
type Plan struct {
	// Opts are the options the plan was built with; factorization entry
	// points read Opts.Exec to pick the execution engine.
	Opts Options
	A    *sparse.Matrix    // the original matrix
	Perm order.Permutation // total permutation (fill-reducing ∘ postorder)
	PA   *sparse.Matrix    // permuted matrix actually factored
	Sym  *symbolic.Structure
	BS   *blocks.Structure
	// PanelDepth is each panel's supernode depth in the elimination
	// forest (input to the Increasing Depth heuristic).
	PanelDepth []int
	// Exact holds nnz(L) and the operation count of the best sequential
	// factorization (pre-amalgamation); the paper's Tables 1/6 numbers
	// and the numerator of all Mflops figures.
	Exact etree.Stats
	// ValMap gathers original values into permuted positions:
	// PA.Val[q] == A.Val[ValMap[q]]. Refactorization applies it to route
	// fresh values onto the fixed pattern without re-permuting.
	ValMap []int
}

// NewPlan analyzes the matrix: ordering, postorder, symbolic factorization,
// amalgamation, and block partition.
func NewPlan(a *sparse.Matrix, opts Options) (*Plan, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid input matrix: %w", err)
	}
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	fillPerm, err := order.Compute(opts.Ordering, a, opts.GridDim)
	if err != nil {
		return nil, err
	}
	a1, err := a.Permute(fillPerm)
	if err != nil {
		return nil, err
	}
	po := etree.Build(a1).Postorder()
	perm := fillPerm.Compose(po)
	pa, vmap, err := a.PermuteWithMap(perm)
	if err != nil {
		return nil, err
	}
	amalg := symbolic.DefaultAmalgamation()
	if opts.Blocking == blocks.StrategyIrregular {
		// The irregular strategy's coarsening knob is the relative-fill
		// threshold; the panel widths then follow the merged supernodes.
		amalg = symbolic.RelativeAmalgamation(opts.AmalgThreshold)
	}
	if opts.Amalgamation != nil {
		amalg = *opts.Amalgamation
	}
	sym, err := symbolic.Analyze(pa, amalg)
	if err != nil {
		return nil, err
	}
	part, err := newPartition(sym, opts)
	if err != nil {
		return nil, err
	}
	bs, err := blocks.Build(sym, part)
	if err != nil {
		return nil, err
	}
	depth := make([]int, part.N())
	for p := range depth {
		depth[p] = sym.Depth[part.SnodeOf[p]]
	}
	return &Plan{
		Opts:       opts,
		A:          a,
		Perm:       perm,
		PA:         pa,
		Sym:        sym,
		BS:         bs,
		PanelDepth: depth,
		Exact:      etree.FactorStats(sym.ColCounts),
		ValMap:     vmap,
	}, nil
}

// newPartition dispatches on the blocking strategy. The staged and cycled
// variants exist for the paper's §5 variable-block-size experiments; their
// parameters are derived from BlockSize the way the experiment suite sets
// them (second width B/2, stage boundary at the matrix midpoint).
func newPartition(sym *symbolic.Structure, opts Options) (*blocks.Partition, error) {
	b := opts.BlockSize
	half := b / 2
	if half < 1 {
		half = 1
	}
	switch opts.Blocking {
	case blocks.StrategyUniform:
		return blocks.NewPartition(sym, b), nil
	case blocks.StrategyStaged:
		if sym.N < 2 {
			return blocks.NewPartition(sym, b), nil
		}
		return blocks.NewPartitionStaged(sym, b, half, sym.N/2)
	case blocks.StrategyCycled:
		return blocks.NewPartitionCycled(sym, []int{b, half})
	case blocks.StrategyIrregular:
		return blocks.NewPartitionIrregular(sym, blocks.IrregularConfig{MaxPanel: b})
	default:
		return nil, fmt.Errorf("core: unknown blocking strategy %d", opts.Blocking)
	}
}

// Map builds a Cartesian-product block mapping with the given row/column
// heuristics on the given processor grid.
func (p *Plan) Map(g mapping.Grid, rowH, colH mapping.Heuristic) *mapping.Mapping {
	return mapping.New(g, rowH, colH, p.BS, p.PanelDepth)
}

// Balances evaluates the paper's four load-balance measures for a mapping.
func (p *Plan) Balances(m *mapping.Mapping) loadbal.Balances {
	return loadbal.Compute(p.BS, m)
}

// Assign combines a 2-D mapping with (optionally) a domain/root split.
// domainBeta ≤ 0 disables domains; the paper's configuration corresponds to
// enabling them (≈2).
func (p *Plan) Assign(m *mapping.Mapping, domainBeta float64) sched.Assignment {
	a := sched.Assignment{Map: m}
	if domainBeta > 0 {
		a.Dom = domains.Select(p.Sym, p.BS, m.Grid.P(), domainBeta)
	}
	return a
}

// ServingAssignment is the serving tier's assignment over procs
// processors: the best-fit grid, Increasing Depth rows × Column-intensive
// columns, and domains at β = 2. The solve server, the cluster gateway and
// every cluster node call it, so all parties derive the identical schedule
// for a pattern.
func (p *Plan) ServingAssignment(procs int) sched.Assignment {
	return p.Assign(p.Map(mapping.BestGrid(procs), mapping.ID, mapping.CY), 2)
}

// Factor runs the real parallel block fan-out factorization under the
// assignment and returns the numeric factor. The factor keeps the
// assignment's schedule and executor, so SolveParallel can reuse the data
// distribution and Refactor can re-run the factorization without any
// setup work.
func (p *Plan) Factor(a sched.Assignment) (*Factor, error) {
	return p.FactorContext(context.Background(), a)
}

// FactorContext is Factor with cancellation: the parallel factorization
// aborts early (returning ctx.Err()) if the context is cancelled.
func (p *Plan) FactorContext(ctx context.Context, a sched.Assignment) (*Factor, error) {
	nf, err := numeric.New(p.BS, p.PA)
	if err != nil {
		return nil, err
	}
	pr := sched.Build(p.BS, a)
	ex := fanout.NewExecutorMode(nf, pr, p.Opts.Exec)
	if _, err := ex.RunContext(ctx); err != nil {
		return nil, err
	}
	return &Factor{plan: p, nf: nf, pr: pr, ex: ex, a: p.A}, nil
}

// FactorTracedContext is FactorContext with the executor's span recorder
// attached and enabled: alongside the factor it returns the recorder
// holding one obs.Span per BFAC/BDIV/BMOD the run performed, ready for
// Chrome trace-event export. The instrumented run is the real execution,
// not a replay — the recorder's gated hot path is cheap enough to time
// production-shaped runs.
func (p *Plan) FactorTracedContext(ctx context.Context, a sched.Assignment) (*Factor, *obs.Recorder, error) {
	nf, err := numeric.New(p.BS, p.PA)
	if err != nil {
		return nil, nil, err
	}
	pr := sched.Build(p.BS, a)
	ex := fanout.NewExecutorMode(nf, pr, p.Opts.Exec)
	rec := ex.NewRecorder()
	rec.Enable()
	if _, err := ex.RunContext(ctx); err != nil {
		return nil, nil, err
	}
	return &Factor{plan: p, nf: nf, pr: pr, ex: ex, a: p.A}, rec, nil
}

// FactorMeasuredValuesContext is FactorValuesContext with a drop-free span
// recorder attached and enabled (fanout.Executor.NewMeasureRecorder): lanes
// are sized so every BFAC/BDIV/BMOD of the run is captured with
// Recorder.Dropped() == 0, the completeness internal/tune requires before
// it will aggregate the spans into a cost profile. It also returns the
// schedule the run executed under, which maps span block ids back to block
// coordinates.
func (p *Plan) FactorMeasuredValuesContext(ctx context.Context, a sched.Assignment, values []float64) (*Factor, *obs.Recorder, *sched.Program, error) {
	nf, err := numeric.New(p.BS, p.PA)
	if err != nil {
		return nil, nil, nil, err
	}
	pr := sched.Build(p.BS, a)
	ex := fanout.NewExecutorMode(nf, pr, p.Opts.Exec)
	rec := ex.NewMeasureRecorder()
	rec.Enable()
	f := &Factor{plan: p, nf: nf, pr: pr, ex: ex, a: p.A}
	if err := f.RefactorContext(ctx, values); err != nil {
		return nil, nil, nil, err
	}
	return f, rec, pr, nil
}

// FactorValuesContext is FactorContext for the analyze-once/factor-many
// serving path: it factors the plan's fixed pattern carrying values (laid
// out like A.Val, same CSC entry order) instead of the values the plan was
// analyzed from. A cached plan asked to factor a newly posted same-pattern
// matrix must use this — FactorContext would silently factor the stale
// values of whichever matrix originally built the plan.
func (p *Plan) FactorValuesContext(ctx context.Context, a sched.Assignment, values []float64) (*Factor, error) {
	nf, err := numeric.New(p.BS, p.PA)
	if err != nil {
		return nil, err
	}
	pr := sched.Build(p.BS, a)
	f := &Factor{plan: p, nf: nf, pr: pr, ex: fanout.NewExecutorMode(nf, pr, p.Opts.Exec), a: p.A}
	if err := f.RefactorContext(ctx, values); err != nil {
		return nil, err
	}
	return f, nil
}

// RestoreFactor rebuilds a computed Factor from snapshotted block data
// without re-running the factorization — the warm-start path of the
// durable factor store. values must be laid out like plan.A.Val (the
// matrix the snapshotted factor was computed from) and blocks must be the
// ExportBlocks flattening of the finished numeric factor. The restored
// factor carries the usual parallel executor, so later Refactor calls
// behave exactly as if the factor had been computed in this process.
func (p *Plan) RestoreFactor(a sched.Assignment, values []float64, blocks [][]float64) (*Factor, error) {
	if len(values) != len(p.A.Val) {
		return nil, fmt.Errorf("core: restore got %d values, pattern has %d nonzeros", len(values), len(p.A.Val))
	}
	nf, err := numeric.New(p.BS, p.PA)
	if err != nil {
		return nil, err
	}
	if err := nf.ImportBlocks(blocks); err != nil {
		return nil, err
	}
	pr := sched.Build(p.BS, a)
	f := &Factor{plan: p, nf: nf, pr: pr, ex: fanout.NewExecutorMode(nf, pr, p.Opts.Exec)}
	// The factor represents the snapshot's values, not whichever values
	// built the (possibly shared) plan matrix.
	f.a = &sparse.Matrix{
		N:      p.A.N,
		ColPtr: p.A.ColPtr,
		RowInd: p.A.RowInd,
		Val:    append([]float64(nil), values...),
	}
	return f, nil
}

// FactorSequential factors on one processor (the paper's t_seq baseline).
func (p *Plan) FactorSequential() (*Factor, error) {
	nf, err := numeric.New(p.BS, p.PA)
	if err != nil {
		return nil, err
	}
	if err := nf.FactorSequential(); err != nil {
		return nil, err
	}
	return &Factor{plan: p, nf: nf, a: p.A}, nil
}

// Refactor refactors f in place with new numeric values for the plan's
// fixed pattern. It is the analyze-once/factor-many entry point; see
// Factor.Refactor for the contract.
func (p *Plan) Refactor(f *Factor, values []float64) error {
	if f.plan != p {
		return fmt.Errorf("core: factor belongs to a different plan")
	}
	return f.Refactor(values)
}

// Simulate runs the discrete-event multicomputer simulation of the fan-out
// schedule under the assignment and machine model. The configuration must
// be valid (machine.Config.Validate); experiments and examples construct
// theirs from the fixed Paragon model, so an invalid one is a programming
// error and panics. Use SimulateChecked for externally-supplied configs.
func (p *Plan) Simulate(a sched.Assignment, cfg machine.Config) machine.Result {
	return machine.MustSimulate(sched.Build(p.BS, a), cfg)
}

// SimulateChecked is Simulate with the configuration error surfaced instead
// of panicking, for callers whose machine model comes from user input.
func (p *Plan) SimulateChecked(a sched.Assignment, cfg machine.Config) (machine.Result, error) {
	return machine.Simulate(sched.Build(p.BS, a), cfg)
}

// CriticalPath returns the critical-path time bound (seconds) under the
// machine model's per-op costs.
func (p *Plan) CriticalPath(cfg machine.Config) float64 {
	return critpath.Length(p.BS, cfg.FlopRate, cfg.OpOverhead)
}

// Factor is a computed Cholesky factor bound to its plan, able to solve
// linear systems in the original (unpermuted) index space. A Factor is
// safe for concurrent solves; Refactor must be externally serialized
// against solves (e.g. the server wraps factors in an RWMutex).
type Factor struct {
	plan *Plan
	nf   *numeric.Factor
	pr   *sched.Program   // non-nil when the factor was computed in parallel
	ex   *fanout.Executor // reusable parallel engine (nil for sequential factors)
	// a is the matrix this factor currently represents: plan.A after
	// Factor, a value-swapped view of the same pattern after Refactor.
	a *sparse.Matrix
	// pav is the reusable scratch holding values gathered into permuted
	// order; allocated on first Refactor, reused afterwards.
	pav []float64
}

// Numeric exposes the underlying block factor.
func (f *Factor) Numeric() *numeric.Factor { return f.nf }

// Plan exposes the plan the factor was computed from.
func (f *Factor) Plan() *Plan { return f.plan }

// Program returns the block-operation schedule the factor was computed
// under (block ids in recorded spans index into it).
func (f *Factor) Program() *sched.Program { return f.pr }

// Matrix returns the matrix the factor currently represents: the plan's
// matrix, or a same-pattern matrix carrying the values of the most recent
// Refactor.
func (f *Factor) Matrix() *sparse.Matrix { return f.a }

// Refactor recomputes the factor for new numeric values on the plan's
// fixed sparsity pattern. values must be laid out like plan.A.Val (same
// CSC entry order); every value must be finite. No ordering, symbolic
// analysis, or partitioning runs — the values are gathered through the
// plan's ValMap into the preallocated block storage and the factorization
// re-executes over the existing schedule, reusing the executor's
// workspaces. Parallel factors refactor in parallel; sequential ones
// sequentially.
func (f *Factor) Refactor(values []float64) error {
	return f.RefactorContext(context.Background(), values)
}

// RefactorContext is Refactor with cancellation. A cancelled refactor
// leaves the factor numerically invalid; a subsequent successful Refactor
// restores it.
func (f *Factor) RefactorContext(ctx context.Context, values []float64) error {
	if len(values) != len(f.plan.A.Val) {
		return fmt.Errorf("core: refactor got %d values, pattern has %d nonzeros", len(values), len(f.plan.A.Val))
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: refactor value %d is not finite (%g)", i, v)
		}
	}
	// Keep f.a describing the current values without mutating the plan's
	// (possibly shared) matrix: first Refactor clones the pattern view with
	// private value storage, later ones overwrite it in place.
	if f.a == f.plan.A {
		f.a = &sparse.Matrix{
			N:      f.plan.A.N,
			ColPtr: f.plan.A.ColPtr,
			RowInd: f.plan.A.RowInd,
			Val:    make([]float64, len(values)),
		}
	}
	copy(f.a.Val, values)
	if f.pav == nil {
		f.pav = make([]float64, len(values))
	}
	for q, src := range f.plan.ValMap {
		f.pav[q] = values[src]
	}
	if err := f.nf.Reload(f.pav); err != nil {
		return err
	}
	if f.ex != nil {
		_, err := f.ex.RunContext(ctx)
		return err
	}
	return f.nf.FactorSequential()
}

// Perturbation configures the opt-in graceful-degradation mode for
// borderline-SPD matrices: when a factorization breaks down on a
// non-positive pivot, the diagonal is shifted (A + αI, the Manteuffel
// strategy) and the factorization retried with escalating α, a bounded
// number of times. The shift trades exactness for existence — the factor
// solves a nearby SPD problem — so callers must opt in and are told the α
// that was applied.
type Perturbation struct {
	// InitialShift is the first α relative to max |A_jj| (default 1e-8).
	InitialShift float64
	// Growth multiplies α between attempts (default 100).
	Growth float64
	// MaxAttempts bounds the retries (default 8, spanning relative shifts
	// from 1e-8 up to 1e6 under the default growth).
	MaxAttempts int
}

func (p Perturbation) withDefaults() Perturbation {
	if p.InitialShift <= 0 {
		p.InitialShift = 1e-8
	}
	if p.Growth <= 1 {
		p.Growth = 100
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	return p
}

// RefactorPerturbedContext is RefactorContext with the diagonal-perturbation
// retry. It returns the absolute shift α that was applied: 0 when the
// matrix factored unmodified, positive when a shifted A + αI was factored
// instead. Non-breakdown errors (cancellation, malformed values) are
// returned immediately without retrying.
func (f *Factor) RefactorPerturbedContext(ctx context.Context, values []float64, pert Perturbation) (float64, error) {
	err := f.RefactorContext(ctx, values)
	if err == nil {
		return 0, nil
	}
	if !errors.Is(err, kernels.ErrNotPositiveDefinite) {
		return 0, err
	}
	pert = pert.withDefaults()
	a := f.plan.A
	scale := 0.0
	for j := 0; j < a.N; j++ {
		if d := math.Abs(values[a.ColPtr[j]]); d > scale {
			scale = d
		}
	}
	if scale == 0 {
		scale = 1
	}
	shifted := append([]float64(nil), values...)
	alpha := pert.InitialShift * scale
	for attempt := 0; attempt < pert.MaxAttempts; attempt++ {
		for j := 0; j < a.N; j++ {
			q := a.ColPtr[j]
			shifted[q] = values[q] + alpha
		}
		if err = f.RefactorContext(ctx, shifted); err == nil {
			return alpha, nil
		}
		if !errors.Is(err, kernels.ErrNotPositiveDefinite) {
			return 0, err
		}
		alpha *= pert.Growth
	}
	return 0, fmt.Errorf("core: still not positive definite after %d diagonal perturbations (last shift %g): %w",
		pert.MaxAttempts, alpha/pert.Growth, err)
}

// FactorValuesPerturbedContext is FactorValuesContext with the
// diagonal-perturbation retry; it reports the applied shift alongside the
// factor.
func (p *Plan) FactorValuesPerturbedContext(ctx context.Context, a sched.Assignment, values []float64, pert Perturbation) (*Factor, float64, error) {
	nf, err := numeric.New(p.BS, p.PA)
	if err != nil {
		return nil, 0, err
	}
	pr := sched.Build(p.BS, a)
	f := &Factor{plan: p, nf: nf, pr: pr, ex: fanout.NewExecutorMode(nf, pr, p.Opts.Exec), a: p.A}
	shift, err := f.RefactorPerturbedContext(ctx, values, pert)
	if err != nil {
		return nil, 0, err
	}
	return f, shift, nil
}

// checkRHS validates one right-hand side: exact length and finite entries.
// The solve entry points call it so they are total functions — malformed
// service input yields an error, never a panic or silent NaN propagation.
func checkRHS(n int, b []float64) error {
	if len(b) != n {
		return fmt.Errorf("core: rhs length %d, want %d", len(b), n)
	}
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: rhs entry %d is not finite (%g)", i, v)
		}
	}
	return nil
}

// Solve solves A·x = b for the original matrix A.
func (f *Factor) Solve(b []float64) ([]float64, error) {
	if err := checkRHS(f.plan.A.N, b); err != nil {
		return nil, err
	}
	pb := f.plan.Perm.Apply(b)
	px := f.nf.Solve(pb)
	return f.plan.Perm.ApplyInverse(px), nil
}

// SolveParallel solves A·x = b using the distributed triangular solves
// over the factorization's block ownership. The factor must have been
// computed with Plan.Factor (a parallel assignment).
func (f *Factor) SolveParallel(b []float64) ([]float64, error) {
	if f.pr == nil {
		return nil, fmt.Errorf("core: factor was computed sequentially; use Solve")
	}
	if err := checkRHS(f.plan.A.N, b); err != nil {
		return nil, err
	}
	pb := f.plan.Perm.Apply(b)
	px, err := fanout.Solve(f.nf, f.pr, pb)
	if err != nil {
		return nil, err
	}
	return f.plan.Perm.ApplyInverse(px), nil
}

// Residual returns ‖A·x − b‖∞ for a solution produced by Solve, measured
// against the matrix the factor currently represents.
func (f *Factor) Residual(x, b []float64) float64 {
	return f.a.ResidualNorm(x, b)
}
