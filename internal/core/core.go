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
	"blockfanout/internal/store"
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
}

// ConfigKey returns a 64-bit FNV-1a digest of every option that changes the
// analyzed plan. The plan cache mixes it into the pattern key so plans built
// with different blocking strategies, block sizes, orderings, or
// amalgamation settings never collide on the same matrix pattern.
func (o Options) ConfigKey() uint64 {
	h := uint64(sparse.FNVOffset)
	mix := func(v uint64) { h = sparse.FNVMix(h, v) }
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
	// Opts are the options the plan was built with; Factor reads
	// Opts.Exec to pick the execution engine.
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
	amalg := symbolic.DefaultAmalgamation()
	if opts.Blocking == blocks.StrategyIrregular {
		// The irregular strategy's coarsening knob is the relative-fill
		// threshold; the panel widths then follow the merged supernodes.
		amalg = symbolic.RelativeAmalgamation(opts.AmalgThreshold)
	}
	if opts.Amalgamation != nil {
		amalg = *opts.Amalgamation
	}
	perm, pa, vmap, sym, err := symbolic.AnalyzeOrdering(a, fillPerm, amalg)
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

// FactorOpts selects what one parallel factorization does besides the
// run itself. The zero value factors the values the plan was analyzed
// from, unshifted and unrecorded.
type FactorOpts struct {
	// Values, when non-nil, are factored instead of the plan's own values:
	// laid out like plan.A.Val (same CSC entry order), every one finite. A
	// cached plan asked to factor a newly posted same-pattern matrix must
	// set it; nil factors whichever matrix originally built the plan.
	Values []float64
	// Perturb, when non-nil, turns on the diagonal-shift retry for
	// borderline-SPD input (see Perturbation); Factor.Shift reports the α
	// applied.
	Perturb *Perturbation
	// Record attaches a drop-free span recorder
	// (fanout.Executor.NewMeasureRecorder) for this factorization only and
	// exposes it as Factor.Recorder: one obs.Span per BFAC/BDIV/BMOD, ready
	// for a Chrome trace-event export or per-layer timing.
	// Span block ids index into Factor.Program.
	Record bool
}

// Factor runs the real parallel block fan-out factorization under the
// assignment and returns the numeric factor; it aborts early (returning
// ctx.Err()) if the context is cancelled. The factor keeps the
// assignment's schedule and executor, so RefactorContext re-runs the
// factorization without any setup work.
func (p *Plan) Factor(ctx context.Context, a sched.Assignment, o FactorOpts) (*Factor, error) {
	f, err := p.newFactor(&a)
	if err != nil {
		return nil, err
	}
	if o.Record {
		// The recording covers this factorization only: later refactors
		// run without the two clock reads per block op.
		f.rec = f.ex.NewMeasureRecorder()
		f.rec.Enable()
		defer f.ex.SetRecorder(nil)
		defer f.rec.Disable()
	}
	if o.Values != nil {
		err = f.RefactorContext(ctx, o.Values, o.Perturb)
	} else { // numeric.New already scattered the plan's values
		err = f.factorLoaded(ctx, p.A.Val, o.Perturb)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// FactorValuesContext is Factor with FactorOpts{Values: values}.
//
// Deprecated: kept only because the frozen perfbench module calls it; the
// next benchmark change moves perfbench to Factor and removes it.
func (p *Plan) FactorValuesContext(ctx context.Context, a sched.Assignment, values []float64) (*Factor, error) {
	return p.Factor(ctx, a, FactorOpts{Values: values})
}

// newFactor allocates the block storage, loaded with the plan's values,
// and — for a parallel assignment — the schedule and its executor. It is
// the one constructor behind Factor, RestoreFactor and FactorSequential
// (a nil assignment).
func (p *Plan) newFactor(a *sched.Assignment) (*Factor, error) {
	nf, err := numeric.New(p.BS, p.PA)
	if err != nil {
		return nil, err
	}
	f := &Factor{plan: p, nf: nf, a: p.A}
	if a != nil {
		f.pr = sched.Build(p.BS, *a)
		f.ex = fanout.NewExecutorMode(nf, f.pr, p.Opts.Exec)
	}
	return f, nil
}

// RestoreFactor rebuilds a computed Factor from snapshotted block data
// without re-running the factorization — the warm-start path of the
// durable factor store. values must be laid out like plan.A.Val (the
// matrix the snapshotted factor was computed from) and blocks must be the
// ExportBlocks flattening of the finished numeric factor. The restored
// factor carries the usual parallel executor, so later refactorizations
// behave exactly as if the factor had been computed in this process.
func (p *Plan) RestoreFactor(a sched.Assignment, values []float64, blocks [][]float64) (*Factor, error) {
	if len(values) != len(p.A.Val) {
		return nil, fmt.Errorf("core: restore got %d values, pattern has %d nonzeros", len(values), len(p.A.Val))
	}
	f, err := p.newFactor(&a)
	if err != nil {
		return nil, err
	}
	if err := f.nf.ImportBlocks(blocks); err != nil {
		return nil, err
	}
	f.represent(values) // the snapshot's values, not the plan's
	return f, nil
}

// RestoreSnapshot is RestoreFactor from a store snapshot, refusing one
// written under another configuration key: its blocks were laid out by a
// different ordering, partition or mapping than this plan's.
func (p *Plan) RestoreSnapshot(a sched.Assignment, fs *store.FactorSnapshot) (*Factor, error) {
	if k := p.Opts.ConfigKey(); fs.ConfigKey != k {
		return nil, fmt.Errorf("core: snapshot configuration key %016x, plan's is %016x", fs.ConfigKey, k)
	}
	return p.RestoreFactor(a, fs.Val, fs.Blocks)
}

// FactorSequential factors on one processor (the paper's t_seq baseline).
func (p *Plan) FactorSequential() (*Factor, error) {
	f, err := p.newFactor(nil)
	if err != nil {
		return nil, err
	}
	if err := f.run(context.Background()); err != nil {
		return nil, err
	}
	return f, nil
}

// Simulate runs the discrete-event multicomputer simulation of the fan-out
// schedule under the assignment and machine model. The configuration must
// be valid: experiments and examples construct theirs from the fixed
// Paragon model, so an invalid one is a programming error and panics.
// Callers holding an externally supplied configuration check
// machine.Config.Validate first.
func (p *Plan) Simulate(a sched.Assignment, cfg machine.Config) machine.Result {
	return machine.MustSimulate(sched.Build(p.BS, a), cfg)
}

// CriticalPath returns the critical-path time bound (seconds) under the
// machine model's per-op costs.
func (p *Plan) CriticalPath(cfg machine.Config) float64 {
	return critpath.Length(p.BS, cfg.FlopRate, cfg.OpOverhead)
}

// Factor is a computed Cholesky factor bound to its plan, able to solve
// linear systems in the original (unpermuted) index space. A Factor is
// safe for concurrent solves; RefactorContext must be externally
// serialized against solves (e.g. the server wraps factors in an RWMutex).
type Factor struct {
	plan *Plan
	nf   *numeric.Factor
	pr   *sched.Program   // non-nil when the factor was computed in parallel
	ex   *fanout.Executor // reusable parallel engine (nil for sequential factors)
	// a is the matrix this factor currently represents: plan.A after
	// Factor, a value-swapped view of the same pattern after a refactor.
	a *sparse.Matrix
	// pav is the reusable scratch holding values gathered into permuted
	// order; allocated on first refactor, reused afterwards.
	pav   []float64
	rec   *obs.Recorder // the FactorOpts.Record recording (nil otherwise)
	shift float64       // α of the most recent (re)factorization
}

// Numeric exposes the underlying block factor.
func (f *Factor) Numeric() *numeric.Factor { return f.nf }

// Plan exposes the plan the factor was computed from.
func (f *Factor) Plan() *Plan { return f.plan }

// Program returns the block-operation schedule the factor was computed
// under (block ids in recorded spans index into it).
func (f *Factor) Program() *sched.Program { return f.pr }

// Recorder returns the span recording of the factorization that built f
// under FactorOpts.Record, or nil. It is detached from the executor once
// that factorization ends, so refactors never add to it.
func (f *Factor) Recorder() *obs.Recorder { return f.rec }

// Shift returns the diagonal shift α of the most recent (re)factorization:
// 0 when the matrix factored unmodified, positive when a perturbation
// retry factored A + αI instead.
func (f *Factor) Shift() float64 { return f.shift }

// Matrix returns the matrix the factor currently represents: the plan's
// matrix, or a same-pattern matrix carrying the values of the most recent
// refactor.
func (f *Factor) Matrix() *sparse.Matrix { return f.a }

// Snapshot exports the factor for the durable store: the matrix it
// represents, its plan's configuration key, and a copy of every block.
// The values are copied too, so a later refactor cannot change a
// snapshot that is still waiting to be written.
func (f *Factor) Snapshot() *store.FactorSnapshot {
	return &store.FactorSnapshot{
		PatternHash: f.a.PatternHash(),
		ConfigKey:   f.plan.Opts.ConfigKey(),
		N:           f.a.N,
		ColPtr:      f.a.ColPtr,
		RowInd:      f.a.RowInd,
		Val:         append([]float64(nil), f.a.Val...),
		Blocks:      f.nf.ExportBlocks(),
	}
}

// Refactor is RefactorContext without cancellation or perturbation.
//
// Deprecated: kept only because the frozen perfbench module calls it; the
// next benchmark change moves perfbench to RefactorContext and removes it.
func (f *Factor) Refactor(values []float64) error {
	return f.RefactorContext(context.Background(), values, nil)
}

// RefactorContext recomputes the factor for new numeric values on the
// plan's fixed sparsity pattern. values must be laid out like plan.A.Val
// (same CSC entry order); every value must be finite. No ordering,
// symbolic analysis, or partitioning runs — the values are gathered
// through the plan's ValMap into the preallocated block storage and the
// factorization re-executes over the existing schedule, reusing the
// executor's workspaces. Parallel factors refactor in parallel, sequential
// ones sequentially. A non-nil pert turns on the diagonal-shift retry; the
// applied α is Shift(). A failed or cancelled refactor leaves the factor
// numerically invalid; a subsequent successful one restores it.
func (f *Factor) RefactorContext(ctx context.Context, values []float64, pert *Perturbation) error {
	if err := f.load(values); err != nil {
		return err
	}
	return f.factorLoaded(ctx, values, pert)
}

// load validates values and scatters them into the block storage.
func (f *Factor) load(values []float64) error {
	if len(values) != len(f.plan.A.Val) {
		return fmt.Errorf("core: refactor got %d values, pattern has %d nonzeros", len(values), len(f.plan.A.Val))
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: refactor value %d is not finite (%g)", i, v)
		}
	}
	f.represent(values)
	if f.pav == nil {
		f.pav = make([]float64, len(values))
	}
	for q, src := range f.plan.ValMap {
		f.pav[q] = values[src]
	}
	return f.nf.Reload(f.pav)
}

// represent points f.a at values without mutating the plan's (possibly
// shared) matrix: the first call clones the pattern view with private
// value storage, later ones overwrite it in place.
func (f *Factor) represent(values []float64) {
	if f.a == f.plan.A {
		a := *f.plan.A
		a.Val = make([]float64, len(values))
		f.a = &a
	}
	copy(f.a.Val, values)
}

// run factors whatever the block storage holds: in parallel on the
// executor, or sequentially for a factor without one.
func (f *Factor) run(ctx context.Context) error {
	if f.ex != nil {
		_, err := f.ex.RunContext(ctx)
		return err
	}
	return f.nf.FactorSequential()
}

// factorLoaded factors the already loaded values and, when pert is non-nil
// and the run breaks down on a non-positive pivot, retries on A + αI with
// escalating α (the Manteuffel strategy). Non-breakdown errors
// (cancellation, malformed values) are returned without retrying.
func (f *Factor) factorLoaded(ctx context.Context, values []float64, pert *Perturbation) error {
	f.shift = 0
	err := f.run(ctx)
	if err == nil || pert == nil || !errors.Is(err, kernels.ErrNotPositiveDefinite) {
		return err
	}
	p := pert.withDefaults()
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
	alpha := p.InitialShift * scale
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		for j := 0; j < a.N; j++ {
			q := a.ColPtr[j]
			shifted[q] = values[q] + alpha
		}
		if f.rec.Enabled() {
			f.rec.Reset() // a recording holds the run that succeeded
		}
		if err = f.load(shifted); err == nil {
			err = f.run(ctx)
		}
		if err == nil {
			f.shift = alpha
			return nil
		}
		if !errors.Is(err, kernels.ErrNotPositiveDefinite) {
			return err
		}
		alpha *= p.Growth
	}
	return fmt.Errorf("core: still not positive definite after %d diagonal perturbations (last shift %g): %w",
		p.MaxAttempts, alpha/p.Growth, err)
}

// Perturbation configures the opt-in graceful-degradation mode for
// borderline-SPD matrices: when a factorization breaks down on a
// non-positive pivot, the diagonal is shifted (A + αI, the Manteuffel
// strategy) and the factorization retried with escalating α, a bounded
// number of times. The shift trades exactness for existence — the factor
// solves a nearby SPD problem — so callers must opt in and are told the α
// that was applied (Factor.Shift).
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

// Residual returns ‖A·x − b‖∞ for a solution produced by Solve, measured
// against the matrix the factor currently represents.
func (f *Factor) Residual(x, b []float64) float64 {
	return f.a.ResidualNorm(x, b)
}
