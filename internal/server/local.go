package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"blockfanout/internal/core"
	"blockfanout/internal/faultinject"
	"blockfanout/internal/lru"
)

// Local is the in-process backend: a registry of live factors, each
// factored, refactored in place and solved by this process's fan-out
// executor, with single-RHS solves coalesced by the RHS batcher. It is
// the solve server's backend and the cluster gateway's degraded mode.
type Local struct {
	s *Server

	mu      sync.Mutex // guards factors, evicted and every entry's building flag
	factors *lru.Cache[string, *factorEntry]
	evicted uint64 // factors dropped by the MaxFactors bound
}

func newLocal(s *Server) *Local {
	// Eviction skips entries whose initial factorization is still in
	// flight: evicting those would 404 an id the server is about to return.
	busy := func(fe *factorEntry) bool { return fe.building }
	return &Local{s: s, factors: lru.New[string](s.cfg.MaxFactors, busy)}
}

// factorEntry is one live factor. mu serializes refactorization (writer)
// against solves (readers). f is nil while the initial factorization is
// still running under the write lock, and again — permanently — after a
// failed factorization or refactorization invalidates the entry; every
// reader must check f under the lock before dereferencing.
type factorEntry struct {
	id   string
	n    int
	nnzL int64      // nnz(L) with the diagonal (solve cost estimates)
	plan *core.Plan // the analysis this factor was built from (pattern guard)
	mu   sync.RWMutex
	f    *core.Factor
	bt   *batcher
	// building is true while the creator still holds mu for the initial
	// factorization. Guarded by Local.mu; eviction skips building entries
	// so a freshly issued id cannot vanish before its factor lands.
	building bool
	// lastSnap is when this factor last enqueued a write-behind snapshot
	// (zero: never). Guarded by mu (held for writing at both snapshot
	// sites); Config.SnapshotInterval throttles against it.
	lastSnap time.Time
}

var errFactorInvalid = errors.New("factor is no longer valid: its factorization or refactorization failed; re-POST the matrix to /v1/factor")

// Factor factors c.M into a new live factor c.ID, or — when the id is
// already live — refactors that factor in place with c.M's values.
func (l *Local) Factor(ctx context.Context, c *FactorCall) (FactorResponse, error) {
	m, id := c.M, c.ID
	var resp FactorResponse
	var pert *core.Perturbation // ?perturb=1: the default diagonal-shift retry
	if c.Perturb {
		pert = &core.Perturbation{}
	}

	for attempt := 0; ; attempt++ {
		fe, created := l.claimEntry(id, m.N, c.Entry.Plan)
		if created {
			// fe.mu is held for writing; publish the factor, or unregister
			// (before unlocking, so waiters that see f==nil know the entry
			// is already gone and can safely re-claim) on failure. The
			// factorization must use the posted values, not the plan's: on a
			// cache hit the plan carries whichever values built it.
			o := core.FactorOpts{Values: m.Val, Perturb: pert}
			var f *core.Factor
			ferr := l.guardEntry(fe, func() error {
				return l.withRetry(ctx, func() error {
					if err := faultinject.Fire("server.factor"); err != nil {
						return err
					}
					var err error
					f, err = c.Entry.Plan.Factor(ctx, c.Entry.Assign, o)
					return err
				})
			})
			if ferr != nil {
				l.dropEntry(fe)
				fe.mu.Unlock()
				return resp, ferr
			}
			fe.f, resp.Shift = f, f.Shift()
			l.saveSnapshot(fe)
			l.markReady(fe)
			fe.mu.Unlock()
			return resp, nil
		}
		// Live factor for this pattern: numeric-only refactorization. The
		// write lock serializes against in-flight solves, so a solve
		// observes either the old values' factor or the new one, never a
		// half-updated state.
		fe.mu.Lock()
		if fe.f == nil {
			// The entry's creator failed and dropped it between our claim
			// and this lock; retry — we will most likely become the creator.
			fe.mu.Unlock()
			if attempt < 4 {
				continue
			}
			return resp, WithStatus(http.StatusServiceUnavailable, errors.New("factorization repeatedly failing for this pattern"))
		}
		if !fe.plan.A.SamePattern(m) {
			// 64-bit pattern-hash collision with a live factor: refuse
			// rather than refactor the wrong structure.
			fe.mu.Unlock()
			return resp, WithStatus(http.StatusConflict, fmt.Errorf("factor id %s is held by a different sparsity pattern (hash collision)", id))
		}
		rerr := l.guardEntry(fe, func() error {
			return l.withRetry(ctx, func() error {
				if err := faultinject.Fire("server.refactor"); err != nil {
					return err
				}
				return fe.f.RefactorContext(ctx, m.Val, pert)
			})
		})
		if rerr != nil {
			// A failed (or cancelled) refactor leaves the factor numerically
			// invalid: invalidate and unregister it so it can never serve a
			// solve again. In-flight solves holding this entry see f==nil.
			fe.f = nil
			l.dropEntry(fe)
			fe.mu.Unlock()
			return resp, rerr
		}
		l.saveSnapshot(fe)
		resp.Shift = fe.f.Shift()
		fe.mu.Unlock()
		resp.Refactored = true
		return resp, nil
	}
}

// Solve answers req from its live factor: a single right-hand side joins
// the RHS batcher when batching is on (the pipeline charged its tenant);
// anything else runs one direct sweep (the pipeline admitted it).
func (l *Local) Solve(ctx context.Context, req *SolveRequest) (SolveResponse, error) {
	fe, ok := l.lookup(req.ID)
	if !ok {
		return SolveResponse{}, WithStatus(http.StatusNotFound, fmt.Errorf("unknown factor id %q", req.ID))
	}
	if req.B != nil && l.s.batching() {
		return fe.bt.submit(ctx, req.B)
	}
	bs := req.BS
	if req.B != nil {
		bs = [][]float64{req.B}
	}
	xs, err := l.solve(ctx, fe, bs)
	switch {
	case err != nil:
		return SolveResponse{}, err
	case req.B != nil:
		return SolveResponse{X: xs[0], Batch: 1}, nil
	default:
		return SolveResponse{XS: xs}, nil
	}
}

// solve runs one SolveMany against fe, retrying transient faults.
func (l *Local) solve(ctx context.Context, fe *factorEntry, bs [][]float64) ([][]float64, error) {
	var xs [][]float64
	err := l.withRetry(ctx, func() error {
		if err := faultinject.Fire("server.solve"); err != nil {
			return err
		}
		fe.mu.RLock()
		defer fe.mu.RUnlock() // deferred so a solve panic cannot wedge the read lock
		if fe.f == nil {
			return errFactorInvalid
		}
		var err error
		xs, err = fe.f.SolveMany(bs)
		return err
	})
	return xs, err
}

// Live reports the registered factor id, building ones included.
func (l *Local) Live(id string) (int, int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fe, ok := l.factors.Peek(id)
	if !ok {
		return 0, 0, false
	}
	return fe.n, fe.nnzL, true
}

// localDoc is the Local backend's /metrics section.
type localDoc struct {
	Batches  int64  `json:"batches"`         // SolveMany calls issued by the batcher, lone solves included
	BatchedR int64  `json:"batched_rhs"`     // right-hand sides that travelled in those batches
	Queued   int64  `json:"queued_rhs"`      // solves that waited for a running sweep
	Expired  int64  `json:"expired_rhs"`     // queued solves dropped: context ended first
	LiveFac  int    `json:"live_factors"`    // registered factors
	Evicted  uint64 `json:"evicted_factors"` // factors dropped by the MaxFactors bound
}

// Status reports the Local backend, which is always "ok" while the
// process runs.
func (l *Local) Status() BackendStatus {
	met := &l.s.met
	doc := localDoc{Batches: met.batches.Load(), BatchedR: met.batched.Load(),
		Queued: met.queued.Load(), Expired: met.expired.Load()}
	l.mu.Lock()
	doc.LiveFac, doc.Evicted = l.factors.Len(), l.evicted
	l.mu.Unlock()
	return BackendStatus{State: "ok", Metrics: doc}
}

// Forget unregisters the live factor id, if any, so it never answers a
// solve again; solves already holding it finish.
func (l *Local) Forget(id string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.factors.Remove(id)
}

// withRetry runs op, retrying transient failures (injected infrastructure
// faults, never numeric errors) with exponential backoff. The backoff wait
// respects the request's deadline.
func (l *Local) withRetry(ctx context.Context, op func() error) error {
	backoff := l.s.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || attempt >= l.s.cfg.RetryAttempts || !faultinject.IsTransient(err) {
			return err
		}
		l.s.met.retries.Add(1)
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
		backoff *= 2
	}
}

// guardEntry runs op while the caller holds fe.mu for writing. If op
// panics, the entry is invalidated, unregistered, and unlocked before the
// panic continues to the recovery middleware — otherwise the wedged write
// lock would deadlock every later request for this pattern (the panic test
// in chaos_test.go found exactly that).
func (l *Local) guardEntry(fe *factorEntry, op func() error) error {
	defer func() {
		if rec := recover(); rec != nil {
			fe.f = nil
			l.dropEntry(fe)
			fe.mu.Unlock()
			panic(rec)
		}
	}()
	return op()
}

// claimEntry returns the factor entry for id, creating it if absent. When
// created is true the entry's write lock is held and fe.f is nil — the
// caller must set fe.f and unlock (or dropEntry on failure). This is the
// per-factor singleflight: a concurrent request for the same new pattern
// blocks on fe.mu instead of factoring twice.
func (l *Local) claimEntry(id string, n int, plan *core.Plan) (fe *factorEntry, created bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if fe, ok := l.factors.Get(id); ok {
		return fe, false
	}
	fe = &factorEntry{id: id, n: n, plan: plan, building: true}
	if plan != nil {
		fe.nnzL = plan.Exact.NNZ()
	}
	fe.bt = &batcher{l: l, fe: fe}
	fe.mu.Lock()
	l.evicted += uint64(len(l.factors.Add(id, fe)))
	return fe, true
}

// markReady clears the eviction guard once the creator has published fe.f.
// Building entries may have held the registry past its bound, so it is
// trimmed first, while fe is still guarded: the id about to be returned is
// never the victim.
func (l *Local) markReady(fe *factorEntry) {
	l.mu.Lock()
	l.evicted += uint64(len(l.factors.Trim()))
	fe.building = false
	l.mu.Unlock()
}

// dropEntry unregisters exactly fe: the pointer comparison keeps a stale
// drop (after a failed build) from deleting a newer entry that a concurrent
// request re-created under the same id.
func (l *Local) dropEntry(fe *factorEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cur, ok := l.factors.Peek(fe.id); ok && cur == fe {
		l.factors.Remove(fe.id)
	}
}

// lookup returns the entry for id, promoting it in the LRU.
func (l *Local) lookup(id string) (*factorEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.factors.Get(id)
}

// saveSnapshot enqueues a write-behind snapshot of fe's freshly completed
// factor. Called with fe's write lock held, so the block export is a
// coherent copy.
func (l *Local) saveSnapshot(fe *factorEntry) {
	l.s.SaveSnapshot(&fe.lastSnap, fe.f.Snapshot)
}

// restore registers a factor rebuilt from a snapshot under id, unless the
// id is already live (first wins). It reports whether it registered.
func (l *Local) restore(id string, n int, plan *core.Plan, f *core.Factor) bool {
	fe, created := l.claimEntry(id, n, plan)
	if !created {
		return false
	}
	fe.f = f
	l.markReady(fe)
	fe.mu.Unlock()
	return true
}
