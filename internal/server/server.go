// Package server turns the block fan-out Cholesky library into a
// long-running solve service. It is the serving layer the ROADMAP's
// analyze-once/factor-many workloads need: a pattern-keyed plan cache so
// repeated factor requests for the same sparsity structure skip ordering
// and symbolic analysis, in-place numeric refactorization of live factors,
// and an RHS batcher that coalesces solve requests queued behind a running
// sweep of the same factor into one cache-friendly multi-RHS sweep.
//
// Endpoints (all JSON responses):
//
//	POST /v1/factor   MatrixMarket or JSON-CSC body → factor id
//	POST /v1/solve    {"id", "b": [...]} or {"id", "bs": [[...], ...]}
//	GET  /healthz     liveness (503 while draining)
//	GET  /metrics     expvar-style counter document
//
// One request pipeline serves these endpoints over a Backend: the
// in-process Local backend, or the cluster gateway's worker nodes
// (internal/cluster). The two tiers differ only in where block operations
// run, never in the HTTP contract.
//
// Heavy work (analysis, factorization, solves) runs through the
// multi-tenant admission controller (internal/admission): requests carry a
// tenant identity (X-Tenant header) subject to token-bucket rates and
// concurrency quotas, wait in a weighted priority queue (interactive
// solves > refactors > cold factorizations) for a bounded worker pool, and
// are shed with structured 429/503 + Retry-After when their deadline can
// no longer cover their modeled cost or when the brownout state machine
// (queue depth + memory watermarks) degrades the service. Request
// deadlines propagate as context cancellation into the parallel
// factorization executor. Drain flips the service into a mode where health
// checks fail (so load balancers stop routing) while in-flight work
// completes.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"blockfanout/internal/admission"
	"blockfanout/internal/core"
	"blockfanout/internal/fanout"
	"blockfanout/internal/kernels"
	"blockfanout/internal/plancache"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/store"
)

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// Procs is the goroutine-processor count of each parallel
	// factorization (default: GOMAXPROCS capped at 16).
	Procs int
	// Workers bounds concurrently executing heavy operations
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth is how many heavy operations may wait for a worker before
	// new ones are rejected with 429 (default 64).
	QueueDepth int
	// ReserveInteractive holds this many worker slots for interactive
	// solves alone: factorizations and refactorizations together occupy
	// at most Workers−ReserveInteractive slots, so admitted heavy work
	// cannot head-of-line block every lane (0 = no reservation).
	ReserveInteractive int
	// CacheEntries / CacheBytes budget the pattern-keyed plan cache
	// (defaults: plancache defaults). MaxFactors bounds the live registry
	// of either backend (default: CacheEntries): the Local backend's
	// factors, or the cluster gateway's jobs, whose nodes drop a job when
	// the gateway evicts it. Past the bound the least recently factored or
	// solved id is evicted, never one a request is still using, and a
	// solve on an evicted id answers 404.
	CacheEntries int
	CacheBytes   int64
	MaxFactors   int
	// BatchWindow switches RHS batching by its sign alone: negative
	// disables it; zero (the default) or positive enables it. A batched
	// single-RHS solve runs at once when its factor is idle and otherwise
	// rides the next sweep with the solves queued behind the running one,
	// at most BatchLimit of them (default 64).
	BatchWindow time.Duration
	BatchLimit  int
	// RequestTimeout bounds each request's heavy work (default 60s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 512 MiB).
	MaxBodyBytes int64
	// BlockSize is the panel width B of new plans (default
	// core.DefaultBlockSize).
	BlockSize int
	// Exec selects the parallel execution engine for factorizations
	// (default fanout.ModeWorkStealing, "steal"); like BlockSize it is
	// part of the plan-cache key, since each cached plan's factors embed
	// an executor of the configured mode.
	Exec fanout.Mode
	// RetryAttempts is how many times a transient infrastructure failure
	// (see internal/faultinject) is retried with exponential backoff before
	// the request fails (default 2; negative disables). Numeric failures —
	// pivot breakdowns — are never transient and never retried.
	RetryAttempts int
	// RetryBackoff is the first retry's backoff; it doubles per attempt
	// (default 5ms).
	RetryBackoff time.Duration
	// BreakerThreshold trips a per-pattern circuit breaker after this many
	// consecutive pivot failures, after which factor requests for that
	// pattern fail fast with 422 until BreakerCooldown elapses (default 3;
	// negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped pattern fails fast (default 30s).
	BreakerCooldown time.Duration
	// StoreDir, when non-empty, enables the durable snapshot store: every
	// completed factorization is written behind (asynchronously) to this
	// directory, and WarmStart restores the working set from it on boot. An
	// empty StoreDir keeps the server fully in-memory (the pre-durability
	// behavior).
	StoreDir string
	// SnapshotInterval is the minimum spacing between write-behind
	// snapshots of the same factor (default 1s; negative = snapshot every
	// completed factorization). A factor's first snapshot is never
	// throttled; under a refactor storm the interval bounds the writer's
	// bandwidth and CPU instead of rewriting the same key back-to-back,
	// at the cost of a restart restoring values up to one interval stale —
	// the same last-written-snapshot semantics a full queue already gives.
	SnapshotInterval time.Duration
	// Tenants maps tenant name (the X-Tenant request header) to its
	// admission limits; TenantDefault applies to every unlisted tenant
	// (zero value: unlimited). See internal/admission.
	Tenants       map[string]admission.TenantLimits
	TenantDefault admission.TenantLimits
	// MaxFactorBytes rejects factor requests whose estimated factor size
	// exceeds this budget with 413 *before* any symbolic work (0 =
	// unlimited). On a plan-cache hit the estimate is the exact nnz(L)×8;
	// on a miss it is the 8×nnz(tril(A)) lower bound — Cholesky fill only
	// adds nonzeros, so a matrix over budget on the lower bound can only
	// be further over after analysis.
	MaxFactorBytes int64
	// MemSoftBytes / MemHardBytes are heap watermarks driving the brownout
	// state machine to shed-low-priority / reject-new-factors (0 = queue
	// depth alone drives brownout). ShedAt / RejectAt override the
	// queue-occupancy brownout thresholds (0 = admission defaults).
	MemSoftBytes uint64
	MemHardBytes uint64
	ShedAt       float64
	RejectAt     float64
}

func (c *Config) fillDefaults() {
	if c.Procs <= 0 {
		c.Procs = runtime.GOMAXPROCS(0)
		if c.Procs > 16 {
			c.Procs = 16
		}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchLimit <= 0 {
		c.BatchLimit = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 512 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = core.DefaultBlockSize
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = plancache.DefaultEntries
	}
	if c.MaxFactors <= 0 {
		c.MaxFactors = c.CacheEntries
	}
	switch {
	case c.RetryAttempts == 0:
		c.RetryAttempts = 2
	case c.RetryAttempts < 0:
		c.RetryAttempts = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	switch {
	case c.BreakerThreshold == 0:
		c.BreakerThreshold = 3
	case c.BreakerThreshold < 0:
		c.BreakerThreshold = 0
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	switch {
	case c.SnapshotInterval == 0:
		c.SnapshotInterval = time.Second
	case c.SnapshotInterval < 0:
		c.SnapshotInterval = 0
	}
}

// Backend is where an admitted request's heavy work runs. The Server's
// pipeline owns everything around it — method, drain and timeout
// handling, admission and the cost model, body parsing and RHS checks, the
// breaker and the factor-size and tenant-cache gates, the plan cache, the
// error envelope, snapshots and metrics — so every backend answers the
// same HTTP contract. Errors map to statuses as in errStatus; WithStatus
// sets one explicitly.
type Backend interface {
	// Factor factors or refactors c.M and fills the response fields the
	// pipeline cannot know: Refactored, Shift and the cluster placement.
	Factor(ctx context.Context, c *FactorCall) (FactorResponse, error)
	// Solve answers an admitted request whose right-hand sides the
	// pipeline already checked against the factor's dimension, filling X
	// or XS, Batch and Node.
	Solve(ctx context.Context, req *SolveRequest) (SolveResponse, error)
	// Live reports the dimension and nnz(L), diagonal included, of the
	// live factor id, without touching any recency order.
	Live(id string) (n int, nnzL int64, ok bool)
	// Status reports the backend's state and its /healthz and /metrics
	// sections.
	Status() BackendStatus
}

// FactorCall is one admitted factor request.
type FactorCall struct {
	ID      string           // the pattern id: M's pattern hash in hex
	M       *sparse.Matrix   // the posted matrix
	Entry   *plancache.Entry // the plan-cache entry for M's pattern
	Tenant  string
	Perturb bool // ?perturb=1: factor A+αI when A is not positive definite
}

// BackendStatus is a backend's part of /healthz and /metrics.
type BackendStatus struct {
	// State is "ok", "degraded" or "down"; "down" answers /healthz with
	// 503. Degraded still answers 200: the service is serving.
	State string
	// Health and Metrics are JSON objects whose fields join the /healthz
	// and /metrics documents (nil: none).
	Health, Metrics any
}

// Server is the request pipeline in front of one Backend. Create with New
// (the Local backend) or NewFront, and mount via Handler.
type Server struct {
	cfg     Config
	cache   *plancache.Cache
	adm     *admission.Controller // multi-tenant worker-pool gate
	cost    admission.CostModel   // observed ns/flop for deadline feasibility
	backend Backend
	local   *Local // the in-process backend; the backend itself unless NewFront chose another

	// planOpts/planKey are the fixed plan-construction options and their
	// cache-key digest.
	planOpts core.Options
	planKey  uint64

	mu       sync.Mutex // guards draining, breakers
	draining bool
	breakers map[string]*breakerState
	idle     chan struct{} // leave's wake-up for WaitIdle (capacity 1)

	// Durable snapshot store (nil when Config.StoreDir is empty or the
	// directory failed to open; storeErr keeps the failure for /metrics).
	st         *store.Store
	storeErr   error
	snapCh     chan *store.FactorSnapshot
	writerQuit chan struct{}
	writerDone chan struct{}
	closeOnce  sync.Once

	met metrics
}

// New builds a Server whose requests run on the in-process Local backend.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	opts := core.Options{BlockSize: cfg.BlockSize, Exec: cfg.Exec}
	return newServer(cfg, opts, nil)
}

// NewFront builds a Server whose pipeline plans with opts (cfg's plan
// fields are not consulted) and runs requests on b. The server's Local
// backend exists beside b: b may delegate to it (Local), and WarmStart
// restores snapshotted factors into it.
func NewFront(cfg Config, opts core.Options, b Backend) *Server {
	cfg.fillDefaults()
	return newServer(cfg, opts, b)
}

func newServer(cfg Config, opts core.Options, b Backend) *Server {
	s := &Server{
		cfg:      cfg,
		planOpts: opts,
		planKey:  opts.ConfigKey(),
		cache:    plancache.New(plancache.Config{MaxEntries: cfg.CacheEntries, MaxBytes: cfg.CacheBytes}),
		adm: admission.New(admission.Config{
			Workers:            cfg.Workers,
			QueueDepth:         cfg.QueueDepth,
			ReserveInteractive: cfg.ReserveInteractive,
			Default:            cfg.TenantDefault,
			Tenants:            cfg.Tenants,
			ShedAt:             cfg.ShedAt,
			RejectAt:           cfg.RejectAt,
			MemSoftBytes:       cfg.MemSoftBytes,
			MemHardBytes:       cfg.MemHardBytes,
		}),
		breakers: make(map[string]*breakerState),
		idle:     make(chan struct{}, 1),
	}
	s.local = newLocal(s)
	s.backend = b
	if b == nil {
		s.backend = s.local
	}
	if cfg.StoreDir != "" {
		s.st, s.storeErr = store.Open(cfg.StoreDir)
		if s.storeErr == nil {
			s.snapCh = make(chan *store.FactorSnapshot, 8)
			s.writerQuit = make(chan struct{})
			s.writerDone = make(chan struct{})
			go s.snapshotWriter()
		}
	}
	return s
}

// Local returns the server's in-process backend.
func (s *Server) Local() *Local { return s.local }

// MaxFactors is the resolved Config.MaxFactors: how many live factors or
// cluster jobs the backend keeps.
func (s *Server) MaxFactors() int { return s.cfg.MaxFactors }

// buildPlan is the one place the pipeline turns a matrix into an analysis:
// ordering + symbolic + partitioning under the configured options, mapped
// by the serving tier's assignment. Both the cold /v1/factor path and
// WarmStart build through it, so a restored plan is bit-identical to a
// freshly built one.
func (s *Server) buildPlan(m *sparse.Matrix) (*core.Plan, sched.Assignment, error) {
	plan, err := core.NewPlan(m, s.planOpts)
	if err != nil {
		return nil, sched.Assignment{}, err
	}
	return plan, plan.ServingAssignment(s.cfg.Procs), nil
}

// batching reports whether single-RHS solves go through the RHS batcher.
func (s *Server) batching() bool { return s.cfg.BatchWindow >= 0 }

// Handler returns the service's HTTP mux, wrapped in the panic-recovery
// middleware: one request hitting a bug (or an injected panic) produces a
// 500, not a dead process with every cached factor lost.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/factor", s.handleFactor)
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return s.recoverPanics(mux)
}

// recoverPanics converts a handler panic into a 500 response. If the
// handler already wrote a response the WriteHeader call is a no-op logged
// by net/http; the connection still closes cleanly either way.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panics.Add(1)
				s.met.errors.Add(1)
				writeJSON(w, http.StatusInternalServerError,
					ErrorBody{Error: fmt.Sprintf("internal panic: %v", rec), Code: "panic"})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Drain flips the server into shutdown mode: /healthz reports 503 so load
// balancers stop routing, new factor/solve requests are refused and queued
// waiters are shed while in-flight ones finish (WaitIdle waits for them).
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.adm.SetDraining(true)
}

// WaitIdle blocks until no factor or solve request is in flight, or ctx
// ends. A shutdown calls it between Drain and closing its listeners, so
// a fresh /healthz probe sees 503 "draining" rather than a refused
// connection for as long as in-flight work keeps the process up.
func (s *Server) WaitIdle(ctx context.Context) error {
	for s.met.inFlight.Load() > 0 {
		select {
		case <-s.idle:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// leave ends a request's in-flight count, waking WaitIdle when it was the
// last one.
func (s *Server) leave() {
	if s.met.inFlight.Add(-1) == 0 {
		select {
		case s.idle <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// tenantOf extracts the request's tenant identity.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return admission.DefaultTenant
}

// admissionDeadline converts ctx's deadline for the admission request
// (zero when the context has none).
func admissionDeadline(ctx context.Context) time.Time {
	d, _ := ctx.Deadline()
	return d
}

// ---- response plumbing ----

// ErrorBody is the JSON error envelope. Pivot breakdowns carry their
// location so a client can see *where* its matrix lost positive
// definiteness, not just that it did; admission rejections carry the
// Retry-After hint in-body as well as in the header.
type ErrorBody struct {
	Error string   `json:"error"`
	Code  string   `json:"code,omitempty"`  // "pivot_breakdown", "breaker_open", "panic", admission codes, ...
	Block *int     `json:"block,omitempty"` // failing panel (pivot breakdowns only)
	Row   *int     `json:"row,omitempty"`   // failing global row
	Pivot *float64 `json:"pivot,omitempty"` // offending pivot value
	// RetryAfterS mirrors the Retry-After header on 429/503 rejections.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// errBody builds the error envelope, extracting pivot coordinates when the
// chain contains a kernels.PivotError.
func errBody(err error) ErrorBody {
	body := ErrorBody{Error: err.Error()}
	var pe *kernels.PivotError
	if errors.As(err, &pe) {
		if errors.Is(err, errBreakerOpen) {
			body.Code = "breaker_open"
		} else {
			body.Code = "pivot_breakdown"
		}
		block, row, pivot := pe.Block, pe.Row, pe.Pivot
		body.Block, body.Row, body.Pivot = &block, &row, &pivot
	} else if errors.Is(err, errBreakerOpen) {
		body.Code = "breaker_open"
	}
	return body
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeMerged writes the JSON object doc with the fields of the JSON
// object extra (a backend's section) appended; nil extra writes doc alone.
func writeMerged(w http.ResponseWriter, code int, doc, extra any) {
	b, _ := json.Marshal(doc) // plain data: cannot fail
	if extra != nil {
		if e, err := json.Marshal(extra); err == nil && len(e) > 2 {
			b = append(append(b[:len(b)-1], ','), e[1:]...)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func (s *Server) writeErr(w http.ResponseWriter, code int, err error) {
	var rej *admission.Rejection
	if errors.As(err, &rej) {
		s.writeRejection(w, rej)
		return
	}
	if code != http.StatusTooManyRequests {
		s.met.errors.Add(1)
	}
	writeJSON(w, code, errBody(err))
}

// writeRejection renders a structured admission rejection: the Retry-After
// header (whole seconds, as HTTP requires) plus the error envelope with
// the stable code and the same hint in-body.
func (s *Server) writeRejection(w http.ResponseWriter, rej *admission.Rejection) {
	s.met.rejected.Add(1)
	if rej.Status != http.StatusTooManyRequests {
		s.met.errors.Add(1)
	}
	ra := rej.RetryAfter
	if ra <= 0 {
		ra = time.Second
	}
	secs := int64((ra + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, rej.Status, ErrorBody{
		Error:       rej.Message,
		Code:        rej.Code,
		RetryAfterS: float64(secs),
	})
}

// statusError is a backend error carrying its HTTP status.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// WithStatus marks a backend error to be answered with the HTTP status
// code.
func WithStatus(code int, err error) error { return &statusError{code: code, err: err} }

// errStatus maps a backend or admission error to its HTTP status: an
// explicit WithStatus or admission status first, then a pivot breakdown
// (the client's matrix) 422, an invalidated factor 409, an expired
// deadline 504, and anything else — transient faults that outlived their
// retries included — 500.
func errStatus(err error) int {
	var se *statusError
	var rej *admission.Rejection
	switch {
	case errors.As(err, &se):
		return se.code
	case errors.As(err, &rej):
		return rej.Status
	case errors.Is(err, kernels.ErrNotPositiveDefinite):
		return http.StatusUnprocessableEntity
	case errors.Is(err, errFactorInvalid):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// ---- per-pattern circuit breaker ----

var errBreakerOpen = errors.New("circuit breaker open: this pattern's factorizations keep failing on a pivot; retry after the cooldown or fix the matrix")

// breakerState tracks consecutive pivot failures for one pattern id.
type breakerState struct {
	fails     int
	until     time.Time // while now < until, factor requests fail fast
	lastPivot error     // most recent pivot failure, echoed by fail-fast responses
}

// breakerOpen reports whether id is tripped; the returned error wraps the
// pattern's last pivot failure so the fail-fast 422 still carries the
// breakdown location. A breaker whose cooldown has elapsed resets fully:
// the next real factorization decides its fate.
func (s *Server) breakerOpen(id string) (error, bool) {
	if s.cfg.BreakerThreshold <= 0 {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	bs, ok := s.breakers[id]
	if !ok || bs.until.IsZero() {
		return nil, false
	}
	if time.Now().After(bs.until) {
		delete(s.breakers, id)
		return nil, false
	}
	return fmt.Errorf("%w: %w", errBreakerOpen, bs.lastPivot), true
}

// breakerNote records a factor/refactor outcome for id. Only pivot
// breakdowns count against the pattern; transient faults, cancellations,
// and successes clear it.
func (s *Server) breakerNote(id string, err error) {
	if s.cfg.BreakerThreshold <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil || !errors.Is(err, kernels.ErrNotPositiveDefinite) {
		delete(s.breakers, id)
		return
	}
	bs, ok := s.breakers[id]
	if !ok {
		bs = &breakerState{}
		s.breakers[id] = bs
	}
	bs.fails++
	bs.lastPivot = err
	if bs.fails >= s.cfg.BreakerThreshold && bs.until.IsZero() {
		bs.until = time.Now().Add(s.cfg.BreakerCooldown)
		s.met.breakerTrips.Add(1)
	}
}

// ---- /v1/factor ----

// FactorResponse is the /v1/factor success body.
type FactorResponse struct {
	ID         string `json:"id"`
	N          int    `json:"n"`
	NNZ        int    `json:"nnz"`
	NNZL       int64  `json:"nnz_l"`
	Flops      int64  `json:"flops"`
	CacheHit   bool   `json:"cache_hit"`
	Refactored bool   `json:"refactored"`
	// Shift is the diagonal perturbation α applied under ?perturb=1; zero
	// when the matrix factored unmodified. The factor then solves A+αI.
	Shift float64 `json:"shift,omitempty"`
	// Cluster placement, set by the cluster backend only: the nodes the
	// run spanned, the failover epochs it survived and its primary
	// assembly node. Degraded marks a factor computed on the gateway itself
	// because the fleet was unavailable (Nodes 0, Primary "local").
	Nodes     int     `json:"nodes,omitempty"`
	Epochs    uint32  `json:"epochs,omitempty"`
	Primary   string  `json:"primary,omitempty"`
	Degraded  bool    `json:"degraded,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

func (s *Server) handleFactor(w http.ResponseWriter, r *http.Request) {
	s.met.factorRequests.Add(1)
	s.met.inFlight.Add(1)
	defer s.leave()
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.isDraining() {
		s.writeErr(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// Shed doomed requests before parsing the matrix — the largest body
	// the server accepts. The class is not knowable until the pattern
	// hash is, so precheck as Refactor (the lenient choice: a cold
	// factorization slipping past here is still rejected by Admit).
	tenant := tenantOf(r)
	if rej := s.adm.Precheck(tenant, admission.Refactor); rej != nil {
		s.writeRejection(w, rej)
		return
	}

	m, err := ReadMatrix(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.Header.Get("Content-Type"))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	perturb := r.URL.Query().Get("perturb") == "1" || r.URL.Query().Get("perturb") == "true"

	// Fail fast on a tripped breaker before analysis or queueing: the id is
	// the pattern hash, so it is known before any heavy work.
	id := fmt.Sprintf("%016x", m.PatternHash())
	if berr, open := s.breakerOpen(id); open {
		s.met.breakerFastFails.Add(1)
		s.writeErr(w, http.StatusUnprocessableEntity, berr)
		return
	}

	// Price the request before admission. A live factor makes this a
	// numeric-only refactorization (middle priority class); a cached plan
	// gives the exact modeled flops (deadline feasibility) and factor
	// size. Neither peek promotes LRU positions or counts as a hit.
	pri := admission.Cold
	if _, _, live := s.backend.Live(id); live {
		pri = admission.Refactor
	}
	var costEst time.Duration
	var exactBytes int64
	if pe, ok := s.cache.Peek(m, s.planKey); ok {
		costEst = s.cost.Estimate(pe.Plan.Exact.Flops)
		exactBytes = pe.Plan.Exact.NNZ() * 8
	}
	if body, reject := s.factorBytesGate(m, exactBytes); reject {
		s.met.rejected.Add(1)
		s.met.errors.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, body)
		return
	}
	if rej := s.tenantCacheGate(tenant, m); rej != nil {
		s.writeRejection(w, rej)
		return
	}

	rel, rej, err := s.adm.Admit(ctx, admission.Request{
		Tenant:   tenant,
		Priority: pri,
		Cost:     costEst,
		Deadline: admissionDeadline(ctx),
	})
	if rej != nil {
		s.writeRejection(w, rej)
		return
	}
	if err != nil {
		s.writeErr(w, errStatus(err), err)
		return
	}
	defer rel()

	start := time.Now()
	entry, hit, err := s.cache.GetOrBuildFor(m, s.planKey, tenant, func() (*core.Plan, sched.Assignment, error) {
		return s.buildPlan(m)
	})
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	resp, err := s.backend.Factor(ctx, &FactorCall{ID: id, M: m, Entry: entry, Tenant: tenant, Perturb: perturb})
	s.breakerNote(id, err)
	if err != nil {
		s.writeErr(w, errStatus(err), err)
		return
	}
	took := time.Since(start)
	if resp.Refactored {
		s.met.refactors.Add(1)
		s.met.refactorLat.Observe(took)
	} else {
		s.met.factors.Add(1)
		s.met.factorLat.Observe(took)
	}
	plan := entry.Plan
	s.cost.Observe(plan.Exact.Flops, took)
	resp.ID, resp.N, resp.NNZ, resp.CacheHit = id, m.N, m.NNZ(), hit
	resp.NNZL, resp.Flops = plan.Exact.NZinL, plan.Exact.Flops
	resp.ElapsedMs = float64(took.Microseconds()) / 1e3
	writeJSON(w, http.StatusOK, resp)
}

// factorBytesGate enforces Config.MaxFactorBytes before any symbolic work.
// exactBytes is 8×nnz(L), diagonal included, when the analysis is cached, 0
// otherwise — then the gate falls back to 8×nnz(tril(A)), a true lower
// bound since Cholesky fill only adds nonzeros to A's lower triangle.
func (s *Server) factorBytesGate(m *sparse.Matrix, exactBytes int64) (ErrorBody, bool) {
	if s.cfg.MaxFactorBytes <= 0 {
		return ErrorBody{}, false
	}
	est, kind := exactBytes, "exact"
	if est == 0 {
		est, kind = 8*trilNNZ(m), "lower bound"
	}
	if est <= s.cfg.MaxFactorBytes {
		return ErrorBody{}, false
	}
	return ErrorBody{
		Error: fmt.Sprintf("estimated factor size %d bytes (%s) exceeds the %d-byte budget", est, kind, s.cfg.MaxFactorBytes),
		Code:  "factor_too_large",
	}, true
}

// trilNNZ counts stored entries on or below the diagonal — the part of A
// that L must at least contain.
func trilNNZ(m *sparse.Matrix) int64 {
	var nnz int64
	for j := 0; j < m.N; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if m.RowInd[p] >= j {
				nnz++
			}
		}
	}
	return nnz
}

// tenantCacheGate rejects a factor request that would build a *new* plan
// while its tenant is already at its cached-bytes quota (requests reusing
// a cached analysis always pass — they add no bytes).
func (s *Server) tenantCacheGate(tenant string, m *sparse.Matrix) *admission.Rejection {
	lim := s.adm.Limits(tenant)
	if lim.MaxCacheBytes <= 0 {
		return nil
	}
	if _, ok := s.cache.Peek(m, s.planKey); ok {
		return nil
	}
	if used := s.cache.TenantBytes(tenant); used >= lim.MaxCacheBytes {
		return &admission.Rejection{
			Status: http.StatusTooManyRequests, Code: "tenant_quota",
			RetryAfter: 30 * time.Second,
			Message:    fmt.Sprintf("tenant %q holds %d cached plan bytes, at or over its %d-byte quota; evict by factoring fewer distinct patterns or raise the quota", tenant, used, lim.MaxCacheBytes),
		}
	}
	return nil
}

// ---- /v1/solve ----

// SolveResponse is the /v1/solve success body.
type SolveResponse struct {
	ID        string      `json:"id"`
	X         []float64   `json:"x,omitempty"`
	XS        [][]float64 `json:"xs,omitempty"`
	Batch     int         `json:"batch,omitempty"` // RHS count of the coalesced sweep
	Node      string      `json:"node,omitempty"`  // cluster node that solved ("local": the gateway itself)
	ElapsedMs float64     `json:"elapsed_ms"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.met.solveRequests.Add(1)
	s.met.inFlight.Add(1)
	defer s.leave()
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.isDraining() {
		s.writeErr(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// Shed doomed requests on headers alone, before reading the body: a
	// flooding tenant's overflow must be rejected for microseconds of
	// CPU, not a full JSON parse, or the rejection path itself becomes
	// the overload. Admit re-applies the same gates authoritatively.
	tenant := tenantOf(r)
	if rej := s.adm.Precheck(tenant, admission.Interactive); rej != nil {
		s.writeRejection(w, rej)
		return
	}

	req, err := ReadSolve(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	n, nnzL, ok := s.backend.Live(req.ID)
	if !ok {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("unknown factor id %q", req.ID))
		return
	}
	if err := req.Check(n); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	nrhs := len(req.BS)
	if req.B != nil {
		nrhs = 1
	}

	start := time.Now()
	if req.B != nil && s.batching() {
		// Batched path: the tenant is charged (token bucket + brownout
		// gate) per request here; the coalesced sweep itself takes one
		// internal worker slot on behalf of the whole batch.
		if rej := s.adm.Charge(tenant, admission.Interactive); rej != nil {
			s.writeRejection(w, rej)
			return
		}
	} else {
		rel, err := s.admitSolve(ctx, tenant, nnzL, nrhs)
		if err != nil {
			s.writeErr(w, errStatus(err), err)
			return
		}
		defer rel()
	}
	resp, err := s.backend.Solve(ctx, req)
	took := time.Since(start)
	s.met.solveLat.Observe(took)
	if err != nil {
		s.writeErr(w, errStatus(err), err)
		return
	}
	s.met.solvedRHS.Add(int64(nrhs))
	resp.ID = req.ID
	resp.ElapsedMs = float64(took.Microseconds()) / 1e3
	writeJSON(w, http.StatusOK, resp)
}

// admitSolve takes a worker slot for one sweep of nrhs right-hand sides
// over a factor with nnzL stored entries; tenant "" marks the batcher's
// internal sweeps. The cost estimate is ~4 flops per nonzero of L per
// right-hand side (forward + back substitution), priced through the same
// observed-throughput model as factorizations so deadline-infeasible
// solves shed instead of queueing. A rejection comes back as the error.
func (s *Server) admitSolve(ctx context.Context, tenant string, nnzL int64, nrhs int) (func(), error) {
	rel, rej, err := s.adm.Admit(ctx, admission.Request{
		Tenant:   tenant,
		Priority: admission.Interactive,
		Cost:     s.cost.Estimate(4 * nnzL * int64(nrhs)),
		Deadline: admissionDeadline(ctx),
		Internal: tenant == "",
	})
	if rej != nil {
		return nil, rej
	}
	return rel, err
}

// ---- /healthz and /metrics ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.healthzRequests.Add(1)
	st := s.backend.Status()
	body := struct {
		Status    string `json:"status"`    // ok | degraded | down | draining
		Admission string `json:"admission"` // ok | shed-low-priority | reject-new-factors | drain
	}{st.State, s.adm.State().String()}
	// Brownout and a degraded backend keep /healthz at 200 — the service is
	// degraded, not dead, and a 503 here would make load balancers yank an
	// instance that is still serving. The state strings are the signal.
	code := http.StatusOK
	switch {
	case s.isDraining():
		body.Status, code = "draining", http.StatusServiceUnavailable
	case st.State == "down":
		code = http.StatusServiceUnavailable
	}
	writeMerged(w, code, body, st.Health)
}

// metricsDoc is the pipeline's part of the /metrics JSON document; the
// backend's section (BackendStatus.Metrics) joins it at the top level.
type metricsDoc struct {
	Status   string `json:"status"` // the backend's state
	Requests struct {
		Factor  int64 `json:"factor"`
		Solve   int64 `json:"solve"`
		Healthz int64 `json:"healthz"`
		Metrics int64 `json:"metrics"`
	} `json:"requests"`
	InFlight int64 `json:"in_flight"`
	Rejected int64 `json:"rejected"`
	Errors   int64 `json:"errors"`
	Panics   int64 `json:"panics"`
	Retries  int64 `json:"retries"`
	Breaker  struct {
		Trips     int64 `json:"trips"`
		FastFails int64 `json:"fast_fails"`
		Open      int   `json:"open"` // patterns currently failing fast
	} `json:"breaker"`
	Factors   int64           `json:"factors"`
	Refactors int64           `json:"refactors"`
	SolvedRHS int64           `json:"solved_rhs"`
	Cache     plancache.Stats `json:"plan_cache"`
	Store     *storeDoc       `json:"store,omitempty"` // absent without a store directory
	Admission admission.Stats `json:"admission"`       // brownout state, queues, per-tenant counters

	Latency struct {
		Factor   latencyJSON `json:"factor"`
		Refactor latencyJSON `json:"refactor"`
		Solve    latencyJSON `json:"solve"`
	} `json:"latency"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.metricsRequests.Add(1)
	st := s.backend.Status()
	var doc metricsDoc
	doc.Status = st.State
	doc.Requests.Factor = s.met.factorRequests.Load()
	doc.Requests.Solve = s.met.solveRequests.Load()
	doc.Requests.Healthz = s.met.healthzRequests.Load()
	doc.Requests.Metrics = s.met.metricsRequests.Load()
	doc.InFlight = s.met.inFlight.Load()
	doc.Rejected = s.met.rejected.Load()
	doc.Errors = s.met.errors.Load()
	doc.Factors = s.met.factors.Load()
	doc.Refactors = s.met.refactors.Load()
	doc.SolvedRHS = s.met.solvedRHS.Load()
	doc.Panics = s.met.panics.Load()
	doc.Retries = s.met.retries.Load()
	doc.Breaker.Trips = s.met.breakerTrips.Load()
	doc.Breaker.FastFails = s.met.breakerFastFails.Load()
	doc.Cache = s.cache.Stats()
	s.mu.Lock()
	now := time.Now()
	for _, bs := range s.breakers {
		if !bs.until.IsZero() && now.Before(bs.until) {
			doc.Breaker.Open++
		}
	}
	s.mu.Unlock()
	doc.Admission = s.adm.Snapshot()
	doc.Latency.Factor = latencySnapshot(&s.met.factorLat)
	doc.Latency.Refactor = latencySnapshot(&s.met.refactorLat)
	doc.Latency.Solve = latencySnapshot(&s.met.solveLat)
	if s.st != nil || s.storeErr != nil {
		sd := &storeDoc{
			Writes:       s.met.snapWrites.Load(),
			WriteErrors:  s.met.snapErrors.Load(),
			Dropped:      s.met.snapDropped.Load(),
			Skipped:      s.met.snapSkipped.Load(),
			WarmRestored: s.met.warmRestored.Load(),
		}
		if s.storeErr != nil {
			sd.OpenError = s.storeErr.Error()
		}
		if s.st != nil {
			sd.Stats = s.st.Stats()
		}
		doc.Store = sd
	}
	writeMerged(w, http.StatusOK, doc, st.Metrics)
}

// storeDoc is the /metrics section for the durable snapshot store.
type storeDoc struct {
	Writes       int64       `json:"writes"`        // write-behind snapshots committed
	WriteErrors  int64       `json:"write_errors"`  // snapshot writes that failed
	Dropped      int64       `json:"dropped"`       // snapshots dropped (queue full)
	Skipped      int64       `json:"skipped"`       // snapshots skipped by the interval throttle
	WarmRestored int64       `json:"warm_restored"` // snapshots restored by the last WarmStart
	OpenError    string      `json:"open_error,omitempty"`
	Stats        store.Stats `json:"stats"`
}

// CacheStats exposes the plan-cache counters (used by tests and the
// service benchmark; HTTP clients read them from /metrics).
func (s *Server) CacheStats() plancache.Stats { return s.cache.Stats() }
