package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blockfanout/internal/cluster/wire"
	"blockfanout/internal/core"
	"blockfanout/internal/fanout"
	"blockfanout/internal/faultinject"
	"blockfanout/internal/kernels"
	"blockfanout/internal/lru"
	"blockfanout/internal/machine"
	"blockfanout/internal/mapping"
	"blockfanout/internal/sched"
	"blockfanout/internal/server"
)

// GatewayConfig configures the cluster gateway.
type GatewayConfig struct {
	// Procs is the virtual processor count of every job's block mapping
	// (default 8); the speed-aware partition spreads these over the nodes.
	Procs int
	// Plan-construction options. Jobs are planned with uniform blocking
	// and the default ordering (minimum degree); BlockSize crosses the wire
	// to every node. Exec reaches only the plan key and the degraded-mode
	// Local backend (default: the work-stealing engine): cluster nodes
	// always run the restricted free-placement executor.
	BlockSize int
	Exec      fanout.Mode
	// Replicas is how many assembly targets hold the factor beyond the
	// primary (default 1), for solve failover.
	Replicas int
	// MinNodes gates factor requests until this many nodes joined
	// (default 1).
	MinNodes int
	// HeartbeatInterval is the heartbeat cadence the fleet is expected to
	// keep (default 500ms), and HeartbeatMisses is how many consecutive
	// intervals of silence declare a node dead (default 4). Together they
	// derive HeartbeatTimeout when it is unset.
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// HeartbeatTimeout declares a silent node dead. Unset, it is
	// HeartbeatInterval × HeartbeatMisses (default 2s); setting it directly
	// overrides the derivation.
	HeartbeatTimeout time.Duration
	// SendTimeout bounds every control-plane frame write to a node, so a
	// wedged peer connection fails the send instead of blocking the gateway
	// (default 5s).
	SendTimeout time.Duration
	// FactorRetries is how many times a run whose epoch failed on an
	// infrastructure (non-pivot) error is restarted with jittered
	// exponential backoff before the request fails (default 2; negative
	// disables). Pivot breakdowns are numeric facts and are never retried.
	FactorRetries int
	// RetryBackoff is the base backoff of the first epoch retry; it doubles
	// per retry with ±50% jitter (default 50ms).
	RetryBackoff time.Duration
	// ReadyTimeout bounds the gap between "every node reported Done" and
	// "an assembly target holds the full factor". When it expires the
	// epoch is restarted: the only way that state persists is a block
	// frame lost en route to every assembly target (default 5s).
	ReadyTimeout time.Duration
	// DisableLocalFallback turns off degraded mode: by default, when fewer
	// than MinNodes are alive the gateway factors on its own Local backend
	// (single-node, in-process) and keeps serving solves, reporting
	// "degraded" from /healthz instead of erroring.
	DisableLocalFallback bool
	// RequestTimeout (default 120s) and QueueDepth configure the request
	// pipeline NewGateway puts in front of the cluster; NewGatewayFront
	// takes a whole server.Config instead and ignores both.
	RequestTimeout time.Duration
	QueueDepth     int
	// Logf receives progress lines; default log.Printf.
	Logf func(format string, args ...any)
}

func (c *GatewayConfig) fillDefaults() {
	if c.Procs <= 0 {
		c.Procs = 8
	}
	if c.BlockSize <= 0 {
		c.BlockSize = core.DefaultBlockSize
	}
	if c.Replicas < 0 {
		c.Replicas = 0
	} else if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.MinNodes <= 0 {
		c.MinNodes = 1
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 4
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = time.Duration(c.HeartbeatMisses) * c.HeartbeatInterval
	}
	if c.SendTimeout <= 0 {
		c.SendTimeout = 5 * time.Second
	}
	switch {
	case c.FactorRetries == 0:
		c.FactorRetries = 2
	case c.FactorRetries < 0:
		c.FactorRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.ReadyTimeout <= 0 {
		c.ReadyTimeout = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// member is one joined node.
type member struct {
	idx      int
	id       string
	dataAddr string
	speed    float64

	sendMu      sync.Mutex
	conn        net.Conn
	sendTimeout time.Duration

	mu       sync.Mutex
	alive    bool
	lastBeat time.Time
	stats    wire.NodeStats
	pending  map[uint64]chan *wire.SolveResp // in-flight solves by seq
}

func (m *member) send(f wire.Frame) error {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	if m.conn == nil {
		return fmt.Errorf("cluster: node %s disconnected", m.id)
	}
	// A per-message write deadline: a wedged or partitioned peer fails this
	// send (and gets declared dead by the caller's error handling or the
	// watchdog) instead of blocking the gateway behind a full TCP window.
	if m.sendTimeout > 0 {
		m.conn.SetWriteDeadline(time.Now().Add(m.sendTimeout))
		defer m.conn.SetWriteDeadline(time.Time{})
	}
	return wire.WriteFrame(m.conn, f)
}

func (m *member) isAlive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alive
}

// gwJob is one pattern's distributed factorization state on the gateway.
type gwJob struct {
	id   string
	n    int   // matrix dimension, fixed by the pattern the id hashes
	nnzL int64 // nnz(L) with the diagonal (solve cost estimates)

	// reqMu serializes factor requests per pattern (a run must finish or
	// fail before the next re-shards the same job).
	reqMu sync.Mutex
	// solveMu is held for reading by a solve from routing to its answer,
	// and for writing by a factor request while it retires the previous
	// run, so no node reloads values under a solve already routed to it.
	solveMu sync.RWMutex

	plan  *core.Plan
	pr    *sched.Program
	loads []int64 // per-virtual-processor flops

	mu       sync.Mutex
	runID    uint64
	epoch    uint32
	members  []*member // participant index → member (fixed per run)
	nodeOf   []uint16
	primary  int
	replicas []int
	doneOK   map[int]bool
	failures []*wire.Done
	ready    map[int]bool
	notify   chan struct{}
	solvable bool
	// Admission metadata of the current run, stamped into every StartJob so
	// nodes can abort work whose requester already gave up.
	tenant        string
	deadlineMicro int64
	val           []float64 // current run's matrix values (for failover restarts)
	// lastSnap is when the pattern's plan snapshot was last enqueued.
	// Guarded by reqMu.
	lastSnap time.Time
	// evicted is set once the registry dropped the job: no failover may
	// restart it after that. Guarded by mu.
	evicted bool

	// pins counts the factor and solve requests using the job; eviction
	// skips a pinned job. Guarded by Gateway.mu.
	pins int
}

func (j *gwJob) wake() {
	select {
	case j.notify <- struct{}{}:
	default:
	}
}

// Gateway shards factor ownership across worker nodes and fails running
// factorizations over to buddies when a node dies. It is the cluster
// backend of a server.Server request pipeline: mount Handler behind HTTP;
// Serve accepts node control connections.
type Gateway struct {
	cfg   GatewayConfig
	front *server.Server
	local *server.Local // degraded mode: the front's in-process backend

	planKey uint64 // the nodes' plan configuration, digested

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	ln     net.Listener

	mu      sync.Mutex // guards members, byID, jobs and every job's pins
	members []*member
	byID    map[string]int
	jobs    *lru.Cache[string, *gwJob] // at most the front's MaxFactors idle jobs

	runSeq   atomic.Uint64
	solveSeq atomic.Uint64

	metFailovers    atomic.Uint64
	metEpochs       atomic.Uint64
	metEpochRetries atomic.Uint64
	metLocalFactors atomic.Uint64
	metLocalSolves  atomic.Uint64
	metEvictedJobs  atomic.Uint64
}

// NewGateway builds a gateway whose request pipeline has 16 admission
// workers and cfg's RequestTimeout and QueueDepth, and otherwise
// server.Config's defaults; call Serve with a listener for the node
// control plane.
func NewGateway(cfg GatewayConfig) *Gateway {
	front := server.Config{Workers: 16, QueueDepth: cfg.QueueDepth, RequestTimeout: cfg.RequestTimeout}
	if front.RequestTimeout <= 0 {
		front.RequestTimeout = 120 * time.Second
	}
	return NewGatewayFront(cfg, front)
}

// NewGatewayFront builds a gateway whose request pipeline is configured by
// front, exactly as a single-process server's would be; cfg's
// RequestTimeout and QueueDepth are not consulted. Three front settings
// are the cluster's to decide: the plan options and Procs come from cfg,
// because every node derives its schedule from them; RHS batching is off,
// because a cluster solve must not wait out a batch window.
func NewGatewayFront(cfg GatewayConfig, front server.Config) *Gateway {
	cfg.fillDefaults()
	opts := core.Options{BlockSize: cfg.BlockSize, Exec: cfg.Exec}
	g := &Gateway{
		cfg:     cfg,
		planKey: opts.ConfigKey(),
		byID:    make(map[string]int),
	}
	front.Procs = cfg.Procs
	front.BatchWindow = -1
	g.front = server.NewFront(front, opts, g)
	g.local = g.front.Local()
	g.jobs = lru.New[string](g.front.MaxFactors(), func(j *gwJob) bool { return j.pins > 0 })
	return g
}

// Front returns the gateway's request pipeline, for draining, closing and
// the debug listener.
func (g *Gateway) Front() *server.Server { return g.front }

// Serve accepts node control connections on ln until ctx is cancelled.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	g.ctx, g.cancel = context.WithCancel(ctx)
	defer g.cancel()
	g.ln = ln
	stop := context.AfterFunc(g.ctx, func() { ln.Close() })
	defer stop()
	g.wg.Add(1)
	go g.watchdog()
	for {
		conn, err := ln.Accept()
		if err != nil {
			g.cancel()
			g.wg.Wait()
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		g.wg.Add(1)
		go g.nodeConn(faultinject.WrapConn("cluster.gw.ctrl", conn))
	}
}

// nodeConn handles one node's control connection: Hello registers it, then
// heartbeats, Done, FactorReady, and SolveResp frames flow until the
// connection drops — which declares the node dead immediately.
func (g *Gateway) nodeConn(conn net.Conn) {
	defer g.wg.Done()
	defer conn.Close()
	stop := context.AfterFunc(g.ctx, func() { conn.Close() })
	defer stop()

	conn.SetReadDeadline(time.Now().Add(2 * g.cfg.HeartbeatTimeout))
	f, err := wire.ReadFrame(conn)
	if err != nil || f.Type != wire.THello {
		g.cfg.Logf("cluster gateway: connection from %v did not Hello", conn.RemoteAddr())
		return
	}
	m := g.register(f.Hello, conn)
	g.cfg.Logf("cluster gateway: node %s joined (data %s, speed %.2f)", m.id, m.dataAddr, m.speed)
	for {
		// A read deadline well past the heartbeat timeout: the watchdog is
		// what declares silence, but a fully wedged connection must also
		// unblock this goroutine eventually.
		conn.SetReadDeadline(time.Now().Add(2 * g.cfg.HeartbeatTimeout))
		f, err := wire.ReadFrame(conn)
		if err != nil {
			g.markDead(m, fmt.Sprintf("control connection lost: %v", err))
			return
		}
		switch f.Type {
		case wire.THeartbeat:
			m.mu.Lock()
			m.lastBeat = time.Now()
			m.stats = f.Heartbeat.Stats
			m.mu.Unlock()
		case wire.TDone:
			g.handleDone(m, f.Done)
		case wire.TFactorReady:
			g.handleReady(m, f.FactorReady)
		case wire.TSolveResp:
			m.mu.Lock()
			ch := m.pending[f.SolveResp.Seq]
			delete(m.pending, f.SolveResp.Seq)
			m.mu.Unlock()
			if ch != nil {
				ch <- f.SolveResp
			}
		default:
			g.cfg.Logf("cluster gateway: unexpected frame %v from node %s", f.Type, m.id)
		}
	}
}

func (g *Gateway) register(h *wire.Hello, conn net.Conn) *member {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i, ok := g.byID[h.ID]; ok {
		// Rejoin: reuse the slot so participant indices stay stable.
		m := g.members[i]
		m.sendMu.Lock()
		m.conn = conn
		m.sendMu.Unlock()
		m.mu.Lock()
		m.dataAddr, m.speed = h.DataAddr, h.Speed
		m.alive, m.lastBeat = true, time.Now()
		m.mu.Unlock()
		return m
	}
	m := &member{
		idx: len(g.members), id: h.ID, dataAddr: h.DataAddr, speed: h.Speed,
		conn: conn, alive: true, lastBeat: time.Now(),
		sendTimeout: g.cfg.SendTimeout,
		pending:     make(map[uint64]chan *wire.SolveResp),
	}
	g.members = append(g.members, m)
	g.byID[h.ID] = m.idx
	return m
}

func (g *Gateway) watchdog() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.HeartbeatTimeout / 4)
	defer t.Stop()
	for {
		select {
		case <-g.ctx.Done():
			return
		case <-t.C:
			g.mu.Lock()
			members := append([]*member(nil), g.members...)
			g.mu.Unlock()
			for _, m := range members {
				m.mu.Lock()
				silent := m.alive && time.Since(m.lastBeat) > g.cfg.HeartbeatTimeout
				m.mu.Unlock()
				if silent {
					g.markDead(m, "heartbeat timeout")
				}
			}
		}
	}
}

// markDead declares a node dead and fails over every job it participates
// in: its virtual processors move to the buddy, assembly targets are
// re-picked if needed, and the epoch restarts on the survivors.
func (g *Gateway) markDead(m *member, reason string) {
	m.mu.Lock()
	was := m.alive
	m.alive = false
	m.mu.Unlock()
	if !was {
		return
	}
	g.cfg.Logf("cluster gateway: node %s dead (%s)", m.id, reason)
	g.mu.Lock()
	jobs := g.jobs.Values()
	g.mu.Unlock()
	for _, j := range jobs {
		g.failover(j, m)
	}
}

// failover restarts j's current run without dead, if dead participates.
func (g *Gateway) failover(j *gwJob, dead *member) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.evicted {
		return // its nodes were told to drop it
	}
	deadIdx := -1
	alive := make([]bool, len(j.members))
	for i, m := range j.members {
		alive[i] = m.isAlive()
		if m == dead {
			deadIdx = i
		}
	}
	if deadIdx < 0 || j.runID == 0 || j.solvable || len(j.failures) > 0 {
		// Node not in this run, run already completed (solve routing
		// handles assembly-target death separately), or run already
		// failed — nothing to restart.
		j.wake()
		return
	}
	anyAlive := false
	for _, a := range alive {
		anyAlive = anyAlive || a
	}
	if !anyAlive {
		j.failures = append(j.failures, &wire.Done{
			JobID: j.id, RunID: j.runID, Epoch: j.epoch, Err: "all nodes dead",
		})
		j.wake()
		return
	}

	// Buddy recovery over participant indices, shared with the simulator's
	// fault plan: every processor of a dead node moves to the next
	// survivor. Cascading failures compose (buddy-of-a-buddy).
	for p, nd := range j.nodeOf {
		if !alive[nd] {
			j.nodeOf[p] = uint16(machine.Buddy(int32(nd), alive))
		}
	}
	// Re-pick assembly targets among survivors, keyed by the same ring so
	// surviving targets stay targets.
	ids := make([]string, len(j.members))
	for i, m := range j.members {
		ids[i] = m.id
	}
	asm := buildRing(ids).pick(fnv1a(j.id), 1+g.cfg.Replicas, func(i int) bool { return alive[i] })
	j.primary, j.replicas = asm[0], asm[1:]

	// Each survivor restarts from the per-block predone set it keeps.
	j.epoch++
	g.metFailovers.Add(1)
	g.metEpochs.Add(1)
	j.doneOK = make(map[int]bool)
	for i := range j.ready {
		if !alive[i] {
			delete(j.ready, i)
		}
	}
	g.cfg.Logf("cluster gateway: job %s failing over to epoch %d (primary %s)", j.id, j.epoch, j.members[j.primary].id)
	g.broadcastStartLocked(j)
	j.wake()
}

// readyTargetsLocked lists the assembly targets that hold the full
// factor, primary first and then the replicas in order: the nodes a solve
// tries, in turn. Caller holds j.mu.
func (j *gwJob) readyTargetsLocked() []*member {
	var ts []*member
	for _, i := range append([]int{j.primary}, j.replicas...) {
		if j.ready[i] {
			ts = append(ts, j.members[i])
		}
	}
	return ts
}

func (j *gwJob) allDoneLocked() bool {
	for i, m := range j.members {
		if m.isAlive() && !j.doneOK[i] {
			return false
		}
	}
	return true
}

// broadcastStartLocked sends the current epoch's StartJob to every alive
// participant. Caller holds j.mu.
func (g *Gateway) broadcastStartLocked(j *gwJob) {
	colptr, rowind := matrixToWire(j.plan.A)
	parts := make([]wire.Participant, len(j.members))
	for i, m := range j.members {
		m.mu.Lock()
		parts[i] = wire.Participant{ID: m.id, DataAddr: m.dataAddr, Alive: m.alive}
		m.mu.Unlock()
	}
	reps := make([]uint16, len(j.replicas))
	for i, r := range j.replicas {
		reps[i] = uint16(r)
	}
	sj := &wire.StartJob{
		JobID: j.id, RunID: j.runID, Epoch: j.epoch,
		N: uint32(j.plan.A.N), ColPtr: colptr, RowInd: rowind, Val: j.val,
		BlockSize: uint32(g.cfg.BlockSize), Procs: uint32(g.cfg.Procs),
		NodeOf:       append([]uint16(nil), j.nodeOf...),
		Participants: parts, Primary: uint16(j.primary), Replicas: reps,
		Tenant: j.tenant, DeadlineUnixMicro: j.deadlineMicro,
	}
	for i, m := range j.members {
		if !parts[i].Alive {
			continue
		}
		if err := m.send(wire.Frame{Type: wire.TStartJob, StartJob: sj}); err != nil {
			g.cfg.Logf("cluster gateway: start to %s: %v", m.id, err)
		}
	}
}

// jobByID returns id's job, or nil, without touching the recency order.
func (g *Gateway) jobByID(id string) *gwJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, _ := g.jobs.Peek(id)
	return j
}

// pin returns id's job promoted in the LRU and pinned against eviction
// until release, or nil when the registry holds none and newJob is nil.
// With newJob set a missing job is registered, which may evict the least
// recently used unpinned jobs past MaxFactors; their nodes are told to
// drop them before pin returns.
func (g *Gateway) pin(id string, newJob func() *gwJob) *gwJob {
	g.mu.Lock()
	j, ok := g.jobs.Get(id)
	if !ok && newJob == nil {
		g.mu.Unlock()
		return nil
	}
	var evicted []*gwJob
	if !ok {
		j = newJob()
		j.pins++ // before Add, so a new job is never its own victim
		evicted = g.jobs.Add(id, j)
	} else {
		j.pins++
	}
	g.dropLocked(evicted)
	return j
}

// release unpins j. The registry may have grown past its bound while
// every job was pinned, so it is trimmed first, while j still counts as
// pinned: a request never evicts the job it has just answered for.
func (g *Gateway) release(j *gwJob) {
	g.mu.Lock()
	evicted := g.jobs.Trim()
	j.pins--
	g.dropLocked(evicted)
}

// dropLocked unlocks g.mu and retires the jobs just evicted under it. The
// drop carries the newest run id issued so far, read before the unlock:
// every run of an evicted job is at or below it, and every run of a job
// registered afterwards under the same id is above it.
func (g *Gateway) dropLocked(evicted []*gwJob) {
	lastRun := g.runSeq.Load()
	g.mu.Unlock()
	for _, j := range evicted {
		g.dropJob(j, lastRun)
	}
}

// dropJob retires an evicted job: no failover restarts it, and every alive
// member of its last run is told to drop it unless a newer run than
// lastRun has restarted the pattern there.
func (g *Gateway) dropJob(j *gwJob, lastRun uint64) {
	g.metEvictedJobs.Add(1)
	j.mu.Lock()
	j.evicted = true
	members := j.members
	j.mu.Unlock()
	ab := &wire.Abort{JobID: j.id, RunID: lastRun, Reason: "evicted", Drop: true}
	for _, m := range members {
		if !m.isAlive() {
			continue
		}
		if err := m.send(wire.Frame{Type: wire.TAbort, Abort: ab}); err != nil {
			g.cfg.Logf("cluster gateway: drop job %s on %s: %v", j.id, m.id, err)
		}
	}
}

func (g *Gateway) handleDone(m *member, dn *wire.Done) {
	// Done frames carry a stats snapshot fresher than the last heartbeat;
	// fold it in so /metrics reflects a job the moment it completes.
	m.mu.Lock()
	m.stats = dn.Stats
	m.mu.Unlock()
	j := g.jobByID(dn.JobID)
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if dn.RunID != j.runID || dn.Epoch != j.epoch {
		return
	}
	pidx := -1
	for i, pm := range j.members {
		if pm == m {
			pidx = i
		}
	}
	if pidx < 0 {
		return
	}
	if dn.OK {
		j.doneOK[pidx] = true
	} else {
		j.failures = append(j.failures, dn)
	}
	j.wake()
}

func (g *Gateway) handleReady(m *member, fr *wire.FactorReady) {
	j := g.jobByID(fr.JobID)
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if fr.RunID != j.runID {
		return
	}
	for i, pm := range j.members {
		if pm == m {
			j.ready[i] = true
		}
	}
	j.wake()
}

// ---- the cluster backend ----

// Handler returns the gateway's HTTP mux: the server's request pipeline,
// its heavy work running on the cluster.
func (g *Gateway) Handler() http.Handler { return g.front.Handler() }

// Live reports a pattern the cluster holds a job for, or failing that a
// factor the degraded-mode Local backend holds.
func (g *Gateway) Live(id string) (int, int64, bool) {
	if j := g.jobByID(id); j != nil {
		return j.n, j.nnzL, true
	}
	return g.local.Live(id)
}

// Factor runs one distributed factorization to completion (through any
// failovers), or — with the fleet below MinNodes — degrades to the Local
// backend.
func (g *Gateway) Factor(ctx context.Context, c *server.FactorCall) (server.FactorResponse, error) {
	var resp server.FactorResponse
	if c.Perturb {
		return resp, server.WithStatus(http.StatusBadRequest,
			errors.New("perturb=1 is not supported by the cluster: its nodes apply no diagonal shift"))
	}
	id, m, entry := c.ID, c.M, c.Entry
	j := g.pin(id, func() *gwJob {
		return &gwJob{id: id, n: m.N, nnzL: entry.Plan.Exact.NNZ(), notify: make(chan struct{}, 1)}
	})
	defer g.release(j)

	j.reqMu.Lock()
	defer j.reqMu.Unlock()

	if j.plan != nil && !j.plan.A.SamePattern(m) {
		return resp, server.WithStatus(http.StatusConflict, fmt.Errorf("factor id %s is held by a different sparsity pattern (hash collision)", id))
	}
	if j.plan == nil {
		j.plan = entry.Plan
		j.pr = sched.Build(entry.Plan.BS, entry.Assign)
		j.loads = procLoads(j.pr)
	}

	// Snapshot alive members as this run's fixed participant list.
	g.mu.Lock()
	var parts []*member
	for _, mm := range g.members {
		if mm.isAlive() {
			parts = append(parts, mm)
		}
	}
	g.mu.Unlock()
	if len(parts) < g.cfg.MinNodes {
		// Partitioned from (or never had) the fleet: degrade to a local
		// single-node factorization instead of erroring, unless disabled.
		if !g.cfg.DisableLocalFallback {
			return g.factorDegraded(ctx, j, c)
		}
		return resp, server.WithStatus(http.StatusServiceUnavailable,
			fmt.Errorf("cluster has %d nodes, need %d", len(parts), g.cfg.MinNodes))
	}

	// A degraded-mode factor of this pattern holds older values than this
	// run: retire it so it can never answer a solve again.
	g.local.Forget(id)
	j.solveMu.Lock() // wait out the solves routed to the previous run
	j.mu.Lock()
	resp.Refactored = j.solvable
	j.tenant = c.Tenant
	j.deadlineMicro = 0
	if dl, ok := ctx.Deadline(); ok {
		j.deadlineMicro = dl.UnixMicro()
	}
	j.members = parts
	j.runID = g.runSeq.Add(1)
	j.epoch = 0
	j.val = m.Val
	j.doneOK = make(map[int]bool)
	j.failures = nil
	j.ready = make(map[int]bool)
	j.solvable = false
	nodeOf, perr := g.partitionLocked(j)
	if perr != nil {
		// A participant advertised an unusable speed (zero, negative, or
		// non-finite): refuse loudly instead of silently piling every
		// processor onto whichever node the degenerate arithmetic favored.
		j.mu.Unlock()
		j.solveMu.Unlock()
		return resp, server.WithStatus(http.StatusServiceUnavailable,
			fmt.Errorf("cannot partition processors across nodes: %w", perr))
	}
	j.nodeOf = nodeOf
	ids := make([]string, len(parts))
	for i, mm := range parts {
		ids[i] = mm.id
	}
	asm := buildRing(ids).pick(fnv1a(id), 1+g.cfg.Replicas, func(i int) bool { return parts[i].isAlive() })
	j.primary, j.replicas = asm[0], asm[1:]
	g.metEpochs.Add(1)
	g.broadcastStartLocked(j)
	runID := j.runID
	j.mu.Unlock()
	j.solveMu.Unlock()

	// Wait for every (surviving) participant's Done plus at least one
	// assembly target holding the full factor. Failovers reset the done
	// set; failures surface ranked (lowest pivot coordinates win, matching
	// the deterministic contract of the in-process executor). Epochs felled
	// by infrastructure (non-pivot) errors restart with jittered
	// exponential backoff; when the whole fleet is gone the request
	// degrades to a local factorization.
	retries := 0
	for {
		j.mu.Lock()
		if j.runID != runID {
			j.mu.Unlock()
			return resp, server.WithStatus(http.StatusConflict, errors.New("superseded by a newer factor request"))
		}
		if len(j.failures) > 0 {
			fail := bestFailure(j.failures)
			if fail.HasPivot {
				j.mu.Unlock()
				g.abort(j, runID, fail.Err)
				return resp, &kernels.PivotError{
					Block: int(fail.PivotBlock), Row: int(fail.PivotRow), Pivot: fail.Pivot,
				}
			}
			if strings.Contains(fail.Err, errRequesterDeadline.Error()) {
				// A node abandoned the epoch because the stamped deadline
				// passed. Retrying cannot beat an expired clock: answer 504.
				j.mu.Unlock()
				g.abort(j, runID, fail.Err)
				return resp, server.WithStatus(http.StatusGatewayTimeout, errors.New(fail.Err))
			}
			anyAlive := false
			for _, mm := range j.members {
				anyAlive = anyAlive || mm.isAlive()
			}
			if !anyAlive && !g.cfg.DisableLocalFallback {
				j.mu.Unlock()
				g.cfg.Logf("cluster gateway: job %s lost every node; degrading to local factorization", j.id)
				return g.factorDegraded(ctx, j, c)
			}
			if anyAlive && retries < g.cfg.FactorRetries {
				retries++
				j.failures = nil
				j.doneOK = make(map[int]bool)
				j.epoch++
				g.metEpochs.Add(1)
				g.metEpochRetries.Add(1)
				epoch := j.epoch
				j.mu.Unlock()
				delay := jitterBackoff(g.cfg.RetryBackoff, retries)
				g.cfg.Logf("cluster gateway: job %s epoch failed (%s); retry %d in %v as epoch %d",
					j.id, fail.Err, retries, delay, epoch)
				select {
				case <-ctx.Done():
					g.abort(j, runID, "request cancelled")
					return resp, ctx.Err()
				case <-time.After(delay):
				}
				j.mu.Lock()
				if j.runID == runID {
					g.broadcastStartLocked(j)
				}
				j.mu.Unlock()
				continue
			}
			j.mu.Unlock()
			g.abort(j, runID, fail.Err)
			return resp, errors.New(fail.Err)
		}
		if ready := j.readyTargetsLocked(); j.allDoneLocked() && len(ready) > 0 {
			j.solvable = true
			resp.Epochs = j.epoch
			// The first ready target, which the next solve goes to: the
			// planned primary may still be missing blocks when a replica's
			// FactorReady ends the wait.
			resp.Primary = ready[0].id
			resp.Nodes = len(j.members)
			j.mu.Unlock()
			g.saveSnapshot(j, m)
			return resp, nil
		}
		j.mu.Unlock()
		select {
		case <-ctx.Done():
			g.abort(j, runID, "request cancelled")
			return resp, ctx.Err()
		case <-j.notify:
		case <-time.After(g.cfg.ReadyTimeout):
			// Every node finished its slice but no assembly target ever
			// held the full factor: frames to the targets were lost in
			// flight. Synthesize a transient failure so the retry branch
			// restarts the epoch and survivors retransmit.
			j.mu.Lock()
			if j.runID == runID && len(j.failures) == 0 &&
				j.allDoneLocked() && len(j.ready) == 0 {
				j.failures = append(j.failures, &wire.Done{
					Err: "all nodes done but no assembly target holds the full factor",
				})
			}
			j.mu.Unlock()
		}
	}
}

// partitionLocked assigns virtual processors to the run's participants:
// processors in decreasing flop load, each to the node finishing it
// soonest at its advertised speed. Degenerate advertised speeds (zero,
// negative, NaN, ±Inf) are an error — the checked partition refuses them
// rather than producing a silently lopsided assignment. Caller holds j.mu.
func (g *Gateway) partitionLocked(j *gwJob) ([]uint16, error) {
	speeds := make([]float64, len(j.members))
	for i, m := range j.members {
		speeds[i] = m.speed
	}
	ord := make([]int, len(j.loads))
	for i := range ord {
		ord[i] = i
	}
	// Decreasing load, mirroring mapping.Greedy's convention.
	for i := 1; i < len(ord); i++ {
		for k := i; k > 0 && j.loads[ord[k]] > j.loads[ord[k-1]]; k-- {
			ord[k], ord[k-1] = ord[k-1], ord[k]
		}
	}
	asg, err := mapping.GreedyWeightedChecked(ord, j.loads, speeds)
	if err != nil {
		return nil, err
	}
	nodeOf := make([]uint16, len(asg))
	for p, nd := range asg {
		nodeOf[p] = uint16(nd)
	}
	return nodeOf, nil
}

// bestFailure ranks failures like the in-process executor: any pivot error
// beats an infrastructure error, and among pivots the lowest (Block, Row)
// wins, so concurrent breakdowns surface deterministically.
func bestFailure(fs []*wire.Done) *wire.Done {
	best := fs[0]
	for _, f := range fs[1:] {
		switch {
		case f.HasPivot && !best.HasPivot:
			best = f
		case f.HasPivot && best.HasPivot:
			if f.PivotBlock < best.PivotBlock ||
				(f.PivotBlock == best.PivotBlock && f.PivotRow < best.PivotRow) {
				best = f
			}
		}
	}
	return best
}

func (g *Gateway) abort(j *gwJob, runID uint64, reason string) {
	j.mu.Lock()
	members := append([]*member(nil), j.members...)
	epoch := j.epoch
	j.mu.Unlock()
	ab := &wire.Abort{JobID: j.id, RunID: runID, Epoch: epoch, Reason: reason}
	for _, m := range members {
		if m.isAlive() {
			_ = m.send(wire.Frame{Type: wire.TAbort, Abort: ab})
		}
	}
}

// Solve routes a single right-hand side to the job's primary if it still
// holds the factor, else to any ready replica — the solve-side half of
// buddy failover. The degraded-mode Local backend's factor is the target of
// last resort. The job stays pinned against eviction until the answer is
// in, so a routed solve never finds its factor dropped.
func (g *Gateway) Solve(ctx context.Context, req *server.SolveRequest) (server.SolveResponse, error) {
	if req.BS != nil {
		return server.SolveResponse{}, server.WithStatus(http.StatusBadRequest,
			errors.New(`the gateway solves one right-hand side per request: send "b", not "bs"`))
	}
	var targets []*member
	j := g.pin(req.ID, nil)
	if j != nil {
		defer g.release(j)
		j.solveMu.RLock()
		defer j.solveMu.RUnlock()
		j.mu.Lock()
		if j.solvable {
			for _, m := range j.readyTargetsLocked() {
				if m.isAlive() {
					targets = append(targets, m)
				}
			}
		}
		j.mu.Unlock()
	}
	var lastErr error
	for _, t := range targets {
		x, err := g.solveOn(ctx, t, req.ID, req.B)
		if err == nil {
			return server.SolveResponse{X: x, Node: t.id}, nil
		}
		lastErr = err
	}
	if _, _, ok := g.local.Live(req.ID); ok {
		g.metLocalSolves.Add(1)
		resp, err := g.local.Solve(ctx, req)
		resp.Node = "local"
		return resp, err
	}
	if j == nil {
		// Evicted since the pipeline's Live check.
		return server.SolveResponse{}, server.WithStatus(http.StatusNotFound, fmt.Errorf("unknown factor id %q", req.ID))
	}
	if lastErr == nil {
		return server.SolveResponse{}, server.WithStatus(http.StatusConflict, fmt.Errorf("factor %q is not ready", req.ID))
	}
	return server.SolveResponse{}, server.WithStatus(http.StatusServiceUnavailable, lastErr)
}

func (g *Gateway) solveOn(ctx context.Context, m *member, jobID string, b []float64) ([]float64, error) {
	seq := g.solveSeq.Add(1)
	ch := make(chan *wire.SolveResp, 1)
	m.mu.Lock()
	m.pending[seq] = ch
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.pending, seq)
		m.mu.Unlock()
	}()
	if err := m.send(wire.Frame{Type: wire.TSolveReq, SolveReq: &wire.SolveReq{Seq: seq, JobID: jobID, B: b}}); err != nil {
		return nil, err
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case resp := <-ch:
		if !resp.OK {
			return nil, errors.New(resp.Err)
		}
		return resp.X, nil
	}
}

// nodeRow is one node's row in /healthz and /metrics.
type nodeRow struct {
	ID          string  `json:"id"`
	Alive       bool    `json:"alive"`
	DataAddr    string  `json:"data_addr"`
	Speed       float64 `json:"speed"`
	LastBeatMs  float64 `json:"last_heartbeat_ms"` // age of the newest heartbeat
	BlocksOwned uint64  `json:"blocks_owned"`
	BlocksDone  uint64  `json:"blocks_done"`
	Flops       uint64  `json:"flops"`
	Steals      uint64  `json:"steals"`
	BytesSent   uint64  `json:"bytes_sent"`
	BytesRecv   uint64  `json:"bytes_received"`
	Failovers   uint64  `json:"failovers"`
	// DeadlineAborts counts epochs the node abandoned because the
	// requester's deadline expired before the work finished.
	DeadlineAborts uint64 `json:"deadline_aborts"`
	// SnapshotWriteErrors counts held-block checkpoints the node failed
	// to write to its store (a rejoin then starts that slice cold).
	SnapshotWriteErrors uint64 `json:"snapshot_write_errors"`
}

// clusterDoc is the cluster backend's /metrics section.
type clusterDoc struct {
	Failovers    uint64    `json:"failovers"`
	Epochs       uint64    `json:"epochs_started"`
	EpochRetries uint64    `json:"epoch_retries"` // backoff restarts after infra failures
	LocalFactors uint64    `json:"local_factors"` // degraded-mode factorizations
	LocalSolves  uint64    `json:"local_solves"`  // solves served by the Local backend
	Jobs         int       `json:"jobs"`
	EvictedJobs  uint64    `json:"evicted_jobs"` // jobs dropped by the MaxFactors bound
	Nodes        []nodeRow `json:"nodes"`
}

// Status reports the fleet: "ok" with every node alive, "down" when the
// gateway cannot serve at all (below MinNodes with local fallback
// disabled), "degraded" in between — some nodes dead, or running on the
// Local backend. /healthz and /metrics both list the nodes.
func (g *Gateway) Status() server.BackendStatus {
	g.mu.Lock()
	members := append([]*member(nil), g.members...)
	jobs := g.jobs.Len()
	g.mu.Unlock()
	doc := clusterDoc{
		Failovers:    g.metFailovers.Load(),
		Epochs:       g.metEpochs.Load(),
		EpochRetries: g.metEpochRetries.Load(),
		LocalFactors: g.metLocalFactors.Load(),
		LocalSolves:  g.metLocalSolves.Load(),
		Jobs:         jobs,
		EvictedJobs:  g.metEvictedJobs.Load(),
		Nodes:        []nodeRow{},
	}
	alive := 0
	for _, m := range members {
		m.mu.Lock()
		doc.Nodes = append(doc.Nodes, nodeRow{
			ID: m.id, Alive: m.alive, DataAddr: m.dataAddr, Speed: m.speed,
			LastBeatMs:  float64(time.Since(m.lastBeat).Microseconds()) / 1e3,
			BlocksOwned: m.stats.BlocksOwned, BlocksDone: m.stats.BlocksDone,
			Flops: m.stats.Flops, Steals: m.stats.Steals,
			BytesSent: m.stats.BytesSent, BytesRecv: m.stats.BytesRecv,
			Failovers: m.stats.Failovers, DeadlineAborts: m.stats.DeadlineAborts,
			SnapshotWriteErrors: m.stats.SnapshotWriteErrors,
		})
		if m.alive {
			alive++
		}
		m.mu.Unlock()
	}
	state := "degraded"
	switch {
	case alive >= g.cfg.MinNodes && alive == len(members):
		state = "ok"
	case alive < g.cfg.MinNodes && g.cfg.DisableLocalFallback:
		state = "down"
	}
	health := struct {
		Nodes []nodeRow `json:"nodes"`
	}{doc.Nodes}
	return server.BackendStatus{State: state, Health: health, Metrics: doc}
}

// NodeOfSnapshot returns the current processor→node partition of a job's
// run, for tests and benchmarks asserting on the speed-aware split.
func (g *Gateway) NodeOfSnapshot(jobID string) ([]uint16, []string) {
	j := g.jobByID(jobID)
	if j == nil {
		return nil, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ids := make([]string, len(j.members))
	for i, m := range j.members {
		ids[i] = m.id
	}
	return append([]uint16(nil), j.nodeOf...), ids
}

// Loads returns a job's per-processor flop loads (after a factor request
// built the schedule).
func (g *Gateway) Loads(jobID string) []int64 {
	j := g.jobByID(jobID)
	if j == nil {
		return nil
	}
	return append([]int64(nil), j.loads...)
}
