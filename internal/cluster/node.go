package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"blockfanout/internal/cluster/wire"
	"blockfanout/internal/core"
	"blockfanout/internal/fanout"
	"blockfanout/internal/faultinject"
	"blockfanout/internal/kernels"
	"blockfanout/internal/numeric"
	"blockfanout/internal/obs"
	"blockfanout/internal/sched"
	"blockfanout/internal/store"
)

// NodeConfig configures one worker node.
type NodeConfig struct {
	// ID is the node's cluster-unique name.
	ID string
	// Gateway is the gateway's control-plane address (host:port).
	Gateway string
	// DataAddr is the listen address of the node's data plane; default
	// "127.0.0.1:0". The resolved address is announced in the Hello.
	DataAddr string
	// Speed is the advertised relative flop rate (1 = nominal); the
	// gateway's speed-aware processor partition weights by it.
	Speed float64
	// FlopsPerSec throttles the local engine to a target rate (0 = run at
	// full speed); the heterogeneity benchmarks derate nodes with it.
	FlopsPerSec float64
	// Workers is the local worker-goroutine count (0 = GOMAXPROCS).
	Workers int
	// HeartbeatEvery is the liveness-report period (default 500ms).
	HeartbeatEvery time.Duration
	// SendTimeout bounds each control- and data-plane write (default 5s);
	// a hung peer read loop can therefore never wedge a sender goroutine.
	SendTimeout time.Duration
	// SendRetries is how many times a failed peer send is redialed and
	// retried with jittered exponential backoff before the frame is
	// dropped to the gateway's failover machinery (default 3; negative
	// disables retries).
	SendRetries int
	// RetryBackoff is the base delay of the send-retry backoff
	// (default 25ms).
	RetryBackoff time.Duration
	// StallTimeout, when positive, fails the running epoch with a
	// transient Done if no block completes or arrives for that long; the
	// gateway restarts the epoch and peers retransmit. Set it well above
	// the longest single-kernel time. Default 0 = disabled.
	StallTimeout time.Duration
	// StoreDir, when set, opens a durable snapshot store there: the
	// blocks this node computed are checkpointed write-behind at each
	// epoch end, and a restarted node seeds a fresh run from them when
	// the run's value checksum matches (rejoin without recomputation).
	StoreDir string
	// TraceDir, when set, writes one Chrome trace-event file per executed
	// epoch (obs recorder spans of every BFAC/BDIV/BMOD the node ran).
	TraceDir string
	// Logf receives progress lines; default log.Printf.
	Logf func(format string, args ...any)
}

// errRequesterDeadline marks epochs abandoned because the client that
// requested them already gave up. The gateway matches the message in Done
// frames to answer 504 instead of retrying.
var errRequesterDeadline = errors.New("requester deadline exceeded")

// Node is one cluster worker: it joins the gateway, listens for peer block
// traffic, and factors its slice of each job with a restricted
// work-stealing executor.
type Node struct {
	cfg NodeConfig

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	ctrlMu sync.Mutex // serializes control-plane writes
	ctrl   net.Conn

	dataLn   net.Listener
	dataAddr string

	mu    sync.Mutex
	jobs  map[string]*nodeJob
	peers map[string]*peer

	st       *store.Store
	storeErr error
	snapCh   chan *store.BlockSnapshot

	bytesSent      atomic.Uint64
	bytesRecv      atomic.Uint64
	flops          atomic.Uint64
	steals         atomic.Uint64
	failovers      atomic.Uint64
	done           atomic.Uint64 // locally completed blocks, cumulative
	restored       atomic.Uint64 // blocks seeded from a held-block snapshot
	resends        atomic.Uint64 // peer-send retries after a dial or write failure
	deadlineAborts atomic.Uint64 // epochs abandoned because the requester's deadline expired
	snapErrors     atomic.Uint64 // held-block snapshot writes the store failed
	solves         atomic.Uint64 // solve requests received from the gateway
}

// nodeJob is one pattern's factorization state on this node. mu guards
// every field; data-plane deliveries, control frames, and epoch
// transitions all serialize on it.
type nodeJob struct {
	id string
	mu sync.Mutex

	runID uint64
	epoch uint32
	sj    *wire.StartJob // current epoch's parameters; nil before the first

	plan   *core.Plan
	pr     *sched.Program
	nf     *numeric.Factor
	valSum uint64 // store.ValChecksum of the current run's permuted values

	myIdx    int
	local    []bool // blocks this node executes under the current epoch
	haveData []bool // blocks whose final data this node holds
	nHave    int

	ex        *fanout.Executor // the running epoch's executor; nil between runs
	cancel    context.CancelFunc
	running   bool
	pending   *wire.StartJob    // next epoch, applied when the current run stops
	buffered  []*wire.BlockData // frames for epochs not yet started
	readySent bool

	// born is when the job was registered; one that no StartJob has
	// claimed within placeholderTTL of it is swept.
	born time.Time
	// gone is set when the job leaves n.jobs (dropped or swept); a caller
	// that finds it set looks the id up again.
	gone bool
}

// NewNode builds a node; call Run to join the cluster.
func NewNode(cfg NodeConfig) *Node {
	if cfg.DataAddr == "" {
		cfg.DataAddr = "127.0.0.1:0"
	}
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.SendTimeout <= 0 {
		cfg.SendTimeout = 5 * time.Second
	}
	if cfg.SendRetries == 0 {
		cfg.SendRetries = 3
	} else if cfg.SendRetries < 0 {
		cfg.SendRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return &Node{
		cfg:   cfg,
		jobs:  make(map[string]*nodeJob),
		peers: make(map[string]*peer),
	}
}

// Run joins the gateway and serves until ctx is cancelled or the control
// connection drops.
func (n *Node) Run(ctx context.Context) error {
	n.ctx, n.cancel = context.WithCancel(ctx)
	defer n.cancel()

	if n.cfg.StoreDir != "" {
		st, err := store.Open(n.cfg.StoreDir)
		if err != nil {
			// A broken store disables durability, never the node.
			n.storeErr = err
			n.cfg.Logf("cluster node %s: snapshot store: %v", n.cfg.ID, err)
		} else {
			n.st = st
			n.snapCh = make(chan *store.BlockSnapshot, 8)
			n.wg.Add(1)
			go n.snapshotWriter()
		}
	}

	ln, err := net.Listen("tcp", n.cfg.DataAddr)
	if err != nil {
		return fmt.Errorf("cluster: node %s data listen: %w", n.cfg.ID, err)
	}
	n.dataLn = ln
	n.dataAddr = ln.Addr().String()
	defer ln.Close()
	n.wg.Add(1)
	go n.acceptData()

	rawCtrl, err := net.Dial("tcp", n.cfg.Gateway)
	if err != nil {
		return fmt.Errorf("cluster: node %s dial gateway: %w", n.cfg.ID, err)
	}
	ctrl := faultinject.WrapConn("cluster.node.ctrl", rawCtrl)
	n.ctrl = ctrl
	defer ctrl.Close()
	if err := n.sendCtrl(wire.Frame{Type: wire.THello, Hello: &wire.Hello{
		ID: n.cfg.ID, DataAddr: n.dataAddr, Speed: n.cfg.Speed,
	}}); err != nil {
		return err
	}

	n.wg.Add(1)
	go n.heartbeats()
	// Unblock the reads below when ctx ends.
	stop := context.AfterFunc(n.ctx, func() { ctrl.Close(); ln.Close() })
	defer stop()

	err = n.ctrlLoop(ctrl)
	n.cancel()
	n.wg.Wait()
	if n.ctx.Err() != nil || ctx.Err() != nil {
		return nil
	}
	return err
}

// DataAddr returns the resolved data-plane address (after Run started).
func (n *Node) DataAddr() string { return n.dataAddr }

func (n *Node) sendCtrl(f wire.Frame) error {
	n.ctrlMu.Lock()
	defer n.ctrlMu.Unlock()
	n.ctrl.SetWriteDeadline(time.Now().Add(n.cfg.SendTimeout))
	defer n.ctrl.SetWriteDeadline(time.Time{})
	return wire.WriteFrame(n.ctrl, f)
}

func (n *Node) ctrlLoop(ctrl net.Conn) error {
	for {
		f, err := wire.ReadFrame(ctrl)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		switch f.Type {
		case wire.TStartJob:
			n.startJob(f.StartJob)
		case wire.TAbort:
			n.abortJob(f.Abort)
		case wire.TSolveReq:
			n.solves.Add(1)
			req := f.SolveReq
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				resp := n.solve(req)
				if err := n.sendCtrl(wire.Frame{Type: wire.TSolveResp, SolveResp: &resp}); err != nil {
					n.cfg.Logf("cluster node %s: solve resp: %v", n.cfg.ID, err)
				}
			}()
		default:
			n.cfg.Logf("cluster node %s: unexpected control frame %v", n.cfg.ID, f.Type)
		}
	}
}

func (n *Node) heartbeats() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case now := <-t.C:
			n.sweepPlaceholders(now)
			hb := wire.Heartbeat{Stats: n.statsSnapshot()}
			if err := n.sendCtrl(wire.Frame{Type: wire.THeartbeat, Heartbeat: &hb}); err != nil {
				return
			}
		}
	}
}

// statsSnapshot aggregates the node's counters for heartbeat and Done
// frames.
func (n *Node) statsSnapshot() wire.NodeStats {
	st := wire.NodeStats{
		Flops:               n.flops.Load(),
		Steals:              n.steals.Load(),
		BytesSent:           n.bytesSent.Load(),
		BytesRecv:           n.bytesRecv.Load(),
		Failovers:           n.failovers.Load(),
		BlocksDone:          n.done.Load(),
		DeadlineAborts:      n.deadlineAborts.Load(),
		SnapshotWriteErrors: n.snapErrors.Load(),
	}
	n.mu.Lock()
	jobs := make([]*nodeJob, 0, len(n.jobs))
	for _, j := range n.jobs {
		jobs = append(jobs, j)
	}
	n.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		for _, l := range j.local {
			if l {
				st.BlocksOwned++
			}
		}
		j.mu.Unlock()
	}
	return st
}

// ---- data plane ----

// peer is one lazily-dialed outgoing data-plane connection with a sender
// goroutine, so block shipping never blocks a compute worker on the
// network.
type peer struct {
	addr string
	ch   chan []byte
}

func (n *Node) peerFor(addr string) *peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.peers[addr]; ok {
		return p
	}
	p := &peer{addr: addr, ch: make(chan []byte, 1024)}
	n.peers[addr] = p
	n.wg.Add(1)
	go n.peerSender(p)
	return p
}

func (n *Node) peerSender(p *peer) {
	defer n.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		select {
		case <-n.ctx.Done():
			return
		case b := <-p.ch:
			for attempt := 0; ; attempt++ {
				if attempt > 0 {
					n.resends.Add(1)
					if !n.sleepBackoff(attempt) {
						return
					}
				}
				if conn == nil {
					c, err := net.Dial("tcp", p.addr)
					if err != nil {
						if attempt < n.cfg.SendRetries {
							continue
						}
						// The receiver is dead beyond the retry budget;
						// the gateway's failover re-owns its blocks and
						// survivors resend at the next epoch, so dropping
						// here is safe.
						break
					}
					conn = faultinject.WrapConn("cluster.node.data", c)
				}
				conn.SetWriteDeadline(time.Now().Add(n.cfg.SendTimeout))
				_, err := conn.Write(b)
				conn.SetWriteDeadline(time.Time{})
				if err == nil {
					n.bytesSent.Add(uint64(len(b)))
					break
				}
				conn.Close()
				conn = nil
				if attempt >= n.cfg.SendRetries {
					break
				}
			}
		}
	}
}

// sleepBackoff pauses a sender before retry attempt (1-based), honoring
// shutdown. Reports false when the node is stopping.
func (n *Node) sleepBackoff(attempt int) bool {
	t := time.NewTimer(jitterBackoff(n.cfg.RetryBackoff, attempt))
	defer t.Stop()
	select {
	case <-n.ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (n *Node) acceptData() {
	defer n.wg.Done()
	for {
		conn, err := n.dataLn.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go n.dataLoop(conn)
	}
}

func (n *Node) dataLoop(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	stop := context.AfterFunc(n.ctx, func() { conn.Close() })
	defer stop()
	for {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		if f.Type != wire.TBlockData {
			n.cfg.Logf("cluster node %s: unexpected data frame %v", n.cfg.ID, f.Type)
			return
		}
		n.bytesRecv.Add(uint64(8*len(f.BlockData.Data)) + 32)
		n.deliver(f.BlockData)
	}
}

// deliver applies one peer block under the epoch rules: frames for a
// newer run/epoch are buffered until that epoch starts here, frames for an
// older one are dropped, and current-epoch frames write the block's data
// and inject its completion into the running executor.
func (n *Node) deliver(bd *wire.BlockData) {
	job := n.lockJob(bd.JobID, true)
	defer job.mu.Unlock()
	switch {
	case job.sj == nil, bd.RunID > job.runID,
		bd.RunID == job.runID && bd.Epoch > job.epoch:
		job.buffered = append(job.buffered, bd)
		return
	case bd.RunID < job.runID, bd.Epoch < job.epoch:
		return
	}
	job.applyLocked(n, bd)
}

// applyLocked writes a current-epoch block into the factor. Caller holds
// job.mu and has verified run and epoch.
func (j *nodeJob) applyLocked(n *Node, bd *wire.BlockData) {
	id := int32(bd.Block)
	if id < 0 || int(id) >= j.pr.NBlocks || j.haveData[id] {
		return
	}
	if j.local[id] {
		// Never overwrite a block the local engine is computing; a
		// survivor's stale resend after failover can race it.
		return
	}
	col, bi := j.pr.ColOf[id], j.pr.IdxOf[id]
	dst := j.nf.Data[col][bi]
	if len(bd.Data) != len(dst) {
		n.cfg.Logf("cluster node %s: block %d size mismatch (%d != %d)", n.cfg.ID, id, len(bd.Data), len(dst))
		return
	}
	copy(dst, bd.Data)
	j.haveData[id] = true
	j.nHave++
	if j.ex != nil {
		// A frame after this node's run completed (an assembly target
		// still collecting remote blocks) has no executor to wake.
		j.ex.Inject(id)
	}
	j.maybeReadyLocked(n)
}

// ---- job lifecycle ----

// lockJob returns id's job with its mu held, or nil when the node holds
// no such job and create is unset. With create set a missing job is
// registered as a placeholder that a StartJob claims or the heartbeat
// sweep removes.
func (n *Node) lockJob(id string, create bool) *nodeJob {
	for {
		n.mu.Lock()
		j, ok := n.jobs[id]
		if !ok && create {
			j = &nodeJob{id: id, myIdx: -1, born: time.Now()}
			n.jobs[id] = j
		}
		n.mu.Unlock()
		if j == nil {
			return nil
		}
		j.mu.Lock()
		if !j.gone {
			return j
		}
		j.mu.Unlock() // removed between the lookup and the lock
	}
}

// removeLocked deletes j from the node; its plan, factor, program and
// buffered frames go with the last goroutine holding it. Caller holds
// j.mu.
func (n *Node) removeLocked(j *nodeJob) {
	j.gone = true
	n.mu.Lock()
	if n.jobs[j.id] == j {
		delete(n.jobs, j.id)
	}
	n.mu.Unlock()
}

// placeholderTTL is how long a job created by early data frames may wait
// for its StartJob: a few heartbeats, well past any frame's head start on
// the control plane, so what the sweep removes are frames of a run this
// node will never start (one it was told to drop, or one that failed).
func (n *Node) placeholderTTL() time.Duration { return 4 * n.cfg.HeartbeatEvery }

// sweepPlaceholders removes the jobs data frames created that no StartJob
// claimed within placeholderTTL of now.
func (n *Node) sweepPlaceholders(now time.Time) {
	n.mu.Lock()
	jobs := make([]*nodeJob, 0, len(n.jobs))
	for _, j := range n.jobs {
		jobs = append(jobs, j)
	}
	n.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		if j.sj == nil && now.Sub(j.born) >= n.placeholderTTL() {
			n.removeLocked(j)
		}
		j.mu.Unlock()
	}
}

func (n *Node) startJob(sj *wire.StartJob) {
	job := n.lockJob(sj.JobID, true)
	if sj.RunID < job.runID ||
		(sj.RunID == job.runID && job.sj != nil && sj.Epoch <= job.epoch) {
		job.mu.Unlock()
		return // stale or duplicate
	}
	if job.running {
		// Stop the current epoch; the runner applies the pending StartJob
		// when RunContext returns.
		job.pending = sj
		job.cancel()
		job.mu.Unlock()
		return
	}
	err := job.startLocked(n, sj)
	job.mu.Unlock()
	if err != nil {
		n.cfg.Logf("cluster node %s: start job %s: %v", n.cfg.ID, sj.JobID, err)
		n.sendDone(job, sj, err, fanout.Stats{})
	}
}

// startLocked (re)starts one epoch: builds or reuses the plan, restores
// matrix values outside the completed-block frontier, constructs the
// restricted executor, replays buffered frames, and launches the runner.
func (j *nodeJob) startLocked(n *Node, sj *wire.StartJob) error {
	// Refuse before any symbolic or numeric work when the requester's
	// deadline has already passed — the epoch's flops would be pure waste.
	if deadlinePassed(sj) {
		n.deadlineAborts.Add(1)
		return fmt.Errorf("cluster: node %s job %s run %d: %w", n.cfg.ID, sj.JobID, sj.RunID, errRequesterDeadline)
	}
	if j.plan == nil {
		m, err := wireToMatrix(sj)
		if err != nil {
			return err
		}
		plan, err := core.NewPlan(m, planOptions(sj))
		if err != nil {
			return err
		}
		nf, err := numeric.New(plan.BS, plan.PA)
		if err != nil {
			return err
		}
		// The serving tier's schedule: the gateway derives the identical
		// program from the same plan options and Procs.
		j.plan, j.nf = plan, nf
		j.pr = sched.Build(plan.BS, plan.ServingAssignment(int(sj.Procs)))
	}
	if len(sj.NodeOf) != j.pr.NProc {
		return fmt.Errorf("cluster: NodeOf has %d entries for %d processors", len(sj.NodeOf), j.pr.NProc)
	}
	j.myIdx = -1
	for i, p := range sj.Participants {
		if p.ID == n.cfg.ID {
			j.myIdx = i
		}
	}
	if j.myIdx < 0 {
		return fmt.Errorf("cluster: node %s not in job %s participant list", n.cfg.ID, sj.JobID)
	}

	// Every epoch's StartJob carries the run's values, so the permuted
	// copy is scratch for the reload alone.
	pav := permuteVals(j.plan, sj.Val)
	newRun := sj.RunID != j.runID || j.haveData == nil
	if newRun {
		if err := j.nf.Reload(pav); err != nil {
			return err
		}
		j.haveData = make([]bool, j.pr.NBlocks)
		j.nHave = 0
		j.readySent = false
		if n.st != nil {
			j.valSum = store.ValChecksum(pav)
			j.restoreBlocksLocked(n)
		}
	} else {
		// Failover epoch: keep completed blocks, revert the rest.
		n.failovers.Add(1)
		keep := func(col, bi int) bool { return j.haveData[j.pr.BlockID(col, bi)] }
		if err := j.nf.ReloadWhere(pav, keep); err != nil {
			return err
		}
	}
	j.runID, j.epoch, j.sj = sj.RunID, sj.Epoch, sj

	local := make([]bool, j.pr.NBlocks)
	for id := range local {
		local[id] = int(sj.NodeOf[j.pr.Owner[id]]) == j.myIdx
	}
	j.local = local
	predone := make([]bool, j.pr.NBlocks)
	copy(predone, j.haveData)

	j.ex = fanout.NewExecutorRestricted(j.nf, j.pr, &fanout.Restriction{
		Local:       local,
		Predone:     predone,
		Workers:     n.cfg.Workers,
		FlopsPerSec: n.cfg.FlopsPerSec,
		OnComplete:  func(id int32) { n.onComplete(j, sj, id) },
	})

	// Frames that raced ahead of this StartJob: apply the current epoch's,
	// keep newer ones buffered, drop the rest. Injections land in the
	// executor's buffered external channel and survive until Run.
	buf := j.buffered
	j.buffered = nil
	for _, bd := range buf {
		if bd.RunID == sj.RunID && bd.Epoch == sj.Epoch {
			j.applyLocked(n, bd)
		} else if bd.RunID > sj.RunID || (bd.RunID == sj.RunID && bd.Epoch > sj.Epoch) {
			j.buffered = append(j.buffered, bd)
		}
	}

	// Blocks this node owns under the NEW mapping and already holds: the
	// consumer set may have changed (the buddy inherited the dead node's
	// processors), so resend them before computing anything new.
	var resend []int32
	for id := int32(0); int(id) < j.pr.NBlocks; id++ {
		if local[id] && j.haveData[id] {
			resend = append(resend, id)
		}
	}

	j.maybeReadyLocked(n) // a full snapshot restore can complete the job outright

	// Bound the epoch by the requester's deadline: when it expires mid-run
	// the executor aborts and the node reports a deadline-abandoned Done
	// instead of finishing work nobody is waiting for.
	var ctx context.Context
	var cancel context.CancelFunc
	if sj.DeadlineUnixMicro > 0 {
		ctx, cancel = context.WithDeadline(n.ctx, time.UnixMicro(sj.DeadlineUnixMicro))
	} else {
		ctx, cancel = context.WithCancel(n.ctx)
	}
	j.cancel = cancel
	j.running = true
	ex := j.ex
	n.wg.Add(1)
	go n.runEpoch(ctx, cancel, j, sj, ex, resend)
	return nil
}

// deadlinePassed reports whether sj carries a requester deadline that has
// already expired.
func deadlinePassed(sj *wire.StartJob) bool {
	return sj.DeadlineUnixMicro > 0 && !time.Now().Before(time.UnixMicro(sj.DeadlineUnixMicro))
}

func (n *Node) runEpoch(ctx context.Context, cancel context.CancelFunc, j *nodeJob, sj *wire.StartJob, ex *fanout.Executor, resend []int32) {
	defer n.wg.Done()
	for _, id := range resend {
		n.shipBlock(j, sj, id)
	}
	stalled := n.startStallWatch(ctx, cancel, j)
	var rec *obs.Recorder
	if n.cfg.TraceDir != "" {
		rec = ex.NewRecorder()
		rec.Enable()
		ex.SetRecorder(rec)
	}
	st, err := ex.RunContext(ctx)
	n.flops.Add(uint64(st.Flops))
	n.steals.Add(uint64(st.Steals))
	if rec != nil {
		n.writeTrace(sj, rec)
	}

	j.mu.Lock()
	j.running = false
	j.ex = nil // the next epoch builds its own; late frames only write data
	if p := j.pending; p != nil {
		j.pending = nil
		if serr := j.startLocked(n, p); serr != nil {
			j.mu.Unlock()
			n.cfg.Logf("cluster node %s: restart job %s epoch %d: %v", n.cfg.ID, p.JobID, p.Epoch, serr)
			n.sendDone(j, p, serr, fanout.Stats{})
			return
		}
		j.mu.Unlock()
		return
	}
	if err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) && deadlinePassed(sj)) && n.ctx.Err() == nil {
		// The requester's deadline expired mid-epoch. Abandon the run and
		// say why in the Done, so the gateway answers 504 instead of
		// burning retries on work nobody is waiting for. The gateway's
		// Abort for the same expiry can cancel the run just before the
		// local deadline timer fires; that is the same abandonment.
		n.deadlineAborts.Add(1)
		err = fmt.Errorf("cluster: node %s job %s epoch %d abandoned: %w",
			n.cfg.ID, sj.JobID, sj.Epoch, errRequesterDeadline)
	}
	aborted := err != nil && errors.Is(err, context.Canceled)
	if aborted && stalled != nil && stalled.Load() && n.ctx.Err() == nil {
		// The stall watchdog cancelled us: report a transient failure so
		// the gateway restarts the epoch, instead of a silent abort.
		aborted = false
		err = faultinject.Transient(fmt.Errorf(
			"cluster: node %s job %s epoch %d stalled: no progress for %v",
			n.cfg.ID, sj.JobID, sj.Epoch, n.cfg.StallTimeout))
	}
	j.mu.Unlock()
	if aborted {
		return // Abort or shutdown; the gateway does not expect a Done.
	}
	if err == nil {
		n.saveBlocks(j, sj)
	}
	n.sendDone(j, sj, err, st)
}

func (n *Node) onComplete(j *nodeJob, sj *wire.StartJob, id int32) {
	j.mu.Lock()
	if !j.haveData[id] {
		j.haveData[id] = true
		j.nHave++
	}
	n.done.Add(1)
	j.maybeReadyLocked(n)
	j.mu.Unlock()
	n.shipBlock(j, sj, id)
}

// shipBlock sends block id — final data — to every node that consumes it
// under sj's mapping plus the assembly targets, each exactly once.
func (n *Node) shipBlock(j *nodeJob, sj *wire.StartJob, id int32) {
	col, bi := j.pr.ColOf[id], j.pr.IdxOf[id]
	src := j.nf.Data[col][bi]
	bd := wire.BlockData{
		JobID: sj.JobID, RunID: sj.RunID, Epoch: sj.Epoch,
		Block: uint32(id), Data: src,
	}
	targets := make(map[int]bool)
	for _, p := range j.pr.Consumers[id] {
		targets[int(sj.NodeOf[p])] = true
	}
	targets[int(sj.Primary)] = true
	for _, r := range sj.Replicas {
		targets[int(r)] = true
	}
	delete(targets, j.myIdx)
	if len(targets) == 0 {
		return
	}
	b, err := wire.Encode(wire.Frame{Type: wire.TBlockData, BlockData: &bd})
	if err != nil {
		n.cfg.Logf("cluster node %s: encode block %d: %v", n.cfg.ID, id, err)
		return
	}
	for t := range targets {
		if t < 0 || t >= len(sj.Participants) || !sj.Participants[t].Alive {
			continue
		}
		n.peerFor(sj.Participants[t].DataAddr).send(n, b)
	}
}

func (p *peer) send(n *Node, b []byte) {
	select {
	case p.ch <- b:
	case <-n.ctx.Done():
	}
}

// maybeReadyLocked reports FactorReady once an assembly target holds every
// block. Caller holds j.mu.
func (j *nodeJob) maybeReadyLocked(n *Node) {
	if j.readySent || j.sj == nil || j.nHave < j.pr.NBlocks {
		return
	}
	target := j.myIdx == int(j.sj.Primary)
	for _, r := range j.sj.Replicas {
		target = target || j.myIdx == int(r)
	}
	if !target {
		return
	}
	j.readySent = true
	fr := wire.FactorReady{JobID: j.id, RunID: j.runID}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		if err := n.sendCtrl(wire.Frame{Type: wire.TFactorReady, FactorReady: &fr}); err != nil {
			n.cfg.Logf("cluster node %s: factor ready: %v", n.cfg.ID, err)
		}
	}()
}

// sendDone reports the epoch's outcome, with structured pivot coordinates
// for numeric breakdowns.
func (n *Node) sendDone(j *nodeJob, sj *wire.StartJob, err error, st fanout.Stats) {
	dn := wire.Done{JobID: sj.JobID, RunID: sj.RunID, Epoch: sj.Epoch, OK: err == nil}
	if err != nil {
		dn.Err = err.Error()
		var pe *kernels.PivotError
		if errors.As(err, &pe) {
			dn.HasPivot = true
			dn.PivotBlock, dn.PivotRow = int32(pe.Block), int32(pe.Row)
			dn.Pivot = pe.Pivot
		}
	}
	dn.Stats = n.statsSnapshot()
	if serr := n.sendCtrl(wire.Frame{Type: wire.TDone, Done: &dn}); serr != nil {
		n.cfg.Logf("cluster node %s: done: %v", n.cfg.ID, serr)
	}
}

// abortJob cancels the named epoch or, for a drop, deletes the job. An
// Abort never creates a job: one for an id this node does not hold (it
// raced its StartJob, or the job is already gone) has nothing to stop.
func (n *Node) abortJob(ab *wire.Abort) {
	job := n.lockJob(ab.JobID, false)
	if job == nil {
		return
	}
	defer job.mu.Unlock()
	if ab.Drop {
		if job.runID > ab.RunID {
			return // a newer run of the pattern already restarted it here
		}
		job.pending = nil // the cancelled runner must not start another epoch
		if job.running {
			job.cancel()
		}
		n.removeLocked(job)
		return
	}
	if ab.RunID == job.runID && job.running && job.cancel != nil {
		job.cancel()
	}
}

// solve answers one routed right-hand side from the assembled factor.
func (n *Node) solve(req *wire.SolveReq) wire.SolveResp {
	resp := wire.SolveResp{Seq: req.Seq}
	n.mu.Lock()
	job, ok := n.jobs[req.JobID]
	n.mu.Unlock()
	if !ok {
		resp.Err = fmt.Sprintf("cluster: node %s holds no job %s", n.cfg.ID, req.JobID)
		return resp
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.plan == nil || job.nHave < job.pr.NBlocks {
		resp.Err = fmt.Sprintf("cluster: node %s holds %d/%d blocks of job %s", n.cfg.ID, job.nHave, job.pr.NBlocks, req.JobID)
		return resp
	}
	if err := core.CheckRHS(job.plan.A.N, req.B); err != nil {
		resp.Err = fmt.Sprintf("cluster: node %s: %v", n.cfg.ID, err)
		return resp
	}
	resp.X = job.plan.Perm.ApplyInverse(job.nf.Solve(job.plan.Perm.Apply(req.B), job.pr.Split))
	resp.OK = true
	return resp
}

func (n *Node) writeTrace(sj *wire.StartJob, rec *obs.Recorder) {
	name := fmt.Sprintf("%s-run%d-epoch%d-%s.trace.json", sj.JobID, sj.RunID, sj.Epoch, n.cfg.ID)
	f, err := os.Create(filepath.Join(n.cfg.TraceDir, name))
	if err != nil {
		n.cfg.Logf("cluster node %s: trace: %v", n.cfg.ID, err)
		return
	}
	defer f.Close()
	if err := rec.WriteTrace(f, "node "+n.cfg.ID); err != nil {
		n.cfg.Logf("cluster node %s: trace: %v", n.cfg.ID, err)
	}
}
