// Package machine is a discrete-event simulator of a distributed-memory
// multicomputer running the block fan-out method. It executes exactly the
// same data-driven protocol as the real parallel executor (package fanout)
// — same ownership, same dependencies, same fan-out messages — but in
// virtual time under a configurable machine model, standing in for the
// 196-node Intel Paragon of the paper (see DESIGN.md, substitutions).
//
// The machine model charges each block operation its flop time plus a fixed
// per-operation overhead (the paper's one-thousand-op fixed cost), each
// message a sender/receiver CPU overhead, and delivers messages after a
// latency plus size/bandwidth delay. Processors act on received blocks in
// arrival order, as the paper's code does.
package machine

import (
	"container/heap"
	"fmt"

	"blockfanout/internal/sched"
)

// Config is the machine model. The Paragon defaults follow §3.1: 50 µs
// message latency, ~40 MB/s effective bandwidth for the message sizes the
// code uses, and 20–40 Mflop/s per-node BLAS performance.
type Config struct {
	FlopRate     float64 // flop/s per processor
	OpOverhead   float64 // seconds of fixed cost per block operation
	Latency      float64 // seconds of network latency per message
	Bandwidth    float64 // bytes/s per link
	SendOverhead float64 // sender CPU seconds per message
	RecvOverhead float64 // receiver CPU seconds per message
	// Policy orders each processor's receive queue: FIFO is the paper's
	// data-driven code; CritPath is the §5 priority-scheduling conjecture.
	Policy Policy
	// CollectTrace records a Span per busy interval into Result.Spans for
	// timeline rendering (O(#operations) memory; meant for small runs).
	CollectTrace bool
	// MeshDims, when non-zero, models the Paragon's physical 2-D mesh
	// interconnect: processor id p sits at (p/MeshDims[1], p%MeshDims[1])
	// and each message pays HopLatency per Manhattan-distance hop on top
	// of the base latency. Zero dims model a distance-oblivious network.
	MeshDims   [2]int
	HopLatency float64
	// Faults, when non-nil, injects deterministic failures into the run:
	// fail-stop nodes, message drops/duplicates, per-node slowdowns. See
	// FaultPlan.
	Faults *FaultPlan
}

// NodeFailure schedules a fail-stop: processor Proc halts at simulated time
// Time, taking effect at its next operation boundary.
type NodeFailure struct {
	Proc int32
	Time float64 // simulated seconds
}

// FaultPlan describes deterministic, seedable faults for a simulation. The
// recovery model is checkpoint/buddy takeover: a completed block's fan-out
// messages are its checkpoint, so when a node fails the next surviving
// processor (its buddy) inherits the failed node's unfinished blocks,
// restarts every one of its own unfinished blocks from the last checkpoint,
// and re-derives the lost work by replaying the union of both nodes'
// delivery logs after RecoveryDelay. Simulated degradation therefore
// includes both the re-executed block operations and the recovery pause.
type FaultPlan struct {
	// Seed drives the drop/duplication coin flips. The same (Seed, plan,
	// schedule, config) is bit-for-bit reproducible.
	Seed uint64
	// Failures are fail-stop events, applied in time order.
	Failures []NodeFailure
	// DropProb is the per-remote-message probability that the first
	// transmission is lost; the sender's retransmit timer redelivers it
	// RetryDelay later.
	DropProb float64
	// DupProb is the per-remote-message probability of a duplicated
	// delivery; the receiver pays RecvOverhead to discard the copy.
	DupProb float64
	// RetryDelay is the retransmit timeout charged to a dropped message.
	RetryDelay float64
	// RecoveryDelay is the failure-detection plus takeover time before the
	// buddy starts replaying a failed node's work.
	RecoveryDelay float64
	// Slowdown, when non-nil, must have one entry per processor: a compute
	// time multiplier (1 = nominal, 2 = half speed) modeling heterogeneous
	// or degraded nodes.
	Slowdown []float64
}

// Validate rejects machine models that would produce nonsensical (negative
// or NaN) simulated times, and malformed fault plans, before any event is
// scheduled. np is the processor count of the schedule under simulation.
func (c *Config) Validate(np int) error {
	if np <= 0 {
		return fmt.Errorf("machine: config invalid: %d processors", np)
	}
	pos := func(name string, v float64) error {
		if !(v > 0) { // catches NaN too
			return fmt.Errorf("machine: config invalid: %s = %g, must be positive", name, v)
		}
		return nil
	}
	nonNeg := func(name string, v float64) error {
		if !(v >= 0) {
			return fmt.Errorf("machine: config invalid: %s = %g, must be non-negative", name, v)
		}
		return nil
	}
	if err := pos("FlopRate", c.FlopRate); err != nil {
		return err
	}
	if err := pos("Bandwidth", c.Bandwidth); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"OpOverhead", c.OpOverhead}, {"Latency", c.Latency},
		{"SendOverhead", c.SendOverhead}, {"RecvOverhead", c.RecvOverhead},
		{"HopLatency", c.HopLatency},
	} {
		if err := nonNeg(f.name, f.v); err != nil {
			return err
		}
	}
	if c.MeshDims[0] < 0 || c.MeshDims[1] < 0 {
		return fmt.Errorf("machine: config invalid: MeshDims %v", c.MeshDims)
	}
	if c.Faults != nil {
		return c.Faults.validate(np)
	}
	return nil
}

func (f *FaultPlan) validate(np int) error {
	prob := func(name string, v float64) error {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("machine: fault plan invalid: %s = %g, must be in [0,1]", name, v)
		}
		return nil
	}
	if err := prob("DropProb", f.DropProb); err != nil {
		return err
	}
	if err := prob("DupProb", f.DupProb); err != nil {
		return err
	}
	if !(f.RetryDelay >= 0) || !(f.RecoveryDelay >= 0) {
		return fmt.Errorf("machine: fault plan invalid: RetryDelay %g / RecoveryDelay %g must be non-negative",
			f.RetryDelay, f.RecoveryDelay)
	}
	for i, nf := range f.Failures {
		if nf.Proc < 0 || int(nf.Proc) >= np {
			return fmt.Errorf("machine: fault plan invalid: failure %d targets processor %d of %d", i, nf.Proc, np)
		}
		if !(nf.Time >= 0) {
			return fmt.Errorf("machine: fault plan invalid: failure %d at time %g", i, nf.Time)
		}
	}
	if f.Slowdown != nil {
		if len(f.Slowdown) != np {
			return fmt.Errorf("machine: fault plan invalid: %d slowdown factors for %d processors", len(f.Slowdown), np)
		}
		for p, s := range f.Slowdown {
			if !(s > 0) {
				return fmt.Errorf("machine: fault plan invalid: slowdown[%d] = %g, must be positive", p, s)
			}
		}
	}
	return nil
}

// hopDelay returns the topology-dependent extra latency between two
// processors.
func (c *Config) hopDelay(from, to int32) float64 {
	if c.MeshDims[0] == 0 || c.MeshDims[1] == 0 || c.HopLatency == 0 {
		return 0
	}
	cols := c.MeshDims[1]
	fr, fc := int(from)/cols, int(from)%cols
	tr, tc := int(to)/cols, int(to)%cols
	dr, dc := fr-tr, fc-tc
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return float64(dr+dc) * c.HopLatency
}

// Span is one busy interval of a processor in the simulated timeline.
type Span struct {
	Proc       int32
	Start, End float64
	Comm       bool // communication overhead rather than computation
	// Block is the block id the interval worked on — the block being
	// factored/divided/modified for compute spans, the block being sent or
	// received for comm spans — or -1 when unattributed. Trace-event export
	// (internal/obs) surfaces it as an event arg.
	Block int32
}

// Paragon returns the Intel Paragon model of §3.1. The per-operation fixed
// overhead equals the paper's one-thousand-flop fixed cost at this flop
// rate, keeping the simulator consistent with the balance work measure.
func Paragon() Config {
	const rate = 30e6
	return Config{
		FlopRate:     rate,
		OpOverhead:   1000 / rate,
		Latency:      50e-6,
		Bandwidth:    40e6,
		SendOverhead: 25e-6,
		RecvOverhead: 25e-6,
	}
}

// Result reports the outcome of a simulated factorization.
type Result struct {
	Time     float64 // parallel makespan (seconds)
	SeqTime  float64 // analytic single-processor time under the same model
	Messages int64
	Bytes    int64

	CompTime []float64 // per-processor computation CPU time
	CommTime []float64 // per-processor communication CPU time
	Flops    []int64   // per-processor executed flops
	Spans    []Span    // busy intervals, when Config.CollectTrace is set

	// Fault-injection outcomes (zero without a FaultPlan).
	Dropped     int64   // remote messages lost and retransmitted
	Duplicated  int64   // duplicate deliveries discarded by receivers
	FailedProcs []int32 // processors that fail-stopped, in failure order
}

// Efficiency returns t_seq/(P·t_parallel), the paper's efficiency measure.
func (r *Result) Efficiency() float64 {
	p := float64(len(r.CompTime))
	if r.Time <= 0 || p == 0 {
		return 1
	}
	return r.SeqTime / (p * r.Time)
}

// Mflops returns achieved performance in Mflop/s given the operation count
// of the best sequential algorithm (the paper's convention).
func (r *Result) Mflops(seqOps int64) float64 {
	if r.Time <= 0 {
		return 0
	}
	return float64(seqOps) / r.Time / 1e6
}

// CommFraction returns the largest per-processor share of runtime spent on
// communication CPU costs (the §5 "<20% of total runtime" measurement).
func (r *Result) CommFraction() float64 {
	worst := 0.0
	for _, c := range r.CommTime {
		if f := c / r.Time; f > worst {
			worst = f
		}
	}
	return worst
}

// Breakdown returns the machine-wide mean shares of the parallel runtime
// spent computing, communicating, and idle. The paper's §5 instrumentation
// found that "most of the processor time not spent performing useful
// factorization work is spent idle, waiting for the arrival of data".
func (r *Result) Breakdown() (comp, comm, idle float64) {
	if r.Time <= 0 || len(r.CompTime) == 0 {
		return 0, 0, 0
	}
	for p := range r.CompTime {
		comp += r.CompTime[p]
		comm += r.CommTime[p]
	}
	total := r.Time * float64(len(r.CompTime))
	comp /= total
	comm /= total
	idle = 1 - comp - comm
	return comp, comm, idle
}

type event struct {
	t      float64
	seq    int64
	proc   int32
	id     int32
	remote bool
	seed   bool // initial BFAC of a leaf diagonal block
	ready  bool // processor-became-free event (id unused)
	fail   bool // fail-stop of proc (id unused)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// splitmix64 is the drop/duplication coin-flip PRNG: tiny, seedable, and
// consumed in deterministic event order, which makes every fault decision
// reproducible for a fixed FaultPlan.Seed.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (r *splitmix64) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// pend is one entry of a processor's receive queue.
type pend struct {
	id     int32
	seq    int64
	remote bool
	seed   bool
}

// simulator holds one run's mutable state. The block ownership map is
// mutable (powner) because buddy recovery reassigns a failed node's blocks;
// without faults it never diverges from the schedule's Owner.
type simulator struct {
	pr  *sched.Program
	cfg Config
	res Result

	modsLeft  []int32
	diagReady []bool
	done      []bool
	arrivedAt []map[int32]bool
	powner    []int32 // mutable block → processor, seeded from pr.Owner
	alive     []bool
	log       [][]int32 // per-processor processed deliveries, in order

	h       eventHeap
	seq     int64
	pending [][]pend
	idle    []bool
	prio    []float64
	rng     splitmix64

	now      float64
	me       int32
	makespan float64
}

// Simulate runs the block fan-out schedule under the machine model,
// including the optional fault plan. It returns an error for an invalid
// configuration, or when every processor has fail-stopped before the
// factorization completes.
func Simulate(pr *sched.Program, cfg Config) (Result, error) {
	if err := cfg.Validate(pr.NProc); err != nil {
		return Result{}, err
	}
	np := pr.NProc
	s := &simulator{
		pr:  pr,
		cfg: cfg,
		res: Result{
			CompTime: make([]float64, np),
			CommTime: make([]float64, np),
			Flops:    make([]int64, np),
		},
		modsLeft:  append([]int32(nil), pr.NMods...),
		diagReady: make([]bool, pr.NBlocks),
		done:      make([]bool, pr.NBlocks),
		arrivedAt: make([]map[int32]bool, np),
		powner:    append([]int32(nil), pr.Owner...),
		alive:     make([]bool, np),
		log:       make([][]int32, np),
		pending:   make([][]pend, np),
		idle:      make([]bool, np),
	}
	s.res.SeqTime = float64(pr.TotalFlops)/cfg.FlopRate + float64(pr.TotalOps)*cfg.OpOverhead
	for p := 0; p < np; p++ {
		s.arrivedAt[p] = make(map[int32]bool)
		s.alive[p] = true
		s.idle[p] = true
	}
	if cfg.Policy == CritPath {
		s.prio = Priorities(pr, cfg)
	}
	if f := cfg.Faults; f != nil {
		s.rng.s = f.Seed
		for _, nf := range f.Failures {
			s.seq++
			heap.Push(&s.h, event{t: nf.Time, seq: s.seq, proc: nf.Proc, fail: true})
		}
	}

	// Seed events: leaf diagonal blocks are factorable at t=0.
	for _, id := range pr.Seeds {
		s.push(0, pr.Owner[id], id, false, true)
	}

	if err := s.run(); err != nil {
		return Result{}, err
	}
	s.res.Time = s.makespan
	return s.res, nil
}

// MustSimulate is Simulate for trusted, pre-validated configurations; it
// panics on error. Experiments and tests over fixed machine models use it
// to avoid plumbing impossible errors.
func MustSimulate(pr *sched.Program, cfg Config) Result {
	res, err := Simulate(pr, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

func (s *simulator) push(t float64, p, id int32, remote, seed bool) {
	s.seq++
	heap.Push(&s.h, event{t: t, seq: s.seq, proc: p, id: id, remote: remote, seed: seed})
}

func (s *simulator) pushReady(t float64, p int32) {
	s.seq++
	heap.Push(&s.h, event{t: t, seq: s.seq, proc: p, ready: true})
}

func (s *simulator) pickNext(p int32) pend {
	q := s.pending[p]
	best := 0
	if s.prio != nil {
		for i := 1; i < len(q); i++ {
			if s.prio[q[i].id] > s.prio[q[best].id] {
				best = i
			}
		}
	}
	it := q[best]
	s.pending[p] = append(q[:best], q[best+1:]...)
	return it
}

func (s *simulator) span(start float64, comm bool, block int32) {
	if s.cfg.CollectTrace && s.now > start {
		s.res.Spans = append(s.res.Spans, Span{Proc: s.me, Start: start, End: s.now, Comm: comm, Block: block})
	}
}

func (s *simulator) charge(flops int64, block int32) {
	dt := float64(flops)/s.cfg.FlopRate + s.cfg.OpOverhead
	if f := s.cfg.Faults; f != nil && f.Slowdown != nil {
		dt *= f.Slowdown[s.me]
	}
	start := s.now
	s.now += dt
	s.res.CompTime[s.me] += dt
	s.res.Flops[s.me] += flops
	s.span(start, false, block)
}

func (s *simulator) complete(id int32) {
	s.done[id] = true
	for _, c := range s.pr.Consumers[id] {
		if c == s.me {
			s.push(s.now, s.me, id, false, false)
			continue
		}
		start := s.now
		s.res.CommTime[s.me] += s.cfg.SendOverhead
		s.now += s.cfg.SendOverhead
		s.res.Messages++
		s.res.Bytes += s.pr.Bytes[id]
		s.span(start, true, id)
		delay := s.cfg.Latency + s.cfg.hopDelay(s.me, c) + float64(s.pr.Bytes[id])/s.cfg.Bandwidth
		if f := s.cfg.Faults; f != nil {
			// Both coins are always flipped so the decision stream depends
			// only on (Seed, send order), not on which probabilities are
			// non-zero.
			if s.rng.float() < f.DropProb {
				delay += f.RetryDelay
				s.res.Dropped++
			}
			if s.rng.float() < f.DupProb {
				s.res.Duplicated++
				s.push(s.now+delay, c, id, true, false)
			}
		}
		s.push(s.now+delay, c, id, true, false)
	}
}

func (s *simulator) finish(id int32) {
	s.charge(s.pr.OwnOpFlops[id], id)
	s.complete(id)
}

func (s *simulator) handle(id int32) {
	if s.arrivedAt[s.me][id] {
		return
	}
	s.arrivedAt[s.me][id] = true
	s.log[s.me] = append(s.log[s.me], id)
	pr := s.pr
	k := int(pr.ColOf[id])
	idx := int(pr.IdxOf[id])
	colK := &pr.Cols[k]
	if idx == 0 {
		for j := 1; j < len(colK.Blocks); j++ {
			bid := pr.BlockID(k, j)
			if s.powner[bid] != s.me {
				continue
			}
			s.diagReady[bid] = true
			if s.modsLeft[bid] == 0 && !s.done[bid] {
				s.finish(bid)
			}
		}
		return
	}
	for j := 1; j < len(colK.Blocks); j++ {
		other := pr.BlockID(k, j)
		dest := pr.ModDestID(k, idx, j)
		if s.powner[dest] != s.me || s.done[dest] {
			continue
		}
		if other == id || s.arrivedAt[s.me][other] {
			s.charge(pr.ModFlops(k, idx, j), dest)
			s.modsLeft[dest]--
			if s.modsLeft[dest] == 0 {
				if pr.IdxOf[dest] == 0 || s.diagReady[dest] {
					s.finish(dest)
				}
			}
		}
	}
}

// runOne lets processor p (free at time t) pick and process one pending
// block, then schedules its next wake-up.
func (s *simulator) runOne(p int32, t float64) {
	it := s.pickNext(p)
	s.me = p
	s.now = t
	if it.remote {
		start := s.now
		s.res.CommTime[s.me] += s.cfg.RecvOverhead
		s.now += s.cfg.RecvOverhead
		s.span(start, true, it.id)
	}
	if it.seed {
		if !s.done[it.id] {
			s.finish(it.id)
		}
	} else {
		s.handle(it.id)
	}
	s.idle[p] = false
	if s.now > s.makespan {
		s.makespan = s.now
	}
	s.pushReady(s.now, p)
}

// Buddy returns the processor that takes over for failed processor l: the
// next surviving index in cyclic order, or -1 when none survive. It is the
// single definition of the buddy relation — the simulator's takeover and
// rerouting use it, and the real cluster failover (internal/cluster) reuses
// it over participant indices so simulated and executed recovery share
// verified semantics. The relation composes under cascading failures:
// with l's buddy also dead, Buddy(l, alive) lands on the buddy's buddy.
func Buddy(l int32, alive []bool) int32 {
	np := int32(len(alive))
	for d := int32(1); d < np; d++ {
		if c := (l + d) % np; alive[c] {
			return c
		}
	}
	return -1
}

// failNode applies a fail-stop of processor l at time t: the next surviving
// processor (the buddy) inherits l's unfinished blocks, restarts its own
// unfinished blocks from the last checkpoint (a completed block's fan-out
// messages), and replays the union of both delivery logs after the
// recovery delay. Lost in-flight and future messages addressed to l are
// rerouted to the buddy at delivery time via powner; already-completed
// blocks stay completed.
func (s *simulator) failNode(l int32, t float64) error {
	if !s.alive[l] {
		return nil
	}
	s.alive[l] = false
	s.res.FailedProcs = append(s.res.FailedProcs, l)
	buddy := Buddy(l, s.alive)
	if buddy < 0 {
		return fmt.Errorf("machine: all %d processors failed before completion (last at t=%g)", len(s.alive), t)
	}
	tr := t + s.cfg.Faults.RecoveryDelay

	// Reassign ownership and reset progress of every unfinished block the
	// buddy is now responsible for — inherited and its own alike. The
	// replay below re-derives all of it; mods already globally visible via
	// completed (done) blocks are not redone.
	for id := int32(0); id < int32(s.pr.NBlocks); id++ {
		if s.powner[id] == l {
			s.powner[id] = buddy
		}
		if s.powner[id] == buddy && !s.done[id] {
			s.modsLeft[id] = s.pr.NMods[id]
			s.diagReady[id] = false
		}
	}

	// Replay: the buddy's own processed deliveries in original order, then
	// the failed node's deliveries it has not seen, then the failed node's
	// unprocessed queue. arrivedAt[buddy] restarts empty so the standard
	// exactly-once arrival logic drives the re-execution.
	seenAtBuddy := s.arrivedAt[buddy]
	s.arrivedAt[buddy] = make(map[int32]bool, len(seenAtBuddy)+len(s.log[l]))
	replay := append([]int32(nil), s.log[buddy]...)
	for _, id := range s.log[l] {
		if !seenAtBuddy[id] {
			replay = append(replay, id)
		}
	}
	s.log[buddy] = s.log[buddy][:0]
	s.log[l] = nil
	for _, id := range replay {
		s.push(tr, buddy, id, false, false)
	}
	for _, it := range s.pending[l] {
		s.push(tr, buddy, it.id, false, it.seed)
	}
	s.pending[l] = nil
	return nil
}

// run drains the event heap.
func (s *simulator) run() error {
	for s.h.Len() > 0 {
		ev := heap.Pop(&s.h).(event)
		if ev.fail {
			if err := s.failNode(ev.proc, ev.t); err != nil {
				return err
			}
			continue
		}
		p := ev.proc
		if !s.alive[p] {
			if ev.ready {
				continue
			}
			// A message in flight to a dead node is rerouted at delivery
			// time to the live processor standing in for it — the same
			// buddy that inherited its blocks.
			p = s.reroute(p)
			if p < 0 {
				continue
			}
		}
		if ev.ready {
			if len(s.pending[p]) > 0 {
				s.runOne(p, ev.t)
			} else {
				s.idle[p] = true
			}
			continue
		}
		s.pending[p] = append(s.pending[p], pend{
			id: ev.id, seq: ev.seq, remote: ev.remote, seed: ev.seed,
		})
		if s.idle[p] {
			s.idle[p] = false
			s.runOne(p, ev.t)
		}
	}
	return nil
}

// reroute finds the live processor standing in for dead processor p: the
// next surviving id, matching failNode's buddy selection. Returns -1 when
// none survive (run ends with an error from the final failNode instead).
func (s *simulator) reroute(p int32) int32 { return Buddy(p, s.alive) }
