// Package fanout executes the parallel block fan-out method (§2.3) for
// real. The method is one data-driven DAG over blocks: a block's completing
// operation (BFAC or BDIV) runs once every modification into it is done, and
// a completed block is fanned out to the BMODs that need it. One engine
// (steal.go) runs that DAG on per-worker deques driven by atomic ready
// counters; the Mode only chooses where each ready operation runs:
//
//   - ModeWorkStealing (default), free placement: any worker may run any
//     ready block operation, and an idle worker steals from a random
//     victim. Ownership stops pinning work to goroutines, so an oversized
//     block (irregular partitions produce them on purpose) never starves a
//     worker.
//   - ModeSPMD, pinned placement: the paper-faithful owner-computes rule.
//     One worker per virtual processor runs exactly the operations of the
//     blocks it owns — every BMOD into block d and d's BFAC/BDIV run on
//     worker Owner[d] — and never steals. An operation readied on another
//     worker reaches the owner through its buffered inbox, the message
//     fabric of the emulated distributed machine.
//
// A third placement, restricted, confines a free pool to one cluster node's
// share of the blocks (Restriction, Inject).
//
// Within this shared-memory emulation a "message" carries only the block
// id; the numeric payload lives in the shared numeric.Factor, which is safe
// because a block's data is written before the atomic decrement or channel
// send that announces it (both provide the happens-before edge), and is
// read-only afterwards.
//
// An Executor owns every piece of mutable run state — dependence counters,
// ready queues, deques, per-worker inbox channels and BMOD workspaces —
// preallocated once and reset between runs, so repeated factorizations
// over the same schedule (the refactorization serving pattern: reload
// values, factor again) perform no per-run setup allocation beyond
// goroutine startup.
package fanout

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"blockfanout/internal/blocks"
	"blockfanout/internal/kernels"
	"blockfanout/internal/numeric"
	"blockfanout/internal/obs"
	"blockfanout/internal/sched"
)

// Stats reports what the parallel run did.
type Stats struct {
	Messages int64 // remote block transfers
	Bytes    int64 // remote bytes moved
	Procs    int
	// Flops of the block operations this executor ran, and successful
	// deque thefts (always zero under ModeSPMD, whose workers never steal).
	Flops  int64
	Steals int64
}

// Run factors f in parallel according to the program's assignment. It
// returns factorization statistics, or the first error encountered (e.g. a
// non-positive-definite pivot). One-shot convenience over NewExecutor.
func Run(f *numeric.Factor, pr *sched.Program) (Stats, error) {
	return NewExecutor(f, pr).Run()
}

// Mode selects where the engine runs each ready block operation.
type Mode uint8

const (
	// ModeWorkStealing (the default) is free placement: any worker may
	// execute any ready block op, stealing from a random victim when its
	// own deque runs dry, so an oversized block never starves a processor.
	ModeWorkStealing Mode = iota
	// ModeSPMD is pinned placement, the paper-faithful owner-computes rule:
	// one worker per virtual processor, each executing exactly the ops of
	// the blocks it owns and never stealing. It remains selectable as the
	// baseline the benchmarks compare work stealing against (and as the
	// placement whose message counts the simulator mirrors exactly).
	ModeSPMD
)

func (m Mode) String() string {
	switch m {
	case ModeWorkStealing:
		return "steal"
	case ModeSPMD:
		return "spmd"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode converts a flag value ("steal" or "spmd") to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "steal", "":
		return ModeWorkStealing, nil
	case "spmd":
		return ModeSPMD, nil
	}
	return 0, fmt.Errorf("fanout: unknown executor mode %q (want steal or spmd)", s)
}

// Executor is a reusable parallel factorization engine bound to one factor
// and one schedule. It is not safe for concurrent use; a Run must finish
// before the next begins.
type Executor struct {
	f  *numeric.Factor
	pr *sched.Program
	// pinned selects owner-computes placement (ModeSPMD); see steal.go.
	pinned bool

	// Engine state; see steal.go.
	pairs      *blocks.PairTable
	srcInit    []int32 // pairing → initial source count (2, or 1 when A==B)
	srcLeft    []int32 // pairing → remaining sources (atomic)
	finInit    []int32 // block → initial NMods (+1 diag arrival if off-diag)
	finLeft    []int32 // block → remaining prerequisites (atomic)
	slots      []int32 // ready-pairing queue slots, segmented by DestBase
	slotHead   []int32 // block → published ready pairings (atomic)
	slotDone   []int32 // block → executed pairings (claim-holder private)
	active     []int32 // block → activation claim flag (atomic CAS)
	seeds      [][]int32
	workers    []wsWorker
	blocksLeft atomic.Int32
	doneCh     chan struct{}
	doneOnce   sync.Once
	sleepers   atomic.Int32
	parkCh     chan struct{}

	// Restricted-mode state (nil/unused otherwise); see steal.go.
	restrict  *Restriction
	execMask  []bool     // block id → this executor runs the block's ops
	execCount int32      // number of true entries in execMask
	extCh     chan int32 // externally completed block arrivals (Inject)

	// rec, when non-nil and enabled, records one obs.Span per block
	// operation. A nil or disabled recorder costs one pointer check plus
	// one atomic load per operation and never allocates.
	rec *obs.Recorder

	// Per-run control state, reset by Run.
	abort     chan struct{}
	abortOnce sync.Once
	errMu     sync.Mutex
	firstErr  error
}

// NewExecutor preallocates all run state for factoring f under pr in the
// default work-stealing mode. The factor may be reloaded with new values
// (numeric.Factor.Reload) between runs; the schedule is fixed.
func NewExecutor(f *numeric.Factor, pr *sched.Program) *Executor {
	return NewExecutorMode(f, pr, ModeWorkStealing)
}

// NewExecutorMode preallocates all run state for the chosen placement.
func NewExecutorMode(f *numeric.Factor, pr *sched.Program, mode Mode) *Executor {
	ex := &Executor{f: f, pr: pr, pinned: mode == ModeSPMD}
	ex.initEngine()
	return ex
}

// Restriction confines a work-stealing executor to a subset of the
// schedule's blocks — the execution model of one cluster node, which owns a
// slice of the block-to-processor mapping and learns of remote completions
// over the network (Inject) instead of from sibling workers.
type Restriction struct {
	// Local marks the blocks whose operations this executor performs. A nil
	// slice means all blocks (useful for throttled single-node runs).
	Local []bool
	// Predone marks blocks whose final data is already present in the
	// factor at run start (retained from a previous failover epoch, or
	// received before the restart). They are not executed; their completion
	// is propagated into the dependence counters when the run begins.
	Predone []bool
	// OnComplete, when non-nil, is called from a worker goroutine after
	// each locally executed block's data is final — the node's fan-out
	// hook. It must not block for long; ship through buffered channels.
	OnComplete func(id int32)
	// Workers is the goroutine pool size; 0 means GOMAXPROCS.
	Workers int
	// FlopsPerSec, when positive, paces each worker to the given aggregate
	// flop rate divided evenly across workers — the knob heterogeneity
	// benchmarks use to make a node measurably slow.
	FlopsPerSec float64
}

// executes reports whether this executor performs block id's operations.
func (r *Restriction) executes(id int32) bool {
	if r.Predone != nil && r.Predone[id] {
		return false
	}
	return r.Local == nil || r.Local[id]
}

// NewExecutorRestricted preallocates a work-stealing executor confined to
// the restriction. A restricted executor is single-run: build a fresh one
// per failover epoch (the restriction is fixed, and arrivals injected
// before the run starts are queued, not discarded — so a stale executor
// must never be rerun).
func NewExecutorRestricted(f *numeric.Factor, pr *sched.Program, r *Restriction) *Executor {
	ex := &Executor{f: f, pr: pr, restrict: r}
	ex.initEngine()
	return ex
}

// Inject delivers an externally completed block (its data already written
// into the factor) to a running restricted executor. Each block must be
// injected at most once per run, and never a block the restriction marks
// local or predone. Inject never blocks: the arrival channel holds one slot
// per block.
func (ex *Executor) Inject(id int32) {
	ex.extCh <- id
	if ex.sleepers.Load() > 0 {
		select {
		case ex.parkCh <- struct{}{}:
		default:
		}
	}
}

// SetRecorder attaches (or, with nil, detaches) a span recorder. The
// recorder needs one lane per worker; attach between runs, not during
// one. Enabling/disabling the attached recorder is safe at any time — the
// gate is a single atomic flag read on the hot path.
func (ex *Executor) SetRecorder(rec *obs.Recorder) {
	if rec != nil && rec.Procs() < len(ex.workers) {
		panic(fmt.Sprintf("fanout: recorder has %d lanes for %d workers", rec.Procs(), len(ex.workers)))
	}
	ex.rec = rec
}

// NewRecorder creates, attaches, and returns a recorder sized for this
// executor: one lane per worker (restricted executors may run fewer
// workers than the schedule has virtual processors), capacity hinted by
// the per-lane block-operation count. The recorder starts disabled.
func (ex *Executor) NewRecorder() *obs.Recorder {
	n := len(ex.workers)
	per := 3 * ex.pr.NBlocks / n
	rec := obs.NewRecorder(n, per)
	ex.SetRecorder(rec)
	return rec
}

// NewMeasureRecorder creates, attaches, and returns a recorder sized so a
// complete factorization cannot overflow any lane: per-lane capacity covers
// every block operation in the schedule (one BFAC/BDIV per block plus one
// BMOD per modification), because under work stealing any single worker
// may end up executing an arbitrary share of them. Recorder.Dropped() == 0
// is therefore guaranteed, so per-layer timings and trace exports see every
// compute span. The per-span cost is
// the same two clock reads and one in-place array write as NewRecorder
// (no allocation once sized), so it is cheap enough to leave on for a
// whole production factorization; the price is memory, O(lanes × ops)
// spans instead of NewRecorder's O(ops).
func (ex *Executor) NewMeasureRecorder() *obs.Recorder {
	per := ex.pr.NBlocks + len(ex.pr.ModDest)
	if !ex.pinned {
		// Free placement also records one OpSteal per stolen task (at most
		// one per block activation) and OpIdle spans for parks; pad for
		// both so bookkeeping spans cannot evict compute spans either.
		per += ex.pr.NBlocks + 1024
	}
	rec := obs.NewRecorder(len(ex.workers), per)
	ex.SetRecorder(rec)
	return rec
}

// fail records a failure and broadcasts cancellation to the remaining
// processors. Errors are ranked, not first-come: a numerical breakdown
// (*kernels.PivotError) beats any infrastructure or cancellation error, and
// among breakdowns the lowest (Block, Row) wins, so the reported pivot is
// independent of which goroutine lost the race to report it.
func (ex *Executor) fail(err error) {
	ex.errMu.Lock()
	if betterErr(err, ex.firstErr) {
		ex.firstErr = err
	}
	ex.errMu.Unlock()
	ex.abortOnce.Do(func() { close(ex.abort) })
}

func betterErr(candidate, incumbent error) bool {
	if incumbent == nil {
		return true
	}
	var cp, ip *kernels.PivotError
	cPiv := errors.As(candidate, &cp)
	iPiv := errors.As(incumbent, &ip)
	switch {
	case cPiv && !iPiv:
		return true
	case !cPiv:
		return false
	case cp.Block != ip.Block:
		return cp.Block < ip.Block
	default:
		return cp.Row < ip.Row
	}
}

// Run executes one parallel factorization.
func (ex *Executor) Run() (Stats, error) {
	return ex.RunContext(context.Background())
}

// RunContext executes one parallel factorization, aborting early (with
// ctx.Err()) if the context is cancelled. A cancelled run leaves the factor
// numerically incomplete; Reload before the next Run restores it.
func (ex *Executor) RunContext(ctx context.Context) (Stats, error) {
	// A context cancelled before the run must fail it: the watcher below
	// may otherwise not be scheduled until a small factorization is done.
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	ex.reset()
	stopWatcher := func() {}
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		watcherExit := make(chan struct{})
		go func() {
			defer close(watcherExit)
			select {
			case <-done:
				ex.fail(ctx.Err())
			case <-stop:
			case <-ex.abort:
			}
		}()
		stopWatcher = func() {
			close(stop)
			<-watcherExit
		}
	}
	// Propagate retained completions through the normal arrival path before
	// any worker starts: predone blocks behave exactly like injected remote
	// completions, so the failover restart needs no special counter surgery.
	if ex.restrict != nil && ex.restrict.Predone != nil {
		for id, pd := range ex.restrict.Predone {
			if pd {
				ex.extCh <- int32(id)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(ex.workers))
	for p := range ex.workers {
		w := &ex.workers[p]
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	wg.Wait()
	// Join the watcher before reading firstErr: a straggling fail() from a
	// cancellation landing right at completion would otherwise race this
	// read (and a later reset()'s reinstall of abortOnce).
	stopWatcher()
	if ex.firstErr != nil {
		return Stats{}, ex.firstErr
	}
	st := Stats{Messages: ex.pr.TotalMessages, Bytes: ex.pr.TotalBytes, Procs: ex.pr.NProc}
	for p := range ex.workers {
		st.Flops += ex.workers[p].flops
		st.Steals += ex.workers[p].steals
	}
	return st, nil
}
