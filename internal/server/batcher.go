package server

import (
	"context"
	"sync"
	"time"

	"blockfanout/internal/admission"
)

// solveOutcome is what one batched single-RHS solve gets back.
type solveOutcome struct {
	x     []float64 // the solution
	batch int       // how many right-hand sides shared the sweep
	err   error
}

// pendingSolve is one request parked in the batch window.
type pendingSolve struct {
	b   []float64
	res chan solveOutcome // buffered(1); flush never blocks on a dead client
}

// batcher coalesces concurrent single-RHS solves against one factor into
// one SolveMany sweep. The first request to land in an empty window arms a
// timer; everything arriving within the window joins its batch. A batch is
// flushed early when it reaches the configured size limit. Each coalesced
// sweep loads every factor block once for the whole batch — the serving
// win SolveN was built for.
type batcher struct {
	l  *Local
	fe *factorEntry

	mu      sync.Mutex
	pending []pendingSolve
	timer   *time.Timer
}

// submit enqueues b and waits for its solution (or ctx expiry; the batch
// keeps running and discards the abandoned result).
func (bt *batcher) submit(ctx context.Context, b []float64) solveOutcome {
	// A request whose deadline already passed must not be coalesced into a
	// sweep: its result would be discarded anyway, but the sweep would
	// still spend a worker pool slot solving for it. Fail it before it
	// touches the pending list.
	if err := ctx.Err(); err != nil {
		return solveOutcome{err: err}
	}
	req := pendingSolve{b: b, res: make(chan solveOutcome, 1)}
	bt.mu.Lock()
	bt.pending = append(bt.pending, req)
	switch {
	case len(bt.pending) >= bt.l.s.cfg.BatchLimit:
		if bt.timer != nil {
			bt.timer.Stop()
			bt.timer = nil
		}
		batch := bt.pending
		bt.pending = nil
		bt.mu.Unlock()
		go bt.run(batch)
	case len(bt.pending) == 1:
		bt.timer = time.AfterFunc(bt.l.s.cfg.BatchWindow, bt.flush)
		bt.mu.Unlock()
	default:
		bt.mu.Unlock()
	}

	select {
	case out := <-req.res:
		return out
	case <-ctx.Done():
		return solveOutcome{err: ctx.Err()}
	}
}

// flush is the timer callback: take whatever accumulated and solve it.
func (bt *batcher) flush() {
	bt.mu.Lock()
	batch := bt.pending
	bt.pending = nil
	bt.timer = nil
	bt.mu.Unlock()
	if len(batch) > 0 {
		bt.run(batch)
	}
}

// run executes one coalesced batch on the worker pool and distributes the
// results. The batch admits as an internal interactive request: each
// constituent solve was already charged against its tenant's bucket at
// arrival, so the sweep itself only competes for a worker slot.
func (bt *batcher) run(batch []pendingSolve) {
	s := bt.l.s
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer cancel()
	rel, rej, err := s.adm.Admit(ctx, admission.Request{
		Priority: admission.Interactive,
		Cost:     s.cost.Estimate(4 * bt.fe.nnzL * int64(len(batch))),
		Deadline: admissionDeadline(ctx),
		Internal: true,
	})
	if rej != nil {
		err = rej
	}
	if err != nil {
		for _, req := range batch {
			req.res <- solveOutcome{err: err}
		}
		return
	}
	defer rel()

	bs := make([][]float64, len(batch))
	for i, req := range batch {
		bs[i] = req.b
	}
	bt.fe.mu.RLock()
	if bt.fe.f == nil {
		// The factor was invalidated (failed refactor) after these requests
		// looked it up; fail them instead of dereferencing nil — a panic
		// here would take down the whole process.
		bt.fe.mu.RUnlock()
		for _, req := range batch {
			req.res <- solveOutcome{err: errFactorInvalid}
		}
		return
	}
	xs, err := bt.fe.f.SolveMany(bs)
	bt.fe.mu.RUnlock()
	if err != nil {
		for _, req := range batch {
			req.res <- solveOutcome{err: err}
		}
		return
	}
	s.met.batches.Add(1)
	s.met.batched.Add(int64(len(batch)))
	for i, req := range batch {
		req.res <- solveOutcome{x: xs[i], batch: len(batch)}
	}
}
