package server

import (
	"context"
	"fmt"
	"sync"
)

// solveOutcome is what one batched single-RHS solve gets back.
type solveOutcome struct {
	x     []float64 // the solution
	batch int       // how many right-hand sides shared the sweep
	err   error
}

// pendingSolve is one request queued behind a running sweep.
type pendingSolve struct {
	ctx context.Context
	b   []float64
	res chan solveOutcome // buffered(1); run never blocks on a dead client
}

// batcher coalesces single-RHS solves against one factor by group commit.
// A solve that finds no sweep running runs at once, on its caller's
// goroutine. Solves that arrive while a sweep runs queue; when it ends
// they go together, up to BatchLimit, as the next SolveMany sweep. So the
// batch size follows the load and a queued solve waits one sweep. Each
// coalesced sweep loads every factor block once for the whole batch —
// the serving win SolveN was built for.
type batcher struct {
	l  *Local
	fe *factorEntry

	mu      sync.Mutex
	busy    bool // a sweep is running or about to
	pending []pendingSolve
}

// submit solves b, at once when the factor is idle and otherwise in the
// sweep after the running one (or until ctx expires).
func (bt *batcher) submit(ctx context.Context, b []float64) (SolveResponse, error) {
	// A request whose deadline already passed must not take a sweep: its
	// result would be discarded anyway. Fail it before it touches the
	// pending list.
	if err := ctx.Err(); err != nil {
		return SolveResponse{}, err
	}
	req := pendingSolve{ctx: ctx, b: b, res: make(chan solveOutcome, 1)}
	bt.mu.Lock()
	if bt.busy {
		bt.pending = append(bt.pending, req)
		bt.mu.Unlock()
		bt.l.s.met.queued.Add(1)
	} else {
		bt.busy = true
		bt.mu.Unlock()
		bt.run(ctx, []pendingSolve{req})
	}
	select {
	case out := <-req.res:
		return SolveResponse{X: out.x, Batch: out.batch}, out.err
	case <-ctx.Done():
		return SolveResponse{}, ctx.Err()
	}
}

// next starts the solves queued behind the sweep that just ended as one
// batch on a goroutine of its own, or marks the factor idle.
func (bt *batcher) next() {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	n := min(len(bt.pending), bt.l.s.cfg.BatchLimit)
	if n == 0 {
		bt.busy = false
		return
	}
	batch := bt.pending[:n:n]
	bt.pending = append([]pendingSolve(nil), bt.pending[n:]...) // drop batch's array
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), bt.l.s.cfg.RequestTimeout)
		defer cancel()
		bt.run(ctx, batch)
	}()
}

// run solves batch in one SolveMany sweep through Local.solve, answers
// each request and then starts the next sweep. Requests whose context
// ended while they queued are dropped, not solved. The sweep admits as an
// internal interactive request: each solve was already charged against
// its tenant's bucket at arrival, so the sweep only competes for a worker
// slot. A panic in the sweep answers every request with an error, so a
// batch on a goroutine of its own cannot take the process down.
func (bt *batcher) run(ctx context.Context, batch []pendingSolve) {
	defer bt.next()
	s := bt.l.s
	var live []pendingSolve
	var bs [][]float64
	for _, req := range batch {
		if req.ctx.Err() != nil {
			s.met.expired.Add(1)
			continue
		}
		live, bs = append(live, req), append(bs, req.b)
	}
	if len(live) == 0 {
		return
	}
	var xs [][]float64
	var err error
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Add(1)
			err = fmt.Errorf("internal panic in a batched solve: %v", rec)
		}
		for i, req := range live {
			out := solveOutcome{err: err}
			if err == nil {
				out = solveOutcome{x: xs[i], batch: len(live)}
			}
			req.res <- out
		}
	}()
	rel, err := s.admitSolve(ctx, "", bt.fe.nnzL, len(bs))
	if err != nil {
		return
	}
	defer rel()
	if xs, err = bt.l.solve(ctx, bt.fe, bs); err == nil {
		s.met.batches.Add(1)
		s.met.batched.Add(int64(len(bs)))
	}
}
