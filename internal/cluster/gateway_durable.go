package cluster

import (
	"context"
	"math/rand"
	"time"

	"blockfanout/internal/server"
	"blockfanout/internal/sparse"
	"blockfanout/internal/store"
)

// jitterBackoff is the attempt-th retry's wait: base·2^(attempt-1) with
// ±50% jitter, so a fleet of gateways (or epochs) retrying the same flaky
// moment does not reconverge in lockstep.
func jitterBackoff(base time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// factorDegraded is degraded mode: the request runs on the gateway's own
// Local backend, which keeps the factor for local solves and snapshots it
// with its blocks, so a restarted gateway warm-starts straight back into a
// solvable degraded mode. The answer reads as a single-node cluster's. The
// fleet coming back is picked up automatically: the next factor request
// re-snapshots alive members, takes the distributed path and retires the
// local factor. Caller holds j.reqMu.
func (g *Gateway) factorDegraded(ctx context.Context, j *gwJob, c *server.FactorCall) (server.FactorResponse, error) {
	g.metLocalFactors.Add(1)
	// Retire the distributed run: its assembly nodes hold older values, and
	// no failover may restart it.
	j.mu.Lock()
	j.runID, j.solvable = 0, false
	j.mu.Unlock()
	resp, err := g.local.Factor(ctx, c)
	resp.Primary, resp.Degraded = "local", true
	return resp, err
}

// saveSnapshot enqueues a plan snapshot of a distributed run through the
// front's write-behind writer: matrix and configuration, no blocks — the
// factor itself lives on the nodes — enough for a restarted gateway to
// skip ordering and symbolic analysis. Caller holds j.reqMu.
func (g *Gateway) saveSnapshot(j *gwJob, m *sparse.Matrix) {
	g.front.SaveSnapshot(&j.lastSnap, func() *store.FactorSnapshot {
		return &store.FactorSnapshot{
			PatternHash: m.PatternHash(),
			ConfigKey:   g.planKey,
			N:           m.N,
			ColPtr:      m.ColPtr,
			RowInd:      m.RowInd,
			Val:         m.Val,
		}
	})
}

// WarmStart restores the gateway's working set from the snapshot store:
// every snapshot written under this gateway's configuration returns its
// plan to the plan cache, and snapshots that carry factor blocks — written
// by degraded-mode factorizations — also restore a Local-backend factor,
// so the restarted gateway serves those solves before any node rejoins.
// Returns the number of snapshots restored.
func (g *Gateway) WarmStart() (int, error) {
	return g.front.WarmStart()
}
