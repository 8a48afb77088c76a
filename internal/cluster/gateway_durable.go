package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"blockfanout/internal/core"
	"blockfanout/internal/kernels"
	"blockfanout/internal/plancache"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/store"
	"blockfanout/internal/tune"
)

// jitterBackoff is the attempt-th retry's wait: base·2^(attempt-1) with
// ±50% jitter, so a fleet of gateways (or epochs) retrying the same flaky
// moment does not reconverge in lockstep.
func jitterBackoff(base time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// factorLocal is degraded mode: the gateway factors the matrix in-process
// with the plan it already holds, keeps the factor for local solves, and
// answers the request as a single-node cluster would. The fleet coming back
// is picked up automatically — the next factor request re-snapshots alive
// members and takes the distributed path.
func (g *Gateway) factorLocal(ctx context.Context, j *gwJob, entry *plancache.Entry, m *sparse.Matrix, hit bool) (*gwFactorResponse, int, error) {
	g.metLocalFactors.Add(1)
	f, err := entry.Plan.FactorValuesContext(ctx, entry.Assign, m.Val)
	if err != nil {
		var pe *kernels.PivotError
		if errors.As(err, &pe) {
			return nil, http.StatusUnprocessableEntity, err
		}
		if ctx.Err() != nil {
			return nil, http.StatusGatewayTimeout, ctx.Err()
		}
		return nil, http.StatusInternalServerError, err
	}
	j.mu.Lock()
	j.localF = f
	j.mu.Unlock()
	// Persist the full factor: a restarted gateway warm-starts straight
	// back into a solvable degraded mode.
	g.saveSnapshot(m, f)
	plan := entry.Plan
	return &gwFactorResponse{
		ID: j.id, N: m.N, NNZ: m.NNZ(),
		NNZL: plan.Exact.NZinL, Flops: plan.Exact.Flops,
		CacheHit: hit, Nodes: 0, Primary: "local", Degraded: true,
	}, 0, nil
}

// saveSnapshot persists a factor snapshot; with f == nil only the matrix
// and configuration are stored (a plan snapshot: enough for a restarted
// gateway to skip ordering + symbolic analysis, while the factor blocks
// themselves live on the nodes).
func (g *Gateway) saveSnapshot(m *sparse.Matrix, f *core.Factor) {
	if g.st == nil {
		return
	}
	fs := &store.FactorSnapshot{
		PatternHash: m.PatternHash(),
		ConfigKey:   g.planKey,
		N:           m.N,
		ColPtr:      m.ColPtr,
		RowInd:      m.RowInd,
		Val:         m.Val,
	}
	if f != nil {
		fs.Blocks = f.Numeric().ExportBlocks()
	}
	if err := g.st.PutFactor(fs); err != nil {
		g.cfg.Logf("cluster gateway: snapshot write for %016x failed: %v", fs.PatternHash, err)
	}
}

// WarmStart restores the gateway's working set from the snapshot store:
// every snapshot written under this gateway's configuration rebuilds its
// plan (and schedule) into the plan cache and job table, and snapshots that
// carry factor blocks — written by degraded-mode factorizations — also
// restore a local factor, so the restarted gateway can serve those solves
// before any node rejoins. Returns the number of plans restored.
func (g *Gateway) WarmStart() (int, error) {
	if g.st == nil {
		return 0, g.storeErr
	}
	// Load persisted cost profiles first so restored jobs (and all later
	// factor requests) schedule under their measured-cost mappings.
	g.loadTunedProfiles()
	warm, err := g.cache.WarmStart(g.st, g.planKey, func(m *sparse.Matrix) (*core.Plan, sched.Assignment, error) {
		plan, err := core.NewPlan(m, g.planOpts)
		if err != nil {
			return nil, sched.Assignment{}, err
		}
		a, _ := buildSchedule(plan, g.cfg.Procs)
		return plan, a, nil
	})
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, we := range warm {
		id := fmt.Sprintf("%016x", we.Snap.PatternHash)
		j := &gwJob{id: id, n: we.Entry.Plan.A.N, notify: make(chan struct{}, 1)}
		j.plan = we.Entry.Plan
		a := we.Entry.Assign
		if tm := g.tunedFor(we.Snap.PatternHash, we.Entry.Plan); tm != nil {
			j.tuned = tm
			a = we.Entry.Plan.Assign(tm, 0)
		}
		j.pr = sched.Build(we.Entry.Plan.BS, a)
		j.loads = procLoads(j.pr)
		if len(we.Snap.Blocks) > 0 {
			// Local factors were snapshotted under the static assignment
			// (factorLocal always uses entry.Assign), so restore with it.
			if f, err := we.Entry.Plan.RestoreFactor(we.Entry.Assign, we.Snap.Val, we.Snap.Blocks); err == nil {
				j.localF = f
			} else {
				g.cfg.Logf("cluster gateway: local factor restore for %s failed: %v", id, err)
			}
		}
		g.mu.Lock()
		if _, ok := g.jobs[id]; !ok {
			g.jobs[id] = j
			restored++
		}
		g.mu.Unlock()
	}
	g.metWarmPlans.Store(uint64(restored))
	return restored, nil
}

// loadTunedProfiles rebuilds measured-cost mappings from every cost profile
// persisted under this gateway's plan configuration and registers them for
// StartJob propagation. Profiles measured at a different parallel width are
// still usable — per-block costs do not depend on the virtual processor
// count — because the remap search regrids for cfg.Procs. Returns how many
// mappings were registered.
func (g *Gateway) loadTunedProfiles() int {
	if !g.cfg.Tune || g.st == nil {
		return 0
	}
	keys, err := g.st.ScanProfiles()
	if err != nil {
		return 0
	}
	n := 0
	for _, k := range keys {
		if k.ConfigKey != g.planKey {
			continue // measured under a different plan configuration
		}
		ps, err := g.st.GetProfile(k.PatternHash, k.ConfigKey)
		if err != nil {
			continue // missing, or corrupt and already quarantined
		}
		prof, err := tune.FromSnapshot(ps)
		if err != nil {
			g.st.DeleteProfile(k.PatternHash, k.ConfigKey)
			continue
		}
		tm, _ := tune.Search(prof, g.cfg.Procs)
		if tm == nil {
			continue
		}
		if g.SetTunedMapping(k.PatternHash, tm) == nil {
			n++
		}
	}
	return n
}

// fleetStatus summarizes cluster health: "ok" with the full fleet alive,
// "down" when the gateway cannot serve at all (below MinNodes with local
// fallback disabled), "degraded" in between — some nodes dead, or running
// on local fallback.
func (g *Gateway) fleetStatus() (status string, alive, total int) {
	g.mu.Lock()
	members := append([]*member(nil), g.members...)
	g.mu.Unlock()
	total = len(members)
	for _, m := range members {
		if m.isAlive() {
			alive++
		}
	}
	switch {
	case alive >= g.cfg.MinNodes && alive == total:
		return "ok", alive, total
	case alive >= g.cfg.MinNodes:
		return "degraded", alive, total
	case !g.cfg.DisableLocalFallback:
		return "degraded", alive, total
	default:
		return "down", alive, total
	}
}
