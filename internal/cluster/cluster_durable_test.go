package cluster

import (
	"encoding/json"
	"net/http"
	"os"
	"testing"
	"time"

	"blockfanout/internal/gen"
	"blockfanout/internal/sparse"
	"blockfanout/internal/store"
)

// fetchHealth reads /healthz without asserting the status code.
func (tc *testCluster) fetchHealth(t *testing.T) (gwHealth, int) {
	t.Helper()
	resp, err := http.Get(tc.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h gwHealth
	json.NewDecoder(resp.Body).Decode(&h)
	return h, resp.StatusCode
}

func (tc *testCluster) fetchClusterMetrics(t *testing.T) gwMetricsDoc {
	t.Helper()
	resp, err := http.Get(tc.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc gwMetricsDoc
	json.NewDecoder(resp.Body).Decode(&doc)
	return doc
}

// waitStatus polls /healthz until the fleet status matches.
func (tc *testCluster) waitStatus(t *testing.T, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	last := ""
	for time.Now().Before(deadline) {
		h, _ := tc.fetchHealth(t)
		last = h.Status
		if last == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("fleet status stuck at %q, want %q", last, want)
}

func scaleDiag(m *sparse.Matrix, by float64) *sparse.Matrix {
	m2 := &sparse.Matrix{N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: append([]float64(nil), m.Val...)}
	for j := 0; j < m2.N; j++ {
		m2.Val[m2.ColPtr[j]] *= by
	}
	return m2
}

// TestClusterDegradedLocalFallbackAndRecovery is the all-nodes-down e2e:
// with the whole fleet gone the gateway keeps serving — factorizations run
// locally and are flagged degraded, /healthz answers 200 "degraded" (a
// degraded gateway must not be pulled from the load balancer: it is the
// only thing still serving) — and when fresh nodes join, the next factor
// runs distributed again with no operator intervention.
func TestClusterDegradedLocalFallbackAndRecovery(t *testing.T) {
	gcfg := GatewayConfig{Procs: 4, HeartbeatTimeout: 3 * time.Second}
	tc := startCluster(t, gcfg, []NodeConfig{
		{ID: "n0", Workers: 2},
		{ID: "n1", Workers: 2},
	})
	m := gen.IrregularMesh(400, 7, 3, 9)
	fr := tc.factor(t, m)
	if fr.Degraded || fr.Nodes != 2 {
		t.Fatalf("healthy-fleet factor: degraded=%v nodes=%d", fr.Degraded, fr.Nodes)
	}

	// Fail-stop the whole fleet.
	tc.cancels[0]()
	tc.cancels[1]()
	tc.waitStatus(t, "degraded")
	if _, code := tc.fetchHealth(t); code != http.StatusOK {
		t.Fatalf("degraded /healthz returned %d, want 200", code)
	}

	// Same pattern, new values: the gateway must factor locally and say so.
	m2 := scaleDiag(m, 2)
	fr2 := tc.factor(t, m2)
	if !fr2.Degraded {
		t.Fatal("all-nodes-down factor not flagged degraded")
	}
	if fr2.Nodes != 0 || fr2.Primary != "local" {
		t.Fatalf("degraded factor reports nodes=%d primary=%q", fr2.Nodes, fr2.Primary)
	}
	if !fr2.CacheHit {
		t.Fatal("degraded refactor missed the plan cache")
	}
	b := make([]float64, m2.N)
	for i := range b {
		b[i] = float64(1 + i%4)
	}
	x := tc.solve(t, fr2.ID, b)
	if r := m2.ResidualNorm(x, b); r > 1e-6 {
		t.Fatalf("degraded solve residual %g", r)
	}
	doc := tc.fetchClusterMetrics(t)
	if doc.Status != "degraded" || doc.LocalFactors != 1 || doc.LocalSolves != 1 {
		t.Fatalf("degraded metrics: status=%q local_factors=%d local_solves=%d",
			doc.Status, doc.LocalFactors, doc.LocalSolves)
	}

	// Recovery: two replacement nodes join; the next factor is distributed
	// again and the degraded local factor is retired.
	tc.addNode(t, NodeConfig{ID: "r0", Workers: 2, Logf: quietLog})
	tc.addNode(t, NodeConfig{ID: "r1", Workers: 2, Logf: quietLog})
	tc.waitNodes(t, 2)
	m3 := scaleDiag(m, 3)
	fr3 := tc.factor(t, m3)
	if fr3.Degraded || fr3.Nodes != 2 {
		t.Fatalf("post-recovery factor: degraded=%v nodes=%d", fr3.Degraded, fr3.Nodes)
	}
	tc.verifyAssembled(t, fr3.ID, fr3.Primary, m3, testOpts(gcfg), 1e-12)
	x = tc.solve(t, fr3.ID, b)
	if r := m3.ResidualNorm(x, b); r > 1e-6 {
		t.Fatalf("post-recovery solve residual %g", r)
	}
}

// TestClusterNodeRejoinFromSnapshot kills a worker that checkpointed its
// held blocks, restarts it on the same store directory, and refactors the
// same values: the rejoined node must seed its slice from the snapshot
// (restored counter moves) and the assembled factor must still match the
// sequential one to 1e-12.
func TestClusterNodeRejoinFromSnapshot(t *testing.T) {
	dirA := t.TempDir()
	gcfg := GatewayConfig{Procs: 4, HeartbeatTimeout: 3 * time.Second}
	tc := startCluster(t, gcfg, []NodeConfig{
		{ID: "a", Workers: 2, StoreDir: dirA},
		{ID: "b", Workers: 2},
	})
	m := gen.IrregularMesh(600, 8, 3, 11)
	fr := tc.factor(t, m)

	// The checkpoint is write-behind; wait for it to land on disk.
	st, err := store.Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := st.GetBlocks(fr.ID); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node a never checkpointed its held blocks")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Fail-stop node a and wait for the gateway to notice.
	tc.cancels[0]()
	waitDead := time.Now().Add(10 * time.Second)
	for {
		h, _ := tc.fetchHealth(t)
		aliveA := false
		for _, nd := range h.Nodes {
			if nd.ID == "a" && nd.Alive {
				aliveA = true
			}
		}
		if !aliveA {
			break
		}
		if time.Now().After(waitDead) {
			t.Fatal("gateway never marked node a dead")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Restart it on the same store directory and refactor the same values:
	// the fresh process must warm its slice from the held-block snapshot.
	reborn := tc.addNode(t, NodeConfig{ID: "a", Workers: 2, StoreDir: dirA, Logf: quietLog})
	tc.waitNodes(t, 2)
	fr2 := tc.factor(t, m)
	if fr2.ID != fr.ID {
		t.Fatalf("pattern id changed across restart: %s vs %s", fr.ID, fr2.ID)
	}
	if fr2.Nodes != 2 {
		t.Fatalf("rejoin factor ran on %d nodes, want 2", fr2.Nodes)
	}
	if reborn.restored.Load() == 0 {
		t.Fatal("restarted node restored no blocks from its snapshot")
	}
	tc.verifyAssembled(t, fr2.ID, fr2.Primary, m, testOpts(gcfg), 1e-12)
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(1 + i%6)
	}
	x := tc.solve(t, fr2.ID, b)
	if r := m.ResidualNorm(x, b); r > 1e-6 {
		t.Fatalf("post-rejoin solve residual %g", r)
	}
}

// TestClusterNodeCountsSnapshotWriteErrors removes a node's store
// directory under it, so its write-behind held-block checkpoint fails:
// the failure must be counted in the node's stats and reach the node's
// row of the gateway's /metrics, not just a log line.
func TestClusterNodeCountsSnapshotWriteErrors(t *testing.T) {
	dir := t.TempDir()
	gcfg := GatewayConfig{Procs: 4, HeartbeatTimeout: 3 * time.Second}
	tc := startCluster(t, gcfg, []NodeConfig{
		{ID: "a", Workers: 2, StoreDir: dir},
		{ID: "b", Workers: 2},
	})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	m := gen.IrregularMesh(600, 8, 3, 11)
	fr := tc.factor(t, m)
	if fr.Nodes != 2 {
		t.Fatalf("factor ran on %d nodes, want 2", fr.Nodes)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var errsA, errsB uint64
		for _, nd := range tc.fetchClusterMetrics(t).Nodes {
			switch nd.ID {
			case "a":
				errsA = nd.SnapshotWriteErrors
			case "b":
				errsB = nd.SnapshotWriteErrors
			}
		}
		if errsB != 0 {
			t.Fatalf("node b has no store but reports %d snapshot write errors", errsB)
		}
		if errsA > 0 {
			if got := tc.nodes[0].statsSnapshot().SnapshotWriteErrors; got < errsA {
				t.Fatalf("node a stats report %d write errors, gateway saw %d", got, errsA)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("failed held-block snapshot write never reached the gateway's /metrics")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
