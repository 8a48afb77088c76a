package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"blockfanout/internal/core"
	"blockfanout/internal/faultinject"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/server"
	"blockfanout/internal/sparse"
)

// testCluster is an in-process gateway + N real TCP nodes on localhost.
type testCluster struct {
	gw      *Gateway
	ts      *httptest.Server
	addr    string // gateway control-plane address
	ctx     context.Context
	nodes   []*Node
	cancels []context.CancelFunc
	cancel  context.CancelFunc
}

func quietLog(string, ...any) {}

// gwHealth is the gateway's /healthz document.
type gwHealth struct {
	Status    string    `json:"status"`
	Admission string    `json:"admission"`
	Nodes     []nodeRow `json:"nodes"`
}

// gwMetricsDoc is the part of the gateway's /metrics document the tests
// read: the pipeline's status and request counters and the cluster
// backend's section.
type gwMetricsDoc struct {
	Status   string `json:"status"`
	Requests struct {
		Factor int64 `json:"factor"`
	} `json:"requests"`
	clusterDoc
}

func startCluster(t *testing.T, gcfg GatewayConfig, nodeCfgs []NodeConfig) *testCluster {
	t.Helper()
	if gcfg.Logf == nil {
		gcfg.Logf = quietLog
	}
	return runCluster(t, NewGateway(gcfg), nodeCfgs)
}

// runCluster serves gw's control plane and HTTP API and starts the nodes.
func runCluster(t *testing.T, gw *Gateway, nodeCfgs []NodeConfig) *testCluster {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go gw.Serve(ctx, ln)

	tc := &testCluster{gw: gw, addr: ln.Addr().String(), ctx: ctx, cancel: cancel}
	for i := range nodeCfgs {
		tc.addNode(t, nodeCfgs[i])
	}
	tc.ts = httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		tc.ts.Close()
		cancel()
	})
	tc.waitNodes(t, len(nodeCfgs))
	return tc
}

// addNode starts one more worker against the cluster's gateway; used by
// the restart/rejoin tests. The returned node is also appended to
// tc.nodes and tc.cancels.
func (tc *testCluster) addNode(t *testing.T, cfg NodeConfig) *Node {
	t.Helper()
	cfg.Gateway = tc.addr
	if cfg.Logf == nil {
		cfg.Logf = quietLog
	}
	// CI points this at an artifact directory to collect per-epoch
	// trace-event timelines from every node.
	if dir := os.Getenv("CLUSTER_TRACE_DIR"); dir != "" {
		cfg.TraceDir = dir
	}
	n := NewNode(cfg)
	nctx, ncancel := context.WithCancel(tc.ctx)
	go n.Run(nctx)
	tc.nodes = append(tc.nodes, n)
	tc.cancels = append(tc.cancels, ncancel)
	return n
}

// waitNodes polls /healthz until n nodes report alive.
func (tc *testCluster) waitNodes(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var h gwHealth
		resp, err := http.Get(tc.ts.URL + "/healthz")
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			alive := 0
			for _, nd := range h.Nodes {
				if nd.Alive {
					alive++
				}
			}
			if alive >= n {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("cluster never reached %d alive nodes", n)
}

func matrixBody(m *sparse.Matrix) []byte {
	b, _ := json.Marshal(map[string]any{
		"n": m.N, "colptr": m.ColPtr, "rowind": m.RowInd, "val": m.Val,
	})
	return b
}

func (tc *testCluster) factor(t *testing.T, m *sparse.Matrix) server.FactorResponse {
	t.Helper()
	resp, err := http.Post(tc.ts.URL+"/v1/factor", "application/json", bytes.NewReader(matrixBody(m)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorBody
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("factor returned %d: %s", resp.StatusCode, e.Error)
	}
	var fr server.FactorResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	return fr
}

func (tc *testCluster) solve(t *testing.T, id string, b []float64) []float64 {
	t.Helper()
	body, _ := json.Marshal(server.SolveRequest{ID: id, B: b})
	resp, err := http.Post(tc.ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorBody
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("solve returned %d: %s", resp.StatusCode, e.Error)
	}
	var sr server.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr.X
}

// verifyAssembled compares an assembly node's factor against a sequential
// factorization of the same plan, entry by entry.
func (tc *testCluster) verifyAssembled(t *testing.T, jobID, primary string, m *sparse.Matrix, opts core.Options, tol float64) {
	t.Helper()
	plan, err := core.NewPlan(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	seqF, err := plan.FactorSequential()
	if err != nil {
		t.Fatal(err)
	}
	seq := seqF.Numeric()

	var node *Node
	for _, n := range tc.nodes {
		if n.cfg.ID == primary {
			node = n
		}
	}
	if node == nil {
		t.Fatalf("primary %q is not one of the test nodes", primary)
	}
	node.mu.Lock()
	job := node.jobs[jobID]
	node.mu.Unlock()
	if job == nil {
		t.Fatalf("primary %s holds no job %s", primary, jobID)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.nHave != job.pr.NBlocks {
		t.Fatalf("primary holds %d/%d blocks", job.nHave, job.pr.NBlocks)
	}
	worst := 0.0
	for j := range seq.Data {
		for bi := range seq.Data[j] {
			sd, cd := seq.Data[j][bi], job.nf.Data[j][bi]
			for k := range sd {
				if d := math.Abs(sd[k]-cd[k]) / (1 + math.Abs(sd[k])); d > worst {
					worst = d
					if d > tol {
						t.Fatalf("block (%d,%d) entry %d: sequential %g cluster %g (rel %g > %g)",
							j, bi, k, sd[k], cd[k], d, tol)
					}
				}
			}
		}
	}
	t.Logf("assembled factor matches sequential; worst relative deviation %.3g", worst)
}

func testOpts(g GatewayConfig) core.Options {
	o := core.Options{BlockSize: g.BlockSize, Exec: g.Exec}
	if o.BlockSize == 0 {
		o.BlockSize = core.DefaultBlockSize
	}
	return o
}

// TestClusterEndToEnd factors a BCSSTK31-class mesh on a gateway plus
// three localhost nodes, verifies the assembled factor against a
// sequential factorization to 1e-12, and solves through the gateway.
func TestClusterEndToEnd(t *testing.T) {
	gcfg := GatewayConfig{Procs: 6, HeartbeatTimeout: 3 * time.Second}
	tc := startCluster(t, gcfg, []NodeConfig{
		{ID: "n0", Workers: 2},
		{ID: "n1", Workers: 2},
		{ID: "n2", Workers: 2},
	})
	m := gen.IrregularMesh(2200, 9, 3, 31)
	fr := tc.factor(t, m)
	if fr.Nodes != 3 {
		t.Fatalf("factored on %d nodes, want 3", fr.Nodes)
	}
	if fr.Epochs != 0 {
		t.Fatalf("clean run took %d failover epochs", fr.Epochs)
	}
	tc.verifyAssembled(t, fr.ID, fr.Primary, m, testOpts(gcfg), 1e-12)

	b := make([]float64, m.N)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	x := tc.solve(t, fr.ID, b)
	if r := m.ResidualNorm(x, b); r > 1e-6 {
		t.Fatalf("cluster solve residual %g", r)
	}

	// Per-node stats surface in /metrics: every node owns a slice of the
	// blocks and at least one moved bytes across the data plane.
	resp, err := http.Get(tc.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc gwMetricsDoc
	json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if len(doc.Nodes) != 3 {
		t.Fatalf("metrics list %d nodes", len(doc.Nodes))
	}
	var sent uint64
	for _, nd := range doc.Nodes {
		sent += nd.BytesSent
		if nd.BlocksOwned == 0 {
			t.Errorf("node %s owns no blocks", nd.ID)
		}
	}
	if sent == 0 {
		t.Fatal("no data-plane traffic recorded")
	}
	if doc.Requests.Factor != 1 {
		t.Fatalf("metrics requests.factor=%d", doc.Requests.Factor)
	}
}

// TestClusterKillNodeMidFlight is the failover e2e: four throttled nodes
// factor a BCSSTK31-class mesh, one is killed mid-factorization, the
// gateway reassigns its blocks to the buddy and restarts the epoch, and
// the final factor still matches the sequential one to 1e-12.
func TestClusterKillNodeMidFlight(t *testing.T) {
	gcfg := GatewayConfig{Procs: 8, HeartbeatTimeout: 3 * time.Second}
	m := gen.IrregularMesh(2200, 9, 3, 31)
	// Throttle so the clean run would take ~2.5s of cluster time: enough
	// room to kill a node while blocks are genuinely in flight.
	plan, err := core.NewPlan(m, testOpts(gcfg))
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(plan.Exact.Flops) / 4 / 2.5
	mk := func(id string) NodeConfig {
		return NodeConfig{ID: id, Workers: 2, FlopsPerSec: rate, HeartbeatEvery: 200 * time.Millisecond}
	}
	tc := startCluster(t, gcfg, []NodeConfig{mk("n0"), mk("n1"), mk("n2"), mk("n3")})

	killed := make(chan struct{})
	go func() {
		time.Sleep(700 * time.Millisecond)
		tc.cancels[3]() // fail-stop n3 mid-factorization
		close(killed)
	}()
	fr := tc.factor(t, m)
	<-killed
	if fr.Epochs == 0 {
		t.Fatal("node kill produced no failover epoch — the kill missed the factorization window")
	}
	if fr.Primary == "n3" {
		t.Fatalf("dead node %s still primary", fr.Primary)
	}
	tc.verifyAssembled(t, fr.ID, fr.Primary, m, testOpts(gcfg), 1e-12)

	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(1 + i%5)
	}
	x := tc.solve(t, fr.ID, b)
	if r := m.ResidualNorm(x, b); r > 1e-6 {
		t.Fatalf("post-failover solve residual %g", r)
	}

	var doc gwMetricsDoc
	resp, err := http.Get(tc.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if doc.Failovers == 0 {
		t.Fatal("metrics report no failovers")
	}

	// /healthz degrades with the dead node.
	hresp, err := http.Get(tc.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h gwHealth
	json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if h.Status != "degraded" {
		t.Fatalf("healthz status %q after node death, want degraded", h.Status)
	}
}

// TestClusterSpeedAwarePartition: a node advertising half speed must
// receive measurably fewer flops, and the speed-aware makespan must beat
// the speed-oblivious greedy split of the same loads.
func TestClusterSpeedAwarePartition(t *testing.T) {
	gcfg := GatewayConfig{Procs: 8, HeartbeatTimeout: 3 * time.Second}
	tc := startCluster(t, gcfg, []NodeConfig{
		{ID: "fast", Workers: 2, Speed: 1.0},
		{ID: "slow", Workers: 2, Speed: 0.5},
	})
	m := gen.IrregularMesh(900, 9, 3, 15)
	fr := tc.factor(t, m)
	tc.verifyAssembled(t, fr.ID, fr.Primary, m, testOpts(gcfg), 1e-12)

	nodeOf, ids := tc.gw.NodeOfSnapshot(fr.ID)
	loads := tc.gw.Loads(fr.ID)
	if nodeOf == nil || loads == nil {
		t.Fatal("gateway kept no partition snapshot")
	}
	speed := map[string]float64{"fast": 1.0, "slow": 0.5}
	nodeLoad := make([]float64, len(ids))
	for p, nd := range nodeOf {
		nodeLoad[nd] += float64(loads[p])
	}
	var fastL, slowL float64
	for i, id := range ids {
		if id == "fast" {
			fastL = nodeLoad[i]
		} else {
			slowL = nodeLoad[i]
		}
	}
	if slowL >= fastL {
		t.Fatalf("half-speed node got %.3g flops, fast node %.3g — speed ignored", slowL, fastL)
	}

	// Speed-aware vs oblivious makespan on the same loads.
	ord := make([]int, len(loads))
	for i := range ord {
		ord[i] = i
	}
	for i := 1; i < len(ord); i++ {
		for k := i; k > 0 && loads[ord[k]] > loads[ord[k-1]]; k-- {
			ord[k], ord[k-1] = ord[k-1], ord[k]
		}
	}
	obl := mapping.Greedy(ord, loads, len(ids))
	oblLoad := make([]float64, len(ids))
	for p, nd := range obl {
		oblLoad[nd] += float64(loads[p])
	}
	mk := func(l []float64) float64 {
		worst := 0.0
		for i, id := range ids {
			if ft := l[i] / speed[id]; ft > worst {
				worst = ft
			}
		}
		return worst
	}
	if aware, oblivious := mk(nodeLoad), mk(oblLoad); aware >= oblivious {
		t.Fatalf("speed-aware makespan %.3g not better than oblivious %.3g", aware, oblivious)
	} else {
		t.Logf("makespan: speed-aware %.4g vs oblivious %.4g (%.1f%% better)",
			aware, oblivious, 100*(1-aware/oblivious))
	}
}

// TestClusterRefactorSamePattern: a second factor request with the same
// pattern but new values reuses the cached plan (cache_hit) and solves
// against the new values.
func TestClusterRefactorSamePattern(t *testing.T) {
	gcfg := GatewayConfig{Procs: 4, HeartbeatTimeout: 3 * time.Second}
	tc := startCluster(t, gcfg, []NodeConfig{
		{ID: "a", Workers: 2},
		{ID: "b", Workers: 2},
	})
	m := gen.IrregularMesh(400, 7, 3, 9)
	fr1 := tc.factor(t, m)
	if fr1.CacheHit {
		t.Fatal("first factor reported a cache hit")
	}

	m2 := &sparse.Matrix{N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: append([]float64(nil), m.Val...)}
	for j := 0; j < m2.N; j++ {
		m2.Val[m2.ColPtr[j]] *= 2 // same pattern, scaled diagonal
	}
	fr2 := tc.factor(t, m2)
	if !fr2.CacheHit {
		t.Fatal("same-pattern refactor missed the plan cache")
	}
	if fr2.ID != fr1.ID {
		t.Fatalf("pattern id changed: %s vs %s", fr1.ID, fr2.ID)
	}
	b := make([]float64, m2.N)
	for i := range b {
		b[i] = float64(i%3 + 1)
	}
	x := tc.solve(t, fr2.ID, b)
	if r := m2.ResidualNorm(x, b); r > 1e-6 {
		t.Fatalf("refactor solve residual %g against new values", r)
	}
}

// TestFactorReportsReadyPrimary holds the planned primary's last block in
// flight, so the replica's FactorReady ends the gateway's wait first. The
// response must then name a node that holds every block — the node the
// next solve goes to — and a solve in that window must be answered by it.
func TestFactorReportsReadyPrimary(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	gcfg := GatewayConfig{Procs: 4, HeartbeatTimeout: 3 * time.Second}
	m := gen.IrregularMesh(900, 9, 3, 15)
	ids := []string{"n0", "n1"}
	all := func(int) bool { return true }
	planned := buildRing(ids).pick(fnv1a(fmt.Sprintf("%016x", m.PatternHash())), 1, all)[0]
	// The planned primary advertises the slowest speed the partition
	// accepts, so it gets no processors: every data-plane frame is the
	// other node shipping a finished block to it.
	cfgs := []NodeConfig{{ID: ids[0], Workers: 2}, {ID: ids[1], Workers: 2}}
	cfgs[planned].Speed = 1e-6
	tc := startCluster(t, gcfg, cfgs)

	plan, err := core.NewPlan(m, testOpts(gcfg))
	if err != nil {
		t.Fatal(err)
	}
	nBlocks := 0
	for _, c := range plan.BS.Cols {
		nBlocks += len(c.Blocks)
	}
	faultinject.EnableNet(faultinject.NetRule{
		Site: "cluster.node.data", Delay: 1, DelayFor: 2 * time.Second,
		After: nBlocks - 1, Count: 1,
	})
	fr := tc.factor(t, m)
	held := tc.nodes[planned]
	held.mu.Lock()
	hj := held.jobs[fr.ID]
	held.mu.Unlock()
	hj.mu.Lock()
	have := hj.nHave
	hj.mu.Unlock()
	if have == nBlocks {
		t.Fatal("the planned primary already holds every block: no window opened")
	}
	t.Logf("planned primary %s holds %d/%d blocks; response names %s", ids[planned], have, nBlocks, fr.Primary)
	tc.verifyAssembled(t, fr.ID, fr.Primary, m, testOpts(gcfg), 1e-12)

	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(1 + i%5)
	}
	raw, _ := json.Marshal(server.SolveRequest{ID: fr.ID, B: b})
	resp, err := http.Post(tc.ts.URL+"/v1/solve", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr server.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("solve in the window: status %d, decode error %v", resp.StatusCode, err)
	}
	if sr.Node != fr.Primary {
		t.Fatalf("solve answered by %q, response named primary %q", sr.Node, fr.Primary)
	}
	if r := m.ResidualNorm(sr.X, b); r > 1e-6 {
		t.Fatalf("solve residual %g", r)
	}
}

// TestGatewaySolveRejectsMalformedRHS: a right-hand side that cannot fit
// the factor is the client's error. The gateway answers 400 before routing,
// as the single-node server does, instead of sending it to every node,
// falling back to its local factor and answering 503.
func TestGatewaySolveRejectsMalformedRHS(t *testing.T) {
	gcfg := GatewayConfig{Procs: 4, HeartbeatTimeout: 3 * time.Second}
	tc := startCluster(t, gcfg, []NodeConfig{{ID: "n0", Workers: 1}, {ID: "n1", Workers: 1}})
	m := gen.IrregularMesh(300, 8, 3, 5)
	fr := tc.factor(t, m)

	nodeSolves := func() (sum uint64) {
		for _, n := range tc.nodes {
			sum += n.solves.Load()
		}
		return sum
	}
	solvesBefore, localBefore := nodeSolves(), tc.gw.metLocalSolves.Load()
	for name, body := range map[string]string{
		"short b":   fmt.Sprintf(`{"id":%q,"b":[1,2,3]}`, fr.ID),
		"missing b": fmt.Sprintf(`{"id":%q}`, fr.ID),
		"bs only":   fmt.Sprintf(`{"id":%q,"bs":[[1,2,3]]}`, fr.ID),
	} {
		resp, err := http.Post(tc.ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var e server.ErrorBody
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, e.Error)
		}
	}
	if got := nodeSolves(); got != solvesBefore {
		t.Errorf("nodes received %d solve requests for malformed bodies", got-solvesBefore)
	}
	if got := tc.gw.metLocalSolves.Load(); got != localBefore {
		t.Errorf("gateway ran %d local solves for malformed bodies", got-localBefore)
	}

	// A well-formed request still reaches a node.
	b := make([]float64, m.N)
	for i := range b {
		b[i] = 1
	}
	if x := tc.solve(t, fr.ID, b); m.ResidualNorm(x, b) > 1e-6 {
		t.Fatalf("solve residual %g", m.ResidualNorm(x, b))
	}
	if nodeSolves() == solvesBefore {
		t.Fatal("a valid solve never reached a node")
	}

	// A node runs the same check itself: a SolveReq frame sent straight to
	// it, past the gateway's request check, must not solve a NaN.
	j := tc.gw.jobByID(fr.ID)
	j.mu.Lock()
	target := j.readyTargetsLocked()[0]
	j.mu.Unlock()
	b[m.N/2] = math.NaN()
	if _, err := tc.gw.solveOn(context.Background(), target, fr.ID, b); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("node %s answered a NaN rhs: err=%v; want a not-finite refusal", target.id, err)
	}
}
