package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"blockfanout/internal/cluster/wire"
	"blockfanout/internal/gen"
	"blockfanout/internal/server"
)

// TestClusterSolveRunsLaneSweep checks that a 2-node cluster's node solve
// sweeps its program's domain split: the assembled job carries lanes, the
// gateway's answer agrees with a local server's to 1e-12, and repeated
// solves of the one assembled factor are bit-identical.
func TestClusterSolveRunsLaneSweep(t *testing.T) {
	const procs = 4
	tc := startCluster(t, GatewayConfig{Procs: procs, HeartbeatTimeout: 3 * time.Second}, []NodeConfig{
		{ID: "a", Workers: 2},
		{ID: "b", Workers: 2},
	})
	m := gen.IrregularMesh(800, 7, 3, 21)
	fr := tc.factor(t, m)
	b := make([]float64, m.N)
	for i := range b {
		b[i] = math.Sin(float64(i)*0.13) + 2
	}
	x := tc.solve(t, fr.ID, b)

	local := server.New(server.Config{Procs: procs})
	ts := httptest.NewServer(local.Handler())
	defer func() {
		ts.Close()
		local.Close()
	}()
	resp, err := http.Post(ts.URL+"/v1/factor", "application/json", bytes.NewReader(matrixBody(m)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("local factor: status %d", resp.StatusCode)
	}
	body, _ := json.Marshal(server.SolveRequest{ID: fr.ID, B: b})
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr server.SolveResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("local solve: status %d, %v", resp.StatusCode, err)
	}
	var d, norm float64
	for i := range x {
		d = max(d, math.Abs(x[i]-sr.X[i]))
		norm = max(norm, math.Abs(sr.X[i]))
	}
	if d > 1e-12*norm {
		t.Fatalf("cluster and local answers differ by %g relative", d/norm)
	}

	var node *Node
	for _, n := range tc.nodes {
		if n.cfg.ID == fr.Primary {
			node = n
		}
	}
	if node == nil {
		t.Fatalf("primary %q is not a test node", fr.Primary)
	}
	node.mu.Lock()
	job := node.jobs[fr.ID]
	node.mu.Unlock()
	job.mu.Lock()
	lanes := job.pr.Split.Lanes()
	job.mu.Unlock()
	if lanes < 2 {
		t.Fatalf("primary's program has %d solve lanes, want ≥ 2", lanes)
	}
	first := node.solve(&wire.SolveReq{JobID: fr.ID, B: b})
	if !first.OK {
		t.Fatalf("node solve: %s", first.Err)
	}
	for rep := 0; rep < 10; rep++ {
		again := node.solve(&wire.SolveReq{JobID: fr.ID, B: b})
		for i := range again.X {
			if math.Float64bits(again.X[i]) != math.Float64bits(first.X[i]) {
				t.Fatalf("repeat %d differs at %d: %g vs %g", rep, i, again.X[i], first.X[i])
			}
		}
	}
}
