package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"blockfanout/internal/admission"
	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/server"
)

// TestClusterDeadlineAbort is the gateway-path half of deadline-aware
// scheduling: a factor request whose deadline cannot cover the throttled
// node's work answers 504, and the node itself abandons the epoch (the
// deadline rides the StartJob frame) instead of finishing work nobody is
// waiting for — visible as deadline_aborts in the gateway's /metrics.
func TestClusterDeadlineAbort(t *testing.T) {
	gcfg := GatewayConfig{
		Procs:                4,
		HeartbeatTimeout:     3 * time.Second,
		RequestTimeout:       800 * time.Millisecond,
		DisableLocalFallback: true,
		FactorRetries:        -1,
	}
	m := gen.IrregularMesh(1500, 9, 3, 7)
	plan, err := core.NewPlan(m, testOpts(gcfg))
	if err != nil {
		t.Fatal(err)
	}
	// ~10s of cluster time against an 800ms deadline: the run is doomed
	// from the start and must be cut short, not completed.
	rate := float64(plan.Exact.Flops) / 10
	tc := startCluster(t, gcfg, []NodeConfig{
		{ID: "n0", Workers: 1, FlopsPerSec: rate, HeartbeatEvery: 100 * time.Millisecond},
	})

	start := time.Now()
	resp, err := http.Post(tc.ts.URL+"/v1/factor", "application/json", bytes.NewReader(matrixBody(m)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline-doomed factor returned %d, want 504", resp.StatusCode)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("request held for %v past its 800ms deadline", took)
	}

	// The node's abort is asynchronous to the 504; its next heartbeat (or
	// Done) folds the counter into gateway metrics.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(tc.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var doc gwMetricsDoc
		json.NewDecoder(r.Body).Decode(&doc)
		r.Body.Close()
		var aborts uint64
		for _, nd := range doc.Nodes {
			aborts += nd.DeadlineAborts
		}
		if aborts > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("node never recorded a deadline abort")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestGatewayTenantRateLimit exercises the gateway's own admission gate:
// a metered tenant's second solve inside the refill window gets a
// structured 429 with Retry-After, while the health endpoint keeps
// reporting the admission state.
func TestGatewayTenantRateLimit(t *testing.T) {
	gw := NewGatewayFront(GatewayConfig{Procs: 2, HeartbeatTimeout: 3 * time.Second, Logf: quietLog}, server.Config{
		Tenants: map[string]admission.TenantLimits{"metered": {Rate: 0.001, Burst: 1}},
	})
	tc := runCluster(t, gw, []NodeConfig{{ID: "n0", Workers: 2}})
	m := gen.IrregularMesh(300, 5, 2, 3)
	fr := tc.factor(t, m) // default tenant: unmetered

	b := make([]float64, m.N)
	for i := range b {
		b[i] = 1
	}
	solveAs := func(tenant string) *http.Response {
		body, _ := json.Marshal(server.SolveRequest{ID: fr.ID, B: b})
		req, err := http.NewRequest(http.MethodPost, tc.ts.URL+"/v1/solve", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	r1 := solveAs("metered")
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first metered solve returned %d", r1.StatusCode)
	}
	r2 := solveAs("metered")
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second metered solve returned %d, want 429", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	var e server.ErrorBody
	if err := json.NewDecoder(r2.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "tenant_rate" {
		t.Fatalf("rejection code %q, want tenant_rate", e.Code)
	}
	if e.RetryAfterS <= 0 {
		t.Fatalf("rejection retry_after_s = %v", e.RetryAfterS)
	}

	// The quiet tenant is unaffected by the metered one's exhaustion.
	r3 := solveAs("quiet")
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("quiet tenant's solve returned %d", r3.StatusCode)
	}

	var h gwHealth
	r4, err := http.Get(tc.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r4.Body).Decode(&h)
	r4.Body.Close()
	if h.Admission != "ok" {
		t.Fatalf("healthz admission state %q, want ok", h.Admission)
	}
}
