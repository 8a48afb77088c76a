package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"blockfanout/internal/admission"
	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
)

// postJSONTenant is postJSON with an X-Tenant header.
func postJSONTenant(t *testing.T, url, tenant string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// getJSON GETs url and returns the response plus body.
func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestTenantRateLimitIsolation: a rate-limited tenant's burst exhausts its
// own bucket with structured 429s while an unlimited tenant on the same
// server keeps solving.
func TestTenantRateLimitIsolation(t *testing.T) {
	s, ts := testService(t, Config{
		Procs: 1, Workers: 2, BlockSize: 16, BatchWindow: -1,
		Tenants: map[string]admission.TenantLimits{
			"metered": {Rate: 0.001, Burst: 1},
		},
	})
	_ = s
	a := gen.Grid2D(8)
	fr := factorMatrix(t, ts.URL, a)
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}

	// Burst of 1: first metered solve passes, second hits the bucket.
	resp, body := postJSONTenant(t, ts.URL+"/v1/solve", "metered", SolveRequest{ID: fr.ID, B: rhs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first metered solve: %d (%s)", resp.StatusCode, body)
	}
	resp, body = postJSONTenant(t, ts.URL+"/v1/solve", "metered", SolveRequest{ID: fr.ID, B: rhs})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second metered solve: %d (%s), want 429", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != "tenant_rate" {
		t.Fatalf("code = %q, want tenant_rate", eb.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("tenant_rate 429 without Retry-After header")
	}

	// The unmetered tenant is untouched by the metered tenant's bucket.
	for i := 0; i < 3; i++ {
		resp, body = postJSONTenant(t, ts.URL+"/v1/solve", "quiet", SolveRequest{ID: fr.ID, B: rhs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("quiet tenant solve %d: %d (%s)", i, resp.StatusCode, body)
		}
	}

	doc := fetchMetrics(t, ts.URL)
	mt, ok := doc.Admission.Tenants["metered"]
	if !ok {
		t.Fatal("metered tenant missing from /metrics admission section")
	}
	if mt.RejectedRate == 0 {
		t.Fatal("metered tenant rejected_rate did not move")
	}
	if qt := doc.Admission.Tenants["quiet"]; qt.RejectedRate != 0 {
		t.Fatalf("quiet tenant was rate-rejected %d times", qt.RejectedRate)
	}
}

// TestBatcherExpiredContextNotCoalesced (ISSUE 9 satellite): a solve whose
// context is already dead must fail 504 up front — never entering a
// coalesced SolveMany sweep, never taking a worker slot.
func TestBatcherExpiredContextNotCoalesced(t *testing.T) {
	s, ts := testService(t, Config{Procs: 1, Workers: 1, BlockSize: 16, BatchWindow: 50 * time.Millisecond})
	a := gen.Grid2D(8)
	fr := factorMatrix(t, ts.URL, a)
	fe, ok := s.local.lookup(fr.ID)
	if !ok {
		t.Fatal("factor entry missing")
	}

	before := fetchMetrics(t, ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before submission
	_, err := fe.bt.submit(ctx, make([]float64, a.N))
	if err == nil {
		t.Fatal("expired-context solve returned a result")
	}
	if st := errStatus(err); st != http.StatusGatewayTimeout {
		t.Fatalf("expired-context solve maps to %d, want 504", st)
	}
	// Nothing may have been queued for a sweep: give one time to run and
	// confirm no batch ran and no RHS was solved on its behalf.
	time.Sleep(3 * s.cfg.BatchWindow)
	after := fetchMetrics(t, ts.URL)
	if after.Batches != before.Batches || after.SolvedRHS != before.SolvedRHS {
		t.Fatalf("expired request consumed a sweep: batches %d→%d, solved %d→%d",
			before.Batches, after.Batches, before.SolvedRHS, after.SolvedRHS)
	}
	if busy := s.adm.Snapshot().Busy; busy != 0 {
		t.Fatalf("worker slot leaked: busy=%d", busy)
	}
}

// TestFactorBytesGate: a matrix whose factor lower bound alone exceeds the
// budget is rejected 413 before any analysis (plan-cache misses stay 0).
func TestFactorBytesGate(t *testing.T) {
	_, ts := testService(t, Config{
		Procs: 1, Workers: 2, BlockSize: 16, BatchWindow: -1,
		MaxFactorBytes: 64, // 8 bytes/nz: anything over 8 lower-triangle nonzeros
	})
	a := gen.Grid2D(8)
	resp, body := postJSON(t, ts.URL+"/v1/factor", toCSC(a))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized factor: %d (%s), want 413", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != "factor_too_large" {
		t.Fatalf("code = %q, want factor_too_large", eb.Code)
	}
	doc := fetchMetrics(t, ts.URL)
	if doc.Cache.Misses != 0 {
		t.Fatalf("byte gate ran after symbolic work: %d cache misses", doc.Cache.Misses)
	}
}

// TestFactorBytesGateCountsDiagonal: the gate's exact size on a plan-cache
// hit counts L's diagonal, so it never falls below the lower bound the
// gate uses on a miss. A tridiagonal matrix has no fill, so both are
// 8×nnz(tril(A)) = 319,992 bytes at order 20,000; off-diagonal entries
// alone would be 159,992. A budget between the two rejects the request
// whether or not the plan is cached.
func TestFactorBytesGateCountsDiagonal(t *testing.T) {
	const n = 20000
	m := &sparse.Matrix{N: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		m.RowInd, m.Val = append(m.RowInd, j), append(m.Val, 3)
		if j+1 < n {
			m.RowInd, m.Val = append(m.RowInd, j+1), append(m.Val, -1)
		}
		m.ColPtr[j+1] = len(m.RowInd)
	}
	s, ts := testService(t, Config{Procs: 1, Workers: 2, BatchWindow: -1, MaxFactorBytes: 240000})
	for _, cached := range []bool{false, true} {
		if cached {
			if _, _, err := s.cache.GetOrBuild(m, s.planKey, func() (*core.Plan, sched.Assignment, error) {
				return s.buildPlan(m)
			}); err != nil {
				t.Fatal(err)
			}
		}
		resp, body := postJSON(t, ts.URL+"/v1/factor", toCSC(m))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("plan cached %v: status %d (%s), want 413", cached, resp.StatusCode, body)
		}
	}
}

// TestTenantCacheByteQuota: once a tenant's cached plans reach its
// MaxCacheBytes, a factor request needing a *new* analysis is rejected
// tenant_quota, while re-factoring the pattern it already paid for still
// works.
func TestTenantCacheByteQuota(t *testing.T) {
	_, ts := testService(t, Config{
		Procs: 1, Workers: 2, BlockSize: 16, BatchWindow: -1,
		Tenants: map[string]admission.TenantLimits{
			"hoarder": {MaxCacheBytes: 1}, // any one plan exceeds this
		},
	})
	a := gen.Grid2D(8)
	// First build passes (usage 0 < quota) and charges the tenant.
	resp, body := postJSONTenant(t, ts.URL+"/v1/factor", "hoarder", toCSC(a))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first factor: %d (%s)", resp.StatusCode, body)
	}
	// Same pattern again: reuses the cached analysis, always allowed.
	resp, body = postJSONTenant(t, ts.URL+"/v1/factor", "hoarder", toCSC(a))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refactor of owned pattern: %d (%s)", resp.StatusCode, body)
	}
	// A new pattern would build a second plan: over quota.
	b := gen.Grid2D(9)
	resp, body = postJSONTenant(t, ts.URL+"/v1/factor", "hoarder", toCSC(b))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota factor: %d (%s), want 429", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != "tenant_quota" {
		t.Fatalf("code = %q, want tenant_quota", eb.Code)
	}
	// Another tenant is not bound by the hoarder's quota.
	resp, body = postJSONTenant(t, ts.URL+"/v1/factor", "other", toCSC(b))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant factor: %d (%s)", resp.StatusCode, body)
	}
	doc := fetchMetrics(t, ts.URL)
	if doc.Cache.TenantBytes["hoarder"] == 0 {
		t.Fatal("per-tenant cache bytes not accounted")
	}
}

// TestHealthzAndMetricsShowBrownout: saturating the queue must flip the
// brownout state machine, and both /healthz and /metrics must show it.
func TestHealthzAndMetricsShowBrownout(t *testing.T) {
	s, ts := testService(t, Config{
		Procs: 1, Workers: 1, QueueDepth: 4, BlockSize: 16, BatchWindow: -1,
		ShedAt: 0.25, RejectAt: 0.5,
	})

	// Occupy the worker and fill the queue past RejectAt (2/4).
	rel, rej, err := s.adm.Admit(context.Background(), admission.Request{Priority: admission.Interactive})
	if rej != nil || err != nil {
		t.Fatalf("occupy worker: rej=%v err=%v", rej, err)
	}
	defer rel()
	done := make(chan struct{}, 3)
	for i := 1; i <= 3; i++ {
		go func() {
			r2, _, _ := s.adm.Admit(context.Background(), admission.Request{Priority: admission.Interactive})
			if r2 != nil {
				r2()
			}
			done <- struct{}{}
		}()
		deadline := time.Now().Add(2 * time.Second)
		for s.adm.Snapshot().QueuedByPri["interactive"] < i {
			if time.Now().After(deadline) {
				t.Fatalf("queue never reached %d", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// A cold factor request now sees the brownout.
	a := gen.Grid2D(8)
	resp, body := postJSON(t, ts.URL+"/v1/factor", toCSC(a))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold factor under brownout: %d (%s), want 503", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != "brownout" {
		t.Fatalf("code = %q, want brownout", eb.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("brownout 503 without Retry-After header")
	}

	// /healthz stays 200 (the node still serves solves) but reports the
	// degraded admission state.
	hresp, hbody := getJSON(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under brownout: %d", hresp.StatusCode)
	}
	var hz map[string]string
	if err := json.Unmarshal(hbody, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["admission"] != "reject-new-factors" && hz["admission"] != "shed-low-priority" {
		t.Fatalf("healthz admission = %q, want a brownout state", hz["admission"])
	}

	doc := fetchMetrics(t, ts.URL)
	if doc.Admission.State == "ok" {
		t.Fatalf("metrics admission state = ok under brownout")
	}
	if doc.Admission.Transitions == 0 {
		t.Fatal("brownout transition counter did not move")
	}

	rel()
	for i := 0; i < 3; i++ {
		<-done
	}
}

// TestDrainShowsInHealthz: draining must surface both the 503 and the
// admission drain state.
func TestDrainShowsInHealthz(t *testing.T) {
	s, ts := testService(t, Config{Procs: 1, Workers: 1, BlockSize: 16})
	s.Drain()
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	var hz map[string]string
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "draining" || hz["admission"] != "drain" {
		t.Fatalf("healthz = %v, want draining/drain", hz)
	}
}
