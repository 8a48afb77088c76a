package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blockfanout/internal/admission"
	"blockfanout/internal/gen"
	"blockfanout/internal/server"
	"blockfanout/internal/sparse"
)

// contractEnv is one backend under the HTTP contract: its URL, whether it
// is the cluster, and a live factor every case may solve against.
type contractEnv struct {
	url     string
	cluster bool
	id      string
	m       *sparse.Matrix
}

func (e *contractEnv) post(t *testing.T, path, tenant, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, e.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// errorCase posts body to path and checks the status and the envelope's
// code (code "" accepts any).
func (e *contractEnv) errorCase(t *testing.T, path, body string, status int, code string) server.ErrorBody {
	t.Helper()
	got, _, b := e.post(t, path, "", body)
	var eb server.ErrorBody
	if err := json.Unmarshal(b, &eb); err != nil {
		t.Fatalf("status %d, undecodable error envelope %q: %v", got, b, err)
	}
	if got != status || eb.Error == "" || (code != "" && eb.Code != code) {
		t.Fatalf("status %d code %q (%s), want %d code %q", got, eb.Code, eb.Error, status, code)
	}
	return eb
}

// keys decodes a JSON object and fails unless every key is present.
func keys(t *testing.T, b []byte, want ...string) {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("undecodable body %q: %v", b, err)
	}
	for _, k := range want {
		if _, ok := doc[k]; !ok {
			t.Errorf("body lacks %q: %s", k, b)
		}
	}
}

func csc(m *sparse.Matrix) string { return string(matrixBody(m)) }

func solveBody(id string, b []float64) string {
	body, _ := json.Marshal(server.SolveRequest{ID: id, B: b})
	return string(body)
}

// Indefinite matrices, one pattern per case so breakers never interact:
// a 3×3 with a negative second pivot, a 4×4 tridiagonal whose third
// pivot is negative, and [[1,2],[2,1]].
const (
	indefinite3 = `{"n":3,"colptr":[0,2,4,5],"rowind":[0,1,1,2,2],"val":[4,1,-5,1,6]}`
	indefinite4 = `{"n":4,"colptr":[0,2,4,6,7],"rowind":[0,1,1,2,2,3,3],"val":[4,1,4,1,-6,1,4]}`
	indefinite2 = `{"n":2,"colptr":[0,2,3],"rowind":[0,1,1],"val":[1,2,1]}`
)

// contractCases is the HTTP contract both backends answer alike; where
// the tiers differ (perturbation and multi-RHS solves are local only), the
// case says so.
var contractCases = []struct {
	name  string
	check func(t *testing.T, e *contractEnv)
}{
	{"405 method", func(t *testing.T, e *contractEnv) {
		resp, err := http.Get(e.url + "/v1/factor")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/factor: status %d, want 405", resp.StatusCode)
		}
	}},
	{"400 bad body", func(t *testing.T, e *contractEnv) {
		e.errorCase(t, "/v1/factor", `{"n":`, http.StatusBadRequest, "")
	}},
	{"400 bad rhs", func(t *testing.T, e *contractEnv) {
		eb := e.errorCase(t, "/v1/solve", solveBody(e.id, []float64{1, 2, 3}), http.StatusBadRequest, "")
		if !strings.Contains(eb.Error, "rhs length") {
			t.Fatalf("error %q does not name the rhs length", eb.Error)
		}
	}},
	{"404 unknown id", func(t *testing.T, e *contractEnv) {
		e.errorCase(t, "/v1/solve", solveBody("0000000000000000", []float64{1}), http.StatusNotFound, "")
	}},
	{"413 factor_too_large", func(t *testing.T, e *contractEnv) {
		e.errorCase(t, "/v1/factor", csc(gen.Grid2D(60)), http.StatusRequestEntityTooLarge, "factor_too_large")
	}},
	{"422 pivot with coordinates", func(t *testing.T, e *contractEnv) {
		eb := e.errorCase(t, "/v1/factor", indefinite3, http.StatusUnprocessableEntity, "pivot_breakdown")
		if eb.Block == nil || eb.Row == nil || eb.Pivot == nil {
			t.Fatalf("pivot breakdown without coordinates: %+v", eb)
		}
		if *eb.Row < 0 || *eb.Row >= 3 || *eb.Pivot > 0 {
			t.Fatalf("pivot coordinates row %d pivot %g", *eb.Row, *eb.Pivot)
		}
	}},
	{"422 breaker_open", func(t *testing.T, e *contractEnv) {
		for i := 0; i < 3; i++ {
			e.errorCase(t, "/v1/factor", indefinite4, http.StatusUnprocessableEntity, "pivot_breakdown")
		}
		eb := e.errorCase(t, "/v1/factor", indefinite4, http.StatusUnprocessableEntity, "breaker_open")
		if eb.Row == nil {
			t.Fatalf("fast-fail 422 lost the cached pivot: %+v", eb)
		}
	}},
	{"429 with Retry-After", func(t *testing.T, e *contractEnv) {
		body := solveBody(e.id, make([]float64, e.m.N))
		if code, _, b := e.post(t, "/v1/solve", "metered", body); code != http.StatusOK {
			t.Fatalf("first metered solve: status %d: %s", code, b)
		}
		code, h, b := e.post(t, "/v1/solve", "metered", body)
		var eb server.ErrorBody
		json.Unmarshal(b, &eb)
		if code != http.StatusTooManyRequests || eb.Code != "tenant_rate" || eb.RetryAfterS <= 0 || h.Get("Retry-After") == "" {
			t.Fatalf("second metered solve: status %d code %q retry_after_s %v header %q",
				code, eb.Code, eb.RetryAfterS, h.Get("Retry-After"))
		}
	}},
	{"perturb", func(t *testing.T, e *contractEnv) {
		if e.cluster {
			e.errorCase(t, "/v1/factor?perturb=1", indefinite2, http.StatusBadRequest, "")
			return
		}
		code, _, b := e.post(t, "/v1/factor?perturb=1", "", indefinite2)
		var fr server.FactorResponse
		json.Unmarshal(b, &fr)
		if code != http.StatusOK || fr.Shift <= 0 {
			t.Fatalf("perturbed factor: status %d shift %g: %s", code, fr.Shift, b)
		}
	}},
	{"multi-rhs", func(t *testing.T, e *contractEnv) {
		ones := make([]float64, e.m.N)
		for i := range ones {
			ones[i] = 1
		}
		body, _ := json.Marshal(server.SolveRequest{ID: e.id, BS: [][]float64{ones, ones}})
		if e.cluster {
			e.errorCase(t, "/v1/solve", string(body), http.StatusBadRequest, "")
			return
		}
		code, _, b := e.post(t, "/v1/solve", "", string(body))
		var sr server.SolveResponse
		json.Unmarshal(b, &sr)
		if code != http.StatusOK || len(sr.XS) != 2 {
			t.Fatalf("multi-rhs solve: status %d, %d solutions", code, len(sr.XS))
		}
	}},
	{"200 bodies", func(t *testing.T, e *contractEnv) {
		// Every field the benchmark decodes, on a pattern of its own: a
		// cold factor, a refactor of the same pattern, and a solve.
		m := gen.IrregularMesh(200, 5, 2, 7)
		for _, hit := range []bool{false, true} {
			code, _, b := e.post(t, "/v1/factor", "", csc(m))
			if code != http.StatusOK {
				t.Fatalf("factor: status %d: %s", code, b)
			}
			keys(t, b, "id", "n", "nnz", "nnz_l", "flops", "cache_hit", "refactored", "elapsed_ms")
			var fr server.FactorResponse
			json.Unmarshal(b, &fr)
			if fr.ID != fmt.Sprintf("%016x", m.PatternHash()) || fr.N != m.N || fr.NNZ != m.NNZ() ||
				fr.NNZL <= 0 || fr.Flops <= 0 || fr.CacheHit != hit || fr.Degraded {
				t.Fatalf("factor response %+v", fr)
			}
		}
		rhs := make([]float64, m.N)
		for i := range rhs {
			rhs[i] = float64(i%7) - 3
		}
		code, _, b := e.post(t, "/v1/solve", "", solveBody(fmt.Sprintf("%016x", m.PatternHash()), rhs))
		if code != http.StatusOK {
			t.Fatalf("solve: status %d: %s", code, b)
		}
		keys(t, b, "id", "x", "elapsed_ms")
		var sr server.SolveResponse
		json.Unmarshal(b, &sr)
		if r := m.ResidualNorm(sr.X, rhs); r > 1e-8 {
			t.Fatalf("solve residual %g", r)
		}
	}},
	{"metrics keys", func(t *testing.T, e *contractEnv) {
		resp, err := http.Get(e.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := []string{"status", "requests", "plan_cache", "admission", "latency", "breaker"}
		if e.cluster {
			want = append(want, "epochs_started", "epoch_retries", "local_factors", "jobs", "evicted_jobs", "nodes")
		} else {
			want = append(want, "batches", "batched_rhs", "live_factors", "evicted_factors")
		}
		keys(t, b, want...)
	}},
}

// TestHTTPContract runs one table of HTTP cases against both backends — a
// single-process server and a gateway over two in-process nodes — built
// from the same pipeline settings, then drains each and checks that it
// refuses work with 503.
func TestHTTPContract(t *testing.T) {
	t.Parallel()
	front := server.Config{
		Procs:          2,
		MaxFactorBytes: 64 << 10,
		Tenants:        map[string]admission.TenantLimits{"metered": {Rate: 0.001, Burst: 1}},
	}
	backends := []struct {
		name    string
		cluster bool
		start   func(t *testing.T) (string, *server.Server)
	}{
		{"local", false, func(t *testing.T) (string, *server.Server) {
			s := server.New(front)
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ts.Close()
				s.Close()
			})
			return ts.URL, s
		}},
		{"cluster", true, func(t *testing.T) (string, *server.Server) {
			gw := NewGatewayFront(GatewayConfig{Procs: 2, HeartbeatTimeout: 3 * time.Second, Logf: quietLog}, front)
			tc := runCluster(t, gw, []NodeConfig{{ID: "a", Workers: 1}, {ID: "b", Workers: 1}})
			return tc.ts.URL, gw.Front()
		}},
	}
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			t.Parallel()
			url, srv := be.start(t)
			e := &contractEnv{url: url, cluster: be.cluster, m: gen.Grid2D(10)}
			if code, _, b := e.post(t, "/v1/factor", "", csc(e.m)); code != http.StatusOK {
				t.Fatalf("setup factor: status %d: %s", code, b)
			}
			e.id = fmt.Sprintf("%016x", e.m.PatternHash())

			t.Run("cases", func(t *testing.T) {
				for _, tc := range contractCases {
					tc := tc
					t.Run(tc.name, func(t *testing.T) {
						t.Parallel()
						tc.check(t, e)
					})
				}
			})

			srv.Drain()
			resp, err := http.Get(url + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var h struct {
				Status string `json:"status"`
			}
			json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
				t.Fatalf("draining /healthz: status %d %q, want 503 draining", resp.StatusCode, h.Status)
			}
			e.errorCase(t, "/v1/factor", csc(e.m), http.StatusServiceUnavailable, "")
			e.errorCase(t, "/v1/solve", solveBody(e.id, make([]float64, e.m.N)), http.StatusServiceUnavailable, "")
		})
	}
}
