package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blockfanout/internal/admission"
	"blockfanout/internal/gen"
	"blockfanout/internal/sparse"
)

// testService spins up the full HTTP stack around a small server config.
func testService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
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

func toCSC(m *sparse.Matrix) jsonCSC {
	return jsonCSC{N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: m.Val}
}

func factorMatrix(t *testing.T, url string, m *sparse.Matrix) FactorResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/factor", toCSC(m))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: status %d: %s", resp.StatusCode, body)
	}
	var fr FactorResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("factor response: %v", err)
	}
	return fr
}

// metricsView is the /metrics document of a server on the Local backend:
// the pipeline's fields and the backend's section.
type metricsView struct {
	metricsDoc
	localDoc
}

func fetchMetrics(t *testing.T, url string) metricsView {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc metricsView
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestServiceEndToEnd drives the whole serving story over real HTTP: factor
// a matrix, re-factor the same pattern with new values through the plan
// cache (asserting the cache hit means no second analysis), then queue
// single-RHS solves behind a running sweep so the batcher must coalesce
// them, and check every answer against the matrix it was solved for.
func TestServiceEndToEnd(t *testing.T) {
	const batchLimit = 8
	s, ts := testService(t, Config{Procs: 4, BlockSize: 16, BatchLimit: batchLimit})

	a := gen.IrregularMesh(250, 6, 3, 11)
	fr := factorMatrix(t, ts.URL, a)
	if fr.CacheHit || fr.Refactored {
		t.Fatalf("first factor: cache_hit=%v refactored=%v; want fresh analysis", fr.CacheHit, fr.Refactored)
	}
	if fr.N != a.N || fr.NNZ != a.NNZ() || fr.NNZL <= 0 || fr.Flops <= 0 {
		t.Fatalf("factor response stats look wrong: %+v", fr)
	}

	// Same pattern, new values: the plan cache must hit (no symbolic work)
	// and the live factor must be numerically refactored in place.
	a2 := a.Clone()
	rng := rand.New(rand.NewSource(7))
	for i := range a2.Val {
		a2.Val[i] *= 1 + 0.2*rng.Float64()
	}
	for j := 0; j < a2.N; j++ { // keep it safely SPD
		a2.Val[a2.ColPtr[j]] *= 1.5
	}
	fr2 := factorMatrix(t, ts.URL, a2)
	if !fr2.CacheHit || !fr2.Refactored {
		t.Fatalf("second factor: cache_hit=%v refactored=%v; want warm-path refactorization", fr2.CacheHit, fr2.Refactored)
	}
	if fr2.ID != fr.ID {
		t.Fatalf("same pattern produced different ids: %s vs %s", fr.ID, fr2.ID)
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("plan cache stats = %+v; want exactly 1 hit, 1 miss", st)
	}

	// Single-RHS solves that queue behind a running sweep coalesce: the
	// first solve's sweep is held until the other batchLimit−1 are queued,
	// and they must then travel together as one batch. Answers are checked
	// against a2 — the values the factor currently holds.
	bs := make([][]float64, batchLimit)
	for i := range bs {
		b := make([]float64, a2.N)
		for k := range b {
			b[k] = rng.NormFloat64()
		}
		bs[i] = b
	}
	fe, ok := s.local.lookup(fr.ID)
	if !ok {
		t.Fatal("factor entry vanished")
	}
	results := solveQueued(t, ts.URL, fe, bs)
	for i, res := range results {
		if r := a2.ResidualNorm(res.X, bs[i]); r > 1e-8 {
			t.Fatalf("solve %d residual %g", i, r)
		}
		// Batching never changes an answer: a coalesced x is bit for bit
		// the factor's own single-RHS solve of the same b.
		fe.mu.RLock()
		want, err := fe.f.Solve(bs[i])
		fe.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float64bits(res.X[k]) != math.Float64bits(want[k]) {
				t.Fatalf("solve %d (batch %d): x[%d] = %v, Factor.Solve gives %v",
					i, res.Batch, k, res.X[k], want[k])
			}
		}
		size := batchLimit - 1 // the first solve runs alone, the rest together
		if i == 0 {
			size = 1
		}
		if res.Batch != size {
			t.Fatalf("solve %d rode a batch of %d; want %d", i, res.Batch, size)
		}
	}

	// Multi-RHS request goes through the direct path.
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, BS: bs[:3]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multi solve: status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.XS) != 3 {
		t.Fatalf("multi solve returned %d solutions; want 3", len(sr.XS))
	}
	for i, x := range sr.XS {
		if r := a2.ResidualNorm(x, bs[i]); r > 1e-8 {
			t.Fatalf("multi solve %d residual %g", i, r)
		}
	}

	doc := fetchMetrics(t, ts.URL)
	if doc.Factors != 1 || doc.Refactors != 1 {
		t.Fatalf("metrics: factors=%d refactors=%d; want 1 and 1", doc.Factors, doc.Refactors)
	}
	if doc.Cache.Hits != 1 || doc.Cache.Misses != 1 {
		t.Fatalf("metrics cache stats = %+v; want 1 hit, 1 miss", doc.Cache)
	}
	if doc.Batches != 2 || doc.BatchedR != batchLimit || doc.Queued != batchLimit-1 || doc.Expired != 0 {
		t.Fatalf("metrics: batches=%d batched_rhs=%d queued_rhs=%d expired_rhs=%d; want 2, %d, %d, 0",
			doc.Batches, doc.BatchedR, doc.Queued, doc.Expired, batchLimit, batchLimit-1)
	}
	if want := int64(batchLimit + 3); doc.SolvedRHS != want {
		t.Fatalf("metrics: solved_rhs=%d; want %d", doc.SolvedRHS, want)
	}
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// batcherState reads fe's batcher under its lock: whether a sweep is
// running and how many solves are queued behind it.
func batcherState(fe *factorEntry) (busy bool, queued int) {
	fe.bt.mu.Lock()
	defer fe.bt.mu.Unlock()
	return fe.bt.busy, len(fe.bt.pending)
}

// postSolves posts one single-RHS solve against factor id per b in bs,
// each on its own goroutine, and returns a wait function yielding every
// status code and body once all have answered (a transport error is the
// body of a zero status).
func postSolves(url, id string, bs [][]float64) (wait func() ([]int, [][]byte)) {
	codes, bodies := make([]int, len(bs)), make([][]byte, len(bs))
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := json.Marshal(SolveRequest{ID: id, B: b})
			var resp *http.Response
			if err == nil {
				resp, err = http.Post(url+"/v1/solve", "application/json", bytes.NewReader(raw))
			}
			if err != nil {
				bodies[i] = []byte(err.Error())
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}()
	}
	return func() ([]int, [][]byte) { wg.Wait(); return codes, bodies }
}

// holdSweep takes fe's write lock, so the next solve's sweep stalls, and
// returns the release; the test's cleanup releases it too.
func holdSweep(t *testing.T, fe *factorEntry) (release func()) {
	fe.mu.Lock()
	release = sync.OnceFunc(fe.mu.Unlock)
	t.Cleanup(release)
	return release
}

// postQueued posts bs[0] as a lone solve, holds its sweep until the
// solves of bs[1:] are queued behind it and returns their outcomes: the
// first runs alone and the rest ride the next sweep together (up to
// BatchLimit).
func postQueued(t *testing.T, url string, fe *factorEntry, bs [][]float64) ([]int, [][]byte) {
	t.Helper()
	release := holdSweep(t, fe)
	first := postSolves(url, fe.id, bs[:1])
	waitUntil(t, "the first solve to start its sweep", func() bool { busy, _ := batcherState(fe); return busy })
	rest := postSolves(url, fe.id, bs[1:])
	waitUntil(t, "the other solves to queue", func() bool { _, n := batcherState(fe); return n == len(bs)-1 })
	release()
	codes, bodies := first()
	rc, rb := rest()
	return append(codes, rc...), append(bodies, rb...)
}

// solveQueued is postQueued for solves that must all succeed.
func solveQueued(t *testing.T, url string, fe *factorEntry, bs [][]float64) []SolveResponse {
	t.Helper()
	codes, bodies := postQueued(t, url, fe, bs)
	out := make([]SolveResponse, len(bs))
	for i := range bs {
		if codes[i] != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, codes[i], bodies[i])
		}
		if err := json.Unmarshal(bodies[i], &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestLoneSolveDoesNotWait: a single-RHS solve on an idle factor runs at
// once, whatever BatchWindow's magnitude — only its sign matters.
func TestLoneSolveDoesNotWait(t *testing.T) {
	_, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: 5 * time.Second})
	a := gen.Grid2D(12)
	fr := factorMatrix(t, ts.URL, a)
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: rhs})
	took := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Batch != 1 || took > time.Second {
		t.Fatalf("lone solve: batch %d after %v; want batch 1 within 1s", sr.Batch, took)
	}
	if r := a.ResidualNorm(sr.X, rhs); r > 1e-8 {
		t.Fatalf("residual %g", r)
	}
	if doc := fetchMetrics(t, ts.URL); doc.Queued != 0 || doc.Batches != 1 {
		t.Fatalf("metrics: queued_rhs=%d batches=%d; want 0 and 1", doc.Queued, doc.Batches)
	}
}

// TestBatchCountsQueuedAndExpired: /metrics counts every solve that queued
// behind a running sweep (queued_rhs), and a queued solve whose context
// ends before its sweep starts is dropped from the batch, never solved
// (expired_rhs).
func TestBatchCountsQueuedAndExpired(t *testing.T) {
	s, ts := testService(t, Config{Procs: 2, BlockSize: 16})
	a := gen.Grid2D(10)
	fr := factorMatrix(t, ts.URL, a)
	fe, ok := s.local.lookup(fr.ID)
	if !ok {
		t.Fatal("factor entry missing")
	}
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = float64(i%7) - 3
	}

	release := holdSweep(t, fe)
	first := postSolves(ts.URL, fr.ID, [][]float64{rhs})
	waitUntil(t, "the first solve to start its sweep", func() bool { busy, _ := batcherState(fe); return busy })
	ctx, cancel := context.WithCancel(context.Background())
	expired := make(chan error, 1)
	go func() {
		_, err := fe.bt.submit(ctx, rhs)
		expired <- err
	}()
	waitUntil(t, "the doomed solve to queue", func() bool { _, n := batcherState(fe); return n == 1 })
	live := postSolves(ts.URL, fr.ID, [][]float64{rhs})
	waitUntil(t, "the live solve to queue", func() bool { _, n := batcherState(fe); return n == 2 })
	cancel()
	if err := <-expired; errStatus(err) != http.StatusGatewayTimeout {
		t.Fatalf("cancelled queued solve: err=%v; want a 504 context error", err)
	}
	release()

	for _, wait := range []func() ([]int, [][]byte){first, live} {
		codes, bodies := wait()
		var sr SolveResponse
		if codes[0] != http.StatusOK || json.Unmarshal(bodies[0], &sr) != nil {
			t.Fatalf("solve: status %d: %s", codes[0], bodies[0])
		}
		if sr.Batch != 1 {
			t.Fatalf("solve rode a batch of %d; want 1 (the expired one is dropped)", sr.Batch)
		}
	}
	doc := fetchMetrics(t, ts.URL)
	if doc.Queued != 2 || doc.Expired != 1 || doc.Batches != 2 || doc.BatchedR != 2 || doc.SolvedRHS != 2 {
		t.Fatalf("metrics: queued_rhs=%d expired_rhs=%d batches=%d batched_rhs=%d solved_rhs=%d; want 2, 1, 2, 2, 2",
			doc.Queued, doc.Expired, doc.Batches, doc.BatchedR, doc.SolvedRHS)
	}
}

// TestServiceDistinctPatterns: two different structures get two ids, and
// each id solves against its own matrix.
func TestServiceDistinctPatterns(t *testing.T) {
	_, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: -1})

	a := gen.IrregularMesh(120, 5, 3, 1)
	b := gen.IrregularMesh(120, 5, 3, 2)
	fa := factorMatrix(t, ts.URL, a)
	fb := factorMatrix(t, ts.URL, b)
	if fa.ID == fb.ID {
		t.Fatal("different patterns share an id")
	}
	if fb.CacheHit {
		t.Fatal("different pattern hit the plan cache")
	}

	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}
	for _, tc := range []struct {
		id string
		m  *sparse.Matrix
	}{{fa.ID, a}, {fb.ID, b}} {
		resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: tc.id, B: rhs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
		}
		var sr SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if r := tc.m.ResidualNorm(sr.X, rhs); r > 1e-8 {
			t.Fatalf("id %s residual %g", tc.id, r)
		}
	}
}

// TestServiceRequestValidation covers the client-error surface: malformed
// bodies, unknown ids, bad right-hand sides.
func TestServiceRequestValidation(t *testing.T) {
	_, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: -1})
	a := gen.IrregularMesh(100, 5, 3, 3)
	fr := factorMatrix(t, ts.URL, a)

	check := func(name string, resp *http.Response, body []byte, wantStatus int, wantSub string) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d (%s)", name, resp.StatusCode, wantStatus, body)
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("%s: non-JSON error body %q", name, body)
		}
		if wantSub != "" && !strings.Contains(eb.Error, wantSub) {
			t.Fatalf("%s: error %q does not mention %q", name, eb.Error, wantSub)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/factor", map[string]any{"n": 2, "bogus": true})
	check("unknown field", resp, body, http.StatusBadRequest, "bogus")

	// JSON cannot carry Inf, but MatrixMarket text can.
	mm := "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 4\n2 1 inf\n2 2 4\n"
	infResp, err := http.Post(ts.URL+"/v1/factor", "text/plain", strings.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	infBody, _ := io.ReadAll(infResp.Body)
	infResp.Body.Close()
	check("inf matrix value", infResp, infBody, http.StatusBadRequest, "not finite")

	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: "deadbeef", B: make([]float64, a.N)})
	check("unknown id", resp, body, http.StatusNotFound, "unknown factor id")

	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: make([]float64, 3)})
	check("short rhs", resp, body, http.StatusBadRequest, "length")

	// JSON cannot carry NaN, so exercise the RHS finiteness guard directly
	// (it protects the batcher from poisoned coalesced sweeps).
	nan := make([]float64, a.N)
	nan[4] = math.NaN()
	if err := (&SolveRequest{B: nan}).Check(a.N); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("Check(NaN) = %v; want not-finite error", err)
	}

	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID})
	check("no rhs", resp, body, http.StatusBadRequest, `"b"`)

	resp, body = postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{ID: fr.ID, B: make([]float64, a.N), BS: [][]float64{make([]float64, a.N)}})
	check("both rhs forms", resp, body, http.StatusBadRequest, `"b"`)

	// One bad vector inside a multi-RHS request names the offender.
	bad := [][]float64{make([]float64, a.N), make([]float64, 2)}
	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, BS: bad})
	check("bad rhs in batch", resp, body, http.StatusBadRequest, "rhs 1")

	get, err := http.Get(ts.URL + "/v1/factor")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(get.Body)
	get.Body.Close()
	check("wrong method", get, b, http.StatusMethodNotAllowed, "POST")
}

// TestServiceFailedFactorConcurrent: when the initial factorization fails
// (indefinite matrix), concurrent requests for the same new pattern must
// all get a clean client error — never a nil-factor panic — and the dead
// entry must not linger: a follow-up request with good values gets a fresh
// factorization that actually solves.
func TestServiceFailedFactorConcurrent(t *testing.T) {
	// The breaker is disabled: six concurrent pivot failures would trip it
	// and fail the recovery POST fast; this test pins the entry lifecycle,
	// the breaker has its own tests.
	_, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: -1, BreakerThreshold: -1})
	a := gen.IrregularMesh(150, 5, 3, 21)
	bad := a.Clone()
	bad.Val[bad.ColPtr[a.N-1]] = -5 // indefinite: BFAC must fail

	const clients = 6
	var wg sync.WaitGroup
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/factor", toCSC(bad))
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusUnprocessableEntity && c != http.StatusServiceUnavailable {
			t.Fatalf("client %d: status %d; want 422 (or 503 after exhausted retries)", i, c)
		}
	}

	// Same pattern, good values: must be a fresh factorization (the failed
	// entries were all unregistered), and it must serve solves.
	fr := factorMatrix(t, ts.URL, a)
	if fr.Refactored {
		t.Fatal("factor after failures reported refactored=true; a dead entry survived")
	}
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: rhs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after recovery: status %d (%s)", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if r := a.ResidualNorm(sr.X, rhs); r > 1e-8 {
		t.Fatalf("recovered factor residual %g", r)
	}
}

// TestServiceFailedRefactorInvalidatesFactor: a refactorization that fails
// partway leaves the underlying numeric factor corrupted, so the server
// must unregister it — solves on the old id get 404, never a 200 carrying
// garbage — and a re-POST with good values must rebuild from scratch.
func TestServiceFailedRefactorInvalidatesFactor(t *testing.T) {
	_, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: -1})
	a := gen.IrregularMesh(150, 5, 3, 22)
	fr := factorMatrix(t, ts.URL, a)

	bad := a.Clone()
	bad.Val[bad.ColPtr[0]] = -3 // indefinite: the refactor must fail
	resp, body := postJSON(t, ts.URL+"/v1/factor", toCSC(bad))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("indefinite refactor: status %d (%s); want 422", resp.StatusCode, body)
	}

	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: rhs})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("solve on invalidated factor: status %d (%s); want 404", resp.StatusCode, body)
	}

	// Recovery: same id (pattern hash), warm plan cache, fresh factor.
	fr2 := factorMatrix(t, ts.URL, a)
	if fr2.ID != fr.ID {
		t.Fatalf("rebuild changed id: %s vs %s", fr2.ID, fr.ID)
	}
	if fr2.Refactored {
		t.Fatal("rebuild after invalidation reported refactored=true")
	}
	if !fr2.CacheHit {
		t.Fatal("rebuild after invalidation missed the plan cache")
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr2.ID, B: rhs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after rebuild: status %d (%s)", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if r := a.ResidualNorm(sr.X, rhs); r > 1e-8 {
		t.Fatalf("rebuilt factor residual %g", r)
	}
}

// TestSolvePathsRejectInvalidatedFactor: both solve paths (direct and
// batched) must refuse an entry whose factor is nil — the state an
// invalidated or still-failing entry is left in — with errFactorInvalid
// (409), not a nil dereference.
func TestSolvePathsRejectInvalidatedFactor(t *testing.T) {
	l := New(Config{}).Local()
	fe := &factorEntry{id: "dead", n: 4}
	fe.bt = &batcher{l: l, fe: fe}

	_, err := l.solve(context.Background(), fe, [][]float64{make([]float64, 4)})
	if !errors.Is(err, errFactorInvalid) {
		t.Fatalf("direct solve on nil factor: err=%v; want errFactorInvalid", err)
	}
	if st := errStatus(err); st != http.StatusConflict {
		t.Fatalf("errFactorInvalid maps to status %d; want 409", st)
	}
	if _, err := fe.bt.submit(context.Background(), make([]float64, 4)); !errors.Is(err, errFactorInvalid) {
		t.Fatalf("batched solve on nil factor: err=%v; want errFactorInvalid", err)
	}
}

// TestFactorRegistryEvictionAndDrop pins the registry lifecycle rules:
// LRU eviction never removes an entry whose initial factorization is still
// in flight, and dropEntry only removes the exact entry it was given (a
// stale drop must not delete a re-created successor under the same id).
func TestFactorRegistryEvictionAndDrop(t *testing.T) {
	l := New(Config{MaxFactors: 1}).Local()
	feA, created := l.claimEntry("a", 4, nil)
	if !created {
		t.Fatal("claim a: want created")
	}
	feB, created := l.claimEntry("b", 4, nil)
	if !created {
		t.Fatal("claim b: want created")
	}
	l.mu.Lock()
	live := l.factors.Len()
	l.mu.Unlock()
	if live != 2 {
		t.Fatalf("%d live entries after two in-flight claims; eviction removed a building entry", live)
	}

	// Publish a; the next claim may evict it (cold end) but never the
	// still-building b.
	l.markReady(feA)
	feA.mu.Unlock()
	feC, created := l.claimEntry("c", 4, nil)
	if !created {
		t.Fatal("claim c: want created")
	}
	l.mu.Lock()
	_, hasA := l.factors.Peek("a")
	_, hasB := l.factors.Peek("b")
	evicted := l.evicted
	l.mu.Unlock()
	if hasA {
		t.Fatal("ready entry a survived eviction while over budget")
	}
	if !hasB {
		t.Fatal("building entry b was evicted")
	}
	if evicted != 1 {
		t.Fatalf("evicted = %d after one eviction, want 1", evicted)
	}
	l.markReady(feB)
	feB.mu.Unlock()
	l.markReady(feC)
	feC.mu.Unlock()

	// Stale drop: re-create c, then drop via the old pointer — the new
	// entry must survive.
	l.dropEntry(feC)
	feC2, created := l.claimEntry("c", 4, nil)
	if !created {
		t.Fatal("re-claim c: want created")
	}
	l.markReady(feC2)
	feC2.mu.Unlock()
	l.dropEntry(feC)
	if _, ok := l.lookup("c"); !ok {
		t.Fatal("stale dropEntry removed the re-created entry")
	}
}

// TestServiceMatrixMarketBody: the factor endpoint accepts MatrixMarket
// text when the content type is not JSON.
func TestServiceMatrixMarketBody(t *testing.T) {
	_, ts := testService(t, Config{Procs: 2, BlockSize: 8, BatchWindow: -1})

	var mm bytes.Buffer
	mm.WriteString("%%MatrixMarket matrix coordinate real symmetric\n")
	a := gen.Grid2D(8)
	fmt.Fprintf(&mm, "%d %d %d\n", a.N, a.N, a.NNZ())
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			fmt.Fprintf(&mm, "%d %d %.17g\n", a.RowInd[p]+1, j+1, a.Val[p])
		}
	}
	resp, err := http.Post(ts.URL+"/v1/factor", "text/plain", &mm)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matrixmarket factor: status %d: %s", resp.StatusCode, body)
	}
	var fr FactorResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.N != a.N || fr.NNZ != a.NNZ() {
		t.Fatalf("parsed n=%d nnz=%d; want n=%d nnz=%d", fr.N, fr.NNZ, a.N, a.NNZ())
	}
}

// TestServiceDrain: draining fails health checks and refuses new work.
func TestServiceDrain(t *testing.T) {
	s, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: -1})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	a := gen.Grid2D(6)
	r2, body := postJSON(t, ts.URL+"/v1/factor", toCSC(a))
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("factor while draining: %d (%s), want 503", r2.StatusCode, body)
	}
}

// TestWaitIdle: WaitIdle returns once the last in-flight request leaves,
// and gives up when its context ends first.
func TestWaitIdle(t *testing.T) {
	s := New(Config{Procs: 1, BatchWindow: -1})
	defer s.Close()
	if err := s.WaitIdle(context.Background()); err != nil {
		t.Fatalf("idle server: %v", err)
	}
	s.met.inFlight.Add(2) // two requests enter
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.WaitIdle(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("busy server: %v, want deadline exceeded", err)
	}
	s.leave()
	done := make(chan error, 1)
	go func() { done <- s.WaitIdle(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("returned with a request still in flight: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	s.leave()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServiceBackpressure: with a one-worker pool and a one-slot queue,
// a request arriving while both are held must get a structured 429 —
// queue_full code, Retry-After header and in-body hint — and bump the
// rejected counter.
func TestServiceBackpressure(t *testing.T) {
	s, ts := testService(t, Config{Procs: 1, Workers: 1, QueueDepth: 1, BlockSize: 16, BatchWindow: -1})
	a := gen.IrregularMesh(100, 5, 3, 5)
	fr := factorMatrix(t, ts.URL, a)

	// Occupy the only worker slot and the single queue slot through the
	// admission controller, the way real requests would.
	relWorker, rej, err := s.adm.Admit(context.Background(), admission.Request{Priority: admission.Interactive})
	if rej != nil || err != nil {
		t.Fatalf("occupying worker: rej=%v err=%v", rej, err)
	}
	released := false
	defer func() {
		if !released {
			relWorker()
		}
	}()
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		rel2, rej2, err2 := s.adm.Admit(context.Background(), admission.Request{Priority: admission.Interactive})
		if rej2 == nil && err2 == nil {
			rel2()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s.adm.Snapshot().QueuedByPri["interactive"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue slot never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: make([]float64, a.N)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded solve: status %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != "queue_full" {
		t.Fatalf("rejection code = %q, want queue_full (%s)", eb.Code, body)
	}
	if eb.RetryAfterS <= 0 {
		t.Fatalf("rejection body retry_after_s = %v, want > 0", eb.RetryAfterS)
	}
	if doc := fetchMetrics(t, ts.URL); doc.Rejected == 0 {
		t.Fatal("rejected counter did not move")
	}
	released = true
	relWorker()
	<-queuedDone
}
