//go:build faultinject

// Chaos tests: run with `go test -tags faultinject ./internal/server/`.
// These exercise the serving path with faults injected at its request
// boundaries — transient errors the retry loop must absorb, persistent
// errors it must surface as 500 (not 422: an infrastructure fault is not
// the client's matrix's fault), injected latency, and handler panics the
// recovery middleware must contain.
package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"blockfanout/internal/faultinject"
	"blockfanout/internal/gen"
)

func TestChaosTransientFactorRetried(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: -1, RetryBackoff: time.Millisecond})
	a := gen.IrregularMesh(150, 5, 3, 31)

	// One injected failure, then clean: the retry must hide it.
	faultinject.Enable(faultinject.Rule{Site: "server.factor", Prob: 1, Count: 1})
	fr := factorMatrix(t, ts.URL, a)
	if fr.ID == "" {
		t.Fatal("empty factor id")
	}
	if faultinject.Fires("server.factor") != 1 {
		t.Fatalf("injected %d faults, want 1", faultinject.Fires("server.factor"))
	}
	if s.met.retries.Load() == 0 {
		t.Fatal("retry counter did not move")
	}
}

func TestChaosPersistentTransientIs500(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: -1, RetryAttempts: 2, RetryBackoff: time.Millisecond})
	a := gen.IrregularMesh(120, 4, 3, 32)

	faultinject.Enable(faultinject.Rule{Site: "server.factor", Prob: 1})
	resp, body := postJSON(t, ts.URL+"/v1/factor", toCSC(a))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("persistent transient fault: status %d (%s); want 500", resp.StatusCode, body)
	}
	// 1 initial + 2 retries.
	if n := faultinject.Fires("server.factor"); n != 3 {
		t.Fatalf("injector fired %d times, want 3", n)
	}

	// With injection off the same pattern must factor cleanly (the failed
	// entry was unregistered, not wedged).
	faultinject.Disable()
	factorMatrix(t, ts.URL, a)
}

func TestChaosSolveFaultsRetriedThenSurfaced(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: -1, RetryAttempts: 1, RetryBackoff: time.Millisecond})
	a := gen.IrregularMesh(120, 4, 3, 33)
	fr := factorMatrix(t, ts.URL, a)
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}

	// One fault: retried, solve succeeds.
	faultinject.Enable(faultinject.Rule{Site: "server.solve", Prob: 1, Count: 1})
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: rhs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve with one transient fault: status %d (%s)", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if r := a.ResidualNorm(sr.X, rhs); r > 1e-8 {
		t.Fatalf("residual %g after retried solve", r)
	}

	// Persistent faults: surfaced as 500, factor stays live.
	faultinject.Enable(faultinject.Rule{Site: "server.solve", Prob: 1})
	resp, _ = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: rhs})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("persistent solve fault: status %d; want 500", resp.StatusCode)
	}
	faultinject.Disable()
	resp, _ = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: rhs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after chaos: status %d", resp.StatusCode)
	}
}

func TestChaosInjectedLatencyHitsDeadline(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := testService(t, Config{
		Procs: 2, BlockSize: 16, BatchWindow: -1,
		RequestTimeout: 50 * time.Millisecond, RetryAttempts: -1,
	})
	a := gen.IrregularMesh(120, 4, 3, 34)
	fr := factorMatrix(t, ts.URL, a)
	rhs := make([]float64, a.N)

	// The injected stall exceeds the request budget; the deadline must win
	// and map to 504, not hang the worker slot indefinitely.
	faultinject.Enable(faultinject.Rule{
		Site: "server.solve", Prob: 1,
		Err: errors.New("slow io"), Delay: 200 * time.Millisecond,
	})
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: rhs})
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("stalled solve: status %d (%s); want 504 or 500", resp.StatusCode, body)
	}
}

func TestChaosPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: -1})
	a := gen.IrregularMesh(120, 4, 3, 35)

	faultinject.Enable(faultinject.Rule{Site: "server.factor", Prob: 1, Count: 1, Panic: true})
	resp, body := postJSON(t, ts.URL+"/v1/factor", toCSC(a))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d (%s); want 500", resp.StatusCode, body)
	}
	eb := decodeErr(t, body)
	if eb.Code != "panic" {
		t.Fatalf("panic response code %q", eb.Code)
	}
	if s.met.panics.Load() != 1 {
		t.Fatalf("panics metric = %d", s.met.panics.Load())
	}

	// The process survived; the very next request must work.
	factorMatrix(t, ts.URL, a)
}

// TestChaosBatchedSolveFaultRetried: a transient fault on a coalesced
// sweep is retried like a direct solve's, and every waiter gets its
// answer. After: 1 lets the lone first solve through, so the fault lands
// on the queued batch.
func TestChaosBatchedSolveFaultRetried(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, ts := testService(t, Config{Procs: 2, BlockSize: 16, RetryBackoff: time.Millisecond})
	a := gen.IrregularMesh(120, 4, 3, 36)
	fr := factorMatrix(t, ts.URL, a)
	fe, _ := s.local.lookup(fr.ID)
	bs := make([][]float64, 4)
	for i := range bs {
		bs[i] = make([]float64, a.N)
		bs[i][i] = 1
	}

	faultinject.Enable(faultinject.Rule{Site: "server.solve", Prob: 1, After: 1, Count: 1})
	for i, sr := range solveQueued(t, ts.URL, fe, bs) {
		if r := a.ResidualNorm(sr.X, bs[i]); r > 1e-8 {
			t.Fatalf("solve %d (batch %d): residual %g", i, sr.Batch, r)
		}
	}
	if faultinject.Fires("server.solve") != 1 || s.met.retries.Load() < 1 {
		t.Fatalf("fires=%d retries=%d; want the batch's fault fired once and retried",
			faultinject.Fires("server.solve"), s.met.retries.Load())
	}
}

// TestChaosBatchedSolvePanicContained: a panic in a queued batch, which
// runs on a goroutine of its own, answers each waiter with a 5xx, leaves
// the factor's lock and the worker pool usable, and the next solve on the
// same id succeeds.
func TestChaosBatchedSolvePanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, ts := testService(t, Config{Procs: 2, BlockSize: 16})
	a := gen.IrregularMesh(120, 4, 3, 37)
	fr := factorMatrix(t, ts.URL, a)
	fe, _ := s.local.lookup(fr.ID)
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}
	bs := [][]float64{rhs, rhs, rhs}

	faultinject.Enable(faultinject.Rule{Site: "server.solve", Prob: 1, After: 1, Count: 1, Panic: true})
	codes, bodies := postQueued(t, ts.URL, fe, bs)
	if codes[0] != http.StatusOK {
		t.Fatalf("lone solve: status %d (%s)", codes[0], bodies[0])
	}
	for i := 1; i < len(bs); i++ {
		if codes[i] < 500 {
			t.Fatalf("solve %d in the panicking batch: status %d (%s); want 5xx", i, codes[i], bodies[i])
		}
	}
	if s.met.panics.Load() != 1 {
		t.Fatalf("panics metric = %d; want 1", s.met.panics.Load())
	}
	if busy := s.adm.Snapshot().Busy; busy != 0 {
		t.Fatalf("worker slot leaked: busy=%d", busy)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: rhs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after the panic: status %d (%s)", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if r := a.ResidualNorm(sr.X, rhs); r > 1e-8 {
		t.Fatalf("residual %g after the panic", r)
	}
}
