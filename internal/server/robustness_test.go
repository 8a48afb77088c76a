package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"blockfanout/internal/gen"
	"blockfanout/internal/sparse"
)

// indefinite clones m and negates one diagonal entry so the factorization
// must break down on a pivot.
func indefinite(m *sparse.Matrix, col int) *sparse.Matrix {
	bad := m.Clone()
	bad.Val[bad.ColPtr[col]] = -bad.Val[bad.ColPtr[col]]
	return bad
}

func decodeErr(t *testing.T, body []byte) ErrorBody {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	return eb
}

// checkPivotBody asserts the 422 envelope carries the breakdown location.
func checkPivotBody(t *testing.T, eb ErrorBody, n int) {
	t.Helper()
	if eb.Block == nil || eb.Row == nil || eb.Pivot == nil {
		t.Fatalf("pivot error body missing coordinates: %+v", eb)
	}
	if *eb.Row < 0 || *eb.Row >= n {
		t.Fatalf("pivot row %d out of [0,%d)", *eb.Row, n)
	}
	if *eb.Pivot > 0 {
		t.Fatalf("reported pivot %g is positive", *eb.Pivot)
	}
}

// TestFactorPivotErrorAllPaths drives an indefinite matrix through every
// factorization path — first factor, fresh factor through a warm plan
// cache, and numeric refactor of a live factor — and requires a structured
// 422 with the breakdown location each time.
func TestFactorPivotErrorAllPaths(t *testing.T) {
	_, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: -1, BreakerThreshold: -1})
	a := gen.IrregularMesh(150, 5, 3, 23)
	bad := indefinite(a, 40)

	// Path 1: first factor of an unseen pattern.
	resp, body := postJSON(t, ts.URL+"/v1/factor", toCSC(bad))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("first factor: status %d (%s); want 422", resp.StatusCode, body)
	}
	eb := decodeErr(t, body)
	if eb.Code != "pivot_breakdown" {
		t.Fatalf("first factor: code %q, want pivot_breakdown", eb.Code)
	}
	checkPivotBody(t, eb, a.N)

	// Path 2: same pattern again — plan cache hit, but the failed entry was
	// unregistered, so this is a fresh numeric factorization.
	resp, body = postJSON(t, ts.URL+"/v1/factor", toCSC(bad))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("cache-hit factor: status %d (%s); want 422", resp.StatusCode, body)
	}
	checkPivotBody(t, decodeErr(t, body), a.N)

	// Path 3: refactor of a live factor built from good values.
	fr := factorMatrix(t, ts.URL, a)
	resp, body = postJSON(t, ts.URL+"/v1/factor", toCSC(bad))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("refactor: status %d (%s); want 422", resp.StatusCode, body)
	}
	eb = decodeErr(t, body)
	if eb.Code != "pivot_breakdown" {
		t.Fatalf("refactor: code %q, want pivot_breakdown", eb.Code)
	}
	checkPivotBody(t, eb, a.N)

	// The failed refactor invalidated the factor; its id must be gone.
	rhs := make([]float64, a.N)
	resp, _ = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: rhs})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("solve on invalidated factor: status %d; want 404", resp.StatusCode)
	}
}

// TestConcurrentPivotFailures: many clients posting the same indefinite
// pattern at once must each get a well-formed failure (422, or 503 when a
// waiter exhausts its re-claim attempts) with no data race — this test is
// the -race half of the acceptance criterion.
func TestConcurrentPivotFailures(t *testing.T) {
	_, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: -1, BreakerThreshold: -1})
	a := gen.IrregularMesh(150, 5, 3, 24)
	bad := indefinite(a, 10)

	const clients = 8
	var wg sync.WaitGroup
	type result struct {
		code int
		eb   ErrorBody
	}
	results := make([]result, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/factor", toCSC(bad))
			results[i] = result{resp.StatusCode, decodeErr(t, body)}
		}(i)
	}
	wg.Wait()
	got422 := false
	for i, r := range results {
		switch r.code {
		case http.StatusUnprocessableEntity:
			got422 = true
			checkPivotBody(t, r.eb, a.N)
		case http.StatusServiceUnavailable:
		default:
			t.Fatalf("client %d: status %d; want 422 or 503", i, r.code)
		}
	}
	if !got422 {
		t.Fatal("no client saw the structured 422")
	}
}

// TestBreakerTripsAndRecovers: repeated pivot failures for one pattern
// trip the breaker (fail-fast 422 that still carries the last breakdown's
// coordinates, without burning a worker on a doomed factorization), and
// the pattern is allowed through again after the cooldown.
func TestBreakerTripsAndRecovers(t *testing.T) {
	s, ts := testService(t, Config{
		Procs: 2, BlockSize: 16, BatchWindow: -1,
		BreakerThreshold: 2, BreakerCooldown: 300 * time.Millisecond,
	})
	a := gen.IrregularMesh(150, 5, 3, 25)
	bad := indefinite(a, 77)

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/factor", toCSC(bad))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("failure %d: status %d (%s)", i, resp.StatusCode, body)
		}
		if eb := decodeErr(t, body); eb.Code != "pivot_breakdown" {
			t.Fatalf("failure %d: code %q; the breaker must not trip early", i, eb.Code)
		}
	}

	// Third request: breaker is open, fail fast with the pivot location.
	factorsBefore := s.met.factors.Load()
	resp, body := postJSON(t, ts.URL+"/v1/factor", toCSC(bad))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("tripped breaker: status %d (%s); want 422", resp.StatusCode, body)
	}
	eb := decodeErr(t, body)
	if eb.Code != "breaker_open" {
		t.Fatalf("tripped breaker: code %q, want breaker_open", eb.Code)
	}
	checkPivotBody(t, eb, a.N)
	if s.met.factors.Load() != factorsBefore {
		t.Fatal("fail-fast request still ran a factorization")
	}
	if s.met.breakerTrips.Load() != 1 || s.met.breakerFastFails.Load() == 0 {
		t.Fatalf("breaker metrics: trips=%d fastFails=%d",
			s.met.breakerTrips.Load(), s.met.breakerFastFails.Load())
	}

	// A different pattern is unaffected.
	b := gen.IrregularMesh(120, 4, 3, 26)
	factorMatrix(t, ts.URL, b)

	// After the cooldown the pattern gets a real attempt again; good values
	// factor and clear the breaker state.
	time.Sleep(350 * time.Millisecond)
	fr := factorMatrix(t, ts.URL, a)
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: rhs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after breaker recovery: status %d (%s)", resp.StatusCode, body)
	}
}

// TestPerturbFactorsIndefinite: ?perturb=1 turns a pivot breakdown into a
// successful factorization of A+αI, reporting the shift; the factor must
// then actually solve the shifted system.
func TestPerturbFactorsIndefinite(t *testing.T) {
	_, ts := testService(t, Config{Procs: 2, BlockSize: 16, BatchWindow: -1})
	a := gen.IrregularMesh(150, 5, 3, 27)
	bad := indefinite(a, 40)

	resp, body := postJSON(t, ts.URL+"/v1/factor?perturb=1", toCSC(bad))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("perturbed factor: status %d (%s)", resp.StatusCode, body)
	}
	var fr FactorResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Shift <= 0 {
		t.Fatalf("indefinite matrix factored with shift %g; want > 0", fr.Shift)
	}

	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fr.ID, B: rhs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve on perturbed factor: status %d (%s)", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	shifted := bad.Clone()
	for j := 0; j < shifted.N; j++ {
		shifted.Val[shifted.ColPtr[j]] += fr.Shift
	}
	if r := shifted.ResidualNorm(sr.X, rhs); r > 1e-6 {
		t.Fatalf("residual %g against the shifted matrix", r)
	}

	// SPD values through the same query parameter: no shift. (Fresh struct:
	// shift has omitempty, so unmarshalling into fr would keep the old one.)
	resp, body = postJSON(t, ts.URL+"/v1/factor?perturb=1", toCSC(a))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("perturbed SPD refactor: status %d (%s)", resp.StatusCode, body)
	}
	var fr2 FactorResponse
	if err := json.Unmarshal(body, &fr2); err != nil {
		t.Fatal(err)
	}
	if fr2.Shift != 0 {
		t.Fatalf("SPD values reported shift %g", fr2.Shift)
	}
	if !fr2.Refactored {
		t.Fatal("second POST of the pattern did not refactor in place")
	}
}

// TestJSONCSCShapeRejection pins the cheap shape checks that run before
// anything allocates from a claimed dimension.
func TestJSONCSCShapeRejection(t *testing.T) {
	_, ts := testService(t, Config{Procs: 1, BlockSize: 8})
	cases := []jsonCSC{
		{N: -1, ColPtr: []int{0}},
		{N: 1 << 30, ColPtr: []int{0, 1}, RowInd: []int{0}, Val: []float64{1}},
		{N: 2, ColPtr: []int{0, 1}, RowInd: []int{0, 1}, Val: []float64{1, 1}},
		{N: 2, ColPtr: []int{0, 1, 2}, RowInd: []int{0, 1}, Val: []float64{1}},
		{N: 2, ColPtr: []int{0, 5, 3}, RowInd: []int{0, 1, 1}, Val: []float64{4, 1, 4}},
	}
	for i, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/factor", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d (%s); want 400", i, resp.StatusCode, body)
		}
	}
}
