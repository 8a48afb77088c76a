package blockfanout

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/server"
	"blockfanout/internal/sparse"
)

// BenchmarkServerSolve measures the warm serving path over real HTTP: the
// factor is cached and live, each iteration is one single-RHS POST
// /v1/solve. This is the steady-state latency a long-running client sees.
func BenchmarkServerSolve(b *testing.B) {
	srv := server.New(server.Config{Procs: 4, BatchWindow: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	m := gen.IrregularMesh(2000, 6, 3, 42)
	id, err := postFactor(ts.URL, m)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, m.N)
	for i := range rhs {
		rhs[i] = float64(i%17) - 8
	}
	raw, _ := json.Marshal(map[string]any{"id": id, "b": rhs})
	body := string(raw)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// BenchmarkServerRefactor measures the warm factor path: plan-cache hit +
// numeric-only refactorization per iteration.
func BenchmarkServerRefactor(b *testing.B) {
	srv := server.New(server.Config{Procs: 4, BatchWindow: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	m := gen.IrregularMesh(2000, 6, 3, 42)
	if _, err := postFactor(ts.URL, m); err != nil {
		b.Fatal(err)
	}
	raw, _ := json.Marshal(map[string]any{
		"n": m.N, "colptr": m.ColPtr, "rowind": m.RowInd, "val": m.Val,
	})
	body := string(raw)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/factor", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func postFactor(url string, m *sparse.Matrix) (string, error) {
	raw, err := json.Marshal(map[string]any{
		"n": m.N, "colptr": m.ColPtr, "rowind": m.RowInd, "val": m.Val,
	})
	if err != nil {
		return "", err
	}
	resp, err := http.Post(url+"/v1/factor", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("factor: status %d", resp.StatusCode)
	}
	var fr struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		return "", err
	}
	return fr.ID, nil
}
