package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/server"
)

// TestFrontEndsShareDefaultOrdering factors one irregular mesh through a
// zero-configured solve server and a zero-ordering gateway: both front
// ends must plan it with minimum degree, reporting the nnz(L) and flop
// counts of an explicit MinDegree plan.
func TestFrontEndsShareDefaultOrdering(t *testing.T) {
	m := gen.IrregularMesh(2000, 8, 3, 8)
	want, err := core.NewPlan(m, core.Options{Ordering: order.MinDegree})
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/factor", "application/json", bytes.NewReader(matrixBody(m)))
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		NNZL  int64 `json:"nnz_l"`
		Flops int64 `json:"flops"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server factor: status %d, %v", resp.StatusCode, err)
	}

	tc := startCluster(t, GatewayConfig{Procs: 2, HeartbeatTimeout: 3 * time.Second}, []NodeConfig{
		{ID: "a", Workers: 1},
		{ID: "b", Workers: 1},
	})
	gr := tc.factor(t, m)

	if sr.NNZL != want.Exact.NZinL || sr.Flops != want.Exact.Flops {
		t.Errorf("server planned nnz(L)=%d flops=%d, MinDegree plan has %d, %d",
			sr.NNZL, sr.Flops, want.Exact.NZinL, want.Exact.Flops)
	}
	if gr.NNZL != want.Exact.NZinL || gr.Flops != want.Exact.Flops {
		t.Errorf("gateway planned nnz(L)=%d flops=%d, MinDegree plan has %d, %d",
			gr.NNZL, gr.Flops, want.Exact.NZinL, want.Exact.Flops)
	}
}

// TestGatewayDefaultKeyUnchanged pins the default gateway's plan key to
// the value it had while the gateway resolved the zero Ordering itself,
// so plans and snapshots the gateway filed before the library took over
// that default stay addressable.
func TestGatewayDefaultKeyUnchanged(t *testing.T) {
	const want = 0x9692c77b0f16e051
	if got := NewGateway(GatewayConfig{Logf: quietLog}).planKey; got != want {
		t.Fatalf("default gateway plan key %#x, want %#x", got, uint64(want))
	}
}
