package blockfanout

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"blockfanout/internal/experiments"
	"blockfanout/internal/gen"
)

// TestRemapRegressionGate is the CI gate for feedback-driven remapping:
// it runs the remap experiment's measured factorizations on the irregular
// generators at P=8 and 16, writes every row to bench-remap.json (uploaded
// as a CI artifact; `go run ./cmd/spchol -exp remap` prints the same
// rows), and fails if the tuned mapping's balance over the measured cost profile
// regresses below the best static heuristic's. The balance comparison is
// over one shared profile, so it is deterministic given the measurement
// and does not gate on wall time (meaningless on loaded CI machines); the
// gate is still opt-in because the rows are real timed factorizations:
//
//	REMAP_CHECK=1 go test -run RemapRegressionGate -count=1 .
func TestRemapRegressionGate(t *testing.T) {
	if os.Getenv("REMAP_CHECK") == "" {
		t.Skip("set REMAP_CHECK=1 to run the remap regression gate")
	}
	rows, err := experiments.RemapRows(experiments.Default(gen.ScaleCI), experiments.RemapProcs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("bench-remap.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	type cell struct{ bestStatic, remap float64 }
	cells := map[string]*cell{}
	for _, r := range rows {
		key := fmt.Sprintf("%s/P=%d", r.Problem, r.Procs)
		c := cells[key]
		if c == nil {
			c = &cell{}
			cells[key] = c
		}
		if r.Remap {
			c.remap = r.Predicted
		} else if r.Predicted > c.bestStatic {
			c.bestStatic = r.Predicted
		}
		t.Logf("%s P=%d %-8s balance %.3f predicted %.3f %.2fms",
			r.Problem, r.Procs, r.Map, r.Balance, r.Predicted, r.Seconds*1e3)
	}
	for key, c := range cells {
		if c.remap == 0 {
			t.Fatalf("%s: no remap row produced", key)
		}
		if c.remap < c.bestStatic {
			t.Fatalf("%s: remap balance %.3f regresses below best static heuristic %.3f",
				key, c.remap, c.bestStatic)
		}
	}
}
