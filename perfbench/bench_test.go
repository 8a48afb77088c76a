package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
)

func TestSameSeedSameBodies(t *testing.T) {
	build := func(seed uint64) cycleInputs {
		w := &serviceWorkload{seed: seed, hotN: 300, coldN: 200}
		w.generate()
		in, err := w.inputs(3)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := build(7), build(7), build(8)
	if !bytes.Equal(a.coldBody, b.coldBody) || !bytes.Equal(a.hotBody, b.hotBody) {
		t.Fatal("one seed produced different factor bodies")
	}
	for s := range a.solveBody {
		if !bytes.Equal(a.solveBody[s], b.solveBody[s]) {
			t.Fatalf("one seed produced different solve body %d", s)
		}
	}
	if bytes.Equal(a.hotBody, c.hotBody) || bytes.Equal(a.coldBody, c.coldBody) || bytes.Equal(a.solveBody[0], c.solveBody[0]) {
		t.Fatal("different seeds produced identical bodies")
	}

	cube := &cubeWorkload{k: 6, procs: 2, seed: 7}
	cube.a = gen.Cube3D(cube.k)
	v1, v2 := cube.values(5), cube.values(5)
	r1, r2 := cube.rhs(5), cube.rhs(5)
	for i := range v1 {
		if math.Float64bits(v1[i]) != math.Float64bits(v2[i]) {
			t.Fatal("one seed produced different cube values")
		}
	}
	for i := range r1 {
		if math.Float64bits(r1[i]) != math.Float64bits(r2[i]) {
			t.Fatal("one seed produced different cube right-hand sides")
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p90, err := percentile(xs, 0.9)
	if err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples above", p90, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 above it and must be refused")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

func TestResidualRejectsPerturbedSolution(t *testing.T) {
	a := gen.IrregularMesh(300, 8, 3, 1)
	a = withValues(a, spdValues(a, newRNG(1, streamValues, 0)))
	_, f, err := factorNew(a, a.Val, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, newRNG(1, streamRHS, 0))
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSolution(a, x, b); err != nil {
		t.Fatalf("exact solution rejected: %v", err)
	}
	bad := append([]float64(nil), x...)
	bad[17] *= 1 + 1e-6
	if err := checkSolution(a, bad, b); err == nil {
		t.Fatal("perturbed solution accepted")
	}
	bad[17] = math.NaN()
	if err := checkSolution(a, bad, b); err == nil {
		t.Fatal("NaN solution accepted")
	}
	// The residual is taken against the values the client last sent.
	other := withValues(a, spdValues(a, newRNG(2, streamValues, 0)))
	if err := checkSolution(other, x, b); err == nil {
		t.Fatal("solution checked against other values accepted")
	}
}

// benchmarkJSON reads the metric declarations of BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layers map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range doc.Workload {
		if _, _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("declared workload: %v", err)
		}
	}
	return e2e, layers
}

// TestPrintedMetricsAreDeclared runs every workload, untraced and traced,
// on small inputs and checks that the metrics printed are exactly those
// BENCHMARK.json declares, with the declared units.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := benchmarkJSON(t)
	for _, traced := range []bool{false, true} {
		want := e2e
		if traced {
			want = layers
		}
		for _, w := range []workload{
			&cubeWorkload{k: 10, procs: 2, seed: 1},
			&serviceWorkload{seed: 1, hotN: 300, coldN: 200},
			&serviceWorkload{seed: 1, hotN: 300, coldN: 200, cluster: true},
		} {
			res, err := measure(w, 14, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%T traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%T traced=%v printed %d metrics, BENCHMARK.json declares %d", w, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%T traced=%v printed %s [%s]; declared unit %q", w, traced, name, m.Unit, unit)
				}
			}
		}
	}
}

func TestCollectRejectsUndeclaredAndMissing(t *testing.T) {
	decls := []decl{{"a", "ms"}, {"b", "s"}}
	if _, err := collect(decls, map[string]float64{"a": 1}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := collect(decls, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("undeclared metric accepted")
	}
	if _, err := collect(decls, map[string]float64{"a": 1, "b": math.NaN()}); err == nil {
		t.Error("NaN metric accepted")
	}
	if _, err := collect(decls, map[string]float64{"a": 1, "b": 2}); err != nil {
		t.Error(err)
	}
}

func TestStealKeep(t *testing.T) {
	a := cpuStat{steal: 100, busy: 1000, ok: true}
	b := cpuStat{steal: 150, busy: 1200, ok: true}
	if k := stealKeep(a, b); math.Abs(k-0.75) > 1e-12 {
		t.Fatalf("50 of 200 busy ticks stolen: keep = %v, want 0.75", k)
	}
	if k := stealKeep(a, a); k != 1 {
		t.Fatalf("no busy ticks: keep = %v, want 1", k)
	}
	if k := stealKeep(cpuStat{}, b); k != 1 {
		t.Fatalf("unreadable /proc/stat: keep = %v, want 1", k)
	}
	if st := readCPUStat(); st.ok && st.steal > st.busy {
		t.Fatalf("steal %d exceeds busy %d", st.steal, st.busy)
	}
}
