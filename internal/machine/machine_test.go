package machine

import (
	"math"
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/domains"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

func setup(t *testing.T, m *sparse.Matrix, method ord.Method, gridDim, b int) (*symbolic.Structure, *blocks.Structure) {
	t.Helper()
	p, err := ord.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, st, err := symbolic.AnalyzeOrdering(m, p, symbolic.DefaultAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blocks.Build(st, blocks.NewPartition(st, b))
	if err != nil {
		t.Fatal(err)
	}
	return st, bs
}

func program(t *testing.T, g mapping.Grid, useDomains bool) (*sched.Program, *blocks.Structure) {
	t.Helper()
	st, bs := setup(t, gen.IrregularMesh(300, 5, 3, 21), ord.MinDegree, 0, 8)
	a := sched.Assignment{Map: mapping.Cyclic(g, bs.N())}
	if useDomains {
		a.Dom = domains.Select(st, bs, g.P(), 2)
	}
	return sched.Build(bs, a), bs
}

func TestSingleProcessorMatchesSeqTime(t *testing.T) {
	pr, _ := program(t, mapping.Grid{Pr: 1, Pc: 1}, false)
	res := MustSimulate(pr, Paragon())
	// With one processor there is no communication; the makespan must be
	// exactly the analytic sequential time.
	if res.Messages != 0 {
		t.Fatalf("P=1 sent %d messages", res.Messages)
	}
	if math.Abs(res.Time-res.SeqTime) > 1e-9*res.SeqTime {
		t.Fatalf("P=1 time %g != seq %g", res.Time, res.SeqTime)
	}
	if e := res.Efficiency(); math.Abs(e-1) > 1e-9 {
		t.Fatalf("P=1 efficiency %g", e)
	}
}

func TestFlopConservation(t *testing.T) {
	for _, p := range []mapping.Grid{{Pr: 1, Pc: 1}, {Pr: 2, Pc: 3}, {Pr: 4, Pc: 4}} {
		pr, bs := program(t, p, false)
		res := MustSimulate(pr, Paragon())
		var total int64
		for _, f := range res.Flops {
			total += f
		}
		if total != bs.TotalFlops {
			t.Fatalf("grid %v: executed %d flops, want %d", p, total, bs.TotalFlops)
		}
	}
}

func TestParallelFasterButBounded(t *testing.T) {
	pr1, _ := program(t, mapping.Grid{Pr: 1, Pc: 1}, false)
	seq := MustSimulate(pr1, Paragon()).Time
	pr, _ := program(t, mapping.Grid{Pr: 4, Pc: 4}, false)
	res := MustSimulate(pr, Paragon())
	if res.Time >= seq {
		t.Fatalf("16 processors not faster than 1: %g vs %g", res.Time, seq)
	}
	// Speedup cannot exceed P.
	if seq/res.Time > 16.0001 {
		t.Fatalf("speedup %g exceeds processor count", seq/res.Time)
	}
	if e := res.Efficiency(); e <= 0 || e > 1.0001 {
		t.Fatalf("efficiency %g out of range", e)
	}
}

func TestDeterministic(t *testing.T) {
	pr, _ := program(t, mapping.Grid{Pr: 3, Pc: 3}, true)
	a := MustSimulate(pr, Paragon())
	b := MustSimulate(pr, Paragon())
	if a.Time != b.Time || a.Messages != b.Messages || a.Bytes != b.Bytes {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestMessagesMatchProgram(t *testing.T) {
	pr, _ := program(t, mapping.Grid{Pr: 3, Pc: 3}, false)
	res := MustSimulate(pr, Paragon())
	if res.Messages != pr.TotalMessages || res.Bytes != pr.TotalBytes {
		t.Fatalf("sim traffic %d/%d, program %d/%d",
			res.Messages, res.Bytes, pr.TotalMessages, pr.TotalBytes)
	}
}

// TestSpanAccountingMatchesTotals holds the collected trace to the
// result's totals: every span lies within [0, makespan], and each
// processor's spans sum to its CompTime+CommTime.
func TestSpanAccountingMatchesTotals(t *testing.T) {
	pr, _ := program(t, mapping.Grid{Pr: 2, Pc: 2}, true)
	cfg := Paragon()
	cfg.CollectTrace = true
	res := MustSimulate(pr, cfg)
	if len(res.Spans) == 0 {
		t.Fatal("no spans collected")
	}
	sum := make([]float64, len(res.CompTime))
	for _, s := range res.Spans {
		if s.Start < 0 || s.End < s.Start || s.End > res.Time+1e-12 {
			t.Fatalf("span %+v outside [0, %g] or backwards", s, res.Time)
		}
		sum[s.Proc] += s.End - s.Start
	}
	for p := range sum {
		if want := res.CompTime[p] + res.CommTime[p]; math.Abs(sum[p]-want) > 1e-9 {
			t.Fatalf("proc %d span total %g != busy %g", p, sum[p], want)
		}
	}
}

func TestDomainsImproveRuntimeOnGrid(t *testing.T) {
	st, bs := setup(t, gen.Grid2D(24), ord.NDGrid2D, 24, 4)
	g := mapping.Grid{Pr: 4, Pc: 4}
	m := mapping.Cyclic(g, bs.N())
	plain := MustSimulate(sched.Build(bs, sched.Assignment{Map: m}), Paragon())
	dom := MustSimulate(sched.Build(bs, sched.Assignment{
		Map: m, Dom: domains.Select(st, bs, g.P(), 2),
	}), Paragon())
	if dom.Time >= plain.Time*1.05 {
		t.Fatalf("domains slowed the run: %g vs %g", dom.Time, plain.Time)
	}
}

func TestFasterMachineRunsFaster(t *testing.T) {
	pr, _ := program(t, mapping.Grid{Pr: 3, Pc: 3}, false)
	slow := Paragon()
	fast := Paragon()
	fast.FlopRate *= 4
	fast.OpOverhead /= 4
	rs := MustSimulate(pr, slow)
	rf := MustSimulate(pr, fast)
	if rf.Time >= rs.Time {
		t.Fatalf("4x machine not faster: %g vs %g", rf.Time, rs.Time)
	}
}

func TestZeroCommConfigBeatsExpensiveComm(t *testing.T) {
	pr, _ := program(t, mapping.Grid{Pr: 4, Pc: 4}, false)
	free := Paragon()
	free.Latency, free.Bandwidth = 0, math.Inf(1)
	free.SendOverhead, free.RecvOverhead = 0, 0
	costly := Paragon()
	costly.Latency *= 100
	costly.SendOverhead *= 100
	costly.RecvOverhead *= 100
	rf := MustSimulate(pr, free)
	rc := MustSimulate(pr, costly)
	if rf.Time >= rc.Time {
		t.Fatalf("free communication not faster: %g vs %g", rf.Time, rc.Time)
	}
	for p, c := range rf.CommTime {
		if c != 0 {
			t.Fatalf("proc %d charged %g comm time under free model", p, c)
		}
	}
}

// TestBreakdown pins the machine-wide split on a hand-built two-processor
// result (P0 busy 0.5 + 0.1 comm, P1 0.8 of a 1 s makespan), and the
// all-zero split of an empty one.
func TestBreakdown(t *testing.T) {
	res := Result{Time: 1, CompTime: []float64{0.5, 0.8}, CommTime: []float64{0.1, 0}}
	comp, comm, idle := res.Breakdown()
	if math.Abs(comp-0.65) > 1e-12 || math.Abs(comm-0.05) > 1e-12 || math.Abs(idle-0.30) > 1e-12 {
		t.Fatalf("breakdown %g/%g/%g, want 0.65/0.05/0.30", comp, comm, idle)
	}
	empty := Result{CompTime: make([]float64, 2), CommTime: make([]float64, 2)}
	if comp, comm, idle := empty.Breakdown(); comp != 0 || comm != 0 || idle != 0 {
		t.Fatalf("empty result breakdown %g/%g/%g", comp, comm, idle)
	}
}

func TestMflopsAndCommFraction(t *testing.T) {
	pr, bs := program(t, mapping.Grid{Pr: 3, Pc: 3}, false)
	res := MustSimulate(pr, Paragon())
	mf := res.Mflops(bs.TotalFlops)
	if mf <= 0 {
		t.Fatal("Mflops not positive")
	}
	// Mflops against the blocked count is bounded by P·rate.
	if mf > 9*Paragon().FlopRate/1e6+1e-9 {
		t.Fatalf("Mflops %g exceeds machine capability", mf)
	}
	cf := res.CommFraction()
	if cf < 0 || cf > 1 {
		t.Fatalf("comm fraction %g", cf)
	}
}

func TestParagonDefaults(t *testing.T) {
	cfg := Paragon()
	if cfg.Latency != 50e-6 {
		t.Fatalf("latency %g, want the paper's 50µs", cfg.Latency)
	}
	if cfg.Bandwidth != 40e6 {
		t.Fatalf("bandwidth %g, want the paper's effective 40MB/s", cfg.Bandwidth)
	}
	// Fixed op cost equals 1000 flops at the machine's rate, matching the
	// balance work measure.
	if math.Abs(cfg.OpOverhead*cfg.FlopRate-1000) > 1e-9 {
		t.Fatalf("op overhead %g inconsistent with work measure", cfg.OpOverhead)
	}
}

func TestMeshTopologySlowsDistantTraffic(t *testing.T) {
	pr, _ := program(t, mapping.Grid{Pr: 4, Pc: 4}, false)
	flat := Paragon()
	mesh := Paragon()
	mesh.MeshDims = [2]int{4, 4}
	mesh.HopLatency = 20e-6 // exaggerated per-hop cost to make it visible
	rf := MustSimulate(pr, flat)
	rm := MustSimulate(pr, mesh)
	if rm.Time <= rf.Time {
		t.Fatalf("mesh with hop latency not slower: %g vs %g", rm.Time, rf.Time)
	}
	// Zero hop latency must be byte-identical to the flat network.
	mesh.HopLatency = 0
	rz := MustSimulate(pr, mesh)
	if rz.Time != rf.Time {
		t.Fatalf("zero hop latency changed result: %g vs %g", rz.Time, rf.Time)
	}
}
