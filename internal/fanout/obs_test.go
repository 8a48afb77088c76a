package fanout

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
	"blockfanout/internal/obs"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sched"
)

// TestRecorderTrace runs an instrumented parallel factorization under
// each placement (race-tested in CI) and checks both the span
// accounting — exactly one completing op per block, exactly one BMOD per
// scheduled modification — and that the exported file is valid Chrome
// trace-event JSON. Exact accounting needs the drop-free measure
// recorder: NewRecorder's lanes are fixed-capacity and may legitimately
// shed spans when stealing piles work onto one lane.
func TestRecorderTrace(t *testing.T) {
	_, bs, pm := setup(t, gen.IrregularMesh(250, 5, 3, 31), ord.MinDegree, 0, 8)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
	for _, mode := range []Mode{ModeWorkStealing, ModeSPMD} {
		t.Run(mode.String(), func(t *testing.T) {
			f, err := numeric.New(bs, pm)
			if err != nil {
				t.Fatal(err)
			}
			ex := NewExecutorMode(f, pr, mode)
			rec := ex.NewMeasureRecorder()
			rec.Enable()
			if _, err := ex.Run(); err != nil {
				t.Fatal(err)
			}
			if rec.Dropped() != 0 {
				t.Fatalf("measure recorder dropped %d spans", rec.Dropped())
			}

			var mods int32
			for _, nm := range pr.NMods {
				mods += nm
			}
			var bfacdiv, bmod int32
			for _, s := range rec.Spans() {
				if s.End < s.Start {
					t.Fatalf("backwards span %+v", s)
				}
				switch s.Op {
				case obs.OpBFAC, obs.OpBDIV:
					if s.Block < 0 || int(s.Block) >= pr.NBlocks {
						t.Fatalf("span block %d out of range", s.Block)
					}
					bfacdiv++
				case obs.OpBMOD:
					if s.Block < 0 || int(s.Block) >= pr.NBlocks {
						t.Fatalf("span block %d out of range", s.Block)
					}
					bmod++
				case obs.OpSteal:
					// Block is the stolen destination, Src the victim worker.
					if s.Block < 0 || int(s.Block) >= pr.NBlocks {
						t.Fatalf("steal span block %d out of range", s.Block)
					}
					if s.Src < 0 || int(s.Src) >= pr.NProc || s.Src == s.Proc {
						t.Fatalf("steal span victim %d invalid (thief %d)", s.Src, s.Proc)
					}
				case obs.OpIdle:
					if s.Block != -1 || s.Src != -1 {
						t.Fatalf("idle span carries block/src %d/%d", s.Block, s.Src)
					}
				default:
					t.Fatalf("unknown span op %v", s.Op)
				}
			}
			if int(bfacdiv) != pr.NBlocks {
				t.Fatalf("recorded %d BFAC/BDIV spans for %d blocks", bfacdiv, pr.NBlocks)
			}
			if bmod != mods {
				t.Fatalf("recorded %d BMOD spans for %d scheduled modifications", bmod, mods)
			}

			var buf bytes.Buffer
			if err := rec.WriteTrace(&buf, "fanout test"); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("trace does not parse: %v", err)
			}
			if len(doc.TraceEvents) < int(bfacdiv+bmod) {
				t.Fatalf("trace has %d events for %d spans", len(doc.TraceEvents), bfacdiv+bmod)
			}
			for i, ev := range doc.TraceEvents {
				for _, key := range []string{"ph", "ts", "pid", "tid"} {
					if _, ok := ev[key]; !ok {
						t.Fatalf("event %d missing %q: %v", i, key, ev)
					}
				}
			}

			// A second run on the reset recorder must reproduce the same per-kind
			// op counts (steal/idle spans depend on scheduling and may differ):
			// the instrumented executor stays reusable.
			rec.Reset()
			if err := f.Reload(pm.Val); err != nil {
				t.Fatal(err)
			}
			if _, err := ex.Run(); err != nil {
				t.Fatal(err)
			}
			var bfacdiv2, bmod2 int32
			for _, s := range rec.Spans() {
				switch s.Op {
				case obs.OpBFAC, obs.OpBDIV:
					bfacdiv2++
				case obs.OpBMOD:
					bmod2++
				}
			}
			if bfacdiv2 != bfacdiv || bmod2 != bmod {
				t.Fatalf("second run recorded %d/%d op spans, want %d/%d", bfacdiv2, bmod2, bfacdiv, bmod)
			}
		})
	}
}

// TestRecorderDisabledAllocs extends the steady-state allocation guarantee
// to the instrumented executor: with a recorder attached but disabled, a
// full reload-and-refactor cycle stays within the same per-run control-
// state budget as the uninstrumented path — the gate adds zero
// allocations.
func TestRecorderDisabledAllocs(t *testing.T) {
	_, bs, pm := setup(t, gen.IrregularMesh(250, 5, 3, 31), ord.MinDegree, 0, 8)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 1, Pc: 1}, bs.N())})
	f, err := numeric.New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f, pr)
	ex.NewRecorder() // attached, never enabled

	const runs = 5
	avg := testing.AllocsPerRun(runs, func() {
		if err := f.Reload(pm.Val); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Run(); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 24 // same as TestExecutorSteadyStateAllocs
	if avg > budget {
		t.Fatalf("disabled-recorder run averaged %.1f allocations; want ≤ %d", avg, budget)
	}
}

// TestRecorderDisabledOverhead is the CI overhead gate: it measures the
// refactorization benchmark with no recorder and with an attached-but-
// disabled recorder and fails if the gated path costs more than 2%.
// Timing comparisons are noisy on shared runners, so the check only runs
// when OBS_OVERHEAD_CHECK=1 (the dedicated CI step sets it); the
// allocation half of the guarantee is covered unconditionally above.
func TestRecorderDisabledOverhead(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_CHECK") != "1" {
		t.Skip("set OBS_OVERHEAD_CHECK=1 to run the timing comparison")
	}
	// A 1×1 grid runs every block operation on one goroutine: the gate's
	// per-operation cost is measured directly, without goroutine-scheduling
	// variance swamping the 2% budget.
	_, bs, pm := setup(t, gen.IrregularMesh(600, 7, 3, 57), ord.MinDegree, 0, 16)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 1, Pc: 1}, bs.N())})
	f, err := numeric.New(bs, pm)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f, pr)

	cycle := func() {
		if err := f.Reload(pm.Val); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Calibrate a ~5ms measurement slice from the fastest of a few cycles
	// (one preempted cycle would shrink every slice), then time many pairs
	// of adjacent slices, one per variant in alternating order, and gate
	// on the median of the per-pair ratios. A slow stretch of a shared
	// host longer than a pair lands on both halves and cancels in its
	// ratio, the median ignores the pairs a preemption split, and short
	// slices buy enough pairs for the median to settle well inside 2%.
	cycle()
	per := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		cycle()
		per = min(per, time.Since(t0))
	}
	n := int(5*time.Millisecond/per) + 1
	slice := func(attach bool) float64 {
		if attach {
			ex.NewRecorder()
		} else {
			ex.SetRecorder(nil)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			cycle()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	ratios := make([]float64, 120)
	for p := range ratios {
		var base, gated float64
		if p%2 == 0 {
			gated, base = slice(true), slice(false)
		} else {
			base, gated = slice(false), slice(true)
		}
		ratios[p] = gated / base
	}
	sort.Float64s(ratios)
	ratio := (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	t.Logf("disabled recorder / baseline: median ratio %.4f over %d pairs (range %.4f–%.4f)",
		ratio, len(ratios), ratios[0], ratios[len(ratios)-1])
	if ratio > 1.02 {
		t.Fatalf("disabled recorder costs %.2f%% (> 2%%)", (ratio-1)*100)
	}
}

// BenchmarkFanoutRecorder quantifies the instrumentation cost next to
// BenchmarkExecutorRefactor: none (no recorder), gated (attached,
// disabled), recording (enabled, reset between runs).
func BenchmarkFanoutRecorder(b *testing.B) {
	_, bs, pm := setup(b, gen.IrregularMesh(600, 7, 3, 57), ord.MinDegree, 0, 16)
	pr := sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
	f, err := numeric.New(bs, pm)
	if err != nil {
		b.Fatal(err)
	}
	ex := NewExecutor(f, pr)
	flops := bs.TotalFlops
	for _, mode := range []string{"none", "gated", "recording"} {
		b.Run(mode, func(b *testing.B) {
			var rec *obs.Recorder
			switch mode {
			case "none":
				ex.SetRecorder(nil)
			case "gated":
				ex.NewRecorder()
			case "recording":
				rec = ex.NewRecorder()
				rec.Enable()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec != nil {
					rec.Reset()
				}
				if err := f.Reload(pm.Val); err != nil {
					b.Fatal(err)
				}
				if _, err := ex.Run(); err != nil {
					b.Fatal(err)
				}
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(flops)*float64(b.N)/sec/1e9, "GFlop/s")
			}
		})
	}
}
