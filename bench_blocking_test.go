package blockfanout

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"blockfanout/internal/blocks"
	"blockfanout/internal/experiments"
	"blockfanout/internal/fanout"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
	"blockfanout/internal/sched"
)

// blockingDelta is one row of bench-blocking.json, the CI artifact
// comparing the irregular blocking against uniform at equal processor
// count.
type blockingDelta struct {
	Problem      string  `json:"problem"`
	Procs        int     `json:"procs"`
	UniformSec   float64 `json:"uniform_seconds"`
	IrregularSec float64 `json:"irregular_seconds"`
	// Ratio is the median over paired slices of irregular/uniform wall
	// time: <1 means the irregular blocking is faster end-to-end. The two
	// Sec fields are each variant's median per-cycle time.
	Ratio float64 `json:"ratio"`
}

// TestBlockingRegressionGate is the CI gate for the structure-aware
// irregular blocking: on the BCSSTK31-class generator it measures
// end-to-end factorization wall time under the work-stealing executor with
// uniform and irregular partitions at 8 and 16 processors, writes the
// deltas to bench-blocking.json (uploaded as a CI artifact), and fails if
// irregular regresses by more than 5%. Timing runs are meaningless on a
// loaded machine, so the gate is opt-in:
//
//	BENCH_BLOCKING_CHECK=1 go test -run BlockingRegressionGate -count=1 .
//
// Measurement is the paired median of the other overhead gates: many pairs
// of adjacent ~10 ms slices, one per variant in alternating order, gated
// on the median of the per-pair ratios. A slow stretch of a shared host
// longer than a pair lands on both halves and cancels in its ratio, and
// the median ignores the pairs a preemption split.
func TestBlockingRegressionGate(t *testing.T) {
	if os.Getenv("BENCH_BLOCKING_CHECK") == "" {
		t.Skip("set BENCH_BLOCKING_CHECK=1 to run the blocking regression gate")
	}
	const problem = "BCSSTK31"
	p, ok := gen.ByName(gen.Table1Suite(gen.ScaleCI), problem)
	if !ok {
		t.Fatal("suite problem missing: " + problem)
	}
	uni, err := experiments.PlanForBlocking(p, gen.ScaleCI, 16, blocks.StrategyUniform, 0)
	if err != nil {
		t.Fatal(err)
	}
	irr, err := experiments.PlanForBlocking(p, gen.ScaleCI, 16, blocks.StrategyIrregular, 0.125)
	if err != nil {
		t.Fatal(err)
	}

	// makeSlice returns a timer of one slice of the variant's refactor
	// cycles, sized from its fastest of a few cycles to about 10 ms.
	makeSlice := func(pr *sched.Program, f *numeric.Factor, vals []float64) func() float64 {
		ex := fanout.NewExecutor(f, pr)
		cycle := func() {
			if err := f.Reload(vals); err != nil {
				t.Fatal(err)
			}
			if _, err := ex.Run(); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		per := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			cycle()
			per = min(per, time.Since(t0))
		}
		n := int(10*time.Millisecond/per) + 1
		return func() float64 {
			start := time.Now()
			for i := 0; i < n; i++ {
				cycle()
			}
			return time.Since(start).Seconds() / float64(n)
		}
	}
	median := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
	}

	var deltas []blockingDelta
	for _, g := range []mapping.Grid{{Pr: 2, Pc: 4}, {Pr: 4, Pc: 4}} {
		uniF, err := numeric.New(uni.BS, uni.PA)
		if err != nil {
			t.Fatal(err)
		}
		irrF, err := numeric.New(irr.BS, irr.PA)
		if err != nil {
			t.Fatal(err)
		}
		uniSlice := makeSlice(sched.Build(uni.BS, uni.Assign(uni.Map(g, mapping.ID, mapping.CY), 2)), uniF, uni.PA.Val)
		irrSlice := makeSlice(sched.Build(irr.BS, irr.Assign(irr.Map(g, mapping.ID, mapping.CY), 2)), irrF, irr.PA.Val)
		const pairs = 60
		var uniSec, irrSec, ratios []float64
		for pair := 0; pair < pairs; pair++ {
			var u, i float64
			if pair%2 == 0 {
				u, i = uniSlice(), irrSlice()
			} else {
				i, u = irrSlice(), uniSlice()
			}
			uniSec, irrSec, ratios = append(uniSec, u), append(irrSec, i), append(ratios, i/u)
		}
		deltas = append(deltas, blockingDelta{
			Problem:      problem,
			Procs:        g.P(),
			UniformSec:   median(uniSec),
			IrregularSec: median(irrSec),
			Ratio:        median(ratios),
		})
	}

	data, err := json.MarshalIndent(deltas, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("bench-blocking.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		t.Logf("P=%d: uniform %.4fs, irregular %.4fs, median paired ratio %.3f", d.Procs, d.UniformSec, d.IrregularSec, d.Ratio)
		if d.Ratio > 1.05 {
			t.Fatalf("irregular blocking regresses %.1f%% vs uniform at P=%d (budget 5%%)", (d.Ratio-1)*100, d.Procs)
		}
	}
}
