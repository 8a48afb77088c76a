// Package benchjson measures the library's kernel and end-to-end
// performance and serializes the result as a machine-readable report
// (BENCH_kernels.json at the repo root). The numbers answer the paper's
// recurring question — what fraction of the machine rate does the
// factorization achieve? — for this implementation: the per-kernel GFlop/s
// rows are the "machine rate" of the tiled block operations, and the fan-out
// row is the achieved end-to-end rate at CI scale.
package benchjson

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"blockfanout/internal/blocks"
	"blockfanout/internal/core"
	"blockfanout/internal/experiments"
	"blockfanout/internal/fanout"
	"blockfanout/internal/gen"
	"blockfanout/internal/kernels"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
	"blockfanout/internal/sched"
)

// KernelRow is one (kernel, block width) throughput measurement.
type KernelRow struct {
	Kernel string  `json:"kernel"`
	Width  int     `json:"w"`
	GFlops float64 `json:"gflops"`
	// SpeedupVsNaive is tiled/naive throughput at the same width; zero for
	// the naive reference rows themselves.
	SpeedupVsNaive float64 `json:"speedup_vs_naive,omitempty"`
}

// FanoutRow is one end-to-end parallel factorization measurement.
type FanoutRow struct {
	Problem string `json:"problem"`
	Procs   int    `json:"procs"`
	// Exec is the parallel engine: "spmd" (the paper's one-goroutine-per-
	// virtual-processor loop) or "steal" (the work-stealing executor).
	Exec string `json:"exec"`
	// Blocking is the partitioning strategy the plan was built with.
	Blocking string  `json:"blocking"`
	Seconds  float64 `json:"seconds"`
	GFlops   float64 `json:"gflops"`
}

// RemapRow is one row of the feedback-driven remapping comparison: a real
// measured factorization of an irregular problem under one mapping (every
// static heuristic plus remap-after-measure), verified against the
// sequential reference. See internal/experiments.RemapRows.
type RemapRow struct {
	Problem string `json:"problem"`
	Procs   int    `json:"procs"`
	// Map is the mapping label: "ID/CY", "CY/CY", …, or "remap" for the
	// mapping rebuilt from the serve run's measured span costs.
	Map string `json:"map"`
	// Balance is the run's measured execution balance (per-processor busy
	// time, total/(P·max)); Predicted is the ownership balance this
	// mapping achieves over the measured cost profile — the tuner's
	// objective.
	Balance   float64 `json:"balance"`
	Predicted float64 `json:"predicted"`
	// Seconds is the factorization's measured compute window (first span
	// start to last span end of the fastest rep).
	Seconds float64 `json:"seconds"`
}

// Report is the full BENCH_kernels.json document.
type Report struct {
	Host string `json:"host"`
	// FMA records whether the AVX2+FMA micro-kernel was active; the
	// MulSubPortable rows measure the register-tiled Go fallback either way.
	FMA     bool        `json:"fma"`
	Scale   string      `json:"scale"`
	Kernels []KernelRow `json:"kernels"`
	Fanout  []FanoutRow `json:"fanout"`
	Remap   []RemapRow  `json:"remap"`
}

// Widths are the block sizes the partitioner actually produces; they match
// the kernel micro-benchmarks in internal/kernels.
var Widths = []int{8, 16, 24, 32, 48, 64}

const benchRows = 64

// timeLoop runs fn until minTime has elapsed (after one warmup call) and
// returns throughput in GFlop/s.
func timeLoop(minTime time.Duration, flopsPerIter int64, fn func()) float64 {
	fn()
	var iters int64
	start := time.Now()
	for time.Since(start) < minTime {
		fn()
		iters++
	}
	sec := time.Since(start).Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(flopsPerIter) * float64(iters) / sec / 1e9
}

func blockOperands(w, r int) (a, b, c []float64, rel []int) {
	a = make([]float64, r*w)
	b = make([]float64, r*w)
	c = make([]float64, r*r)
	for i := range a {
		a[i] = float64(i%7) - 3
		b[i] = float64(i%11) - 5
	}
	rel = make([]int, r)
	for i := range rel {
		rel[i] = i
	}
	return
}

func spd(w int, shift float64) []float64 {
	a := make([]float64, w*w)
	for i := 0; i < w; i++ {
		for j := 0; j <= i; j++ {
			v := 1 / (1 + float64(i-j))
			a[i*w+j] = v
			a[j*w+i] = v
		}
		a[i*w+i] += float64(w) + shift
	}
	return a
}

// collectKernels measures every tiled kernel and its retained naive
// reference across Widths.
func collectKernels(minTime time.Duration) []KernelRow {
	var rows []KernelRow
	r := benchRows
	for _, w := range Widths {
		a, b, c, rel := blockOperands(w, r)
		mulFlops := int64(2 * r * r * w)
		tiled := timeLoop(minTime, mulFlops, func() {
			kernels.MulSub(c, r, a, r, b, r, w, rel, rel, false, nil, nil)
		})
		naive := timeLoop(minTime, mulFlops, func() {
			kernels.MulSubNaive(c, r, a, r, b, r, w, rel, rel, false, nil, nil)
		})
		scattered := timeLoop(minTime, mulFlops, func() {
			kernels.MulSubScattered(c, r, a, r, b, r, w, rel, rel)
		})
		rows = append(rows,
			KernelRow{Kernel: "MulSub", Width: w, GFlops: tiled, SpeedupVsNaive: tiled / naive},
			KernelRow{Kernel: "MulSubScattered", Width: w, GFlops: scattered, SpeedupVsNaive: scattered / naive},
			KernelRow{Kernel: "MulSubNaive", Width: w, GFlops: naive},
		)
		if kernels.HasFMA() {
			kernels.SetFMA(false)
			portable := timeLoop(minTime, mulFlops, func() {
				kernels.MulSub(c, r, a, r, b, r, w, rel, rel, false, nil, nil)
			})
			kernels.SetFMA(true)
			rows = append(rows, KernelRow{Kernel: "MulSubPortable", Width: w, GFlops: portable, SpeedupVsNaive: portable / naive})
		}

		src := spd(w, 2)
		dst := make([]float64, w*w)
		cholFlops := int64(w) * int64(w) * int64(w) / 3
		chol := timeLoop(minTime, cholFlops, func() {
			copy(dst, src)
			if err := kernels.Cholesky(dst, w); err != nil {
				panic(err)
			}
		})
		cholNaive := timeLoop(minTime, cholFlops, func() {
			copy(dst, src)
			if err := kernels.CholeskyNaive(dst, w); err != nil {
				panic(err)
			}
		})
		rows = append(rows,
			KernelRow{Kernel: "Cholesky", Width: w, GFlops: chol, SpeedupVsNaive: chol / cholNaive},
			KernelRow{Kernel: "CholeskyNaive", Width: w, GFlops: cholNaive},
		)

		l := spd(w, 1)
		if err := kernels.Cholesky(l, w); err != nil {
			panic(err)
		}
		x := make([]float64, r*w)
		work := make([]float64, r*w)
		for i := range x {
			x[i] = float64(i%13) - 6
		}
		slvFlops := int64(r) * int64(w) * int64(w)
		slv := timeLoop(minTime, slvFlops, func() {
			copy(work, x)
			if err := kernels.SolveRight(work, r, l, w); err != nil {
				panic(err)
			}
		})
		slvNaive := timeLoop(minTime, slvFlops, func() {
			copy(work, x)
			if err := kernels.SolveRightNaive(work, r, l, w); err != nil {
				panic(err)
			}
		})
		rows = append(rows,
			KernelRow{Kernel: "SolveRight", Width: w, GFlops: slv, SpeedupVsNaive: slv / slvNaive},
			KernelRow{Kernel: "SolveRightNaive", Width: w, GFlops: slvNaive},
		)
	}
	return rows
}

// verifyAgainstSequential factors the plan once with the given engine and
// checks every stored entry against the sequential reference to 1e-12
// relative — the refactorization acceptance tolerance. The benchmark rows
// only mean something if the measured runs compute the right factor.
func verifyAgainstSequential(plan *core.Plan, pr *sched.Program, mode fanout.Mode) error {
	seq, err := numeric.New(plan.BS, plan.PA)
	if err != nil {
		return err
	}
	if err := seq.FactorSequential(); err != nil {
		return err
	}
	par, err := numeric.New(plan.BS, plan.PA)
	if err != nil {
		return err
	}
	if _, err := fanout.NewExecutorMode(par, pr, mode).Run(); err != nil {
		return err
	}
	for j := range seq.Data {
		for bi := range seq.Data[j] {
			for k, v := range seq.Data[j][bi] {
				if w := par.Data[j][bi][k]; math.Abs(v-w) > 1e-12*(1+math.Abs(v)) {
					return fmt.Errorf("benchjson: parallel factor diverges from reference at column %d block %d entry %d: %g vs %g", j, bi, k, w, v)
				}
			}
		}
	}
	return nil
}

// FanoutVariants are the engine × blocking configurations the end-to-end
// rows cover: the paper's baseline (uniform panels, SPMD placement), the
// work-stealing executor on the same blocks, and the structure-aware
// irregular blocking it was built for.
var FanoutVariants = []struct {
	Exec     string
	Mode     fanout.Mode
	Blocking blocks.Strategy
	Amalg    float64
}{
	{Exec: "spmd", Mode: fanout.ModeSPMD, Blocking: blocks.StrategyUniform},
	{Exec: "steal", Mode: fanout.ModeWorkStealing, Blocking: blocks.StrategyUniform},
	{Exec: "steal", Mode: fanout.ModeWorkStealing, Blocking: blocks.StrategyIrregular, Amalg: 0.125},
}

// collectFanout times complete parallel factorizations of the CI-scale
// BCSSTK31 stand-in across processor grids for every executor × blocking
// variant, verifying each variant's factor against the sequential
// reference before timing it.
func collectFanout(minRuns int) ([]FanoutRow, error) {
	const problem = "BCSSTK31"
	p, ok := gen.ByName(gen.Table1Suite(gen.ScaleCI), problem)
	if !ok {
		panic("suite problem missing: " + problem)
	}
	var rows []FanoutRow
	for _, v := range FanoutVariants {
		plan, err := experiments.PlanForBlocking(p, gen.ScaleCI, 16, v.Blocking, v.Amalg)
		if err != nil {
			return nil, err
		}
		for _, g := range []mapping.Grid{{Pr: 1, Pc: 1}, {Pr: 2, Pc: 2}, {Pr: 2, Pc: 4}, {Pr: 4, Pc: 4}} {
			pr := sched.Build(plan.BS, plan.Assign(plan.Map(g, mapping.ID, mapping.CY), 2))
			if err := verifyAgainstSequential(plan, pr, v.Mode); err != nil {
				return nil, err
			}
			f, err := numeric.New(plan.BS, plan.PA)
			if err != nil {
				return nil, err
			}
			ex := fanout.NewExecutorMode(f, pr, v.Mode)
			best := 0.0
			for run := 0; run < minRuns; run++ {
				if err := f.Reload(plan.PA.Val); err != nil {
					return nil, err
				}
				start := time.Now()
				if _, err := ex.Run(); err != nil {
					return nil, err
				}
				sec := time.Since(start).Seconds()
				if best == 0 || sec < best {
					best = sec
				}
			}
			rows = append(rows, FanoutRow{
				Problem:  problem,
				Procs:    g.P(),
				Exec:     v.Exec,
				Blocking: v.Blocking.String(),
				Seconds:  best,
				GFlops:   float64(plan.BS.TotalFlops) / best / 1e9,
			})
		}
	}
	return rows, nil
}

// collectRemap runs the feedback-driven remapping comparison at CI scale
// and converts its rows for the report.
func collectRemap() ([]RemapRow, error) {
	res, err := experiments.RemapRows(experiments.Default(gen.ScaleCI), experiments.RemapProcs)
	if err != nil {
		return nil, err
	}
	rows := make([]RemapRow, 0, len(res))
	for _, r := range res {
		rows = append(rows, RemapRow{
			Problem:   r.Problem,
			Procs:     r.Procs,
			Map:       r.Map,
			Balance:   r.Balance,
			Predicted: r.Predicted,
			Seconds:   r.Seconds,
		})
	}
	return rows, nil
}

// Collect measures everything and assembles the report. minTime bounds the
// per-kernel measurement window.
func Collect(minTime time.Duration) (*Report, error) {
	host, _ := os.Hostname()
	fan, err := collectFanout(5)
	if err != nil {
		return nil, err
	}
	remap, err := collectRemap()
	if err != nil {
		return nil, err
	}
	return &Report{
		Host:    host,
		FMA:     kernels.HasFMA(),
		Scale:   "ci",
		Kernels: collectKernels(minTime),
		Fanout:  fan,
		Remap:   remap,
	}, nil
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
