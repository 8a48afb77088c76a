// Command perfbench is the repository's benchmark: it drives the library
// and the solve service as shipped, checks every result, and prints one
// JSON result line whose metrics are declared in BENCHMARK.json.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload factor_cube --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Workloads are factor_cube, serve_mix and cluster_mix; README.md says what
// each one measures and why.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median over them.
const setupReps = 7

// workload is one traffic mix. Every cycle sends one new-pattern
// factorization, one refactorization with new values and solvesPerCycle
// solves.
type workload interface {
	// setup builds inputs and the system under test and runs the first
	// factorization.
	setup() error
	// teardown stops everything setup started and waits for it.
	teardown()
	// cycle runs cycle i of the fixed operation sequence.
	cycle(i int, t *tally)
	// layers runs the traced probes after the timed loop and adds the
	// per-layer metrics to out; t holds the loop's samples.
	layers(t *tally, out map[string]float64) error
}

// solvesPerCycle is the solves per cycle: one factor serves many solves.
const solvesPerCycle = 8

// newWorkload returns the named workload and its nominal cycle time. A run
// replays a fixed number of cycles, --seconds over the nominal cycle time,
// so every run of a workload does the same work whatever the host's speed.
func newWorkload(name string, seed uint64) (workload, time.Duration, error) {
	switch name {
	case "factor_cube":
		return &cubeWorkload{k: 30, procs: 2, seed: seed}, 1200 * time.Millisecond, nil
	case "serve_mix":
		return &serviceWorkload{seed: seed, hotN: 2000, coldN: 1200}, 330 * time.Millisecond, nil
	case "cluster_mix":
		return &serviceWorkload{seed: seed, hotN: 2000, coldN: 1200, cluster: true}, 220 * time.Millisecond, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want factor_cube, serve_mix or cluster_mix)", name)
}

// Operation classes.
const (
	opCold     = "cold"
	opRefactor = "refactor"
	opSolve    = "solve"
)

// tally accumulates one run's operations.
type tally struct {
	samples   map[string][]float64 // op class → round-trip ms of successful ops
	attempted int
	failed    int
	busyMs    float64 // summed round trips of all operations
	errs      []string

	pending     []sample // the current cycle's successful ops
	pendingBusy float64
}

type sample struct {
	class string
	ms    float64
}

func newTally() *tally { return &tally{samples: make(map[string][]float64)} }

// op records one operation of the current cycle: its round trip and
// whether its result was correct.
func (t *tally) op(class string, d time.Duration, err error) {
	t.attempted++
	t.pendingBusy += ms(d)
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, fmt.Sprintf("%s: %v", class, err))
		}
		return
	}
	t.pending = append(t.pending, sample{class, ms(d)})
}

// endCycle commits the cycle's samples, scaled by keep (see stealKeep).
func (t *tally) endCycle(keep float64) {
	for _, s := range t.pending {
		t.samples[s.class] = append(t.samples[s.class], s.ms*keep)
	}
	t.busyMs += t.pendingBusy * keep
	t.pending, t.pendingBusy = t.pending[:0], 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run returns the exit code: 0 for a correct run, 1 when a result was
// printed but an operation failed, 2 when no result could be produced.
func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "factor_cube | serve_mix | cluster_mix")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 25, "nominal run length in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
		root    = fs.String("root", ".", "repository root, for the environment stamp")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	w, nominal, err := newWorkload(*name, *seed)
	if err != nil {
		return 2, err
	}
	env := stampEnv(*root, *name, *seed, *trace == 1)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	cycles := int(math.Ceil(float64(time.Duration(*seconds)*time.Second) / float64(nominal)))
	res, err := measure(w, cycles, *trace == 1)
	if err != nil {
		return 2, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, errors.New("run had failed or incorrect operations")
	}
	return 0, nil
}

// measure sets the workload up setupReps times, runs the timed cycles,
// and builds the result.
func measure(w workload, cycles int, traced bool) (*result, error) {
	// End-to-end timings are net of hypervisor steal; traced runs report
	// raw wall time.
	keep := func(c0, c1 cpuStat) float64 {
		if traced {
			return 1
		}
		return stealKeep(c0, c1)
	}
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			w.teardown()
			runtime.GC()
			debug.FreeOSMemory()
		}
		c0, t0 := readCPUStat(), time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds()*keep(c0, readCPUStat()))
	}
	defer w.teardown()

	t := newTally()
	start := readCPUStat()
	for i := 0; i < cycles; i++ {
		c0 := readCPUStat()
		w.cycle(i, t)
		t.endCycle(keep(c0, readCPUStat()))
	}
	fmt.Printf("host steal_share=%.4f\n", 1-stealKeep(start, readCPUStat()))

	values := make(map[string]float64)
	var err error
	if traced {
		err = w.layers(t, values)
	} else {
		err = endToEndValues(t, setups, values)
	}
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	var metrics map[string]metric
	if err == nil {
		metrics, err = collect(decls, values)
	}
	if err != nil {
		// A run that cannot produce its metrics counts as a failed operation.
		t.failed++
		t.attempted++
		t.errs = append(t.errs, err.Error())
		metrics = map[string]metric{}
	} else {
		printTable(decls, metrics)
	}
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// endToEndValues computes the untraced metrics from the loop's samples.
func endToEndValues(t *tally, setups []float64, out map[string]float64) error {
	out["setup_s"] = median(setups)
	out["cold_ms_p50"] = median(t.samples[opCold])
	out["refactor_ms_p50"] = median(t.samples[opRefactor])
	out["solve_ms_p50"] = median(t.samples[opSolve])
	p90, err := percentile(t.samples[opSolve], 0.9)
	if err != nil {
		return fmt.Errorf("solve_ms_p90: %w", err)
	}
	out["solve_ms_p90"] = p90
	done := t.attempted - t.failed
	out["ops_per_s"] = float64(done) / (t.busyMs / 1e3)
	out["ok_rate"] = float64(done) / float64(t.attempted)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	out["rss_mb"] = rss
	return nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// printTable prints the metrics one per line, for a reader of the log.
func printTable(decls []decl, m map[string]metric) {
	names := make([]string, 0, len(decls))
	for _, d := range decls {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
