package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"blockfanout/internal/core"
	"blockfanout/internal/fanout"
	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// serviceWorkload is serve_mix (the single-process service) or, with
// cluster set, cluster_mix (a gateway and two worker nodes). Both replay
// the same requests. Cycle i sends a new-pattern MatrixMarket factor of
// IrregularMesh(coldN, 8, 3, seed+i), a JSON-CSC refactor of the hot mesh
// IrregularMesh(hotN, 8, 3, hotPatternSeed) with new seeded values, and
// solvesPerCycle seeded single right-hand-side solves against the hot
// factor.
//
// The hot pattern is the same for every seed: a run's refactors and
// solves all land on it, so a pattern drawn per seed would move
// refactor_ms and solve_ms with the draw (its flop count varies by ±7%
// under the server's ordering and ±20% under the gateway's across seeds
// 1–16); hotPatternSeed's count is near the median under both.
type serviceWorkload struct {
	seed        uint64
	hotN, coldN int
	cluster     bool

	be    *backend
	hot   *sparse.Matrix // pattern, with the generator's values
	hotID string
	cur   *sparse.Matrix // the hot values last sent

	// Detail kept for the traced probes.
	rt, elapsed  map[string][]float64 // op class → round trip / reported elapsed_ms
	respBytes    []float64
	hits, misses int
	hotResp      factorResponse
	coldMats     []*sparse.Matrix
	jsonBodies   [][]byte
	mmBodies     [][]byte
	before       metricsDoc
}

const hotPatternSeed = 8

// keepInputs is how many new-pattern matrices and bodies of each kind a
// run keeps for the traced probes.
const keepInputs = 3

func (w *serviceWorkload) values(i int) []float64 {
	return spdValues(w.hot, newRNG(w.seed, streamValues, uint64(i)))
}

func (w *serviceWorkload) rhs(i int) []float64 {
	return rhs(w.hot.N, newRNG(w.seed, streamRHS, uint64(i)))
}

func (w *serviceWorkload) coldMatrix(i int) *sparse.Matrix {
	return gen.IrregularMesh(w.coldN, 8, 3, w.seed+uint64(i))
}

// planOptions are the plan options and parallel width the backend factors
// with, for the in-process replica: the server's own options, or the
// gateway's on the two single-worker nodes.
func (w *serviceWorkload) planOptions() (core.Options, int) {
	if w.cluster {
		return core.Options{BlockSize: core.DefaultBlockSize, Ordering: order.MinDegree, Exec: fanout.ModeWorkStealing}, clusterNodes
	}
	procs := runtime.GOMAXPROCS(0)
	if procs > 16 {
		procs = 16
	}
	return core.Options{BlockSize: core.DefaultBlockSize, Exec: fanout.ModeWorkStealing}, procs
}

// generate builds the hot pattern. It is part of set-up.
func (w *serviceWorkload) generate() {
	w.hot = gen.IrregularMesh(w.hotN, 8, 3, hotPatternSeed)
	w.hotID = fmt.Sprintf("%016x", w.hot.PatternHash())
}

// cycleInputs are one cycle's matrices and request bodies, built before
// any of the cycle's timers start.
type cycleInputs struct {
	cold      *sparse.Matrix
	coldBody  []byte // MatrixMarket
	hot       *sparse.Matrix
	hotBody   []byte // JSON-CSC
	rhs       [][]float64
	solveBody [][]byte
}

func (w *serviceWorkload) inputs(i int) (cycleInputs, error) {
	in := cycleInputs{cold: w.coldMatrix(i), hot: withValues(w.hot, w.values(i+1))}
	var err error
	if in.coldBody, err = mmBody(in.cold); err != nil {
		return in, err
	}
	if in.hotBody, err = jsonBody(in.hot); err != nil {
		return in, err
	}
	for s := 0; s < solvesPerCycle; s++ {
		b := w.rhs(i*solvesPerCycle + s)
		body, err := solveBody(w.hotID, b)
		if err != nil {
			return in, err
		}
		in.rhs = append(in.rhs, b)
		in.solveBody = append(in.solveBody, body)
	}
	return in, nil
}

func (w *serviceWorkload) setup() error {
	w.generate()
	w.rt, w.elapsed = make(map[string][]float64), make(map[string][]float64)
	w.respBytes, w.coldMats, w.jsonBodies, w.mmBodies = nil, nil, nil, nil
	w.hits, w.misses = 0, 0
	var err error
	if w.cluster {
		w.be, err = startCluster()
	} else {
		w.be, err = startServer()
	}
	if err != nil {
		return err
	}
	hm := withValues(w.hot, w.values(0))
	body, err := jsonBody(hm)
	if err != nil {
		return err
	}
	if _, err := w.factor(body, "application/json", hm, false); err != nil {
		return fmt.Errorf("first factorization: %w", err)
	}
	w.cur = hm
	w.before, err = w.be.metrics()
	return err
}

func (w *serviceWorkload) teardown() {
	if w.be != nil {
		w.be.stop()
		w.be = nil
	}
}

func (w *serviceWorkload) cycle(i int, t *tally) {
	in, err := w.inputs(i)
	if err != nil {
		t.op(opCold, 0, err)
		return
	}
	d, err := w.factor(in.coldBody, "text/plain", in.cold, false)
	t.op(opCold, d, err)
	d, err = w.factor(in.hotBody, "application/json", in.hot, true)
	t.op(opRefactor, d, err)
	w.cur = in.hot
	for s := range in.solveBody {
		d, err := w.solve(in.solveBody[s], in.rhs[s])
		t.op(opSolve, d, err)
	}
	if len(w.coldMats) < keepInputs {
		w.coldMats = append(w.coldMats, in.cold)
		w.mmBodies = append(w.mmBodies, in.coldBody)
		w.jsonBodies = append(w.jsonBodies, in.hotBody)
	}
}

// factorResponse holds the /v1/factor response fields the benchmark
// checks; the server and the gateway share them.
type factorResponse struct {
	ID         string  `json:"id"`
	N          int     `json:"n"`
	NNZ        int     `json:"nnz"`
	NNZL       int64   `json:"nnz_l"`
	Flops      int64   `json:"flops"`
	CacheHit   bool    `json:"cache_hit"`
	Refactored bool    `json:"refactored"`
	Degraded   bool    `json:"degraded"`
	ElapsedMs  float64 `json:"elapsed_ms"`
}

type solveResponse struct {
	ID        string    `json:"id"`
	X         []float64 `json:"x"`
	ElapsedMs float64   `json:"elapsed_ms"`
}

// factor posts a factor body and checks the response against the matrix
// it carried: the pattern's id and size, whether the plan cache hit,
// in-place refactorization on the server, and no degraded-mode answer.
// The returned duration is the round trip.
func (w *serviceWorkload) factor(body []byte, ctype string, m *sparse.Matrix, wantHit bool) (time.Duration, error) {
	code, resp, d, err := w.be.post("/v1/factor", ctype, body)
	if err != nil {
		return d, err
	}
	if code != http.StatusOK {
		return d, fmt.Errorf("status %d: %.200s", code, resp)
	}
	var fr factorResponse
	if err := json.Unmarshal(resp, &fr); err != nil {
		return d, fmt.Errorf("decode factor response: %w", err)
	}
	switch {
	case fr.ID != fmt.Sprintf("%016x", m.PatternHash()):
		return d, fmt.Errorf("id %s, want the pattern hash %016x", fr.ID, m.PatternHash())
	case fr.N != m.N || fr.NNZ != m.NNZ() || fr.NNZL <= 0 || fr.Flops <= 0:
		return d, fmt.Errorf("response n=%d nnz=%d nnz_l=%d flops=%d for n=%d nnz=%d",
			fr.N, fr.NNZ, fr.NNZL, fr.Flops, m.N, m.NNZ())
	case fr.CacheHit != wantHit:
		return d, fmt.Errorf("cache_hit=%v, want %v", fr.CacheHit, wantHit)
	case wantHit && !w.cluster && !fr.Refactored:
		return d, errors.New("plan-cache hit on a live factor was not refactored in place")
	case fr.Degraded:
		return d, errors.New("degraded (local-fallback) answer")
	}
	class := opCold
	if wantHit {
		class = opRefactor
		w.hotResp = fr
	}
	w.rt[class] = append(w.rt[class], ms(d))
	w.elapsed[class] = append(w.elapsed[class], fr.ElapsedMs)
	if fr.CacheHit {
		w.hits++
	} else {
		w.misses++
	}
	return d, nil
}

// solve posts a solve body and checks the solution's residual against the
// hot values last sent.
func (w *serviceWorkload) solve(body []byte, b []float64) (time.Duration, error) {
	code, resp, d, err := w.be.post("/v1/solve", "application/json", body)
	if err != nil {
		return d, err
	}
	if code != http.StatusOK {
		return d, fmt.Errorf("status %d: %.200s", code, resp)
	}
	var sr solveResponse
	if err := json.Unmarshal(resp, &sr); err != nil {
		return d, fmt.Errorf("decode solve response: %w", err)
	}
	if sr.ID != w.hotID {
		return d, fmt.Errorf("solve answered for id %s, want %s", sr.ID, w.hotID)
	}
	if err := checkSolution(w.cur, sr.X, b); err != nil {
		return d, err
	}
	w.rt[opSolve] = append(w.rt[opSolve], ms(d))
	w.elapsed[opSolve] = append(w.elapsed[opSolve], sr.ElapsedMs)
	w.respBytes = append(w.respBytes, float64(len(resp)))
	return d, nil
}

func (w *serviceWorkload) layers(t *tally, out map[string]float64) error {
	after, err := w.be.metrics()
	if err != nil {
		return err
	}
	if len(w.coldMats) == 0 || len(w.jsonBodies) == 0 {
		return errors.New("the loop kept no request bodies to probe")
	}
	opts, procs := w.planOptions()
	if err := analysisProbe(w.coldMats, opts, procs, out); err != nil {
		return err
	}
	if err := coldProbe(w.coldMats, opts, procs, out); err != nil {
		return err
	}
	rep := replica{a: w.hot, opts: opts, procs: procs, values: w.values, rhs: w.rhs, reps: 10}
	if err := rep.probe(out); err != nil {
		return err
	}
	// The plan counts are the service's own; the replica must agree.
	if out["plan.flops"] != float64(w.hotResp.Flops) || out["plan.nnz_l"] != float64(w.hotResp.NNZL) {
		return fmt.Errorf("replica plan (%v flops, nnz(L) %v) differs from the service's (%d, %d)",
			out["plan.flops"], out["plan.nnz_l"], w.hotResp.Flops, w.hotResp.NNZL)
	}
	if err := parseProbe(w.jsonBodies, w.mmBodies, out); err != nil {
		return err
	}
	if err := frontOverheads(t, out); err != nil {
		return err
	}

	// What the round trip holds beyond the service's own elapsed_ms and
	// the body parse: HTTP, admission wait and encoding.
	unattributed := map[string]float64{
		opCold:     w.outside(opCold) - out["parse.mm_ms"],
		opRefactor: w.outside(opRefactor) - out["parse.json_ms"],
		opSolve:    w.outside(opSolve),
	}
	for class, v := range unattributed {
		out["front."+class+"_unattributed_frac"] = v / median(w.rt[class])
	}
	out["front.solve_resp_bytes"] = median(w.respBytes)
	out["plancache.hit_ratio"] = float64(w.hits) / float64(w.hits+w.misses)
	out["admission.rejected"] = float64(after.rejected() - w.before.rejected())
	if w.cluster {
		// The gateway reports no plan-cache or batch counters.
		out["plancache.misses"] = float64(w.misses)
		absent(out, "plancache.evictions", "server.batch_mean")
		if err := w.clusterProbe(out); err != nil {
			return err
		}
	} else {
		out["plancache.misses"] = float64(after.PlanCache.Misses - w.before.PlanCache.Misses)
		out["plancache.evictions"] = float64(after.PlanCache.Evictions - w.before.PlanCache.Evictions)
		if nb := after.Batches - w.before.Batches; nb > 0 {
			out["server.batch_mean"] = float64(after.BatchedRHS-w.before.BatchedRHS) / float64(nb)
		} else {
			out["server.batch_mean"] = 0
		}
		absent(out, clusterMetrics...)
	}

	name := "serve_mix"
	if w.cluster {
		name = "cluster_mix"
	}
	printAccounting(name, opCold, median(t.samples[opCold]), []term{
		{"parse.mm_ms", out["parse.mm_ms"]},
		{"local.cold_ms", out["local.cold_ms"]},
		{"front.cold_unattributed_ms", unattributed[opCold]},
	})
	printAccounting(name, opRefactor, median(t.samples[opRefactor]), []term{
		{"parse.json_ms", out["parse.json_ms"]},
		{"numeric.reload_ms", out["numeric.reload_ms"]},
		{"fanout.run_ms", out["fanout.run_ms"]},
		{"front.refactor_unattributed_ms", unattributed[opRefactor]},
	})
	printAccounting(name, opSolve, median(t.samples[opSolve]), []term{
		{"local.solve_ms", out["local.solve_ms"]},
		{"front.solve_unattributed_ms", unattributed[opSolve]},
	})
	return nil
}

// outside is the median of round trip − reported elapsed_ms for an op
// class: the time spent outside the service's own timer.
func (w *serviceWorkload) outside(class string) float64 {
	rt, el := w.rt[class], w.elapsed[class]
	d := make([]float64, len(rt))
	for i := range rt {
		d[i] = rt[i] - el[i]
	}
	return median(d)
}

// clusterProbe measures the data plane over a few refactors of the hot
// pattern. Nodes report their counters on heartbeats, so the counters are
// read only after two heartbeat intervals of quiet.
func (w *serviceWorkload) clusterProbe(out map[string]float64) error {
	const refactors = 5
	settle := func() (metricsDoc, error) {
		time.Sleep(2*heartbeat + 200*time.Millisecond)
		return w.be.metrics()
	}
	m0, err := settle()
	if err != nil {
		return err
	}
	for k := 0; k < refactors; k++ {
		hm := withValues(w.hot, w.values(1<<20+k))
		body, err := jsonBody(hm)
		if err != nil {
			return err
		}
		if _, err := w.factor(body, "application/json", hm, true); err != nil {
			return fmt.Errorf("cluster probe refactor: %w", err)
		}
		w.cur = hm
	}
	m1, err := settle()
	if err != nil {
		return err
	}
	if len(m0.Nodes) != clusterNodes || len(m1.Nodes) != clusterNodes {
		return fmt.Errorf("cluster reports %d then %d nodes, want %d", len(m0.Nodes), len(m1.Nodes), clusterNodes)
	}
	start := make(map[string][2]uint64)
	for _, nd := range m0.Nodes {
		start[nd.ID] = [2]uint64{nd.BytesSent, nd.Flops}
	}
	var bytesSent, sum, max float64
	for _, nd := range m1.Nodes {
		s, ok := start[nd.ID]
		if !ok {
			return fmt.Errorf("node %s joined during the probe", nd.ID)
		}
		bytesSent += float64(nd.BytesSent - s[0])
		f := float64(nd.Flops - s[1])
		sum += f
		if f > max {
			max = f
		}
	}
	if max == 0 {
		return errors.New("cluster nodes report no flops for the probe's refactors")
	}
	out["wire.bytes_per_refactor"] = bytesSent / refactors
	out["cluster.flop_balance"] = sum / float64(clusterNodes) / max
	out["cluster.epochs_per_refactor"] = float64(m1.Epochs-m0.Epochs) / refactors
	out["cluster.epoch_retries"] = float64(m1.EpochRetries - w.before.EpochRetries)
	out["cluster.local_fallbacks"] = float64(m1.LocalFactors - w.before.LocalFactors)
	return nil
}
