package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"blockfanout/internal/cluster/wire"
	"blockfanout/internal/gen"
	"blockfanout/internal/oracle"
	"blockfanout/internal/server"
	"blockfanout/internal/sparse"
)

// lifecycleFront is the pipeline the lifecycle tests run: three live
// factors or jobs, and workers enough that a request the test holds in
// flight never starves the ones it sends next.
var lifecycleFront = server.Config{Procs: 2, Workers: 4, MaxFactors: 3}

// startLifecycleCluster runs a gateway over two nodes with front's
// pipeline.
func startLifecycleCluster(t *testing.T, front server.Config) *testCluster {
	t.Helper()
	gw := NewGatewayFront(GatewayConfig{Procs: 2, HeartbeatTimeout: 3 * time.Second, Logf: quietLog}, front)
	return runCluster(t, gw, []NodeConfig{{ID: "a", Workers: 1}, {ID: "b", Workers: 1}})
}

// lifecyclePattern is the i-th of a family of distinct sparsity patterns.
func lifecyclePattern(i int) *sparse.Matrix { return gen.IrregularMesh(200, 5, 2, uint64(100+i)) }

func patternID(m *sparse.Matrix) string { return fmt.Sprintf("%016x", m.PatternHash()) }

// registryDoc is the part of /metrics that counts either backend's live
// registry and its evictions.
type registryDoc struct {
	LiveFactors    int    `json:"live_factors"`
	EvictedFactors uint64 `json:"evicted_factors"`
	Jobs           int    `json:"jobs"`
	EvictedJobs    uint64 `json:"evicted_jobs"`
}

func readRegistry(t *testing.T, url string) registryDoc {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d registryDoc
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// nodeJobs counts the jobs a node holds.
func nodeJobs(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.jobs)
}

// checkOracle fails unless x solves m·x = b to within 1e-12 (relative, in
// the max norm) of the up-looking reference factorization.
func checkOracle(t *testing.T, m *sparse.Matrix, b, x []float64) {
	t.Helper()
	ref, err := oracle.UpLooking(m)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Solve(b)
	var diff, scale float64
	for i := range want {
		diff = math.Max(diff, math.Abs(x[i]-want[i]))
		scale = math.Max(scale, math.Abs(want[i]))
	}
	if diff > 1e-12*scale {
		t.Fatalf("solution differs from the up-looking oracle by %g (scale %g)", diff, scale)
	}
}

func rhsFor(m *sparse.Matrix) []float64 {
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	return b
}

// TestEvictBoundsRegistries factors 3+k patterns on each backend with
// MaxFactors 3: the registry keeps 3, every node holds at most 3 jobs, the
// eviction counter reads k, a solve on the first (evicted) id answers 404,
// and re-posting that pattern answers 200 with an answer the oracle
// agrees with.
func TestEvictBoundsRegistries(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		cluster bool
		k       int
	}{
		{"local/k=1", false, 1},
		{"local/k=3", false, 3},
		{"cluster/k=1", true, 1},
		{"cluster/k=3", true, 3},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var e contractEnv
			var tcl *testCluster
			if tc.cluster {
				tcl = startLifecycleCluster(t, lifecycleFront)
				e.url = tcl.ts.URL
			} else {
				s := server.New(lifecycleFront)
				ts := httptest.NewServer(s.Handler())
				t.Cleanup(func() {
					ts.Close()
					s.Close()
				})
				e.url = ts.URL
			}
			for i := 0; i < 3+tc.k; i++ {
				if code, _, b := e.post(t, "/v1/factor", "", csc(lifecyclePattern(i))); code != http.StatusOK {
					t.Fatalf("factor %d: status %d: %s", i, code, b)
				}
			}

			d := readRegistry(t, e.url)
			live, evicted := d.LiveFactors, d.EvictedFactors
			if tc.cluster {
				live, evicted = d.Jobs, d.EvictedJobs
				for _, n := range tcl.nodes {
					if got := nodeJobs(n); got > 3 {
						t.Errorf("node %s holds %d jobs, want at most 3", n.cfg.ID, got)
					}
				}
			}
			if live > 3 || evicted != uint64(tc.k) {
				t.Fatalf("registry holds %d with %d evicted, want at most 3 and %d", live, evicted, tc.k)
			}

			first := lifecyclePattern(0)
			eb := e.errorCase(t, "/v1/solve", solveBody(patternID(first), rhsFor(first)), http.StatusNotFound, "")
			if want := fmt.Sprintf("unknown factor id %q", patternID(first)); eb.Error != want {
				t.Fatalf("404 says %q, want %q", eb.Error, want)
			}
			if code, _, b := e.post(t, "/v1/factor", "", csc(first)); code != http.StatusOK {
				t.Fatalf("re-posting an evicted pattern: status %d: %s", code, b)
			}
			code, _, b := e.post(t, "/v1/solve", "", solveBody(patternID(first), rhsFor(first)))
			if code != http.StatusOK {
				t.Fatalf("solve after re-post: status %d: %s", code, b)
			}
			var sr server.SolveResponse
			if err := json.Unmarshal(b, &sr); err != nil {
				t.Fatal(err)
			}
			checkOracle(t, first, rhsFor(first), sr.X)
		})
	}
}

// waitPins polls until j carries want pins.
func waitPins(t *testing.T, g *Gateway, j *gwJob, want int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		g.mu.Lock()
		pins := j.pins
		g.mu.Unlock()
		if pins == want {
			return
		}
	}
	t.Fatalf("job %s never reached %d pins", j.id, want)
}

// TestEvictSkipsJobsInUse holds one request for a job in flight — a solve
// routed before the eviction, or a factor request waiting for the job's
// running one — while enough new patterns arrive to evict it twice over.
// The job stays registered and on its nodes, and the held request answers
// 200; once it is done the next new pattern evicts the job.
func TestEvictSkipsJobsInUse(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		// hold blocks the job's next request of this kind at a point past
		// the pin, returning the release. Neither lock is one the control
		// plane takes, so the nodes' late frames for the job still land.
		hold func(j *gwJob) func()
		path string
	}{
		{"solve", func(j *gwJob) func() { j.solveMu.Lock(); return j.solveMu.Unlock }, "/v1/solve"},
		{"factor", func(j *gwJob) func() { j.reqMu.Lock(); return j.reqMu.Unlock }, "/v1/factor"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tcl := startLifecycleCluster(t, lifecycleFront)
			e := &contractEnv{url: tcl.ts.URL}
			held := lifecyclePattern(0)
			if code, _, b := e.post(t, "/v1/factor", "", csc(held)); code != http.StatusOK {
				t.Fatalf("factor: status %d: %s", code, b)
			}
			j := tcl.gw.jobByID(patternID(held))
			body := csc(held)
			if tc.path == "/v1/solve" {
				body = solveBody(patternID(held), rhsFor(held))
			}

			release := tc.hold(j)
			done := make(chan []byte, 1)
			go func() {
				code, _, b := e.post(t, tc.path, "", body)
				if code != http.StatusOK {
					b = []byte(fmt.Sprintf("status %d: %s", code, b))
				}
				done <- b
			}()
			waitPins(t, tcl.gw, j, 1)
			for i := 1; i <= 6; i++ {
				if code, _, b := e.post(t, "/v1/factor", "", csc(lifecyclePattern(i))); code != http.StatusOK {
					release()
					t.Fatalf("factor %d: status %d: %s", i, code, b)
				}
				if tcl.gw.jobByID(patternID(held)) != j {
					release()
					t.Fatalf("job in use was evicted by pattern %d", i)
				}
			}
			for _, n := range tcl.nodes {
				if j := n.lockJob(patternID(held), false); j == nil {
					t.Errorf("node %s dropped a job in use", n.cfg.ID)
				} else {
					j.mu.Unlock()
				}
			}
			release()
			b := <-done
			if tc.path == "/v1/solve" {
				var sr server.SolveResponse
				if err := json.Unmarshal(b, &sr); err != nil {
					t.Fatalf("held solve: %s", b)
				}
				checkOracle(t, held, rhsFor(held), sr.X)
			} else {
				var fr server.FactorResponse
				if err := json.Unmarshal(b, &fr); err != nil || !fr.Refactored {
					t.Fatalf("held factor: %s", b)
				}
			}

			waitPins(t, tcl.gw, j, 0)
			if code, _, b := e.post(t, "/v1/factor", "", csc(lifecyclePattern(7))); code != http.StatusOK {
				t.Fatalf("factor: status %d: %s", code, b)
			}
			if tcl.gw.jobByID(patternID(held)) != nil {
				t.Fatal("released job survived an eviction round as the least recently used")
			}
		})
	}
}

// TestEvictRacesNeverFail factors and solves a rotating set of patterns
// from concurrent clients against a registry that holds two: every factor
// answers 200, and every solve 200 (routed before any eviction), 404
// (evicted) or 409 (its pattern's job is being rebuilt), never a 5xx.
func TestEvictRacesNeverFail(t *testing.T) {
	t.Parallel()
	front := lifecycleFront
	front.MaxFactors = 2
	tcl := startLifecycleCluster(t, front)
	e := &contractEnv{url: tcl.ts.URL}
	const clients, rounds, patterns = 3, 8, 5
	var wg sync.WaitGroup
	errs := make(chan string, clients*rounds*2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				m := lifecyclePattern((c + r) % patterns)
				if code, _, b := e.post(t, "/v1/factor", "", csc(m)); code != http.StatusOK {
					errs <- fmt.Sprintf("factor: status %d: %s", code, b)
				}
				other := lifecyclePattern((c + 2*r + 1) % patterns)
				code, _, b := e.post(t, "/v1/solve", "", solveBody(patternID(other), rhsFor(other)))
				switch code {
				case http.StatusOK, http.StatusNotFound, http.StatusConflict:
				default:
					errs <- fmt.Sprintf("solve: status %d: %s", code, b)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	d := readRegistry(t, e.url)
	if d.Jobs > 2 || d.EvictedJobs == 0 {
		t.Fatalf("registry holds %d jobs with %d evicted, want at most 2 and some", d.Jobs, d.EvictedJobs)
	}
}

// TestPhantomAbortCreatesNoJob: neither a plain Abort nor a drop for an id
// the node never held may register a job.
func TestPhantomAbortCreatesNoJob(t *testing.T) {
	t.Parallel()
	for _, drop := range []bool{false, true} {
		n := NewNode(NodeConfig{ID: "a", Logf: quietLog})
		n.abortJob(&wire.Abort{JobID: "feedface", RunID: 7, Drop: drop})
		if got := nodeJobs(n); got != 0 {
			t.Fatalf("Abort{Drop: %v} for an unknown id left %d jobs", drop, got)
		}
	}
}

// TestPhantomBlockDataAfterDropIsSwept: a block frame that arrives after
// its job was dropped creates a placeholder holding the frame, which the
// heartbeat sweep removes once no StartJob claimed it within the TTL — and
// not before.
func TestPhantomBlockDataAfterDropIsSwept(t *testing.T) {
	t.Parallel()
	n := NewNode(NodeConfig{ID: "a", Logf: quietLog})
	bd := &wire.BlockData{JobID: "feedface", RunID: 3, Block: 1, Data: []float64{1, 2}}
	n.deliver(bd)
	n.abortJob(&wire.Abort{JobID: bd.JobID, RunID: 3, Drop: true})
	if got := nodeJobs(n); got != 0 {
		t.Fatalf("drop left %d jobs", got)
	}
	n.deliver(bd) // stale: its job is gone
	if got := nodeJobs(n); got != 1 {
		t.Fatalf("stale frame: %d jobs, want its placeholder", got)
	}
	now := time.Now()
	n.sweepPlaceholders(now)
	if got := nodeJobs(n); got != 1 {
		t.Fatal("sweep removed a placeholder younger than its TTL")
	}
	n.sweepPlaceholders(now.Add(n.placeholderTTL()))
	if got := nodeJobs(n); got != 0 {
		t.Fatalf("sweep past the TTL left %d jobs", got)
	}
}

// TestDropKeepsNewerRun: a drop names the newest run the gateway had
// issued when it evicted the job; a node that has since started a newer
// run of the same pattern keeps it.
func TestDropKeepsNewerRun(t *testing.T) {
	t.Parallel()
	n := NewNode(NodeConfig{ID: "a", Logf: quietLog})
	n.deliver(&wire.BlockData{JobID: "feedface", RunID: 9})
	j := n.lockJob("feedface", false)
	j.runID = 9
	j.mu.Unlock()
	n.abortJob(&wire.Abort{JobID: "feedface", RunID: 8, Drop: true})
	if got := nodeJobs(n); got != 1 {
		t.Fatal("a drop for an older run deleted the newer one")
	}
	n.abortJob(&wire.Abort{JobID: "feedface", RunID: 9, Drop: true})
	if got := nodeJobs(n); got != 0 {
		t.Fatal("a drop covering the run left the job")
	}
}
