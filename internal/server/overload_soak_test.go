package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blockfanout/internal/admission"
	"blockfanout/internal/gen"
)

// soakResult is what one overload row measured for its own assertions.
type soakResult struct {
	unloaded, loaded []float64 // quiet tenant's admitted solve latencies, ms
	quietErrors      int
	refactorMs       float64 // one solo refactorization of the aggressor's factor
	transitions      uint64  // brownout transitions /metrics reports after the flood
}

func p99(ms []float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return s[int(float64(len(s))*0.99)]
}

// TestOverloadSoak hammers an admission-controlled server with two-tenant
// traffic well past capacity and holds it to the degradation contract:
// every rejection carries Retry-After, every response is 200, 429 or 503,
// the quiet tenant's admitted interactive solves stay bounded, and after
// the flood stops and the server drains, no request goroutine is left
// behind. Each row adds its own bounds:
//
//   - "race": built to run under the race detector in CI. Its latency
//     bound is phrased in heavy-op service times, so it holds at any
//     -race slowdown, and the quiet tenant must see no error at all.
//   - "ratio": one worker and a paper-scale mesh, so each op outlasts the
//     scheduler's preemption quantum and queueing shows at the admission
//     gate. The quiet tenant's loaded p99 stays within 2.5× its unloaded
//     p99, its error rate within 2%, and /metrics counts brownout
//     transitions. Timing at this precision is meaningless under the race
//     detector, so the row runs only without it.
//
// Opt-in (several seconds of deliberate saturation per row):
//
//	OVERLOAD_SOAK=1 go test -race -run TestOverloadSoak -count=1 ./internal/server/
//	OVERLOAD_SOAK=1 go test -run TestOverloadSoak -count=1 ./internal/server/
func TestOverloadSoak(t *testing.T) {
	if os.Getenv("OVERLOAD_SOAK") == "" {
		t.Skip("set OVERLOAD_SOAK=1 to run the overload soak")
	}
	rows := []struct {
		name           string
		cfg            Config
		mesh           int           // vertices of each tenant's IrregularMesh
		unloadedSolves int           // quiet-tenant baseline sample
		floodClients   int           // closed-loop aggressive clients
		refactorEvery  int           // every k-th flood request refactors; 0 = solves only
		backoff        time.Duration // a rejected flood client's pause
		loadedFor      time.Duration
		quietPace      time.Duration // pause between quiet-tenant solves
		noRace         bool
		check          func(t *testing.T, r soakResult)
	}{
		{
			name: "race",
			// Two workers with one reserved for the interactive class, so
			// admitted refactorizations can never head-of-line block every
			// execution lane, and early brownout thresholds so the factor
			// classes are shed while the queue is still hot.
			cfg: Config{
				Procs:              2,
				Workers:            2,
				ReserveInteractive: 1,
				QueueDepth:         4,
				BatchWindow:        -1,
				Tenants: map[string]admission.TenantLimits{
					"quiet": {MaxInFlight: 2},
					// A tight quota: the flood's pressure shows up as
					// rejections, not as admitted work that saturates the
					// CPU the race detector has already slowed.
					"aggressive": {MaxInFlight: 2},
				},
				ShedAt:   0.25,
				RejectAt: 0.75,
			},
			// Kept modest: the race detector multiplies every op's cost,
			// which is exactly what makes the ops long enough to pile up
			// at the admission gate.
			mesh:           1200,
			unloadedSolves: 25,
			floodClients:   12,
			refactorEvery:  4,
			backoff:        50 * time.Millisecond,
			loadedFor:      3 * time.Second,
			quietPace:      10 * time.Millisecond,
			check: func(t *testing.T, r soakResult) {
				if r.quietErrors > 0 {
					t.Errorf("quiet tenant saw %d errors under the flood; its quota was never exceeded, so it must see none", r.quietErrors)
				}
				// Bounded, not unchanged: an admitted interactive solve may
				// wait out the heavy ops already holding slots — at most a
				// couple, because the quota and the reserved lane cap them
				// — but never the flood's full backlog. Without admission
				// control a 12-client closed loop would queue a dozen.
				u, l := p99(r.unloaded), p99(r.loaded)
				bound := max(10*u, 3*r.refactorMs)
				if l > bound {
					t.Errorf("admitted interactive p99 %.1fms exceeds the bound %.1fms (unloaded %.1fms, solo refactor %.1fms); degradation is not bounded",
						l, bound, u, r.refactorMs)
				}
			},
		},
		{
			name: "ratio",
			// One worker, so capacity is cheap to exceed and admitted
			// interactive latency is not inflated by slot timesharing.
			cfg: Config{
				Procs:       4,
				Workers:     1,
				QueueDepth:  8,
				BatchWindow: -1, // measure the admission path, not batching's throughput win
				Tenants: map[string]admission.TenantLimits{
					// The quiet tenant's pace fits comfortably inside this.
					"quiet": {MaxInFlight: 2},
					// The aggressor's quota bounds how much of the shared
					// queue it can hold; its overflow is its own problem
					// (tenant_quota 429), never the quiet tenant's.
					"aggressive": {MaxInFlight: 1 + 4},
				},
				ShedAt:   0.3,
				RejectAt: 0.8,
			},
			mesh:           9000,
			unloadedSolves: 60,
			floodClients:   2 * (1 + 8),
			// An impatient client backs off only a fraction of the
			// advertised Retry-After, so rejections keep coming without
			// the rejection path itself saturating the machine.
			backoff:   100 * time.Millisecond,
			loadedFor: 2500 * time.Millisecond,
			quietPace: 15 * time.Millisecond,
			noRace:    true,
			check: func(t *testing.T, r soakResult) {
				if ratio := p99(r.loaded) / p99(r.unloaded); ratio > 2.5 {
					t.Errorf("loaded interactive p99 %.2fms is %.2fx the unloaded %.2fms; want ≤ 2.5x",
						p99(r.loaded), ratio, p99(r.unloaded))
				}
				// The aggressor cannot push the quiet tenant's error rate
				// above its quota share; paced inside its limits, that
				// share is ~0.
				if rate := float64(r.quietErrors) / float64(len(r.loaded)+r.quietErrors); rate > 0.02 {
					t.Errorf("quiet tenant error rate %.3f (%d of %d) under the flood; want ≤ 0.02",
						rate, r.quietErrors, len(r.loaded)+r.quietErrors)
				}
				if r.transitions == 0 {
					t.Error("no brownout transitions recorded in /metrics under sustained overload")
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.noRace && raceEnabled {
				t.Skip("timing ratio row; run without -race")
			}
			srv := New(row.cfg)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := &http.Client{Timeout: 60 * time.Second}

			post := func(path, tenant string, raw []byte) (int, string, []byte) {
				req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Tenant", tenant)
				resp, err := client.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, resp.Header.Get("Retry-After"), body
			}

			// One factor per tenant, each on a mesh of its own.
			factorBody := func(seed uint64) []byte {
				m := gen.IrregularMesh(row.mesh, 7, 3, seed)
				raw, err := json.Marshal(map[string]any{
					"n": m.N, "colptr": m.ColPtr, "rowind": m.RowInd, "val": m.Val,
				})
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			solveBodyFor := func(tenant string, factorRaw []byte) []byte {
				code, _, body := post("/v1/factor", tenant, factorRaw)
				if code != http.StatusOK {
					t.Fatalf("%s factor returned %d: %s", tenant, code, body)
				}
				var fr struct {
					ID string `json:"id"`
					N  int    `json:"n"`
				}
				if err := json.Unmarshal(body, &fr); err != nil {
					t.Fatal(err)
				}
				rhs := make([]float64, fr.N)
				for i := range rhs {
					rhs[i] = 1
				}
				raw, err := json.Marshal(map[string]any{"id": fr.ID, "b": rhs})
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			quietFactor, aggFactor := factorBody(42), factorBody(11)
			quietSolve := solveBodyFor("quiet", quietFactor)
			aggSolve := solveBodyFor("aggressive", aggFactor)

			// Reference cost of one heavy op on this machine (at this
			// -race slowdown, if any): a solo refactorization.
			var r soakResult
			refStart := time.Now()
			if code, _, body := post("/v1/factor", "aggressive", aggFactor); code != http.StatusOK {
				t.Fatalf("reference refactor returned %d: %s", code, body)
			}
			r.refactorMs = time.Since(refStart).Seconds() * 1e3

			// Unloaded baseline for the quiet tenant, and the steady-state
			// goroutine census the post-drain count must return to.
			for i := 0; i < row.unloadedSolves; i++ {
				start := time.Now()
				code, _, body := post("/v1/solve", "quiet", quietSolve)
				if code != http.StatusOK {
					t.Fatalf("unloaded solve returned %d: %s", code, body)
				}
				r.unloaded = append(r.unloaded, time.Since(start).Seconds()*1e3)
			}
			baselineGoroutines := runtime.NumGoroutine()

			// The flood: closed-loop aggressive clients, mixing in
			// refactorizations when the row asks, so every priority class
			// crosses the gate while the brownout machine is shedding.
			var (
				stop            atomic.Bool
				rejections      atomic.Int64
				missingRetry    atomic.Int64
				unexpectedCodes atomic.Int64
				wg              sync.WaitGroup
			)
			for g := 0; g < row.floodClients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						path, body := "/v1/solve", aggSolve
						if row.refactorEvery > 0 && (g+i)%row.refactorEvery == 0 {
							path, body = "/v1/factor", aggFactor
						}
						code, retry, _ := post(path, "aggressive", body)
						switch {
						case code == http.StatusOK:
						case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
							rejections.Add(1)
							if retry == "" {
								missingRetry.Add(1)
							}
							time.Sleep(row.backoff)
						default:
							unexpectedCodes.Add(1)
						}
					}
				}(g)
			}

			for deadline := time.Now().Add(row.loadedFor); time.Now().Before(deadline); {
				start := time.Now()
				code, _, _ := post("/v1/solve", "quiet", quietSolve)
				if code != http.StatusOK {
					r.quietErrors++
				} else {
					r.loaded = append(r.loaded, time.Since(start).Seconds()*1e3)
				}
				time.Sleep(row.quietPace)
			}
			stop.Store(true)
			wg.Wait()

			// Transitions come from the metrics surface, as an operator
			// would see them.
			resp, err := client.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Admission admission.Stats `json:"admission"`
			}
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			r.transitions = doc.Admission.Transitions

			n := rejections.Load()
			t.Logf("soak: %d rejections, %d brownout transitions, quiet p99 %.1f→%.1fms over %d solves (%d errors), solo refactor %.1fms",
				n, r.transitions, p99(r.unloaded), p99(r.loaded), len(r.loaded), r.quietErrors, r.refactorMs)
			if n == 0 {
				t.Error("flood produced no rejections; the soak never exceeded capacity")
			}
			if len(r.loaded) == 0 {
				t.Error("quiet tenant completed no solve under the flood")
			}
			if n := missingRetry.Load(); n > 0 {
				t.Errorf("%d rejections arrived without a Retry-After header", n)
			}
			if n := unexpectedCodes.Load(); n > 0 {
				t.Errorf("flood saw %d responses outside {200, 429, 503}", n)
			}
			row.check(t, r)

			// Drain and verify the server sheds new work, then settles
			// back to its steady-state goroutine census: any queued
			// waiter, batcher, or handler goroutine still alive after
			// drain is a leak.
			srv.Drain()
			if code, _, _ := post("/v1/solve", "quiet", quietSolve); code != http.StatusServiceUnavailable {
				t.Errorf("post-drain solve returned %d, want 503", code)
			}
			settled := false
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
				runtime.GC()
				if runtime.NumGoroutine() <= baselineGoroutines+3 {
					settled = true
					break
				}
				time.Sleep(100 * time.Millisecond)
			}
			if !settled {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutines never settled: %d now vs %d baseline\n%s",
					runtime.NumGoroutine(), baselineGoroutines, buf[:n])
			}
		})
	}
}
