package server

import (
	"sync/atomic"

	"blockfanout/internal/obs"
)

// latencyJSON is the /metrics rendering of one tracked operation's latency
// histogram: count, mean, max, and the tail quantiles the old
// count/total/max tracker could not report.
type latencyJSON struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// latencySnapshot renders one histogram. All statistics derive from a
// single obs.HistSnapshot, whose bucket counts are copied before the
// sum/max reads and whose mean is clamped to the observed max — under
// concurrent observers the document can lag a few samples but can never
// report mean > max (the incoherent-read bug the old three-independent-
// atomics tracker had).
func latencySnapshot(h *obs.Histogram) latencyJSON {
	s := h.Snapshot()
	return latencyJSON{
		Count:  s.Count,
		MeanMs: s.Mean() / 1e3,
		MaxMs:  float64(s.Maxµ) / 1e3,
		P50Ms:  s.Quantile(0.50) / 1e3,
		P95Ms:  s.Quantile(0.95) / 1e3,
		P99Ms:  s.Quantile(0.99) / 1e3,
	}
}

// metrics is the server's expvar-style counter set.
type metrics struct {
	factorRequests  atomic.Int64
	solveRequests   atomic.Int64
	healthzRequests atomic.Int64
	metricsRequests atomic.Int64

	inFlight atomic.Int64 // gauge: requests currently being handled
	rejected atomic.Int64 // 429s from a full queue
	errors   atomic.Int64 // 4xx/5xx other than 429

	panics           atomic.Int64 // handler panics converted to 500 by the middleware
	retries          atomic.Int64 // transient-failure retries issued
	breakerTrips     atomic.Int64 // circuit breakers tripped
	breakerFastFails atomic.Int64 // requests failed fast by an open breaker

	factors   atomic.Int64 // full factorizations (analysis or numeric-only)
	refactors atomic.Int64 // value-only refactorizations of a live factor
	solvedRHS atomic.Int64 // right-hand sides solved
	batches   atomic.Int64 // SolveMany calls issued by the batcher, lone solves included
	batched   atomic.Int64 // right-hand sides that travelled in those batches
	queued    atomic.Int64 // single-RHS solves that waited for a running sweep
	expired   atomic.Int64 // queued solves whose context ended before their sweep

	snapWrites   atomic.Int64 // write-behind snapshots committed to the store
	snapErrors   atomic.Int64 // snapshot writes that failed
	snapDropped  atomic.Int64 // snapshots dropped because the write-behind queue was full
	snapSkipped  atomic.Int64 // snapshots skipped by the SnapshotInterval throttle
	warmRestored atomic.Int64 // gauge: factors restored by the last WarmStart

	factorLat   obs.Histogram
	refactorLat obs.Histogram
	solveLat    obs.Histogram
}
