package obs

import (
	"sync"
	"testing"
)

// fill records n enabled spans into one lane (Start returns a non-zero
// timestamp because the recorder is enabled).
func fill(r *Recorder, proc int32, n int) {
	for k := 0; k < n; k++ {
		r.Record(proc, OpBMOD, int32(k), -1, r.Start())
	}
}

// TestRecorderOverflowCountsDrops is the regression test for silent span
// truncation: a full lane used to discard spans without any trace, so a
// per-block timing built from the recording was biased toward whatever ran
// early. Overflow must be counted, surfaced by Dropped(), and visible in
// the exported trace events.
func TestRecorderOverflowCountsDrops(t *testing.T) {
	const capHint, extra = 8, 5
	r := NewRecorder(2, capHint)
	r.Enable()
	fill(r, 0, capHint+extra)
	fill(r, 1, 3)

	if got := r.Dropped(); got != extra {
		t.Fatalf("Dropped() = %d, want %d", got, extra)
	}
	spans := r.Spans()
	if len(spans) != capHint+3 {
		t.Fatalf("Spans() kept %d spans, want %d (full lane 0 + 3 in lane 1)", len(spans), capHint+3)
	}
	// The retained spans are the earliest ones — the drop policy truncates
	// the tail, never corrupts the buffer.
	for k, s := range spans[:capHint] {
		if s.Proc != 0 || int(s.Block) != k {
			t.Fatalf("span %d = proc %d block %d, want proc 0 block %d", k, s.Proc, s.Block, k)
		}
	}

	// The trace export must announce the truncation.
	found := false
	for _, e := range r.Events("test") {
		if e.Name == "dropped_spans" {
			found = true
			if c, ok := e.Args["count"].(int64); !ok || c != extra {
				t.Fatalf("dropped_spans count = %v, want %d", e.Args["count"], extra)
			}
		}
	}
	if !found {
		t.Fatal("trace events omit the dropped_spans counter for a truncated recording")
	}

	// Reset clears the counter with the buffers.
	r.Reset()
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d after Reset, want 0", got)
	}
}

// TestRecorderOverflowConcurrent exercises the drop counter under the
// recorder's real concurrency model — one writer goroutine per lane —
// so the race detector can vouch for the atomic accounting.
func TestRecorderOverflowConcurrent(t *testing.T) {
	const procs, capHint, n = 4, 16, 100
	r := NewRecorder(procs, capHint)
	r.Enable()
	var wg sync.WaitGroup
	for p := int32(0); p < procs; p++ {
		wg.Add(1)
		go func(p int32) {
			defer wg.Done()
			fill(r, p, n)
		}(p)
	}
	wg.Wait()
	if got, want := r.Dropped(), int64(procs*(n-capHint)); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
	if got, want := len(r.Spans()), procs*capHint; got != want {
		t.Fatalf("Spans() kept %d, want %d", got, want)
	}
}
