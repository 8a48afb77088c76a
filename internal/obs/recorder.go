package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Op labels the block operation a recorded span covers, matching the
// paper's BFAC/BDIV/BMOD vocabulary.
type Op uint8

const (
	OpBFAC Op = iota // factor a diagonal block
	OpBDIV           // divide an off-diagonal block by its diagonal
	OpBMOD           // modify a destination block by a source pair
	// OpSteal marks a successful steal by the work-stealing executor:
	// Block is the stolen task's destination block, Src the victim worker.
	OpSteal
	// OpIdle covers an interval a work-stealing worker spent parked with
	// no runnable task (Block and Src are -1).
	OpIdle
)

func (o Op) String() string {
	switch o {
	case OpBFAC:
		return "BFAC"
	case OpBDIV:
		return "BDIV"
	case OpBMOD:
		return "BMOD"
	case OpSteal:
		return "STEAL"
	case OpIdle:
		return "IDLE"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Span is one recorded interval of a real (goroutine) processor: the block
// operation performed, the destination block, the off-diagonal source block
// for BMODs (-1 otherwise), and start/end nanoseconds since the recorder's
// base time.
type Span struct {
	Proc  int32
	Op    Op
	Block int32
	Src   int32
	Start int64 // ns since recorder base
	End   int64
}

// lane is one processor's private span buffer. Lanes are fixed-capacity:
// a span arriving when the buffer is full is counted in dropped instead of
// growing the buffer, so the recording hot path never allocates (an
// allocation mid-measurement would perturb the very spans being measured).
// The padding keeps adjacent lanes out of one cache line so concurrent
// appends do not false-share.
type lane struct {
	spans   []Span
	dropped atomic.Int64
	_       [32]byte
}

// Recorder collects per-block-operation spans from a parallel
// factorization with overhead low enough to leave compiled in: the
// disabled fast path is a nil check plus one atomic load and performs no
// allocation, no time syscall, and no write. Each (virtual) processor
// appends to its own lane, so enabled recording is contention-free too.
//
// A nil *Recorder is valid and permanently disabled, so call sites need no
// guards of their own.
type Recorder struct {
	enabled atomic.Bool
	base    time.Time
	lanes   []lane
}

// NewRecorder sizes a recorder for nprocs processors, reserving capHint
// spans per lane (0 picks a small default). The recorder starts disabled.
func NewRecorder(nprocs, capHint int) *Recorder {
	if capHint <= 0 {
		capHint = 256
	}
	r := &Recorder{base: time.Now(), lanes: make([]lane, nprocs)}
	for i := range r.lanes {
		r.lanes[i].spans = make([]Span, 0, capHint)
	}
	return r
}

// Procs returns the number of per-processor lanes the recorder was sized
// for.
func (r *Recorder) Procs() int { return len(r.lanes) }

// Enable turns recording on. Spans whose Start precedes the Enable are
// still recorded whole; flipping mid-run only ever loses, never corrupts,
// spans.
func (r *Recorder) Enable() { r.enabled.Store(true) }

// Disable turns recording off; buffered spans are kept.
func (r *Recorder) Disable() { r.enabled.Store(false) }

// Enabled reports whether spans are being recorded.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// Start opens a span: it returns a non-zero timestamp when recording is
// enabled and 0 when disabled (or r is nil). The zero sentinel lets Record
// skip disabled spans without re-checking the flag. Start and Record are
// split into inline-able gates over out-of-line slow paths so the
// disabled path compiles down to a nil check plus one atomic load —
// no call, no time syscall, no write.
func (r *Recorder) Start() int64 {
	if r == nil || !r.enabled.Load() {
		return 0
	}
	return r.startSlow()
}

//go:noinline
func (r *Recorder) startSlow() int64 {
	// +1 keeps a span starting exactly at the base time distinguishable
	// from the disabled sentinel.
	return int64(time.Since(r.base)) + 1
}

// Record closes the span opened by Start. It is a no-op when start is 0
// (the disabled sentinel), so callers can pair every operation with an
// unconditional Start/Record without branching on the flag themselves.
func (r *Recorder) Record(proc int32, op Op, block, src int32, start int64) {
	if start == 0 {
		return
	}
	r.recordSlow(proc, op, block, src, start)
}

//go:noinline
func (r *Recorder) recordSlow(proc int32, op Op, block, src int32, start int64) {
	end := int64(time.Since(r.base)) + 1
	ln := &r.lanes[proc]
	if len(ln.spans) == cap(ln.spans) {
		// Full lane: count the loss instead of growing. Silently dropping
		// here used to bias any span-derived measurement toward the blocks
		// that happened to run early; the counter lets consumers detect —
		// and refuse — a truncated recording.
		ln.dropped.Add(1)
		return
	}
	ln.spans = append(ln.spans, Span{Proc: proc, Op: op, Block: block, Src: src, Start: start - 1, End: end - 1})
}

// Dropped reports how many spans were discarded across all lanes because
// their lane was full. A complete recording has Dropped() == 0; anything
// else means the span set under-represents late operations and must not be
// used as a cost signal.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for i := range r.lanes {
		n += r.lanes[i].dropped.Load()
	}
	return n
}

// Reset clears all buffered spans and drop counters (capacity is kept) and
// rebases the clock. Not safe concurrently with recording.
func (r *Recorder) Reset() {
	for i := range r.lanes {
		r.lanes[i].spans = r.lanes[i].spans[:0]
		r.lanes[i].dropped.Store(0)
	}
	r.base = time.Now()
}

// Spans returns all recorded spans, processor-major. The result aliases
// the recorder's buffers; callers must not retain it across a Reset.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	total := 0
	for i := range r.lanes {
		total += len(r.lanes[i].spans)
	}
	out := make([]Span, 0, total)
	for i := range r.lanes {
		out = append(out, r.lanes[i].spans...)
	}
	return out
}

// Events converts the recorded spans to trace events: one thread per
// goroutine-processor, the op name as the event name, block ids in args.
func (r *Recorder) Events(processName string) []Event {
	if processName == "" {
		processName = "fanout execution"
	}
	spans := r.Spans()
	events := make([]Event, 0, len(spans)+len(r.lanes)+2)
	events = append(events, meta("process_name", 1, 0, processName))
	if d := r.Dropped(); d > 0 {
		// Surface truncation in the trace itself: a snapshot missing spans
		// must say so, or its timeline reads as a complete recording.
		events = append(events, Event{
			Name: "dropped_spans", Ph: "C", Cat: "meta", Pid: 1,
			Args: map[string]any{"count": d},
		})
	}
	for p := range r.lanes {
		events = append(events, meta("thread_name", 1, int64(p), fmt.Sprintf("P%d", p)))
	}
	for _, s := range spans {
		args := map[string]any{"block": s.Block}
		if (s.Op == OpBMOD || s.Op == OpSteal) && s.Src >= 0 {
			args["src"] = s.Src
		}
		events = append(events, Event{
			Name: s.Op.String(),
			Ph:   "X",
			Cat:  "compute",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Pid:  1,
			Tid:  int64(s.Proc),
			Args: args,
		})
	}
	return events
}

// WriteTrace renders the recorder's spans as a complete trace-event JSON
// document.
func (r *Recorder) WriteTrace(w io.Writer, processName string) error {
	return WriteEvents(w, r.Events(processName))
}
