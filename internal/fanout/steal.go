package fanout

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blockfanout/internal/numeric"
	"blockfanout/internal/obs"
)

// The engine runs the fan-out DAG on a pool of workers draining ready
// block operations from per-worker LIFO deques (Chase–Lev). Under free
// placement a worker whose own deque runs dry steals from a random
// victim's tail.
//
// Readiness is tracked with atomic countdown counters — the multi-consumer
// form of a per-processor arrival bitset (an arrival would flip a bit
// there; it decrements a counter here) — and decrement-to-zero gives an
// exactly-once handoff:
//
//   - srcLeft[p], one per BMOD pairing, starts at the pairing's source
//     count (2, or 1 when both sources are the same block). The completion
//     of each source block decrements it; whoever reaches zero publishes
//     the pairing to its destination's ready queue.
//   - finLeft[id], one per block, starts at NMods (+1 for off-diagonal
//     blocks, whose BDIV also awaits the column's factored diagonal).
//     Each executed BMOD into the block — and, for off-diagonal blocks,
//     the diagonal's completion — decrements it; whoever reaches zero runs
//     the block's own completing operation (BFAC or BDIV) inline.
//
// BMODs into one destination must be serialized (they read-modify-write
// the same block), so the unit of scheduling in the deques is a block
// *activation*, not a single op: ready pairings are appended to a
// per-destination queue (slots/slotHead/slotDone), and a CAS on active[id]
// elects at most one live activation per destination, which drains the
// queue and re-checks after release. At most one activation per block also
// bounds total deque occupancy by NBlocks, letting the fixed-capacity
// deques never overflow.
//
// Pinned placement (ModeSPMD) keeps all of the above and changes only who
// runs a ready task: block d's activations and its BFAC/BDIV belong to
// worker Owner[d]. A task readied on its owner goes on the owner's deque
// (an activation) or runs inline (a completing op), exactly as under free
// placement; a task readied elsewhere is sent to the owner's inbox, whose
// entry id means "activate block id" and ^id "run block id's completing
// op". Pinned workers never steal and wait only on their own inbox. The
// inbox holds 2·OwnedCount+1 entries, so a send never blocks: at most one
// activation per owned block is live at a time, and each owned block's
// completing op is sent at most once.
//
// Memory ordering: every block's data is written before the atomic
// decrement (or inbox send) that announces it and read only after
// observing the resulting count (or receiving the entry), so the
// happens-before edges make the numeric payload race-free without any
// additional locking.
//
// The deterministic first-error contract holds under every placement:
// every worker always attempts all of its seed BFACs (stopping at its own
// first failure) before entering the scheduling loop, and fail() ranks
// errors so the lowest (Block, Row) breakdown wins.

// wsWorker is one worker of the engine's pool.
type wsWorker struct {
	ex     *Executor
	me     int32
	failed bool
	rng    uint64
	dq     deque
	ws     numeric.Workspace
	inbox  chan int32 // pinned placement: tasks readied on other workers

	flops  int64 // flops of block ops this worker executed
	steals int64 // successful thefts
	// Pacing state for Restriction.FlopsPerSec (rate is this worker's
	// share; zero disables pacing).
	rate  float64
	start time.Time
}

// pace accounts fl executed flops and, under a rate restriction, sleeps
// this worker until its cumulative flop count is back under rate·elapsed.
func (w *wsWorker) pace(fl int64) {
	w.flops += fl
	if w.rate <= 0 {
		return
	}
	target := time.Duration(float64(w.flops) / w.rate * 1e9)
	if el := time.Since(w.start); el < target {
		time.Sleep(target - el)
	}
}

// initEngine builds the run state: countdown templates, the
// per-destination ready-queue storage, seed lists, and one deque-equipped
// worker per virtual processor (with an inbox under pinned placement).
func (ex *Executor) initEngine() {
	pr := ex.pr
	np := pr.NProc
	ex.pairs = pr.Pairs()
	total := len(pr.ModDest)
	ex.srcInit = make([]int32, total)
	ex.srcLeft = make([]int32, total)
	ex.slots = make([]int32, total)
	pt := ex.pairs
	for p := 0; p < total; p++ {
		if pt.A[p] == pt.B[p] {
			ex.srcInit[p] = 1
		} else {
			ex.srcInit[p] = 2
		}
	}
	ex.finInit = make([]int32, pr.NBlocks)
	ex.finLeft = make([]int32, pr.NBlocks)
	ex.slotHead = make([]int32, pr.NBlocks)
	ex.slotDone = make([]int32, pr.NBlocks)
	ex.active = make([]int32, pr.NBlocks)
	for id := 0; id < pr.NBlocks; id++ {
		ex.finInit[id] = pr.NMods[id]
		if pr.IdxOf[id] != 0 {
			ex.finInit[id]++ // the column's factored diagonal block
		}
	}
	// A restriction shrinks the worker pool (a node runs one pool per
	// machine, not one per virtual processor), confines execution to the
	// mask, and opens the external-arrival channel.
	if r := ex.restrict; r != nil {
		np = r.Workers
		if np <= 0 {
			np = runtime.GOMAXPROCS(0)
		}
		ex.execMask = make([]bool, pr.NBlocks)
		for id := int32(0); id < int32(pr.NBlocks); id++ {
			if r.executes(id) {
				ex.execMask[id] = true
				ex.execCount++
			}
		}
		ex.extCh = make(chan int32, pr.NBlocks)
	}

	// Seeds: diagonal blocks with no pending modifications, grouped by
	// owner (pinned placement requires it; free placement keeps it, so the
	// mapping still chooses who runs each seed BFAC). A restricted
	// executor seeds only the blocks it executes, spread round-robin (its
	// workers have no ownership identity).
	ex.seeds = make([][]int32, np)
	rr := 0
	for j := range pr.BS.Cols {
		id := pr.BlockID(j, 0)
		if pr.NMods[id] != 0 {
			continue
		}
		if ex.restrict != nil {
			if ex.execMask[id] {
				ex.seeds[rr%np] = append(ex.seeds[rr%np], id)
				rr++
			}
		} else {
			ex.seeds[pr.Owner[id]] = append(ex.seeds[pr.Owner[id]], id)
		}
	}
	capPow2 := 1
	for capPow2 < pr.NBlocks {
		capPow2 <<= 1
	}
	ex.workers = make([]wsWorker, np)
	maxRows := ex.f.MaxBlockRows()
	for p := 0; p < np; p++ {
		w := &ex.workers[p]
		w.ex = ex
		w.me = int32(p)
		w.rng = splitmix64(uint64(p))
		w.dq.buf = make([]int32, capPow2)
		w.dq.mask = int64(capPow2 - 1)
		w.ws.Reserve(maxRows)
		if ex.restrict != nil && ex.restrict.FlopsPerSec > 0 {
			w.rate = ex.restrict.FlopsPerSec / float64(np)
		}
		if ex.pinned {
			w.inbox = make(chan int32, 2*pr.OwnedCount[p]+1)
		}
	}
	ex.parkCh = make(chan struct{}, np)
}

// reset restores the pre-run state from the templates and discards inbox
// entries stranded by an aborted previous run.
func (ex *Executor) reset() {
	copy(ex.srcLeft, ex.srcInit)
	copy(ex.finLeft, ex.finInit)
	for i := range ex.slotHead {
		ex.slotHead[i] = 0
		ex.slotDone[i] = 0
		ex.active[i] = 0
	}
	for i := range ex.slots {
		ex.slots[i] = -1
	}
	left := int32(ex.pr.NBlocks)
	if ex.restrict != nil {
		left = ex.execCount
	}
	ex.blocksLeft.Store(left)
	ex.doneCh = make(chan struct{})
	ex.doneOnce = sync.Once{}
	if left == 0 {
		ex.doneOnce.Do(func() { close(ex.doneCh) })
	}
	ex.sleepers.Store(0)
	for {
		select {
		case <-ex.parkCh:
			continue
		default:
		}
		break
	}
	// ex.extCh is deliberately NOT drained: a restricted executor is
	// single-run, and arrivals injected between construction and Run (a
	// fast peer can complete blocks before a slow node starts its run)
	// must be delivered, not discarded.
	for p := range ex.workers {
		w := &ex.workers[p]
		w.failed = false
		w.flops = 0
		w.steals = 0
		w.start = time.Now()
		w.dq.top.Store(0)
		w.dq.bottom.Store(0)
		for len(w.inbox) > 0 {
			<-w.inbox
		}
	}
	ex.abort = make(chan struct{})
	ex.abortOnce = sync.Once{}
	ex.firstErr = nil
}

// run is the body of one worker goroutine.
func (w *wsWorker) run() {
	ex := w.ex
	// Seeds first, unconditionally — no abort poll, stopping only at this
	// worker's own first failure — so a breakdown in an unmodified
	// diagonal block is detected on every run regardless of interleaving
	// and the ranked fail() reports the lowest (Block, Row)
	// deterministically.
	for _, id := range ex.seeds[w.me] {
		w.finish(id)
		if w.failed {
			return
		}
	}
	for {
		if w.failed || ex.blocksLeft.Load() == 0 || w.aborted() {
			return
		}
		if ex.extCh != nil {
			select {
			case id := <-ex.extCh:
				w.propagate(id)
				continue
			default:
			}
		}
		if d, ok := w.dq.pop(); ok {
			w.processBlock(d)
			continue
		}
		if ex.pinned {
			w.receive()
			continue
		}
		if d, ok := w.steal(); ok {
			w.processBlock(d)
			continue
		}
		if !w.park() {
			return
		}
	}
}

// receive runs a pinned worker's next inbox entry, blocking until one
// arrives or the run ends (the loop's checks then exit). A pinned worker
// waits on nothing else: its deque is empty here, and no other worker's
// tasks are its to run.
func (w *wsWorker) receive() {
	ex := w.ex
	select {
	case task := <-w.inbox:
		if task >= 0 {
			w.processBlock(task)
		} else {
			w.finish(^task)
		}
	case <-ex.abort:
	case <-ex.doneCh:
	}
}

func (w *wsWorker) aborted() bool {
	select {
	case <-w.ex.abort:
		return true
	default:
		return false
	}
}

// processBlock drains the destination's ready-pairing queue while holding
// its activation claim, releasing and re-claiming if more pairings were
// published during the release window.
func (w *wsWorker) processBlock(d int32) {
	ex := w.ex
	base := ex.pairs.DestBase[d]
	for {
		head := atomic.LoadInt32(&ex.slotHead[d])
		for done := atomic.LoadInt32(&ex.slotDone[d]); done < head; done++ {
			if w.aborted() {
				return
			}
			p := w.slotAt(base + done)
			// Only the claim holder advances slotDone, but the post-release
			// recheck below reads it concurrently, so the store is atomic.
			atomic.StoreInt32(&ex.slotDone[d], done+1)
			w.execPair(p)
			if w.failed {
				return
			}
		}
		atomic.StoreInt32(&ex.active[d], 0)
		if atomic.LoadInt32(&ex.slotHead[d]) == atomic.LoadInt32(&ex.slotDone[d]) {
			return
		}
		// Pairings raced the release; whoever wins the re-claim (us or the
		// publisher) continues the drain.
		if !atomic.CompareAndSwapInt32(&ex.active[d], 0, 1) {
			return
		}
	}
}

// slotAt spins out the tiny window between a publisher's slot reservation
// (the slotHead increment) and its slot store.
func (w *wsWorker) slotAt(i int32) int32 {
	for spins := 0; ; spins++ {
		if p := atomic.LoadInt32(&w.ex.slots[i]); p >= 0 {
			return p
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// execPair performs one BMOD, with the pairing's precomputed destination
// and row map, and hands the destination off if this was its last
// prerequisite.
func (w *wsWorker) execPair(p int32) {
	ex := w.ex
	pt := ex.pairs
	k, ia, jb := int(pt.Col[p]), int(pt.A[p]), int(pt.B[p])
	dest := pt.Dest[p]
	t0 := ex.rec.Start()
	ex.f.BMODMapped(k, ia, jb, int(ex.pr.IdxOf[dest]), pt.RowMap(p), &w.ws)
	ex.rec.Record(w.me, obs.OpBMOD, dest, ex.pr.BlockID(k, ia), t0)
	w.pace(ex.pr.ModFlops(k, ia, jb))
	if atomic.AddInt32(&ex.finLeft[dest], -1) == 0 {
		w.finish(dest)
	}
}

// finish runs a block's completing operation (BFAC or BDIV). The caller
// guarantees exclusivity: either the block is a seed, or the caller just
// took finLeft to zero.
func (w *wsWorker) finish(id int32) {
	ex := w.ex
	k, idx := int(ex.pr.ColOf[id]), int(ex.pr.IdxOf[id])
	t0 := ex.rec.Start()
	if idx == 0 {
		if err := ex.f.BFAC(k); err != nil {
			ex.fail(err)
			w.failed = true
			return
		}
		ex.rec.Record(w.me, obs.OpBFAC, id, -1, t0)
	} else {
		if err := ex.f.BDIV(k, idx, &w.ws); err != nil {
			ex.fail(err)
			w.failed = true
			return
		}
		ex.rec.Record(w.me, obs.OpBDIV, id, -1, t0)
	}
	w.pace(ex.pr.OwnOpFlops[id])
	w.completed(id)
}

// completed handles a locally executed block's completion: hand it to the
// restriction's fan-out hook, propagate it into the dependence counters,
// and retire it from the local block count.
func (w *wsWorker) completed(id int32) {
	ex := w.ex
	if ex.restrict != nil && ex.restrict.OnComplete != nil {
		ex.restrict.OnComplete(id)
	}
	w.propagate(id)
	if ex.blocksLeft.Add(-1) == 0 {
		ex.doneOnce.Do(func() { close(ex.doneCh) })
	}
}

// propagate fans a completed block's availability into the counters,
// whether it was computed here, retained from a previous epoch, or
// injected from the network: a diagonal block releases the BDIV
// prerequisite of its column's off-diagonal blocks (recursing at most once
// — their completions only publish pairings); an off-diagonal block
// decrements the source counters of every pairing it participates in.
func (w *wsWorker) propagate(id int32) {
	ex := w.ex
	pr := ex.pr
	k, idx := int(pr.ColOf[id]), int(pr.IdxOf[id])
	nb := len(pr.BS.Cols[k].Blocks)
	if idx == 0 {
		for j := 1; j < nb; j++ {
			bid := pr.BlockID(k, j)
			if atomic.AddInt32(&ex.finLeft[bid], -1) == 0 {
				// Under a restriction, non-local (or predone) blocks reach
				// zero too — their arrival is someone else's business.
				if ex.execMask != nil && !ex.execMask[bid] {
					continue
				}
				if ex.pinned {
					if o := pr.Owner[bid]; o != w.me {
						ex.workers[o].inbox <- ^bid
						continue
					}
				}
				w.finish(bid)
				if w.failed {
					return
				}
			}
		}
	} else {
		base := pr.ModBase[k]
		for jb := 1; jb < nb; jb++ {
			hi, lo := idx, jb
			if hi < lo {
				hi, lo = lo, hi
			}
			p := int32(base + (hi-1)*hi/2 + lo - 1)
			if atomic.AddInt32(&ex.srcLeft[p], -1) == 0 {
				w.ready(p)
			}
		}
	}
}

// ready publishes a pairing whose sources are all complete to its
// destination's queue and elects an activation if none is live; under
// pinned placement the activation goes to the destination's owner.
// Pairings into blocks a restriction excludes are dropped: their BMODs run
// on the destination's owner.
func (w *wsWorker) ready(p int32) {
	ex := w.ex
	d := ex.pairs.Dest[p]
	if ex.execMask != nil && !ex.execMask[d] {
		return
	}
	slot := ex.pairs.DestBase[d] + atomic.AddInt32(&ex.slotHead[d], 1) - 1
	atomic.StoreInt32(&ex.slots[slot], p)
	if atomic.CompareAndSwapInt32(&ex.active[d], 0, 1) {
		if ex.pinned {
			if o := ex.pr.Owner[d]; o != w.me {
				ex.workers[o].inbox <- d
				return
			}
		}
		w.dq.push(d)
		if ex.sleepers.Load() > 0 {
			select {
			case ex.parkCh <- struct{}{}:
			default:
			}
		}
	}
}

// steal scans the other workers' deques from a random start, recording a
// span for a successful theft.
func (w *wsWorker) steal() (int32, bool) {
	ex := w.ex
	n := len(ex.workers)
	if n == 1 {
		return 0, false
	}
	t0 := ex.rec.Start()
	off := int(w.next() % uint64(n-1))
	for i := 0; i < n-1; i++ {
		v := int(w.me) + 1 + (off+i)%(n-1)
		if v >= n {
			v -= n
		}
		if d, ok := ex.workers[v].dq.steal(); ok {
			ex.rec.Record(w.me, obs.OpSteal, d, int32(v), t0)
			w.steals++
			return d, true
		}
	}
	return 0, false
}

// park blocks until new work may exist. It returns false when the worker
// should exit (done, aborted, or a detected stall). The sleeper counter
// plus post-announce re-sweep closes the lost-wakeup window: a publisher
// either sees our sleeper registration (and sends a token) or published
// before our sweep (and the sweep finds the task).
func (w *wsWorker) park() bool {
	ex := w.ex
	ns := ex.sleepers.Add(1)
	for v := range ex.workers {
		if d, ok := ex.workers[v].dq.steal(); ok {
			ex.sleepers.Add(-1)
			w.processBlock(d)
			return true
		}
	}
	// "Everyone idle, blocks unfinished" is a bug for a whole-schedule run,
	// but the steady state of a restricted run between network arrivals —
	// so only the unrestricted engine confirms a stall.
	if ex.restrict == nil && int(ns) == len(ex.workers) && ex.blocksLeft.Load() > 0 {
		switch w.confirmStall() {
		case stallExit:
			ex.sleepers.Add(-1)
			return false
		case stallResume:
			ex.sleepers.Add(-1)
			return true
		}
	}
	t0 := ex.rec.Start()
	select {
	case id := <-w.extChOrNil():
		ex.sleepers.Add(-1)
		ex.rec.Record(w.me, obs.OpIdle, -1, -1, t0)
		w.propagate(id)
		return true
	case <-ex.parkCh:
	case <-ex.abort:
	case <-ex.doneCh:
	}
	ex.sleepers.Add(-1)
	ex.rec.Record(w.me, obs.OpIdle, -1, -1, t0)
	return true
}

// extChOrNil exposes the external-arrival channel to park's select; the
// nil channel of an unrestricted executor simply never fires.
func (w *wsWorker) extChOrNil() chan int32 { return w.ex.extCh }

const (
	stallPark   = iota // state resolved; park normally
	stallResume        // return to the scheduling loop (work was found/done)
	stallExit          // done, aborted, or stall reported
)

// confirmStall handles the suspicious state "every worker idle, blocks
// unfinished": usually a transient (another worker between its wake-up and
// sleeper decrement, holding the last task), but if it persists with all
// deques empty the schedule has stalled — a bug, reported rather than
// deadlocked on.
func (w *wsWorker) confirmStall() int {
	ex := w.ex
	for i := 0; i < 60; i++ {
		time.Sleep(time.Millisecond)
		if ex.blocksLeft.Load() == 0 || w.aborted() {
			return stallExit
		}
		if int(ex.sleepers.Load()) < len(ex.workers) {
			return stallPark // someone is running again; park normally
		}
		for v := range ex.workers {
			if d, ok := ex.workers[v].dq.steal(); ok {
				// Still registered as a sleeper while processing — that
				// only makes publishers err toward sending wake tokens;
				// park's stallResume case deregisters afterwards.
				w.processBlock(d)
				return stallResume
			}
		}
	}
	ex.fail(fmt.Errorf("fanout: work-stealing executor stalled with %d blocks unfinished", ex.blocksLeft.Load()))
	return stallExit
}

// next is a xorshift64 step, giving each worker an allocation-free private
// stream of victim offsets.
func (w *wsWorker) next() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// splitmix64 seeds the per-worker generators deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// deque is a fixed-capacity Chase–Lev work-stealing deque of block ids.
// The owner pushes and pops at the bottom (LIFO); thieves steal from the
// top with a CAS. Capacity is a power of two ≥ NBlocks, which can never
// overflow: at most one live activation exists per block, so total
// occupancy across all deques is bounded by NBlocks. Buffer slots are
// accessed atomically — a steal may read a slot concurrently with the
// owner recycling it after wraparound, and the CAS on top then rejects the
// stale read.
type deque struct {
	top    atomic.Int64
	_      [56]byte // keep thief- and owner-side indices off one cache line
	bottom atomic.Int64
	buf    []int32
	mask   int64
}

func (d *deque) push(v int32) {
	b := d.bottom.Load()
	atomic.StoreInt32(&d.buf[b&d.mask], v)
	d.bottom.Store(b + 1)
}

func (d *deque) pop() (int32, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t < b {
		return atomic.LoadInt32(&d.buf[b&d.mask]), true
	}
	if t == b {
		// Last element: race the thieves for it via top.
		if d.top.CompareAndSwap(t, t+1) {
			d.bottom.Store(b + 1)
			return atomic.LoadInt32(&d.buf[b&d.mask]), true
		}
	}
	d.bottom.Store(b + 1)
	return 0, false
}

func (d *deque) steal() (int32, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return 0, false
	}
	v := atomic.LoadInt32(&d.buf[t&d.mask])
	if d.top.CompareAndSwap(t, t+1) {
		return v, true
	}
	return 0, false
}
