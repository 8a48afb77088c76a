package admission

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// admit is a test helper asserting a request is admitted immediately.
func admit(t *testing.T, c *Controller, req Request) func() {
	t.Helper()
	rel, rej, err := c.Admit(context.Background(), req)
	if err != nil {
		t.Fatalf("Admit returned ctx error: %v", err)
	}
	if rej != nil {
		t.Fatalf("Admit rejected: %d %s %s", rej.Status, rej.Code, rej.Message)
	}
	return rel
}

func TestAdmitReleaseBasic(t *testing.T) {
	c := New(Config{Workers: 2, QueueDepth: 4})
	r1 := admit(t, c, Request{Priority: Interactive})
	r2 := admit(t, c, Request{Priority: Cold})
	st := c.Snapshot()
	if st.Busy != 2 {
		t.Fatalf("busy = %d, want 2", st.Busy)
	}
	r1()
	r1() // double release must be a no-op
	r2()
	if st := c.Snapshot(); st.Busy != 0 {
		t.Fatalf("busy after release = %d, want 0", st.Busy)
	}
	if got := st.Tenants[DefaultTenant].Admitted; got != 2 {
		t.Fatalf("default tenant admitted = %d, want 2", got)
	}
}

func TestQueueFullRejection(t *testing.T) {
	c := New(Config{Workers: 1, QueueDepth: 1, RejectAt: 1, ShedAt: 1})
	rel := admit(t, c, Request{Priority: Interactive})
	defer rel()

	// Fill the single queue slot.
	done := make(chan struct{})
	go func() {
		rel2, rej, err := c.Admit(context.Background(), Request{Priority: Interactive})
		if err != nil || rej != nil {
			t.Errorf("queued admit failed: rej=%v err=%v", rej, err)
		} else {
			rel2()
		}
		close(done)
	}()
	waitFor(t, func() bool { return c.Snapshot().QueuedByPri["interactive"] == 1 })

	_, rej, err := c.Admit(context.Background(), Request{Priority: Interactive})
	if err != nil {
		t.Fatalf("unexpected ctx err: %v", err)
	}
	if rej == nil || rej.Code != "queue_full" || rej.Status != 429 {
		t.Fatalf("rejection = %+v, want 429 queue_full", rej)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("queue_full rejection missing Retry-After: %v", rej.RetryAfter)
	}
	rel()
	<-done
}

func TestTenantRateLimit(t *testing.T) {
	c := New(Config{
		Workers: 8, QueueDepth: 8,
		Tenants: map[string]TenantLimits{"slow": {Rate: 1, Burst: 2}},
	})
	// Burst of 2 admitted, third rejected by the bucket.
	r1 := admit(t, c, Request{Tenant: "slow"})
	r2 := admit(t, c, Request{Tenant: "slow"})
	_, rej, _ := c.Admit(context.Background(), Request{Tenant: "slow"})
	if rej == nil || rej.Code != "tenant_rate" || rej.Status != 429 {
		t.Fatalf("rejection = %+v, want 429 tenant_rate", rej)
	}
	if rej.RetryAfter < time.Second {
		t.Fatalf("tenant_rate Retry-After = %v, want >= 1s", rej.RetryAfter)
	}
	// Other tenants are unaffected.
	r3 := admit(t, c, Request{Tenant: "other"})
	r1()
	r2()
	r3()
	st := c.Snapshot()
	if st.Tenants["slow"].RejectedRate != 1 {
		t.Fatalf("slow rejected_rate = %d, want 1", st.Tenants["slow"].RejectedRate)
	}
}

func TestTenantConcurrencyQuota(t *testing.T) {
	c := New(Config{
		Workers: 8, QueueDepth: 8,
		Tenants: map[string]TenantLimits{"capped": {MaxInFlight: 1}},
	})
	rel := admit(t, c, Request{Tenant: "capped"})
	_, rej, _ := c.Admit(context.Background(), Request{Tenant: "capped"})
	if rej == nil || rej.Code != "tenant_quota" || rej.Status != 429 {
		t.Fatalf("rejection = %+v, want 429 tenant_quota", rej)
	}
	rel()
	// Slot freed: the tenant may run again.
	admit(t, c, Request{Tenant: "capped"})()
}

func TestPriorityOrderAndWRR(t *testing.T) {
	c := New(Config{Workers: 1, QueueDepth: 32, RejectAt: 1, ShedAt: 1})
	rel := admit(t, c, Request{Priority: Interactive})

	var order []Priority
	var mu sync.Mutex
	var wg sync.WaitGroup
	enqueue := func(p Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, rej, err := c.Admit(context.Background(), Request{Priority: p})
			if rej != nil || err != nil {
				t.Errorf("admit(%v): rej=%v err=%v", p, rej, err)
				return
			}
			mu.Lock()
			order = append(order, p)
			mu.Unlock()
			r()
		}()
	}
	// Queue colds first, then interactives; drain order must still favor
	// interactive heavily (WRR 8:3:1).
	for i := 0; i < 3; i++ {
		enqueue(Cold)
		waitFor(t, func() bool { return c.Snapshot().QueuedByPri["cold"] == i+1 })
	}
	for i := 0; i < 3; i++ {
		enqueue(Interactive)
		waitFor(t, func() bool { return c.Snapshot().QueuedByPri["interactive"] == i+1 })
	}
	rel()
	wg.Wait()
	// With 3 of each queued and credits 8/3/1, all interactives drain
	// before the last cold.
	mu.Lock()
	defer mu.Unlock()
	lastInteractive, lastCold := -1, -1
	for i, p := range order {
		if p == Interactive {
			lastInteractive = i
		} else {
			lastCold = i
		}
	}
	if lastInteractive > lastCold {
		t.Fatalf("interactive drained after the final cold: order=%v", order)
	}
}

func TestTenantRoundRobinWithinClass(t *testing.T) {
	c := New(Config{Workers: 1, QueueDepth: 32, RejectAt: 1, ShedAt: 1})
	rel := admit(t, c, Request{Priority: Interactive})

	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	enqueue := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			cur := 0
			mu.Lock()
			cur = len(order)
			mu.Unlock()
			_ = cur
			before := c.Snapshot().QueuedByPri["interactive"]
			go func() {
				defer wg.Done()
				r, rej, err := c.Admit(context.Background(), Request{Tenant: tenant, Priority: Interactive})
				if rej != nil || err != nil {
					t.Errorf("admit: rej=%v err=%v", rej, err)
					return
				}
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
				r()
			}()
			waitFor(t, func() bool { return c.Snapshot().QueuedByPri["interactive"] == before+1 })
		}
	}
	// Tenant A floods first; B arrives later with 2 requests. Round-robin
	// must interleave B's instead of serving all of A first.
	enqueue("a", 6)
	enqueue("b", 2)
	rel()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	// B's 2nd grant must come before A's 6th (strict FIFO would put both
	// B's at positions 7–8).
	posB2, posA6 := -1, -1
	seenB, seenA := 0, 0
	for i, tn := range order {
		if tn == "b" {
			seenB++
			if seenB == 2 {
				posB2 = i
			}
		} else {
			seenA++
			if seenA == 6 {
				posA6 = i
			}
		}
	}
	if posB2 > posA6 {
		t.Fatalf("tenant b starved by a's flood: order=%v", order)
	}
}

func TestDeadlineInfeasibleAtAdmit(t *testing.T) {
	c := New(Config{Workers: 1, QueueDepth: 4})
	_, rej, _ := c.Admit(context.Background(), Request{
		Priority: Cold,
		Cost:     time.Hour,
		Deadline: time.Now().Add(time.Second),
	})
	if rej == nil || rej.Code != "deadline_infeasible" || rej.Status != 504 {
		t.Fatalf("rejection = %+v, want 504 deadline_infeasible", rej)
	}
	if st := c.Snapshot(); st.DeadlineShed != 1 {
		t.Fatalf("deadline_shed = %d, want 1", st.DeadlineShed)
	}
}

func TestDeadlineShedWhileQueued(t *testing.T) {
	c := New(Config{Workers: 1, QueueDepth: 4, RejectAt: 1, ShedAt: 1})
	rel := admit(t, c, Request{Priority: Interactive})

	// Queue a request whose deadline will expire while it waits.
	got := make(chan *Rejection, 1)
	go func() {
		r, rej, err := c.Admit(context.Background(), Request{
			Priority: Interactive,
			Cost:     50 * time.Millisecond,
			Deadline: time.Now().Add(60 * time.Millisecond),
		})
		if err != nil {
			t.Errorf("ctx err: %v", err)
		}
		if r != nil {
			r()
		}
		got <- rej
	}()
	waitFor(t, func() bool { return c.Snapshot().QueuedByPri["interactive"] == 1 })
	time.Sleep(80 * time.Millisecond) // deadline now uncoverable
	rel()                             // dispatch: the waiter must be shed, not granted
	rej := <-got
	if rej == nil || rej.Code != "deadline_infeasible" {
		t.Fatalf("queued waiter rejection = %+v, want deadline_infeasible", rej)
	}
}

func TestContextCancelWhileQueued(t *testing.T) {
	c := New(Config{Workers: 1, QueueDepth: 4, RejectAt: 1, ShedAt: 1})
	rel := admit(t, c, Request{Priority: Interactive})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Admit(ctx, Request{Priority: Interactive})
		done <- err
	}()
	waitFor(t, func() bool { return c.Snapshot().QueuedByPri["interactive"] == 1 })
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return c.Snapshot().QueuedByPri["interactive"] == 0 })
	rel()
	if st := c.Snapshot(); st.Tenants[DefaultTenant].InFlight != 0 {
		t.Fatalf("in_flight = %d after cancel+release, want 0", st.Tenants[DefaultTenant].InFlight)
	}
}

func TestBrownoutShedAndReject(t *testing.T) {
	// QueueDepth 10, ShedAt 0.3 (3 queued), RejectAt 0.6 (6 queued).
	c := New(Config{Workers: 1, QueueDepth: 10, ShedAt: 0.3, RejectAt: 0.6})
	rel := admit(t, c, Request{Priority: Interactive})

	var wg sync.WaitGroup
	queueOne := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, _ := c.Admit(context.Background(), Request{Priority: Interactive})
			if r != nil {
				r()
			}
		}()
		waitFor(t, func() bool { return c.Snapshot().QueuedByPri["interactive"] == i })
	}
	for i := 1; i <= 3; i++ {
		queueOne(i)
	}
	// 3/10 queued ≥ ShedAt: next cold request must see brownout.
	_, rej, _ := c.Admit(context.Background(), Request{Priority: Cold})
	if rej == nil || rej.Code != "brownout" || rej.Status != 503 {
		t.Fatalf("cold under shed = %+v, want 503 brownout", rej)
	}
	if got := c.State(); got != StateShed {
		t.Fatalf("state = %v, want shed", got)
	}
	// Refactors still flow in StateShed (they queue).
	for i := 4; i <= 6; i++ {
		queueOne(i)
	}
	_, rej, _ = c.Admit(context.Background(), Request{Priority: Refactor})
	if rej == nil || rej.Code != "brownout" {
		t.Fatalf("refactor under reject = %+v, want brownout", rej)
	}
	if got := c.State(); got != StateReject {
		t.Fatalf("state = %v, want reject-new-factors", got)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("brownout rejection missing Retry-After")
	}
	rel()
	wg.Wait()
	// Queue drained: state must fall back to ok (hysteresis at occ < ShedAt/2 = 0).
	_, rej, _ = c.Admit(context.Background(), Request{Priority: Cold})
	if rej != nil {
		t.Fatalf("cold after drain rejected: %+v", rej)
	}
	if got := c.State(); got != StateOK {
		t.Fatalf("state after drain = %v, want ok", got)
	}
	st := c.Snapshot()
	if st.Transitions < 3 { // ok→shed→reject→(shed→)ok
		t.Fatalf("transitions = %d, want >= 3", st.Transitions)
	}
}

func TestBrownoutShedsQueuedCold(t *testing.T) {
	c := New(Config{Workers: 1, QueueDepth: 10, ShedAt: 0.4, RejectAt: 0.9})
	rel := admit(t, c, Request{Priority: Interactive})

	// Queue one cold while state is still ok.
	coldRej := make(chan *Rejection, 1)
	go func() {
		r, rej, _ := c.Admit(context.Background(), Request{Priority: Cold})
		if r != nil {
			r()
		}
		coldRej <- rej
	}()
	waitFor(t, func() bool { return c.Snapshot().QueuedByPri["cold"] == 1 })

	// Push interactive queue depth past ShedAt: the queued cold is shed.
	var wg sync.WaitGroup
	for i := 1; i <= 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, _ := c.Admit(context.Background(), Request{Priority: Interactive})
			if r != nil {
				r()
			}
		}()
		waitFor(t, func() bool { return c.Snapshot().QueuedByPri["interactive"] == i })
	}
	rej := <-coldRej
	if rej == nil || rej.Code != "brownout" || rej.Status != 503 {
		t.Fatalf("queued cold shed = %+v, want 503 brownout", rej)
	}
	rel()
	wg.Wait()
}

func TestDrainRejectsEverything(t *testing.T) {
	c := New(Config{Workers: 2, QueueDepth: 4})
	c.SetDraining(true)
	_, rej, _ := c.Admit(context.Background(), Request{Priority: Interactive})
	if rej == nil || rej.Code != "draining" || rej.Status != 503 {
		t.Fatalf("rejection = %+v, want 503 draining", rej)
	}
	if got := c.State(); got != StateDrain {
		t.Fatalf("state = %v, want drain", got)
	}
	c.SetDraining(false)
	admit(t, c, Request{Priority: Interactive})()
}

func TestChargeBucketOnly(t *testing.T) {
	c := New(Config{
		Workers: 1, QueueDepth: 4,
		Tenants: map[string]TenantLimits{"t": {Rate: 1, Burst: 1, MaxInFlight: 1}},
	})
	// Charge draws the bucket but not the concurrency quota.
	if rej := c.Charge("t", Interactive); rej != nil {
		t.Fatalf("first charge rejected: %+v", rej)
	}
	if rej := c.Charge("t", Interactive); rej == nil || rej.Code != "tenant_rate" {
		t.Fatalf("second charge = %+v, want tenant_rate", rej)
	}
	// Internal admission ignores bucket and quota entirely.
	rel, rej, err := c.Admit(context.Background(), Request{Tenant: "t", Priority: Interactive, Internal: true})
	if rej != nil || err != nil {
		t.Fatalf("internal admit: rej=%v err=%v", rej, err)
	}
	rel()
}

func TestMemoryWatermarkForcesBrownout(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	c := New(Config{
		Workers: 2, QueueDepth: 8,
		MemSoftBytes: 1 << 50, MemHardBytes: 1 << 51, // far above any real heap
		MemCheckEvery: time.Nanosecond,
		now:           clock,
	})
	if got := c.State(); got != StateOK {
		t.Fatalf("state = %v, want ok (heap below watermark)", got)
	}
	// Shrink the watermarks below the real heap: next eval must escalate.
	c.mu.Lock()
	c.cfg.MemSoftBytes = 1
	c.cfg.MemHardBytes = 1 << 50
	c.lastMemScan = time.Time{}
	c.mu.Unlock()
	now = now.Add(time.Second)
	_, rej, _ := c.Admit(context.Background(), Request{Priority: Cold})
	if rej == nil || rej.Code != "brownout" {
		t.Fatalf("cold above mem soft watermark = %+v, want brownout", rej)
	}
	st := c.Snapshot()
	if st.MemForced == 0 {
		t.Fatalf("mem_forced = 0, want > 0")
	}
	if st.HeapBytes == 0 {
		t.Fatalf("heap_bytes not sampled")
	}
}

func TestConcurrentStress(t *testing.T) {
	c := New(Config{
		Workers: 4, QueueDepth: 16, ShedAt: 0.6, RejectAt: 0.9,
		Tenants: map[string]TenantLimits{"x": {MaxInFlight: 8}},
	})
	var admitted, rejected atomic.Int64
	var inFlight atomic.Int64
	var maxSeen atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := "x"
			if g%2 == 0 {
				tenant = "y"
			}
			for i := 0; i < 50; i++ {
				rel, rej, err := c.Admit(context.Background(), Request{
					Tenant:   tenant,
					Priority: Priority(i % int(numPriorities)),
				})
				if err != nil {
					t.Errorf("ctx err: %v", err)
					return
				}
				if rej != nil {
					rejected.Add(1)
					continue
				}
				n := inFlight.Add(1)
				for {
					m := maxSeen.Load()
					if n <= m || maxSeen.CompareAndSwap(m, n) {
						break
					}
				}
				admitted.Add(1)
				inFlight.Add(-1)
				rel()
			}
		}(g)
	}
	wg.Wait()
	if m := maxSeen.Load(); m > 4 {
		t.Fatalf("concurrent executions %d exceeded Workers=4", m)
	}
	st := c.Snapshot()
	if st.Busy != 0 {
		t.Fatalf("busy = %d after all work done, want 0", st.Busy)
	}
	for name, ts := range st.Tenants {
		if ts.InFlight != 0 {
			t.Fatalf("tenant %s in_flight = %d, want 0", name, ts.InFlight)
		}
	}
	if admitted.Load() == 0 {
		t.Fatalf("nothing admitted under stress")
	}
}

func TestCostModel(t *testing.T) {
	var m CostModel
	if d := m.Estimate(0); d != 0 {
		t.Fatalf("Estimate(0) = %v, want 0", d)
	}
	// Uncalibrated: 1 GFlop at the pessimistic 1 GFlop/s seed ≈ 1s.
	if d := m.Estimate(1e9); d < 500*time.Millisecond || d > 2*time.Second {
		t.Fatalf("uncalibrated Estimate(1e9) = %v, want ~1s", d)
	}
	// Observe a 10 GFlop/s machine repeatedly; estimates must converge down.
	for i := 0; i < 32; i++ {
		m.Observe(1e9, 100*time.Millisecond)
	}
	if d := m.Estimate(1e9); d > 200*time.Millisecond {
		t.Fatalf("calibrated Estimate(1e9) = %v, want <= 200ms", d)
	}
	m.Observe(0, time.Second) // ignored
	m.Observe(1e9, 0)         // ignored
	m.Observe(1, time.Nanosecond)
	if d := m.Estimate(1e9); d <= 0 {
		t.Fatalf("estimate collapsed to %v", d)
	}
}

func TestRejectionIsError(t *testing.T) {
	var err error = &Rejection{Status: 429, Code: "queue_full", Message: "full"}
	if err.Error() != "full" {
		t.Fatalf("Error() = %q", err.Error())
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateOK: "ok", StateShed: "shed-low-priority",
		StateReject: "reject-new-factors", StateDrain: "drain",
	}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
	if Interactive.String() != "interactive" || Refactor.String() != "refactor" || Cold.String() != "cold" {
		t.Fatalf("priority strings wrong")
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached within 2s")
}
