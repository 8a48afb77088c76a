package plancache

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/core"
	"blockfanout/internal/fanout"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
)

// testKey is the configuration digest the test builds run under; the
// config-key separation itself is covered by TestConfigKeySeparatesEntries.
var testKey = core.Options{Ordering: order.MinDegree, BlockSize: 16}.ConfigKey()

func buildFor(m *sparse.Matrix) func() (*core.Plan, sched.Assignment, error) {
	return func() (*core.Plan, sched.Assignment, error) {
		plan, err := core.NewPlan(m, core.Options{Ordering: order.MinDegree, BlockSize: 16})
		if err != nil {
			return nil, sched.Assignment{}, err
		}
		mp := plan.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY)
		return plan, plan.Assign(mp, 2), nil
	}
}

// lookup reports the entry cached for (a, cfg) without adding one: on a
// miss it runs a build that fails, and a failed build is never cached.
func lookup(c *Cache, a *sparse.Matrix, cfg uint64) (*Entry, bool) {
	e, hit, err := c.GetOrBuild(a, cfg, func() (*core.Plan, sched.Assignment, error) {
		return nil, sched.Assignment{}, errors.New("not cached")
	})
	return e, hit && err == nil
}

func TestHitMissAndValueIndependence(t *testing.T) {
	c := New(Config{})
	a := gen.IrregularMesh(150, 5, 3, 7)

	e1, hit, err := c.GetOrBuild(a, testKey, buildFor(a))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first lookup reported a hit")
	}

	// Same pattern, different values: must hit and return the same plan.
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] *= 2.5
	}
	e2, hit, err := c.GetOrBuild(a2, testKey, buildFor(a2))
	if err != nil {
		t.Fatal(err)
	}
	if !hit || e2.Plan != e1.Plan {
		t.Fatalf("value change broke pattern reuse (hit=%v, same plan=%v)", hit, e2.Plan == e1.Plan)
	}

	// Different structure: miss.
	b := gen.IrregularMesh(150, 5, 3, 8)
	_, hit, err = c.GetOrBuild(b, testKey, buildFor(b))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("different pattern reported a hit")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v; want 1 hit, 2 misses, 2 entries", st)
	}
	if st.Bytes <= 0 {
		t.Fatal("byte accounting did not move")
	}
}

func TestEntryBudgetEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	ms := []*sparse.Matrix{
		gen.IrregularMesh(100, 5, 3, 1),
		gen.IrregularMesh(100, 5, 3, 2),
		gen.IrregularMesh(100, 5, 3, 3),
	}
	for _, m := range ms {
		if _, _, err := c.GetOrBuild(m, testKey, buildFor(m)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v; want 2 entries, 1 eviction", st)
	}
	// The oldest (ms[0]) was evicted; ms[1] and ms[2] remain.
	if _, ok := lookup(c, ms[0], testKey); ok {
		t.Fatal("LRU kept the oldest entry")
	}
	if _, ok := lookup(c, ms[2], testKey); !ok {
		t.Fatal("LRU dropped the newest entry")
	}
}

func TestByteBudgetEviction(t *testing.T) {
	m1 := gen.IrregularMesh(120, 5, 3, 4)
	plan, _, err := buildFor(m1)()
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits one plan of this size but not two.
	c := New(Config{MaxBytes: PlanBytes(plan) + PlanBytes(plan)/2})
	if _, _, err := c.GetOrBuild(m1, testKey, buildFor(m1)); err != nil {
		t.Fatal(err)
	}
	m2 := gen.IrregularMesh(120, 5, 3, 5)
	if _, _, err := c.GetOrBuild(m2, testKey, buildFor(m2)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("byte budget produced no evictions: %+v", st)
	}
	if st.Bytes > c.cfg.MaxBytes {
		t.Fatalf("retained %d bytes over budget %d", st.Bytes, c.cfg.MaxBytes)
	}
	// The newest entry always stays, even if alone over budget.
	if _, ok := lookup(c, m2, testKey); !ok {
		t.Fatal("newest entry was evicted")
	}
}

func TestSingleflightDedup(t *testing.T) {
	c := New(Config{})
	a := gen.IrregularMesh(200, 5, 3, 9)

	var builds int32
	release := make(chan struct{})
	build := func() (*core.Plan, sched.Assignment, error) {
		atomic.AddInt32(&builds, 1)
		<-release // hold every concurrent caller in the same flight
		return buildFor(a)()
	}

	const callers = 8
	var wg sync.WaitGroup
	plans := make([]*core.Plan, callers)
	hits := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, hit, err := c.GetOrBuild(a, testKey, build)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i], hits[i] = e.Plan, hit
		}(i)
	}
	// Let callers pile up against the in-flight build, then release it.
	for {
		c.mu.Lock()
		waiting := c.coalesced
		c.mu.Unlock()
		if waiting >= callers-1 {
			break
		}
	}
	close(release)
	wg.Wait()

	if got := atomic.LoadInt32(&builds); got != 1 {
		t.Fatalf("analysis ran %d times for one pattern; want 1", got)
	}
	nhits := 0
	for i := range plans {
		if plans[i] != plans[0] {
			t.Fatal("coalesced callers got different plans")
		}
		if hits[i] {
			nhits++
		}
	}
	if nhits != callers-1 {
		t.Fatalf("%d callers reported reuse; want %d", nhits, callers-1)
	}
	if st := c.Stats(); st.Coalesced != callers-1 || st.Misses != 1 {
		t.Fatalf("stats = %+v; want %d coalesced, 1 miss", st, callers-1)
	}
}

// TestConfigKeySeparatesEntries checks the blocking-aware keying: the same
// matrix pattern analyzed under different Options (blocking strategy, block
// size) must occupy distinct cache entries, and a Get with the wrong config
// key must miss even when the pattern matches.
func TestConfigKeySeparatesEntries(t *testing.T) {
	c := New(Config{})
	a := gen.IrregularMesh(150, 5, 3, 7)

	variants := []core.Options{
		{Ordering: order.MinDegree, BlockSize: 16},
		{Ordering: order.MinDegree, BlockSize: 16, Blocking: blocks.StrategyIrregular},
		{Ordering: order.MinDegree, BlockSize: 16, Blocking: blocks.StrategyIrregular, AmalgThreshold: 0.25},
		{Ordering: order.MinDegree, BlockSize: 32},
		{Ordering: order.MinDegree, BlockSize: 16, Exec: fanout.ModeSPMD},
	}
	plans := make([]*core.Plan, len(variants))
	for i, opt := range variants {
		opt := opt
		e, hit, err := c.GetOrBuild(a, opt.ConfigKey(), func() (*core.Plan, sched.Assignment, error) {
			plan, err := core.NewPlan(a, opt)
			if err != nil {
				return nil, sched.Assignment{}, err
			}
			mp := plan.Map(mapping.Grid{Pr: 2, Pc: 2}, mapping.ID, mapping.CY)
			return plan, plan.Assign(mp, 2), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("variant %d aliased an earlier configuration", i)
		}
		plans[i] = e.Plan
	}
	st := c.Stats()
	if st.Entries != len(variants) || st.Misses != int64(len(variants)) {
		t.Fatalf("stats = %+v; want %d separate entries", st, len(variants))
	}
	for i, opt := range variants {
		e, ok := lookup(c, a, opt.ConfigKey())
		if !ok || e.Plan != plans[i] {
			t.Fatalf("variant %d did not round-trip through the cache", i)
		}
	}
	if _, ok := lookup(c, a, core.Options{Ordering: order.MinDegree, BlockSize: 48}.ConfigKey()); ok {
		t.Fatal("unbuilt configuration reported a hit")
	}
}

func TestBuildErrorNotCached(t *testing.T) {
	c := New(Config{})
	a := gen.IrregularMesh(80, 5, 3, 10)
	boom := errors.New("boom")
	fail := func() (*core.Plan, sched.Assignment, error) { return nil, sched.Assignment{}, boom }

	if _, _, err := c.GetOrBuild(a, testKey, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatal("failed build was cached")
	}
	// A later successful build proceeds normally.
	if _, hit, err := c.GetOrBuild(a, testKey, buildFor(a)); err != nil || hit {
		t.Fatalf("rebuild after failure: hit=%v err=%v", hit, err)
	}
}

// TestCombineKeyGolden pins the cache key fold on fixed inputs: warm-start
// restores look entries up under it, so a drift would miss every entry a
// previous build filed.
func TestCombineKeyGolden(t *testing.T) {
	for _, tc := range []struct{ pattern, cfg, want uint64 }{
		{0, 0, 0},
		{0xc8d90bbad380606d, 0x262d7130518e6c61, 0x39c6ad57b5c9c7dd},
		{0xcbf29ce484222325, 0x429d456e6e57027f, 0xf183c39f6806cae3},
	} {
		if got := combineKey(tc.pattern, tc.cfg); got != tc.want {
			t.Errorf("combineKey(%#x, %#x) = %#x, want %#x", tc.pattern, tc.cfg, got, tc.want)
		}
	}
}

// TestPlanBytesCoversRetainedHeap: PlanBytes charges at least 0.9× the
// heap a plan keeps alive once it has been built and factored once (the
// first factorization builds the pairing table), on the CI-scale gen
// suite. The heap is read after two collections, so the dropped factor
// and any pooled scratch are gone; the test must not run in parallel.
func TestPlanBytesCoversRetainedHeap(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, pr := range append(gen.Table1Suite(gen.ScaleCI), gen.Table6Suite(gen.ScaleCI)...) {
		before := heap()
		plan, err := core.NewPlan(pr.Build(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Factor(context.Background(), plan.ServingAssignment(2), core.FactorOpts{}); err != nil {
			t.Fatal(err)
		}
		held := heap() - before
		if got := PlanBytes(plan); float64(got) < 0.9*float64(held) {
			t.Errorf("%s: PlanBytes %d < 0.9 × the %d bytes the plan holds", pr.Name, got, held)
		}
		runtime.KeepAlive(plan)
	}
}
