// Package plancache caches analyzed core.Plans (and their block-to-
// processor assignments) keyed by matrix sparsity pattern. In serving
// workloads — time-stepping FE simulations, interior-point LP iterations —
// the pattern of AᵀA or the stiffness matrix is fixed while values change
// every iteration, so ordering + symbolic analysis + partitioning + mapping
// (the expensive, value-independent front half of the pipeline) should run
// exactly once per pattern. The cache provides:
//
//   - pattern keying via sparse.Matrix.PatternHash (FNV-1a over n, colptr,
//     rowind; value-independent) mixed with the caller's configuration key
//     (core.Options.ConfigKey), so the same pattern analyzed under different
//     blocking strategies, block sizes, or orderings occupies distinct
//     entries; an exact SamePattern + config-key verification on hit means
//     a hash collision can never serve the wrong analysis;
//   - an LRU bounded by both entry count and an approximate byte budget;
//   - hit/miss/eviction/coalesce counters for the /metrics endpoint;
//   - singleflight-style deduplication: concurrent requests for the same
//     pattern run one analysis and share the result.
package plancache

import (
	"container/list"
	"sync"

	"blockfanout/internal/core"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
)

// Config bounds the cache.
type Config struct {
	// MaxEntries caps the number of cached plans; ≤0 means DefaultEntries.
	MaxEntries int
	// MaxBytes caps the approximate retained size; ≤0 means DefaultBytes.
	MaxBytes int64
}

// DefaultEntries and DefaultBytes are the zero-config budgets.
const (
	DefaultEntries = 64
	DefaultBytes   = 1 << 30 // 1 GiB
)

// Entry is one cached analysis.
type Entry struct {
	Key uint64 // combined pattern ∘ configuration cache key
	// ConfigKey is the plan-configuration digest the entry was built under
	// (core.Options.ConfigKey); hits verify it exactly so plans built with
	// different blocking strategies or block sizes never alias.
	ConfigKey uint64
	// Tenant is the identity whose request built this entry ("" when the
	// build was unattributed — warm starts, pre-tenancy callers). The
	// cache charges the entry's bytes against it for per-tenant quota
	// accounting; a shared hit does not re-attribute the entry.
	Tenant string
	Plan   *core.Plan
	Assign sched.Assignment
	Bytes  int64
}

// combineKey folds the configuration digest into the pattern hash with an
// extra FNV-1a round so (pattern, config) pairs spread over the full key
// space instead of XOR-cancelling.
func combineKey(pattern, cfg uint64) uint64 { return sparse.FNVMix(pattern, cfg) }

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"` // requests that waited on another's analysis
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	// TenantBytes breaks Bytes down by the tenant whose request built each
	// entry (key "" aggregates unattributed entries). Nil when every entry
	// is unattributed.
	TenantBytes map[string]int64 `json:"tenant_bytes,omitempty"`
}

// Cache is the pattern-keyed plan cache. Safe for concurrent use.
type Cache struct {
	cfg Config

	mu       sync.Mutex
	ll       *list.List // front = most recent; values are *Entry
	items    map[uint64]*list.Element
	bytes    int64
	tbytes   map[string]int64 // per-tenant share of bytes
	building map[uint64]*flight

	hits, misses, coalesced, evictions int64
}

// flight is one in-progress analysis awaited by deduplicated callers.
type flight struct {
	done chan struct{}
	e    *Entry
	err  error
}

// New returns an empty cache with the given budgets.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultBytes
	}
	return &Cache{
		cfg:      cfg,
		ll:       list.New(),
		items:    make(map[uint64]*list.Element),
		tbytes:   make(map[string]int64),
		building: make(map[uint64]*flight),
	}
}

// GetOrBuild returns the cached analysis for a's pattern under the given
// plan-configuration key (core.Options.ConfigKey), building it with build
// on a miss. hit reports whether a cached (or coalesced-in-flight) analysis
// was reused — i.e. whether this call avoided symbolic work. Concurrent
// calls for the same (pattern, config) run build once; the rest wait and
// share the result. A failed build is not cached.
func (c *Cache) GetOrBuild(a *sparse.Matrix, cfgKey uint64, build func() (*core.Plan, sched.Assignment, error)) (e *Entry, hit bool, err error) {
	return c.GetOrBuildFor(a, cfgKey, "", build)
}

// GetOrBuildFor is GetOrBuild with the building tenant recorded on a miss:
// the new entry's bytes are charged to tenant in the per-tenant accounting
// (see Stats.TenantBytes and TenantBytes) so the serving layer can enforce
// per-tenant cache-byte quotas. Hits and coalesced waits are never
// re-attributed — the tenant that paid for the analysis keeps the bill.
func (c *Cache) GetOrBuildFor(a *sparse.Matrix, cfgKey uint64, tenant string, build func() (*core.Plan, sched.Assignment, error)) (e *Entry, hit bool, err error) {
	key := combineKey(a.PatternHash(), cfgKey)
retry:
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*Entry)
		if ent.ConfigKey == cfgKey && ent.Plan.A.SamePattern(a) {
			c.ll.MoveToFront(el)
			c.hits++
			c.mu.Unlock()
			return ent, true, nil
		}
		// True hash collision: evict the impostor and rebuild. (With a
		// 64-bit FNV this is effectively unreachable, but correctness must
		// not hinge on that.)
		c.removeLocked(el)
	}
	if fl, ok := c.building[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, false, fl.err
		}
		if fl.e.ConfigKey != cfgKey || !fl.e.Plan.A.SamePattern(a) {
			// The in-flight analysis was for a hash-colliding pattern, not
			// ours; start over — the next pass evicts the impostor from the
			// cache and builds the right plan.
			goto retry
		}
		return fl.e, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.building[key] = fl
	c.misses++
	c.mu.Unlock()

	plan, assign, err := build()
	if err == nil {
		fl.e = &Entry{Key: key, ConfigKey: cfgKey, Tenant: tenant, Plan: plan, Assign: assign, Bytes: PlanBytes(plan)}
	} else {
		fl.err = err
	}

	c.mu.Lock()
	delete(c.building, key)
	if err == nil {
		c.insertLocked(fl.e)
	}
	c.mu.Unlock()
	close(fl.done)

	if err != nil {
		return nil, false, err
	}
	return fl.e, false, nil
}

// insertLocked adds e and evicts from the cold end until within budget.
func (c *Cache) insertLocked(e *Entry) {
	if el, ok := c.items[e.Key]; ok {
		c.removeLocked(el)
	}
	c.items[e.Key] = c.ll.PushFront(e)
	c.bytes += e.Bytes
	c.tbytes[e.Tenant] += e.Bytes
	for c.ll.Len() > 1 && (c.ll.Len() > c.cfg.MaxEntries || c.bytes > c.cfg.MaxBytes) {
		back := c.ll.Back()
		c.removeLocked(back)
		c.evictions++
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*Entry)
	c.ll.Remove(el)
	delete(c.items, e.Key)
	c.bytes -= e.Bytes
	if c.tbytes[e.Tenant] -= e.Bytes; c.tbytes[e.Tenant] <= 0 {
		delete(c.tbytes, e.Tenant)
	}
}

// TenantBytes reports the cached bytes currently attributed to tenant.
func (c *Cache) TenantBytes(tenant string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tbytes[tenant]
}

// Peek returns the cached entry for a's pattern and configuration key
// without promoting it in the LRU or touching the hit/miss counters. The
// admission layer uses it to price a request (modeled flops, factor bytes)
// before deciding whether to admit it at all.
func (c *Cache) Peek(a *sparse.Matrix, cfgKey uint64) (*Entry, bool) {
	key := combineKey(a.PatternHash(), cfgKey)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*Entry)
	if e.ConfigKey != cfgKey || !e.Plan.A.SamePattern(a) {
		return nil, false
	}
	return e, true
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
	if len(c.tbytes) > 0 {
		st.TenantBytes = make(map[string]int64, len(c.tbytes))
		for t, b := range c.tbytes {
			st.TenantBytes[t] = b
		}
	}
	return st
}

// PlanBytes estimates the retained size of a plan: its matrices,
// permutations, symbolic structure and block structure — the last through
// blocks.Structure.Bytes, which includes the DAG and the pairing table the
// plan's first factorization builds. It is a budget estimate, not an
// accounting: allocator rounding and constant per-object overheads are
// ignored.
func PlanBytes(p *core.Plan) int64 {
	var b int64
	matrix := func(m *sparse.Matrix) {
		if m == nil {
			return
		}
		b += int64(len(m.ColPtr))*8 + int64(len(m.RowInd))*8 + int64(len(m.Val))*8
	}
	matrix(p.A)
	matrix(p.PA)
	b += int64(len(p.Perm)+len(p.ValMap)+len(p.PanelDepth)) * 8
	if st := p.Sym; st != nil {
		b += int64(len(st.Snodes))*16 + int64(len(st.Rows))*24
		b += int64(len(st.SnodeOf)+len(st.Parent)+len(st.Depth)+len(st.ColCounts)) * 8
		for _, rows := range st.Rows {
			b += int64(len(rows)) * 8
		}
	}
	if p.BS != nil {
		b += p.BS.Bytes()
	}
	return b
}
