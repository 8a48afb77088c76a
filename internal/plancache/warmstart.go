package plancache

import (
	"blockfanout/internal/core"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/store"
)

// WarmEntry pairs a cache entry restored during WarmStart with the
// snapshot it came from, so the serving layer above can also restore the
// numeric factor (core.Plan.RestoreFactor) without re-reading the store.
type WarmEntry struct {
	Entry *Entry
	Snap  *store.FactorSnapshot
}

// WarmStart repopulates the cache from a snapshot store: every readable
// factor snapshot written under cfgKey has its plan rebuilt (ordering +
// symbolic analysis rerun deterministically from the snapshotted matrix —
// the plan itself is cheap to rebuild and hard to serialize) and inserted.
// Corrupt snapshots have already been quarantined by the store's reader and
// are skipped: a warm start is best-effort and never fails the boot for a
// bad snapshot, only for an unreadable store directory.
func (c *Cache) WarmStart(st *store.Store, cfgKey uint64, build func(*sparse.Matrix) (*core.Plan, sched.Assignment, error)) ([]WarmEntry, error) {
	keys, err := st.ScanFactors()
	if err != nil {
		return nil, err
	}
	var out []WarmEntry
	for _, k := range keys {
		if k.ConfigKey != cfgKey {
			continue
		}
		// GetFactor quarantines a snapshot whose records or matrix fail
		// validation; the next factor of that pattern builds cold.
		fs, err := st.GetFactor(k.PatternHash, k.ConfigKey)
		if err != nil {
			continue
		}
		m, err := fs.Matrix()
		if err != nil {
			continue
		}
		e, _, err := c.GetOrBuild(m, cfgKey, func() (*core.Plan, sched.Assignment, error) { return build(m) })
		if err != nil {
			continue
		}
		out = append(out, WarmEntry{Entry: e, Snap: fs})
	}
	return out, nil
}
