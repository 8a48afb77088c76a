package server

import (
	"fmt"
	"time"

	"blockfanout/internal/store"
)

// SaveSnapshot enqueues a write-behind snapshot built by snap; the durable
// write happens on the single writer goroutine, off the request path. A
// full queue drops the snapshot (counted in /metrics) rather than stalling
// the request: durability here is an optimization for restart time, never
// a source of tail latency.
//
// Two throttles keep the request path honest before any bytes are copied:
// SnapshotInterval spaces snapshots of the same factor (a refactor storm
// must not rewrite one key back-to-back, burning writer CPU and disk
// bandwidth for snapshots that supersede each other within milliseconds),
// and a full queue skips the snapshot outright — in both cases the request
// pays nothing at all, and the factor's next eligible completion re-arms.
// last is the factor's previous snapshot time, guarded by the caller; snap
// runs synchronously, under whatever lock the caller holds, so a block
// export in it is a coherent copy.
func (s *Server) SaveSnapshot(last *time.Time, snap func() *store.FactorSnapshot) {
	if s.st == nil {
		return
	}
	if iv := s.cfg.SnapshotInterval; iv > 0 && !last.IsZero() && time.Since(*last) < iv {
		s.met.snapSkipped.Add(1)
		return
	}
	// The length read is racy, but only against sends from other factor
	// completions; the worst case is one extra export or one extra drop,
	// never a stall or a lost factor.
	if len(s.snapCh) == cap(s.snapCh) {
		s.met.snapDropped.Add(1)
		return
	}
	select {
	case s.snapCh <- snap():
		*last = time.Now()
	default:
		s.met.snapDropped.Add(1)
	}
}

// snapshotWriter is the single write-behind goroutine: it serializes store
// writes so concurrent factorizations never interleave writes to the same
// key, and drains the queue on Close.
func (s *Server) snapshotWriter() {
	defer close(s.writerDone)
	put := func(fs *store.FactorSnapshot) {
		if err := s.st.PutFactor(fs); err != nil {
			s.met.snapErrors.Add(1)
		} else {
			s.met.snapWrites.Add(1)
		}
	}
	for {
		select {
		case fs := <-s.snapCh:
			put(fs)
		case <-s.writerQuit:
			for {
				select {
				case fs := <-s.snapCh:
					put(fs)
				default:
					return
				}
			}
		}
	}
}

// Close flushes and stops the write-behind writer. Safe to call multiple
// times; a no-op for servers without a store.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.st == nil || s.storeErr != nil {
			return
		}
		close(s.writerQuit)
		<-s.writerDone
	})
}

// WarmStart restores the server's working set from the snapshot store:
// every snapshot written under this server's configuration key has its plan
// rebuilt into the plan cache, and a snapshot that carries factor blocks
// also has its numeric factor restored into the Local backend — no
// refactorization — under the same factor id the original process served,
// so a client's previously issued id keeps working across the restart.
// Returns the number of snapshots restored. Corrupt snapshots are
// quarantined by the store and simply rebuilt cold on their next
// /v1/factor.
func (s *Server) WarmStart() (int, error) {
	if s.st == nil {
		return 0, s.storeErr
	}
	warm, err := s.cache.WarmStart(s.st, s.planKey, s.buildPlan)
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, we := range warm {
		if len(we.Snap.Blocks) > 0 {
			f, err := we.Entry.Plan.RestoreSnapshot(we.Entry.Assign, we.Snap)
			if err != nil {
				// Blocks inconsistent with the rebuilt plan (e.g. snapshot from
				// a different build): drop it and let the next request build
				// cold.
				s.st.DeleteFactor(we.Snap.PatternHash, we.Snap.ConfigKey)
				continue
			}
			if !s.local.restore(fmt.Sprintf("%016x", we.Snap.PatternHash), we.Snap.N, we.Entry.Plan, f) {
				continue // already live (duplicate snapshot key); keep the first
			}
		}
		restored++
	}
	s.met.warmRestored.Store(int64(restored))
	return restored, nil
}
