package server

import (
	"context"
	"testing"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
	"blockfanout/internal/store"
)

// identityServerKey is the configuration key the default server filed its
// snapshots under while its plans used the identity ordering.
const identityServerKey = 0x1102eaa4da614ad5

// TestIdentityOrderedSnapshotNeverRestored seeds a store directory with
// an identity-ordered factor filed under the default server's old key and
// boots a default server on it. The server orders with minimum degree, so
// the snapshot must stay orphaned: nothing restored, the next factor of
// the pattern a cold miss, and solves correct.
func TestIdentityOrderedSnapshotNeverRestored(t *testing.T) {
	dir := t.TempDir()
	m := gen.IrregularMesh(300, 6, 2, 5)
	plan, err := core.NewPlan(m, core.Options{Ordering: order.Natural, BlockSize: core.DefaultBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	f, err := plan.Factor(context.Background(), plan.Assign(plan.Map(mapping.BestGrid(2), mapping.ID, mapping.CY), 2), core.FactorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutFactor(&store.FactorSnapshot{
		PatternHash: m.PatternHash(), ConfigKey: identityServerKey,
		N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: m.Val,
		Blocks: f.Numeric().ExportBlocks(),
	}); err != nil {
		t.Fatal(err)
	}

	s, ts := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	t.Cleanup(s.Close)
	restored, err := s.WarmStart()
	if err != nil {
		t.Fatal(err)
	}
	if doc := fetchMetrics(t, ts.URL); restored != 0 || doc.Store == nil || doc.Store.WarmRestored != 0 {
		t.Fatalf("warm start restored %d (metrics %+v) from an identity-ordered snapshot", restored, doc.Store)
	}
	fr := factorMatrix(t, ts.URL, m)
	if fr.CacheHit {
		t.Fatal("factor of the orphaned pattern hit the plan cache")
	}
	if c := fetchMetrics(t, ts.URL).Cache; c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("plan cache hits=%d misses=%d, want 0/1", c.Hits, c.Misses)
	}
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	x := solveVec(t, ts.URL, fr.ID, b)
	if res := residualNorm(m, x, b); res > 1e-8 {
		t.Fatalf("solve residual %g", res)
	}
}
