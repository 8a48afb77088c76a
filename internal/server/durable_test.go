package server

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"blockfanout/internal/gen"
	"blockfanout/internal/sparse"
	"blockfanout/internal/store"
)

// solveVec posts one RHS and returns x.
func solveVec(t *testing.T, url, id string, b []float64) []float64 {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/solve", SolveRequest{ID: id, B: b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.X
}

func residualNorm(m *sparse.Matrix, x, b []float64) float64 {
	r := make([]float64, m.N)
	copy(r, b)
	for j := 0; j < m.N; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			i, v := m.RowInd[p], m.Val[p]
			r[i] -= v * x[j]
			if i != j {
				r[j] -= v * x[i]
			}
		}
	}
	var n float64
	for _, v := range r {
		n += v * v
	}
	return math.Sqrt(n)
}

// TestWarmStartKillRestart is the kill-and-restart e2e: a factor built by
// one server process is served by its successor from disk — same id, no
// refactorization — after a WarmStart.
func TestWarmStartKillRestart(t *testing.T) {
	dir := t.TempDir()
	m := gen.IrregularMesh(300, 6, 2, 5)

	// First life: factor, then shut down (flushing the write-behind queue).
	s1, ts1 := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	fr := factorMatrix(t, ts1.URL, m)
	s1.Close()
	ts1.Close()

	// Second life on the same directory.
	s2, ts2 := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	t.Cleanup(s2.Close)
	restored, err := s2.WarmStart()
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d factors, want 1", restored)
	}

	// The old id solves immediately — no /v1/factor, no refactorization.
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	x := solveVec(t, ts2.URL, fr.ID, b)
	if res := residualNorm(m, x, b); res > 1e-8 {
		t.Fatalf("restored factor residual %g", res)
	}
	if got := s2.met.factors.Load() + s2.met.refactors.Load(); got != 0 {
		t.Fatalf("restart ran %d factorizations, want 0", got)
	}

	// A /v1/factor for the same matrix is a plan-cache hit (no symbolic
	// rebuild) and a numeric-only refactor of the restored factor.
	fr2 := factorMatrix(t, ts2.URL, m)
	if !fr2.CacheHit || !fr2.Refactored {
		t.Fatalf("post-restart factor: hit=%v refactored=%v, want true/true", fr2.CacheHit, fr2.Refactored)
	}

	// /metrics reports the store section.
	doc := fetchMetrics(t, ts2.URL)
	if doc.Store == nil || doc.Store.WarmRestored != 1 {
		t.Fatalf("metrics store section: %+v", doc.Store)
	}
}

// TestWarmStartCorruptSnapshot: a corrupted snapshot must not stop the boot
// or be served; the pattern simply builds cold on its next factor request.
func TestWarmStartCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	m := gen.IrregularMesh(200, 5, 2, 3)

	s1, ts1 := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	factorMatrix(t, ts1.URL, m)
	s1.Close()
	ts1.Close()

	// Truncate the snapshot.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			p := filepath.Join(dir, e.Name())
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, b[:len(b)/3], 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no snapshot written by first life")
	}

	s2, ts2 := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	t.Cleanup(s2.Close)
	restored, err := s2.WarmStart()
	if err != nil || restored != 0 {
		t.Fatalf("warm start over corrupt snapshot: restored=%d err=%v", restored, err)
	}
	// Cold build still works, and re-persists a good snapshot.
	fr := factorMatrix(t, ts2.URL, m)
	if fr.CacheHit {
		t.Fatal("corrupt snapshot produced a cache hit")
	}
	b := make([]float64, m.N)
	for i := range b {
		b[i] = 1
	}
	x := solveVec(t, ts2.URL, fr.ID, b)
	if res := residualNorm(m, x, b); res > 1e-8 {
		t.Fatalf("cold rebuild residual %g", res)
	}
}

// TestWarmStartSkipsRetiredMappingFiles boots over a directory an older
// build left behind: a static factor snapshot, a factor snapshot filed
// under a measured-mapping configuration key, and a cost-profile file. The
// last two come from the retired mapping tuner. Warm start must restore
// the static snapshot only, return no error, and leave the other two files
// on disk; the tuned pattern is a cold miss, like any snapshot filed under
// a key this build no longer computes.
func TestWarmStartSkipsRetiredMappingFiles(t *testing.T) {
	const (
		// Options{BlockSize: 12} with the tuner's provenance and the
		// fingerprint of the profile below, as the tuner keyed it.
		tunedKey = 0x1b34ad987caf6ef9
		// The profile file, byte for byte as the tuner's store wrote it:
		// pattern Grid2D(10), keyed by the static configuration.
		profileName = "profile-2bc577971e0636d0-3ef461f138c1246d.snap"
		profileHex  = "53504353010684000000d036061e9777c52b6d24c138f161f43e020000000300" +
			"0000040000000000000000000000010000000000000002000000000000000200" +
			"0000000000000400000000000000000000000100000000000000000000000000" +
			"0000020000000000000004000000b0040000000000008403000000000000c201" +
			"000000000000dc050000000000009820d2eb"
	)
	dir := t.TempDir()
	cfg := Config{Procs: 2, BlockSize: 12, StoreDir: dir, BatchWindow: -1}
	static, tuned := gen.IrregularMesh(300, 6, 2, 5), gen.Grid2D(10)

	s1, ts1 := testService(t, cfg)
	fr := factorMatrix(t, ts1.URL, static)
	frTuned := factorMatrix(t, ts1.URL, tuned)
	s1.Close()
	ts1.Close()
	if got := fmt.Sprintf("%016x", s1.planKey); got != profileName[25:41] {
		t.Fatalf("static configuration key %s, the fixture was keyed %s", got, profileName[25:41])
	}

	// Refile the tuned pattern's snapshot under the tuned key, as the tuner
	// left it, and add its profile.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash := tuned.PatternHash()
	fs, err := st.GetFactor(hash, s1.planKey)
	if err != nil {
		t.Fatal(err)
	}
	st.DeleteFactor(hash, s1.planKey)
	fs.ConfigKey = tunedKey
	if err := st.PutFactor(fs); err != nil {
		t.Fatal(err)
	}
	raw, err := hex.DecodeString(profileHex)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, profileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tunedName := fmt.Sprintf("factor-%016x-%016x.snap", hash, uint64(tunedKey))

	s2, ts2 := testService(t, cfg)
	t.Cleanup(s2.Close)
	restored, err := s2.WarmStart()
	if err != nil || restored != 1 {
		t.Fatalf("warm start: restored=%d err=%v, want 1 and no error", restored, err)
	}
	b := make([]float64, static.N)
	for i := range b {
		b[i] = 1
	}
	if res := residualNorm(static, solveVec(t, ts2.URL, fr.ID, b), b); res > 1e-8 {
		t.Fatalf("restored static factor residual %g", res)
	}
	resp, body := postJSON(t, ts2.URL+"/v1/solve", SolveRequest{ID: frTuned.ID, B: make([]float64, tuned.N)})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("solve against the tuned pattern's id: status %d (%s), want 404", resp.StatusCode, body)
	}
	for _, name := range []string{tunedName, profileName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("warm start removed %s: %v", name, err)
		}
	}
	// The tuned pattern builds cold.
	if fr := factorMatrix(t, ts2.URL, tuned); fr.CacheHit {
		t.Fatal("tuned pattern hit the plan cache after warm start")
	}
}

// TestSnapshotWriteBehindFlush: Close drains queued snapshots to disk.
func TestSnapshotWriteBehindFlush(t *testing.T) {
	dir := t.TempDir()
	s, ts := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	for _, n := range []int{150, 220} {
		factorMatrix(t, ts.URL, gen.IrregularMesh(n, 5, 2, 3))
	}
	s.Close()
	ts.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			snaps++
		}
	}
	if snaps != 2 {
		t.Fatalf("found %d snapshots after Close, want 2", snaps)
	}
}

// TestWriteBehindOverhead gates what durability costs the requests it
// protects: a same-pattern refactor on a server with a snapshot store must
// stay within 5% of one on a server without. Like the other overhead
// gates, under the same switch (OBS_OVERHEAD_CHECK=1), it gates on the
// median of per-pair ratios of adjacent measurements; each pair here is
// stored, plain, plain, stored, so the first request after a pause pays
// its wake-up cost on both sides of the ratio. The store keeps the default snapshot interval,
// so this is the steady-state path: most refactors skip the snapshot and
// the occasional one pays the in-memory block export.
func TestWriteBehindOverhead(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_CHECK") != "1" {
		t.Skip("set OBS_OVERHEAD_CHECK=1 to run the timing comparison")
	}
	m := gen.IrregularMesh(2000, 7, 3, 7)
	plain, tsPlain := testService(t, Config{Procs: 1, BatchWindow: -1})
	t.Cleanup(plain.Close)
	stored, tsStored := testService(t, Config{Procs: 1, BatchWindow: -1, StoreDir: t.TempDir()})
	t.Cleanup(stored.Close)
	factorMatrix(t, tsPlain.URL, m)
	factorMatrix(t, tsStored.URL, m)

	m2 := m.Clone()
	refactor := func(url string) float64 {
		start := time.Now()
		if fr := factorMatrix(t, url, m2); !fr.Refactored {
			t.Fatalf("same-pattern factor was not refactored in place: %+v", fr)
		}
		return time.Since(start).Seconds()
	}
	ratios := make([]float64, 96)
	for p := range ratios {
		for j := 0; j < m2.N; j++ {
			m2.Val[m2.ColPtr[j]] *= 1.0001 // new values, same pattern
		}
		gated := refactor(tsStored.URL)
		base := refactor(tsPlain.URL) + refactor(tsPlain.URL)
		gated += refactor(tsStored.URL)
		ratios[p] = gated / base
		// Let the snapshot writer finish before the next pair. The claim
		// is that the request pays only the in-memory export; a durable
		// write racing the next refactor for the CPU would measure
		// contention instead.
		time.Sleep(50 * time.Millisecond)
	}
	sort.Float64s(ratios)
	ratio := (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	t.Logf("stored / plain refactor: median ratio %.4f over %d pairs (range %.4f–%.4f)",
		ratio, len(ratios), ratios[0], ratios[len(ratios)-1])
	if ratio > 1.05 {
		t.Fatalf("write-behind snapshotting costs %.2f%% of refactor latency (> 5%%)", (ratio-1)*100)
	}
}
