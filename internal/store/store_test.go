package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"blockfanout/internal/gen"
)

func testSnapshot(t testing.TB) *FactorSnapshot {
	t.Helper()
	m := gen.IrregularMesh(120, 5, 2, 7)
	return &FactorSnapshot{
		PatternHash: m.PatternHash(),
		ConfigKey:   0xdeadbeefcafef00d,
		N:           m.N,
		ColPtr:      m.ColPtr,
		RowInd:      m.RowInd,
		Val:         m.Val,
		Blocks:      [][]float64{{1, 2, 3}, {4.5}, nil, {6, 7, 8, 9}},
	}
}

func TestFactorRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := testSnapshot(t)
	if err := st.PutFactor(fs); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetFactor(fs.PatternHash, fs.ConfigKey)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != fs.N || got.PatternHash != fs.PatternHash || got.ConfigKey != fs.ConfigKey {
		t.Fatalf("meta mismatch: %+v", got)
	}
	if len(got.Blocks) != len(fs.Blocks) {
		t.Fatalf("got %d blocks, want %d", len(got.Blocks), len(fs.Blocks))
	}
	for i := range fs.Blocks {
		if len(got.Blocks[i]) != len(fs.Blocks[i]) {
			t.Fatalf("block %d has %d entries, want %d", i, len(got.Blocks[i]), len(fs.Blocks[i]))
		}
		for k := range fs.Blocks[i] {
			if got.Blocks[i][k] != fs.Blocks[i][k] {
				t.Fatalf("block %d entry %d: %g != %g", i, k, got.Blocks[i][k], fs.Blocks[i][k])
			}
		}
	}
	if m, err := got.Matrix(); err != nil || m.N != fs.N {
		t.Fatalf("matrix rebuild: %v", err)
	}
	keys, err := st.ScanFactors()
	if err != nil || len(keys) != 1 || keys[0].PatternHash != fs.PatternHash || keys[0].ConfigKey != fs.ConfigKey {
		t.Fatalf("scan: %v %v", keys, err)
	}
}

func TestBlocksRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bs := &BlockSnapshot{
		JobID: "00ab34cd56ef7890", RunID: 7, Epoch: 2, ValSum: ValChecksum([]float64{1, 2, 3}),
		IDs:    []uint32{3, 11, 42},
		Blocks: [][]float64{{1, 2}, {3}, {4, 5, 6}},
	}
	if err := st.PutBlocks(bs); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetBlocks(bs.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != 7 || got.Epoch != 2 || got.ValSum != bs.ValSum || len(got.IDs) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i, id := range bs.IDs {
		if got.IDs[i] != id || len(got.Blocks[i]) != len(bs.Blocks[i]) {
			t.Fatalf("block %d mismatch", i)
		}
	}
	st.DeleteBlocks(bs.JobID)
	if _, err := st.GetBlocks(bs.JobID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetFactor(1, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if st.Stats().Misses != 1 {
		t.Fatalf("stats: %+v", st.Stats())
	}
}

// snapPath returns the on-disk path of the only *.snap file in dir.
func snapPath(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatal("no snapshot file found")
	return ""
}

// corruptThenGet writes a snapshot, applies corrupt to its file, and
// asserts GetFactor quarantines it: ErrCorrupt, a *.quarantine file on
// disk, and a subsequent Get reporting a plain miss (cold-build fallback).
func corruptThenGet(t *testing.T, corrupt func(t *testing.T, path string)) {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs := testSnapshot(t)
	if err := st.PutFactor(fs); err != nil {
		t.Fatal(err)
	}
	corrupt(t, snapPath(t, dir))
	if _, err := st.GetFactor(fs.PatternHash, fs.ConfigKey); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted snapshot served: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	quarantined := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".quarantine") {
			quarantined = true
		}
		if strings.HasSuffix(e.Name(), ".snap") {
			t.Fatalf("corrupt snapshot %s still live", e.Name())
		}
	}
	if !quarantined {
		t.Fatal("no quarantine file left behind")
	}
	// The key now behaves as absent: callers rebuild cold.
	if _, err := st.GetFactor(fs.PatternHash, fs.ConfigKey); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after quarantine want ErrNotFound, got %v", err)
	}
	if s := st.Stats(); s.Corrupt != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestCorruptTruncated(t *testing.T) {
	corruptThenGet(t, func(t *testing.T, path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCorruptBitFlip(t *testing.T) {
	corruptThenGet(t, func(t *testing.T, path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x40 // flip one bit deep inside a record payload
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCorruptBadVersion(t *testing.T) {
	corruptThenGet(t, func(t *testing.T, path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[4] = Version + 1
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCorruptHeader: an empty file and one under a foreign magic are
// corrupt too.
func TestCorruptHeader(t *testing.T) {
	for _, corrupt := range []func(b []byte) []byte{
		func(b []byte) []byte { return nil },
		func(b []byte) []byte { b[0] ^= 0xff; return b },
	} {
		corruptThenGet(t, func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMidWriteCrash simulates a crash between temp-file write and rename:
// the live name must be unaffected (previous snapshot or absent) and Open
// must sweep the leftover temp file.
func TestMidWriteCrash(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs := testSnapshot(t)
	// A partial temp file as CreateTemp would leave it mid-write.
	tmp := filepath.Join(dir, factorName(fs.PatternHash, fs.ConfigKey)+".tmp-123456")
	if err := os.WriteFile(tmp, []byte("SPCS\x01partial-record-garbag"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The live key reads as absent — the partial write is invisible.
	if _, err := st.GetFactor(fs.PatternHash, fs.ConfigKey); !errors.Is(err, ErrNotFound) {
		t.Fatalf("partial temp file visible to Get: %v", err)
	}
	if keys, _ := st.ScanFactors(); len(keys) != 0 {
		t.Fatalf("partial temp file visible to Scan: %v", keys)
	}
	// Re-open sweeps it.
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale temp file survived Open")
	}
	// And a subsequent full write works.
	if err := st.PutFactor(fs); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetFactor(fs.PatternHash, fs.ConfigKey); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPutGet exercises the store under the race detector:
// concurrent writers and readers of overlapping keys must never observe a
// torn snapshot (rename is the commit point).
func TestConcurrentPutGet(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := testSnapshot(t)
	if err := st.PutFactor(fs); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := st.PutFactor(fs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, err := st.GetFactor(fs.PatternHash, fs.ConfigKey)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got.Blocks) != len(fs.Blocks) {
					t.Errorf("torn read: %d blocks", len(got.Blocks))
					return
				}
			}
		}()
	}
	wg.Wait()
}
