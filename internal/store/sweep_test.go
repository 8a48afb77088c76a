package store

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestTwoHandlesOneDirectory opens a second handle over and over while a
// first handle commits snapshots into the same directory. Open's temp-file
// sweep must never delete the live writer's in-flight file: a deleted temp
// file fails the rename that commits it.
func TestTwoHandlesOneDirectory(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs := testSnapshot(t)
	bs := &BlockSnapshot{JobID: "job", RunID: 1, Epoch: 0, ValSum: 7,
		IDs: []uint32{0, 1}, Blocks: [][]float64{make([]float64, 4096), {1, 2}}}
	const puts = 200
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < puts; i++ {
			if err := writer.PutFactor(fs); err != nil {
				errc <- fmt.Errorf("put factor %d: %w", i, err)
				return
			}
			if err := writer.PutBlocks(bs); err != nil {
				errc <- fmt.Errorf("put blocks %d: %w", i, err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	opens := 0
	for running := true; running; opens++ {
		select {
		case <-done:
			running = false
		default:
		}
		if _, err := Open(dir); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-errc:
		t.Fatalf("writer failed while a second handle opened %d times: %v", opens, err)
	default:
	}
	if got := writer.Stats().Puts; got != 2*puts {
		t.Fatalf("writer committed %d snapshots, want %d", got, 2*puts)
	}
}

// TestOpenSweepsOnlyAbandonedTemps pins the sweep rule: a temp file named
// for a live writer survives another handle's Open, while one whose
// writer exited, one older than staleTempAge, and one without a pid are
// all removed.
func TestOpenSweepsOnlyAbandonedTemps(t *testing.T) {
	dir := t.TempDir()
	name := factorName(1, 2)
	live, err := os.CreateTemp(dir, name+tempInfix+"*")
	if err != nil {
		t.Fatal(err)
	}
	live.Close()

	child := exec.Command(os.Args[0], "-test.run=^$")
	if err := child.Run(); err != nil {
		t.Fatal(err)
	}
	dead := filepath.Join(dir, fmt.Sprintf("%s.tmp-%d-123", name, child.Process.Pid))
	legacy := filepath.Join(dir, name+".tmp-123456")
	old := filepath.Join(dir, name+tempInfix+"999")
	for _, p := range []string{dead, legacy, old} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(old, past, past); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(live.Name()); err != nil {
		t.Fatalf("live writer's temp file swept: %v", err)
	}
	for _, p := range []string{dead, legacy, old} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("abandoned temp file %s survived Open", filepath.Base(p))
		}
	}
}
