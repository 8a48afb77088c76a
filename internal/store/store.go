// Package store is the durable snapshot store behind warm-start recovery:
// a content-addressed, file-backed archive of factored problems keyed by
// (sparse pattern hash, plan-configuration key) plus per-job held-block
// snapshots for cluster workers. A restarted spchol-serve replays its
// factor snapshots to answer previously-factored solves without redoing
// any numeric work, and a restarted spchol-node rejoins an epoch with the
// blocks it had already completed instead of forcing a full buddy remap.
//
// On-disk format (record framing here, payload fields in internal/codec's
// encoding, the same one the cluster wire uses):
//
//	file   := magic "SPCS" | version (1 byte) | record*
//	record := type (1) | payload length (4) | payload | crc32-IEEE(payload) (4)
//
// Every payload is CRC-checked on read. Durability rules:
//
//   - writes are atomic: a snapshot is assembled in a ".tmp-*" sibling,
//     fsynced, and renamed over the final name, so a crash mid-write
//     leaves either the previous snapshot or a temp file — never a
//     half-written snapshot under the live name;
//   - loads are corruption-tolerant: any decode or checksum failure
//     quarantines the file (renamed to "<name>.quarantine") and reports
//     ErrCorrupt, so a bad snapshot is rebuilt from scratch, never served;
//   - abandoned temp files are swept on Open: those whose writing process
//     is gone, and any older than staleTempAge. A live writer's temp file
//     — another handle in this process or another process on the same
//     directory — is left alone, so opening a second handle never fails
//     a commit in flight.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"blockfanout/internal/codec"
	"blockfanout/internal/sparse"
)

// magic identifies a snapshot file; version gates format evolution.
var magic = [4]byte{'S', 'P', 'C', 'S'}

// Version is the snapshot format version. Loading rejects (and
// quarantines) any other version rather than guessing at its layout.
const Version byte = 1

// Record types.
const (
	recFactorMeta byte = 1 // pattern hash, config key, n
	recMatrix     byte = 2 // colptr, rowind, val
	recBlocks     byte = 3 // per-block dense payloads
	recBlocksMeta byte = 4 // job id, run id, epoch, value checksum
	recHeldBlocks byte = 5 // held block ids + dense payloads
	// Type 6 held a measured cost profile, a record no reader decodes any
	// more; the number stays retired.
)

var (
	// ErrNotFound reports a missing snapshot (a cache miss, not a failure).
	ErrNotFound = errors.New("store: snapshot not found")
	// ErrCorrupt reports a snapshot that failed validation and was
	// quarantined; callers fall back to a cold build.
	ErrCorrupt = errors.New("store: snapshot corrupt (quarantined)")
)

// FactorSnapshot is one factored problem: enough to rebuild the plan
// (matrix pattern + values + the configuration key it was analyzed under)
// and to restore the numeric factor without refactorizing (every block's
// final dense payload, in (column, block-index) order).
type FactorSnapshot struct {
	PatternHash uint64
	ConfigKey   uint64
	N           int
	ColPtr      []int
	RowInd      []int
	Val         []float64
	Blocks      [][]float64
}

// Matrix reassembles the snapshot's matrix and validates it.
func (fs *FactorSnapshot) Matrix() (*sparse.Matrix, error) {
	m := &sparse.Matrix{N: fs.N, ColPtr: fs.ColPtr, RowInd: fs.RowInd, Val: fs.Val}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("store: snapshot matrix invalid: %w", err)
	}
	if m.PatternHash() != fs.PatternHash {
		return nil, fmt.Errorf("store: snapshot matrix hashes to %016x, key says %016x", m.PatternHash(), fs.PatternHash)
	}
	return m, nil
}

// BlockSnapshot is one cluster worker's held blocks for a job: the blocks
// whose final data the node held when the snapshot was cut, tagged with
// the run/epoch they belong to and a checksum of the run's permuted values
// so a snapshot can never seed a run factoring different numerics.
type BlockSnapshot struct {
	JobID  string
	RunID  uint64
	Epoch  uint32
	ValSum uint64
	IDs    []uint32
	Blocks [][]float64
}

// ValChecksum is the value fingerprint BlockSnapshots carry: FNV-1a over
// the IEEE-754 bits of the (permuted) value slice.
func ValChecksum(vals []float64) uint64 {
	h := uint64(sparse.FNVOffset)
	for _, v := range vals {
		h = sparse.FNVMix(h, math.Float64bits(v))
	}
	return h
}

// FactorKey names one factor snapshot.
type FactorKey struct {
	PatternHash uint64
	ConfigKey   uint64
}

// Store is a directory of snapshots. Safe for concurrent use; writes to
// the same key serialize on the filesystem rename.
type Store struct {
	dir string

	mu sync.Mutex // serializes quarantine renames

	// Counters for /metrics (read with Stats).
	puts, loads, corrupt, misses int64
	bytesWritten                 int64
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Puts         int64 `json:"puts"`
	Loads        int64 `json:"loads"`
	Misses       int64 `json:"misses"`
	Corrupt      int64 `json:"corrupt"`
	BytesWritten int64 `json:"bytes_written"`
}

// tempInfix is what this process's temp files carry between the final
// name and CreateTemp's random suffix: the writer's pid, so Open can tell
// an abandoned temp file from one a live writer is about to rename.
var tempInfix = fmt.Sprintf(".tmp-%d-", os.Getpid())

// staleTempAge bounds how long a temp file can outlive its writer's pid
// check: a pid reused by an unrelated process (pid 1 in a restarted
// container) would otherwise keep a crash leftover forever. No live write
// holds a temp file anywhere near this long.
const staleTempAge = time.Hour

// Open creates (if needed) and opens the store rooted at dir, sweeping
// any temp files a previous crash left behind.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		_, suffix, ok := strings.Cut(e.Name(), ".tmp-")
		if !ok {
			continue
		}
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) < staleTempAge && writerAlive(suffix) {
			continue
		}
		os.Remove(filepath.Join(dir, e.Name()))
	}
	return &Store{dir: dir}, nil
}

// writerAlive reports whether a temp file's suffix ("<pid>-<random>")
// names a process that is still running. Suffixes without a pid count as
// abandoned.
func writerAlive(suffix string) bool {
	pidText, _, ok := strings.Cut(suffix, "-")
	if !ok {
		return false
	}
	pid, err := strconv.Atoi(pidText)
	if err != nil || pid <= 0 {
		return false
	}
	if pid == os.Getpid() {
		return true
	}
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	defer p.Release()
	err = p.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Puts: s.puts, Loads: s.loads, Misses: s.misses, Corrupt: s.corrupt, BytesWritten: s.bytesWritten}
}

func factorName(pattern, cfg uint64) string {
	return fmt.Sprintf("factor-%016x-%016x.snap", pattern, cfg)
}

func blocksName(jobID string) string {
	// Job ids are pattern-hash hex in practice, but sanitize anyway so a
	// hostile id cannot escape the store directory.
	clean := make([]byte, 0, len(jobID))
	for i := 0; i < len(jobID); i++ {
		c := jobID[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' {
			clean = append(clean, c)
		} else {
			clean = append(clean, '_')
		}
	}
	return fmt.Sprintf("blocks-%s.snap", clean)
}

// PutFactor atomically writes (or replaces) the snapshot for its key.
func (s *Store) PutFactor(fs *FactorSnapshot) error {
	var meta, matrix, blocks codec.Enc
	meta.U64(fs.PatternHash)
	meta.U64(fs.ConfigKey)
	meta.U32(uint32(fs.N))
	matrix.Ints(fs.ColPtr)
	matrix.Ints(fs.RowInd)
	matrix.F64s(fs.Val)
	blocks.U32(uint32(len(fs.Blocks)))
	for _, b := range fs.Blocks {
		blocks.F64s(b)
	}
	return s.writeFile(factorName(fs.PatternHash, fs.ConfigKey), []record{
		{recFactorMeta, meta.B}, {recMatrix, matrix.B}, {recBlocks, blocks.B},
	})
}

// GetFactor loads the snapshot for the key. A missing snapshot returns
// ErrNotFound; a corrupt one is quarantined and returns ErrCorrupt.
func (s *Store) GetFactor(pattern, cfg uint64) (*FactorSnapshot, error) {
	name := factorName(pattern, cfg)
	recs, err := s.readFile(name)
	if err != nil {
		return nil, err
	}
	fs := &FactorSnapshot{}
	derr := func() error {
		if len(recs) != 3 || recs[0].typ != recFactorMeta || recs[1].typ != recMatrix || recs[2].typ != recBlocks {
			return fmt.Errorf("store: factor snapshot has wrong record sequence")
		}
		d := codec.Dec{B: recs[0].payload}
		fs.PatternHash = d.U64()
		fs.ConfigKey = d.U64()
		fs.N = int(d.U32())
		if err := d.Done(); err != nil {
			return err
		}
		if fs.PatternHash != pattern || fs.ConfigKey != cfg {
			return fmt.Errorf("store: snapshot keyed %016x/%016x holds %016x/%016x", pattern, cfg, fs.PatternHash, fs.ConfigKey)
		}
		d = codec.Dec{B: recs[1].payload}
		fs.ColPtr = d.Ints()
		fs.RowInd = d.Ints()
		fs.Val = d.F64s()
		if err := d.Done(); err != nil {
			return err
		}
		d = codec.Dec{B: recs[2].payload}
		nb := d.Count(4)
		fs.Blocks = make([][]float64, 0, nb)
		for i := 0; i < nb && d.Err() == nil; i++ {
			fs.Blocks = append(fs.Blocks, d.F64s())
		}
		if err := d.Done(); err != nil {
			return err
		}
		// Sound records can still carry a matrix that is invalid or no
		// longer hashes to its key; such a snapshot is corrupt too.
		_, err := fs.Matrix()
		return err
	}()
	if derr != nil {
		return nil, s.quarantine(name, derr)
	}
	s.mu.Lock()
	s.loads++
	s.mu.Unlock()
	return fs, nil
}

// ScanFactors lists the keys of every factor snapshot on disk. Unparseable
// names are skipped; payload validation happens at GetFactor time.
func (s *Store) ScanFactors() ([]FactorKey, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var keys []FactorKey
	for _, e := range entries {
		var k FactorKey
		if n, err := fmt.Sscanf(e.Name(), "factor-%016x-%016x.snap", &k.PatternHash, &k.ConfigKey); n == 2 && err == nil &&
			e.Name() == factorName(k.PatternHash, k.ConfigKey) {
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// DeleteFactor removes a snapshot (a no-op if absent).
func (s *Store) DeleteFactor(pattern, cfg uint64) {
	os.Remove(filepath.Join(s.dir, factorName(pattern, cfg)))
}

// PutBlocks atomically writes (or replaces) a worker's held-block snapshot
// for a job.
func (s *Store) PutBlocks(bs *BlockSnapshot) error {
	if len(bs.IDs) != len(bs.Blocks) {
		return fmt.Errorf("store: %d block ids for %d payloads", len(bs.IDs), len(bs.Blocks))
	}
	var meta, held codec.Enc
	meta.Str(bs.JobID)
	meta.U64(bs.RunID)
	meta.U32(bs.Epoch)
	meta.U64(bs.ValSum)
	held.U32(uint32(len(bs.IDs)))
	for i, id := range bs.IDs {
		held.U32(id)
		held.F64s(bs.Blocks[i])
	}
	return s.writeFile(blocksName(bs.JobID), []record{
		{recBlocksMeta, meta.B}, {recHeldBlocks, held.B},
	})
}

// GetBlocks loads a worker's held-block snapshot for a job.
func (s *Store) GetBlocks(jobID string) (*BlockSnapshot, error) {
	name := blocksName(jobID)
	recs, err := s.readFile(name)
	if err != nil {
		return nil, err
	}
	bs := &BlockSnapshot{}
	derr := func() error {
		if len(recs) != 2 || recs[0].typ != recBlocksMeta || recs[1].typ != recHeldBlocks {
			return fmt.Errorf("store: block snapshot has wrong record sequence")
		}
		d := codec.Dec{B: recs[0].payload}
		bs.JobID = d.Str()
		bs.RunID = d.U64()
		bs.Epoch = d.U32()
		bs.ValSum = d.U64()
		if err := d.Done(); err != nil {
			return err
		}
		if bs.JobID != jobID {
			return fmt.Errorf("store: block snapshot for job %q found under %q", bs.JobID, jobID)
		}
		d = codec.Dec{B: recs[1].payload}
		nb := d.Count(4)
		for i := 0; i < nb && d.Err() == nil; i++ {
			bs.IDs = append(bs.IDs, d.U32())
			bs.Blocks = append(bs.Blocks, d.F64s())
		}
		return d.Done()
	}()
	if derr != nil {
		return nil, s.quarantine(name, derr)
	}
	s.mu.Lock()
	s.loads++
	s.mu.Unlock()
	return bs, nil
}

// DeleteBlocks removes a job's held-block snapshot (a no-op if absent).
func (s *Store) DeleteBlocks(jobID string) {
	os.Remove(filepath.Join(s.dir, blocksName(jobID)))
}

// ---- file layer ----

type record struct {
	typ     byte
	payload []byte
}

// writeFile assembles the records into a temp sibling, fsyncs, and renames
// it over name — the atomic-commit point.
func (s *Store) writeFile(name string, recs []record) error {
	final := filepath.Join(s.dir, name)
	tmp, err := os.CreateTemp(s.dir, name+tempInfix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var hdr [5]byte
	copy(hdr[:4], magic[:])
	hdr[4] = Version
	n := int64(len(hdr))
	if _, err := tmp.Write(hdr[:]); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	var rh [5]byte
	var crc [4]byte
	for _, r := range recs {
		rh[0] = r.typ
		binary.LittleEndian.PutUint32(rh[1:5], uint32(len(r.payload)))
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(r.payload))
		for _, b := range [][]byte{rh[:], r.payload, crc[:]} {
			if _, err := tmp.Write(b); err != nil {
				tmp.Close()
				return fmt.Errorf("store: %w", err)
			}
			n += int64(len(b))
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	s.puts++
	s.bytesWritten += n
	s.mu.Unlock()
	return nil
}

// readFile reads and CRC-verifies every record of name. Corruption at this
// layer (bad magic, truncated record, checksum mismatch) quarantines the
// file and reports ErrCorrupt.
func (s *Store) readFile(name string) ([]record, error) {
	f, err := os.Open(filepath.Join(s.dir, name))
	if errors.Is(err, os.ErrNotExist) {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var hdr [5]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, s.quarantine(name, fmt.Errorf("short header: %w", err))
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, s.quarantine(name, errors.New("bad magic"))
	}
	if hdr[4] != Version {
		return nil, s.quarantine(name, fmt.Errorf("format version %d, speak %d", hdr[4], Version))
	}
	var recs []record
	var rh [5]byte
	var crc [4]byte
	left := info.Size() - int64(len(hdr)) // bytes not yet read
	for {
		if _, err := io.ReadFull(f, rh[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return recs, nil
			}
			return nil, s.quarantine(name, fmt.Errorf("short record header: %w", err))
		}
		left -= int64(len(rh))
		// A length the rest of the file cannot hold is corrupt: rejecting it
		// before allocating keeps a damaged header from costing more
		// memory than the file's own size.
		n := binary.LittleEndian.Uint32(rh[1:5])
		if int64(n)+int64(len(crc)) > left {
			return nil, s.quarantine(name, fmt.Errorf("record claims %d-byte payload, %d bytes left", n, left))
		}
		left -= int64(n) + int64(len(crc))
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return nil, s.quarantine(name, fmt.Errorf("short payload: %w", err))
		}
		if _, err := io.ReadFull(f, crc[:]); err != nil {
			return nil, s.quarantine(name, fmt.Errorf("short checksum: %w", err))
		}
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
			return nil, s.quarantine(name, fmt.Errorf("record checksum %08x, stored %08x", got, want))
		}
		recs = append(recs, record{typ: rh[0], payload: payload})
	}
}

// quarantine renames a bad snapshot aside and returns ErrCorrupt wrapping
// the cause. The quarantined copy keeps the evidence without ever being
// eligible to serve again (readers only open "*.snap").
func (s *Store) quarantine(name string, cause error) error {
	s.mu.Lock()
	s.corrupt++
	s.mu.Unlock()
	from := filepath.Join(s.dir, name)
	os.Rename(from, from+".quarantine")
	return fmt.Errorf("%w: %s: %v", ErrCorrupt, name, cause)
}
