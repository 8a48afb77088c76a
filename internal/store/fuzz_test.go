package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Keys the fuzzed files are stored and read under.
const (
	fuzzConfig = 0xdeadbeefcafef00d
	fuzzJob    = "00ab34cd56ef7890"
)

// reseal rewrites every record's CRC in a snapshot file so that mutated
// payloads pass the checksum and reach the record decoders. It walks the
// framing the way readFile does and stops where the framing breaks.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	off := len(magic) + 1
	for off+5 <= len(out) {
		n := int(binary.LittleEndian.Uint32(out[off+1 : off+5]))
		body := off + 5
		if n > len(out)-body-4 {
			break
		}
		binary.LittleEndian.PutUint32(out[body+n:], crc32.ChecksumIEEE(out[body:body+n]))
		off = body + n + 4
	}
	return out
}

// FuzzStoreRead writes arbitrary bytes under a factor or a blocks
// snapshot name and loads them back. A load must not panic, must
// not allocate more than the file's size justifies, and must either fail
// with ErrCorrupt and quarantine the file or return a snapshot a consumer
// can use: a factor whose matrix passes FactorSnapshot.Matrix, a blocks
// snapshot with one payload per id. With resealed set, the harness fixes
// every record CRC first, so the fuzzer explores the payload decoders and
// not just the checksum layer.
func FuzzStoreRead(f *testing.F) {
	fs := testSnapshot(f)
	fs.ConfigKey = fuzzConfig
	puts := []func(st *Store) error{
		func(st *Store) error { return st.PutFactor(fs) },
		func(st *Store) error {
			return st.PutBlocks(&BlockSnapshot{
				JobID: fuzzJob, RunID: 7, Epoch: 2, ValSum: ValChecksum([]float64{1, 2, 3}),
				IDs: []uint32{3, 11}, Blocks: [][]float64{{1, 2}, {3}},
			})
		},
	}
	for i, put := range puts {
		kind := byte(i)
		dir := f.TempDir()
		st, err := Open(dir)
		if err != nil {
			f.Fatal(err)
		}
		if err := put(st); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, fuzzName(kind, fs.PatternHash)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, false, data)
		f.Add(kind, true, data[:len(data)-3])
		if kind == 0 {
			// A first record claiming a 1 GiB payload the file cannot hold.
			huge := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(huge[6:10], 1<<30)
			f.Add(kind, false, huge)
			// Sound records around a matrix whose first row index is out
			// of range.
			bad := append([]byte(nil), data...)
			// file header (5), meta record (5 + payload + CRC 4), matrix
			// record header (5); its payload opens with colptr.
			matrix := 10 + int(binary.LittleEndian.Uint32(bad[6:10])) + 4 + 5
			ncolptr := int(binary.LittleEndian.Uint32(bad[matrix:]))
			binary.LittleEndian.PutUint64(bad[matrix+4+8*ncolptr+4:], 1<<40)
			f.Add(kind, true, bad)
		}
	}

	f.Fuzz(func(t *testing.T, kind byte, resealed bool, data []byte) {
		kind %= 2
		if resealed {
			data = reseal(data)
		}
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fuzzName(kind, fs.PatternHash))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var factor *FactorSnapshot
		var blocks *BlockSnapshot
		switch kind {
		case 0:
			factor, err = st.GetFactor(fs.PatternHash, fuzzConfig)
		default:
			blocks, err = st.GetBlocks(fuzzJob)
		}
		runtime.ReadMemStats(&after)
		// Every decoded element needs at least four bytes of input, and a
		// slice header costs 24: 16 bytes per input byte covers the worst
		// case, and 64 KiB the fixed cost of opening and reporting.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(data))+64<<10 {
			t.Fatalf("loading a %d-byte file allocated %d bytes", len(data), alloc)
		}

		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("load failed with %v, want ErrCorrupt", err)
			}
			if _, serr := os.Stat(path + ".quarantine"); serr != nil {
				t.Fatalf("corrupt file not quarantined: %v", serr)
			}
			if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
				t.Fatalf("corrupt file still under its live name: %v", serr)
			}
			return
		}
		if factor != nil {
			if _, err := factor.Matrix(); err != nil {
				t.Fatalf("GetFactor returned a snapshot whose matrix is invalid: %v", err)
			}
		}
		if blocks != nil && len(blocks.IDs) != len(blocks.Blocks) {
			t.Fatalf("GetBlocks returned %d ids for %d payloads", len(blocks.IDs), len(blocks.Blocks))
		}
	})
}

func fuzzName(kind byte, pattern uint64) string {
	if kind == 0 {
		return factorName(pattern, fuzzConfig)
	}
	return blocksName(fuzzJob)
}
