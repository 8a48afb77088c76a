package store

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"blockfanout/internal/sparse"
)

// TestSnapshotBytesGolden pins the exact bytes the store writes for one
// small factor snapshot and one block snapshot. The goldens were recorded
// while the store still wrote a third record kind (record type 6, the
// retired cost profile), so they also show that retiring it moved no byte
// of the two formats that remain. A deliberate format change must bump
// Version and re-record them.
func TestSnapshotBytesGolden(t *testing.T) {
	m := &sparse.Matrix{N: 3, ColPtr: []int{0, 2, 4, 5}, RowInd: []int{0, 1, 1, 2, 2}, Val: []float64{4, 1, 5, 1, 6}}
	const cfg = 0x0123456789abcdef
	for _, tc := range []struct {
		name string
		file string
		put  func(st *Store) error
		want string
	}{
		{"factor", factorName(m.PatternHash(), cfg), func(st *Store) error {
			return st.PutFactor(&FactorSnapshot{
				PatternHash: m.PatternHash(), ConfigKey: cfg, N: m.N,
				ColPtr: m.ColPtr, RowInd: m.RowInd, Val: m.Val,
				Blocks: [][]float64{{2, 0.5}, {2.179449471770337}, {-0.25, 0}},
			})
		}, "5350435301011400000005570bb134e7e619efcdab896745230103000000b643c916027c0000000400000000000000000000000200000000000000040000000000000005000000000000000500000000000000000000000100000000000000010000000000000002000000000000000200000000000000050000000000000000001040000000000000f03f0000000000001440000000000000f03f000000000000184004a79d5d033800000003000000020000000000000000000040000000000000e03f01000000f94d6434836f014002000000000000000000d0bf0000000000000000a4e92b1f"},
		{"blocks", blocksName("job-7"), func(st *Store) error {
			return st.PutBlocks(&BlockSnapshot{
				JobID: "job-7", RunID: 42, Epoch: 3, ValSum: ValChecksum(m.Val),
				IDs: []uint32{0, 5}, Blocks: [][]float64{{1.5, -2}, {}},
			})
		}, "5350435301041d000000050000006a6f622d372a00000000000000030000004972b8f536bf54d0d40532d40524000000020000000000000002000000000000000000f83f00000000000000c005000000000000003fae48e7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.put(st); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dir, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(b); got != tc.want {
				t.Errorf("%s bytes changed:\n got %s\nwant %s", tc.file, got, tc.want)
			}
		})
	}
}
