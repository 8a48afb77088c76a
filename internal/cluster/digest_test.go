package cluster

import (
	"math"
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/core"
	"blockfanout/internal/fanout"
	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/store"
	"blockfanout/internal/symbolic"
)

// TestDigestsGolden pins every FNV-1a digest the system persists or routes
// by to fixed values on fixed inputs. Snapshot files on disk are keyed by
// PatternHash and ConfigKey, block snapshots carry ValChecksum, and the
// assembly ring hangs on the ring points: a digest that drifts orphans
// state written by an earlier build.
func TestDigestsGolden(t *testing.T) {
	amalg := &symbolic.AmalgamationConfig{MaxZeros: 16, MaxZeroFrac: 0.05}
	r := buildRing([]string{"node-a", "node-b", "node-c"})

	for _, tc := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"PatternHash/grid5", gen.Grid2D(5).PatternHash(), 0xc8d90bbad380606d},
		{"PatternHash/mesh", gen.IrregularMesh(60, 5, 3, 7).PatternHash(), 0x349c32160d411e22},
		{"ConfigKey/zero", core.Options{}.ConfigKey(), 0x262d7130518e6c61},
		{"ConfigKey/full", core.Options{
			BlockSize: 16, Ordering: order.NDCube3D, GridDim: 9, Amalgamation: amalg,
			Blocking: blocks.StrategyIrregular, AmalgThreshold: 0.25, Exec: fanout.ModeSPMD,
		}.ConfigKey(), 0x64d1eda63c2fbb2d},
		{"ValChecksum/empty", store.ValChecksum(nil), 0xcbf29ce484222325},
		{"ValChecksum/vals", store.ValChecksum([]float64{1, -2.5, 0, math.Pi, math.Inf(1)}), 0x7c39da198d5b64db},
		{"ring/point0", r.hs[0], 0xe52ac4dbcb267},
		{"ring/point59", r.hs[59], 0x65d53207ae5011f8},
		{"ring/point119", r.hs[119], 0xf87defaa753d20c6},
		{"ring/job", fnv1a("job-42"), 0x8a36d7b66f465fa5},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %#x, want %#x", tc.name, tc.got, tc.want)
		}
	}
	if got := r.pick(fnv1a("job-42"), 2, func(int) bool { return true }); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Errorf("ring pick for job-42 = %v, want [2 1]", got)
	}
}
