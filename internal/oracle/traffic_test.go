package oracle

import (
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/symbolic"
)

// blockStructure partitions st into panels of width at most b.
func blockStructure(t *testing.T, st *symbolic.Structure, b int) *blocks.Structure {
	t.Helper()
	bs, err := blocks.Build(st, blocks.NewPartition(st, b))
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// cyclic2D is the block fan-out traffic of the 2-D cyclic mapping on the
// most nearly square grid of p processors.
func cyclic2D(bs *blocks.Structure, p int) *sched.Program {
	return sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(mapping.BestGrid(p), bs.N())})
}

func TestMessagesGrowWithP(t *testing.T) {
	m, st := prep(t, gen.Grid2D(20), ord.NDGrid2D, 20, symbolic.NoAmalgamation())
	prev := int64(-1)
	for _, p := range []int{1, 2, 4, 8, 16} {
		_, vol, err := ColumnFanOut(m, st, p)
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 && vol.Messages != 0 {
			t.Fatalf("P=1 sent %d messages", vol.Messages)
		}
		if vol.Bytes < prev {
			t.Fatalf("volume not monotone at P=%d", p)
		}
		prev = vol.Bytes
	}
}

func TestSingleProcessorZero(t *testing.T) {
	_, st := prep(t, gen.Grid2D(14), ord.NDGrid2D, 14, symbolic.DefaultAmalgamation())
	if pr := cyclic2D(blockStructure(t, st, 4), 1); pr.TotalBytes != 0 || pr.TotalMessages != 0 {
		t.Fatalf("P=1 2-D volume %d messages, %d bytes", pr.TotalMessages, pr.TotalBytes)
	}
	if v := Column1D(st, 1); v.Bytes != 0 || v.Messages != 0 {
		t.Fatalf("P=1 1-D volume %+v", v)
	}
}

func TestColumn1DGrowsWithP(t *testing.T) {
	_, st := prep(t, gen.Grid2D(24), ord.NDGrid2D, 24, symbolic.DefaultAmalgamation())
	prev := int64(0)
	for _, p := range []int{2, 4, 8, 16, 32} {
		v := Column1D(st, p)
		if v.Bytes < prev {
			t.Fatalf("1-D volume not monotone at P=%d: %d < %d", p, v.Bytes, prev)
		}
		prev = v.Bytes
	}
}

// TestTwoDGrowsSlowerThanOneD checks the paper's scalability claim: the
// 1-D/2-D volume ratio grows with P.
func TestTwoDGrowsSlowerThanOneD(t *testing.T) {
	_, st := prep(t, gen.Grid2D(28), ord.NDGrid2D, 28, symbolic.DefaultAmalgamation())
	bs := blockStructure(t, st, 4)
	r16 := float64(Column1D(st, 16).Bytes) / float64(cyclic2D(bs, 16).TotalBytes)
	r64 := float64(Column1D(st, 64).Bytes) / float64(cyclic2D(bs, 64).TotalBytes)
	if r64 <= r16 {
		t.Fatalf("1-D/2-D ratio not growing: %g at 16, %g at 64", r16, r64)
	}
	if r64 <= 1 {
		t.Fatalf("1-D not worse than 2-D at P=64 (ratio %g)", r64)
	}
}

func TestSubcubeReducesVolume(t *testing.T) {
	_, st := prep(t, gen.Grid2D(24), ord.NDGrid2D, 24, symbolic.DefaultAmalgamation())
	bs := blockStructure(t, st, 4)
	g := mapping.Grid{Pr: 4, Pc: 4}
	depth := make([]int, bs.N())
	for p := range depth {
		depth[p] = st.Depth[bs.Part.SnodeOf[p]]
	}
	heur := mapping.New(g, mapping.ID, mapping.CY, bs, depth)
	sub := mapping.Compose(g, mapping.ID, mapping.SubcubeColumns(st, bs, g.Pc), bs, depth)
	vh := sched.Build(bs, sched.Assignment{Map: heur}).TotalBytes
	vs := sched.Build(bs, sched.Assignment{Map: sub}).TotalBytes
	if vs >= vh {
		t.Fatalf("subcube volume %d not below heuristic %d", vs, vh)
	}
}
