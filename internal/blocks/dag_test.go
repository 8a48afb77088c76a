package blocks_test

import (
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// dagInputs builds every generator the suite uses under every blocking
// strategy, with panels of at most 8 columns.
func dagInputs(t *testing.T) map[string]*blocks.Structure {
	t.Helper()
	out := map[string]*blocks.Structure{}
	for _, in := range []struct {
		name   string
		m      *sparse.Matrix
		method order.Method
		grid   int
	}{
		{"cube", gen.Cube3D(6), order.NDCube3D, 6},
		{"grid", gen.Grid2D(14), order.NDGrid2D, 14},
		{"mesh", gen.IrregularMesh(300, 5, 3, 41), order.MinDegree, 0},
		{"dense", gen.Dense(24), order.Natural, 0},
	} {
		for _, s := range []blocks.Strategy{blocks.StrategyUniform, blocks.StrategyStaged, blocks.StrategyCycled, blocks.StrategyIrregular} {
			plan, err := core.NewPlan(in.m, core.Options{Ordering: in.method, GridDim: in.grid, BlockSize: 8, Blocking: s})
			if err != nil {
				t.Fatal(err)
			}
			out[in.name+"/"+s.String()] = plan.BS
		}
	}
	return out
}

// TestDAGTablesMatchEnumeration checks every table Build derives — block
// ids, modification counts, completing-op flops, the BMOD destination
// table, the seed set and the pairing table — against a brute-force
// enumeration: ForEachOp for the operations, Find and a linear scan for
// the blocks they touch.
func TestDAGTablesMatchEnumeration(t *testing.T) {
	for name, bs := range dagInputs(t) {
		// Ids: column-major numbering.
		idOf := map[*blocks.Block]int32{}
		next := int32(0)
		for j := range bs.Cols {
			if bs.ColBase[j] != next {
				t.Fatalf("%s: ColBase[%d] = %d, want %d", name, j, bs.ColBase[j], next)
			}
			for idx := range bs.Cols[j].Blocks {
				if bs.BlockID(j, idx) != next || bs.ColOf[next] != int32(j) || bs.IdxOf[next] != int32(idx) {
					t.Fatalf("%s: block (%d,%d) has id %d (col %d, idx %d), want %d",
						name, j, idx, bs.BlockID(j, idx), bs.ColOf[next], bs.IdxOf[next], next)
				}
				idOf[&bs.Cols[j].Blocks[idx]] = next
				next++
			}
		}
		if bs.NBlocks != int(next) || len(bs.ColBase) != bs.N()+1 || bs.ColBase[bs.N()] != next {
			t.Fatalf("%s: NBlocks %d, ColBase has %d entries ending at %d; want %d blocks", name, bs.NBlocks, len(bs.ColBase), bs.ColBase[bs.N()], next)
		}

		// Operations: destinations found by Find, source positions by
		// scanning column K.
		nmods := make([]int32, bs.NBlocks)
		own := make([]int64, bs.NBlocks)
		hit := make([]bool, len(bs.ModDest))
		pos := func(k, i int) int {
			for idx, b := range bs.Cols[k].Blocks {
				if b.I == i {
					return idx
				}
			}
			t.Fatalf("%s: block (%d,%d) not in column %d", name, i, k, k)
			return -1
		}
		bs.ForEachOp(func(op blocks.Op) {
			switch op.Kind {
			case blocks.BFAC, blocks.BDIV:
				own[idOf[bs.Find(op.I, op.K)]] = op.Flops
			case blocks.BMOD:
				dest := idOf[bs.Find(op.I, op.J)]
				nmods[dest]++
				ia, jb := pos(op.K, op.I), pos(op.K, op.J)
				p := bs.PairIndex(op.K, ia, jb)
				if p != bs.PairIndex(op.K, jb, ia) || hit[p] {
					t.Fatalf("%s: pairing index %d of %+v not unique", name, p, op)
				}
				hit[p] = true
				if bs.ModDest[p] != dest || bs.ModFlops(op.K, ia, jb) != op.Flops {
					t.Fatalf("%s: %+v: ModDest %d flops %d, want %d flops %d", name, op, bs.ModDest[p], bs.ModFlops(op.K, ia, jb), dest, op.Flops)
				}
			}
		})
		for p, h := range hit {
			if !h {
				t.Fatalf("%s: ModDest entry %d belongs to no BMOD", name, p)
			}
		}
		var seeds []int32
		for id := int32(0); id < next; id++ {
			if bs.NMods[id] != nmods[id] || bs.OwnOpFlops[id] != own[id] {
				t.Fatalf("%s: block %d: NMods %d OwnOpFlops %d, want %d and %d", name, id, bs.NMods[id], bs.OwnOpFlops[id], nmods[id], own[id])
			}
			if bs.IdxOf[id] == 0 && nmods[id] == 0 {
				seeds = append(seeds, id)
			}
		}
		if len(seeds) == 0 || len(seeds) != len(bs.Seeds) {
			t.Fatalf("%s: seeds %v, want %v", name, bs.Seeds, seeds)
		}
		for i := range seeds {
			if bs.Seeds[i] != seeds[i] {
				t.Fatalf("%s: seeds %v, want %v", name, bs.Seeds, seeds)
			}
		}

		// The pairing table is the inverse view of ModDest.
		pt := bs.Pairs()
		if pt != bs.Pairs() || len(pt.Col) != len(bs.ModDest) {
			t.Fatalf("%s: pairing table rebuilt or holds %d of %d pairings", name, len(pt.Col), len(bs.ModDest))
		}
		for p := range pt.Col {
			k, ia, jb := int(pt.Col[p]), int(pt.A[p]), int(pt.B[p])
			if bs.PairIndex(k, ia, jb) != p || pt.Dest[p] != bs.ModDest[p] {
				t.Fatalf("%s: pairing %d is (%d,%d,%d) with dest %d, inconsistent with ModDest", name, p, k, ia, jb, pt.Dest[p])
			}
		}
		for id := int32(0); id < next; id++ {
			if pt.DestBase[id+1]-pt.DestBase[id] != nmods[id] {
				t.Fatalf("%s: block %d has a %d-slot segment for %d BMODs", name, id, pt.DestBase[id+1]-pt.DestBase[id], nmods[id])
			}
		}
	}
}

// TestBytesCountsPairTableBeforeBuild: Bytes charges the pairing table
// the same before and after Pairs builds it, so a cache that sizes a plan
// before its first factorization does not miss the table.
func TestBytesCountsPairTableBeforeBuild(t *testing.T) {
	for name, bs := range dagInputs(t) {
		before := bs.Bytes()
		pt := bs.Pairs()
		table := int64(4*(len(pt.Col)+len(pt.A)+len(pt.B)+len(pt.RelRow)+len(pt.DestBase)) + 8*len(pt.RelBase))
		if after := bs.Bytes(); after != before || before < table {
			t.Fatalf("%s: Bytes %d before Pairs, %d after; the table alone is %d", name, before, after, table)
		}
	}
}
