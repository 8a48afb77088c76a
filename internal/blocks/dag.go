package blocks

import (
	"fmt"
	"sort"
	"unsafe"
)

// buildDAG numbers the blocks and runs the one pass over the operations
// that fills the work model and the DAG tables. It is the only place an
// operation's destination is searched for.
func (bs *Structure) buildDAG() error {
	n := bs.N()
	bs.ColBase = make([]int32, n+1)
	bs.ModBase = make([]int, n+1)
	nb, pairs := 0, 0
	for j := range bs.Cols {
		m := len(bs.Cols[j].Blocks)
		bs.ColBase[j], bs.ModBase[j] = int32(nb), pairs
		nb += m
		pairs += (m - 1) * m / 2
	}
	bs.ColBase[n], bs.ModBase[n] = int32(nb), pairs
	bs.NBlocks = nb
	bs.ColOf = make([]int32, nb)
	bs.IdxOf = make([]int32, nb)
	for j := range bs.Cols {
		for idx := range bs.Cols[j].Blocks {
			id := bs.BlockID(j, idx)
			bs.ColOf[id], bs.IdxOf[id] = int32(j), int32(idx)
		}
	}
	bs.NMods = make([]int32, nb)
	bs.OwnOpFlops = make([]int64, nb)
	// ForEachOp yields the BMODs in pairing order, so appending fills
	// ModDest index by index.
	bs.ModDest = make([]int32, 0, pairs)

	var missing error
	bs.ForEachOp(func(op Op) {
		dj := op.K // BFAC and BDIV complete a block of column K
		if op.Kind == BMOD {
			dj = op.J
		}
		idx := bs.index(op.I, dj)
		if idx < 0 {
			if missing == nil {
				missing = fmt.Errorf("blocks: destination (%d,%d) of %v op missing", op.I, dj, op.Kind)
			}
			return
		}
		id := bs.BlockID(dj, idx)
		if op.Kind == BMOD {
			bs.NMods[id]++
			bs.ModDest = append(bs.ModDest, id)
		} else {
			bs.OwnOpFlops[id] = op.Flops
		}
		dst := &bs.Cols[dj].Blocks[idx]
		dst.Flops += op.Flops
		dst.Work += op.Flops + FixedOpCost
		dst.NOps++
		bs.TotalFlops += op.Flops
		bs.TotalWork += op.Flops + FixedOpCost
		bs.TotalOps++
	})
	if missing != nil {
		return missing
	}
	for j := range bs.Cols {
		if id := bs.ColBase[j]; bs.NMods[id] == 0 {
			bs.Seeds = append(bs.Seeds, id)
		}
	}
	return nil
}

// BlockID returns the block id of column j, index idx.
func (bs *Structure) BlockID(j, idx int) int32 { return bs.ColBase[j] + int32(idx) }

// FindID returns the block id of block (i,j), panicking if the block is
// zero. The executors read the ModDest table instead; this search serves
// callers that start from coordinates.
func (bs *Structure) FindID(i, j int) int32 {
	idx := bs.index(i, j)
	if idx < 0 {
		panic(fmt.Sprintf("blocks: block (%d,%d) not found", i, j))
	}
	return bs.BlockID(j, idx)
}

// PairIndex returns the index, in ModDest and the PairTable, of the
// pairing of source block indices ia and jb (either order, both ≥ 1) of
// column k.
func (bs *Structure) PairIndex(k, ia, jb int) int {
	if ia < jb {
		ia, jb = jb, ia
	}
	return bs.ModBase[k] + (ia-1)*ia/2 + jb - 1
}

// ModDestID returns the destination block id of the BMOD pairing source
// block indices ia and jb (either order, both ≥ 1) of column k.
func (bs *Structure) ModDestID(k, ia, jb int) int32 { return bs.ModDest[bs.PairIndex(k, ia, jb)] }

// PairTable is the inverse view of the BMOD destination table: one entry
// per source pairing, flat-indexed in the same order as ModDest, plus a
// grouping of pairings by destination block and each pairing's row index
// map. The fan-out executor drives its ready counters, per-destination
// operation queues and BMODs with it; the simulator never needs it, so it
// is built lazily, once per structure, and shared by every schedule built
// over the structure.
type PairTable struct {
	Col  []int32 // pairing → column k of the sources
	A    []int32 // pairing → source block index ia (≥ jb) within column k
	B    []int32 // pairing → source block index jb ≥ 1
	Dest []int32 // pairing → destination block id (== ModDest)

	// RelRow[RelBase[p] : RelBase[p+1]] is pairing p's row map: entry s is
	// the position of row s of source block A[p] in its destination
	// block's row list. A map that is a consecutive run — most of them —
	// is stored as its first entry alone. Building the maps once per
	// structure takes the sorted merge out of every BMOD of every refactor.
	RelBase []int
	RelRow  []int32

	// DestBase[id] .. DestBase[id+1] delimits block id's segment in a
	// shared per-destination slot array of length len(ModDest); segment
	// sizes equal NMods.
	DestBase []int32
}

// Pairs returns the structure's pairing table, building it on first use.
func (bs *Structure) Pairs() *PairTable {
	bs.pairsOnce.Do(func() {
		total := len(bs.ModDest)
		pt := &PairTable{
			Col:      make([]int32, 0, total),
			A:        make([]int32, 0, total),
			B:        make([]int32, 0, total),
			Dest:     bs.ModDest,
			DestBase: make([]int32, bs.NBlocks+1),
		}
		for k := range bs.Cols {
			for ia := 1; ia < len(bs.Cols[k].Blocks); ia++ {
				for jb := 1; jb <= ia; jb++ {
					pt.Col = append(pt.Col, int32(k))
					pt.A = append(pt.A, int32(ia))
					pt.B = append(pt.B, int32(jb))
				}
			}
		}
		for id, nm := range bs.NMods {
			pt.DestBase[id+1] = pt.DestBase[id] + nm
		}
		pt.buildRowMaps(bs)
		bs.pairs = pt
	})
	return bs.pairs
}

// buildRowMaps merges every pairing's source rows into its destination's
// row list, into the compressed table rowMapBase sizes.
func (pt *PairTable) buildRowMaps(bs *Structure) {
	pt.RelBase = bs.rowMapBase()
	pt.RelRow = make([]int32, pt.RelBase[len(pt.Col)])
	for p := range pt.Col {
		d := pt.Dest[p]
		src, dest := bs.Cols[pt.Col[p]].Blocks[pt.A[p]].Rows, bs.Cols[bs.ColOf[d]].Blocks[bs.IdxOf[d]].Rows
		rel := pt.RelRow[pt.RelBase[p]:pt.RelBase[p+1]]
		pos := 0
		for s, g := range src[:len(rel)] {
			for pos < len(dest) && dest[pos] < g {
				pos++
			}
			if pos == len(dest) || dest[pos] != g {
				panic("blocks: BMOD source row missing from its destination")
			}
			rel[s] = int32(pos)
		}
	}
}

// rowMapBase returns PairTable.RelBase, computing it once per structure:
// Bytes needs its total before Pairs builds the table. Block row lists are
// ascending, and the block structure guarantees each source row is present
// in the destination, so a map is a consecutive run — stored as its first
// entry alone — exactly when its first and last source rows lie len−1
// apart in the destination. Rows that are one integer range, or a
// destination no longer than the source, are a run without a search.
func (bs *Structure) rowMapBase() []int {
	bs.relOnce.Do(func() {
		base := make([]int, len(bs.ModDest)+1)
		p := 0
		for k := range bs.Cols {
			blks := bs.Cols[k].Blocks
			for ia := 1; ia < len(blks); ia++ {
				src := blks[ia].Rows
				n := len(src)
				for jb := 1; jb <= ia; jb++ {
					d := bs.ModDest[p]
					dest := bs.Cols[bs.ColOf[d]].Blocks[bs.IdxOf[d]].Rows
					m := n
					if src[n-1]-src[0] == n-1 || len(dest) == n ||
						sort.SearchInts(dest, src[n-1])-sort.SearchInts(dest, src[0]) == n-1 {
						m = 1
					}
					base[p+1] = base[p] + m
					p++
				}
			}
		}
		bs.relBase = base
	})
	return bs.relBase
}

// Bytes is the heap the structure holds: the partition, the block lists
// with the row indices it allocated, the DAG tables and the pairing table.
// Rows of blocks below a supernode are sub-slices of the symbolic
// structure's row lists (Build), so they are the symbolic structure's to
// count. The pairing table is counted whether or not Pairs has built it
// yet: the plan's first factorization builds it, and a cache charging the
// plan before then must not miss it. Allocator rounding is not counted.
func (bs *Structure) Bytes() int64 {
	const i32, i64 = 4, 8
	b := int64(cap(bs.Cols)) * int64(unsafe.Sizeof(BlockCol{}))
	for j := range bs.Cols {
		blks := bs.Cols[j].Blocks
		b += int64(cap(blks)) * int64(unsafe.Sizeof(Block{}))
		for i := range blks {
			if bs.Part.SnodeOf[blks[i].I] == bs.Cols[j].Snode {
				b += int64(cap(blks[i].Rows)) * i64
			}
		}
	}
	b += int64(cap(bs.Part.Start)+cap(bs.Part.SnodeOf)+cap(bs.Part.PanelOf)) * i64
	b += int64(cap(bs.ColBase)+cap(bs.ColOf)+cap(bs.IdxOf)+cap(bs.NMods)+cap(bs.ModDest)+cap(bs.Seeds)) * i32
	b += int64(cap(bs.OwnOpFlops)+cap(bs.ModBase)) * i64
	// The pairing table: Col, A and B per pairing, DestBase per block,
	// RelBase and RelRow per row map; Dest shares ModDest.
	pairs, relRow := int64(len(bs.ModDest)), int64(bs.rowMapBase()[len(bs.ModDest)])
	return b + 3*pairs*i32 + int64(bs.NBlocks+1)*i32 + (pairs+1)*i64 + relRow*i32
}

// RowMap returns pairing p's row index map (see RelRow): the full map, or
// its first entry alone when the map is the consecutive run from there.
func (pt *PairTable) RowMap(p int32) []int32 {
	return pt.RelRow[pt.RelBase[p]:pt.RelBase[p+1]:pt.RelBase[p+1]]
}
