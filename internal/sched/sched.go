// Package sched precomputes the data-driven execution structure of the
// block fan-out method for a given block structure and block-to-processor
// assignment: block ownership, per-block modification counts, message
// sizes, and consumer (fan-out destination) lists. Both the real parallel
// executor (package fanout) and the multicomputer simulator (package
// machine) run the identical protocol over this program, which is what
// makes the simulated timings faithful to the executed algorithm.
package sched

import (
	"sort"
	"sync"

	"blockfanout/internal/blocks"
	"blockfanout/internal/domains"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
)

// BlockOwner is any full block-to-processor map (e.g. mapping.Arbitrary,
// the §2.4 "most general form").
type BlockOwner interface {
	Owner(i, j int) int
	P() int
}

// Assignment combines the 2-D mapping of the root portion with an optional
// 1-D domain assignment (§2.3): blocks in a domain-owned panel column all
// live on the domain's processor; every other block follows the 2-D map.
// A non-nil Override replaces the Cartesian-product map entirely (domains
// still win for their panels).
type Assignment struct {
	Map      *mapping.Mapping
	Dom      *domains.Domains // optional; nil disables domains
	Override BlockOwner       // optional; replaces Map when set
}

// Owner returns the processor owning block (i,j).
func (a Assignment) Owner(i, j int) int {
	if a.Dom != nil && a.Dom.PanelOwner[j] >= 0 {
		return a.Dom.PanelOwner[j]
	}
	if a.Override != nil {
		return a.Override.Owner(i, j)
	}
	return a.Map.Owner(i, j)
}

// P returns the processor count.
func (a Assignment) P() int {
	if a.Override != nil {
		return a.Override.P()
	}
	return a.Map.Grid.P()
}

// MsgHeaderBytes models the per-message header the fan-out method attaches
// to a block (block coordinates, row list) when it is sent.
const MsgHeaderBytes = 64

// Program is the precomputed fan-out schedule.
type Program struct {
	BS    *blocks.Structure
	NProc int
	// Dom is the assignment's §2.3 domain selection (nil without domains),
	// and Split the triangular sweep's lane schedule derived from it: one
	// lane per domain owner, nil for a program without domains.
	Dom   *domains.Domains
	Split *numeric.Split

	NBlocks int
	ColBase []int32 // block id of Cols[j].Blocks[0]
	ColOf   []int32 // block id → column (panel J)
	IdxOf   []int32 // block id → index within the column
	Owner   []int32 // block id → owning processor
	NMods   []int32 // block id → number of BMOD operations targeting it
	// OwnOpFlops is the flop count of the block's completing operation:
	// BFAC for diagonal blocks, BDIV otherwise.
	OwnOpFlops []int64
	Bytes      []int64   // message size when the block is sent
	Consumers  [][]int32 // deduped processors needing the block as a source

	// ModBase/ModDest form the precomputed BMOD destination table: the
	// pairing of source block indices ia ≥ jb ≥ 1 in column k has its
	// destination block id at ModDest[ModBase[k] + (ia−1)·ia/2 + (jb−1)].
	// Executors read it through ModDestID so their inner loops never
	// binary-search the block structure.
	ModBase []int
	ModDest []int32

	// IncomingRemote[p] counts deliveries to p from other processors
	// (used to size channels so sends can never block).
	IncomingRemote []int
	// OwnedCount[p] counts blocks owned by p.
	OwnedCount []int
	// TotalMessages is the total remote block transfer count.
	TotalMessages int64
	// TotalBytes is the total remote communication volume.
	TotalBytes int64

	pairsOnce sync.Once
	pairs     *PairTable
}

// PairTable is the inverse view of the BMOD destination table: one entry
// per source pairing, flat-indexed in the same order as ModDest, plus a
// grouping of pairings by destination block and each pairing's row index
// map. The fan-out executor drives its ready counters, per-destination
// operation queues and BMODs with it; the simulator never needs it, so it
// is built lazily and memoized.
type PairTable struct {
	Col  []int32 // pairing → column k of the sources
	A    []int32 // pairing → source block index ia (≥ jb) within column k
	B    []int32 // pairing → source block index jb ≥ 1
	Dest []int32 // pairing → destination block id (== ModDest)

	// RelRow[RelBase[p] : RelBase[p+1]] is pairing p's row map: entry s is
	// the position of row s of source block A[p] in its destination
	// block's row list. A map that is a consecutive run — most of them —
	// is stored as its first entry alone. Building the maps once per
	// program takes the sorted merge out of every BMOD of every refactor.
	RelBase []int
	RelRow  []int32

	// DestBase[id] .. DestBase[id+1] delimits block id's segment in a
	// shared per-destination slot array of length len(ModDest); segment
	// sizes equal NMods.
	DestBase []int32
}

// Pairs returns the program's pairing table, building it on first use.
func (pr *Program) Pairs() *PairTable {
	pr.pairsOnce.Do(func() {
		total := len(pr.ModDest)
		pt := &PairTable{
			Col:      make([]int32, total),
			A:        make([]int32, total),
			B:        make([]int32, total),
			Dest:     pr.ModDest,
			DestBase: make([]int32, pr.NBlocks+1),
		}
		for k := 0; k < pr.BS.N(); k++ {
			base := pr.ModBase[k]
			m := len(pr.BS.Cols[k].Blocks) - 1
			for ia := 1; ia <= m; ia++ {
				for jb := 1; jb <= ia; jb++ {
					p := base + (ia-1)*ia/2 + jb - 1
					pt.Col[p] = int32(k)
					pt.A[p] = int32(ia)
					pt.B[p] = int32(jb)
				}
			}
		}
		for id := 0; id < pr.NBlocks; id++ {
			pt.DestBase[id+1] = pt.DestBase[id] + pr.NMods[id]
		}
		pt.buildRowMaps(pr)
		pr.pairs = pt
	})
	return pr.pairs
}

// buildRowMaps merges every pairing's source rows into its destination's
// row list. Block row lists are ascending, and the block structure
// guarantees each source row is present in the destination, so a map is
// a consecutive run exactly when its first and last source rows lie
// len−1 apart in the destination; the first pass finds those by binary
// search to size the compressed table.
func (pt *PairTable) buildRowMaps(pr *Program) {
	cols := pr.BS.Cols
	rows := func(p int) (src, dest []int) {
		d := pt.Dest[p]
		return cols[pt.Col[p]].Blocks[pt.A[p]].Rows, cols[pr.ColOf[d]].Blocks[pr.IdxOf[d]].Rows
	}
	pt.RelBase = make([]int, len(pt.Col)+1)
	for p := range pt.Col {
		src, dest := rows(p)
		n := len(src)
		if sort.SearchInts(dest, src[n-1])-sort.SearchInts(dest, src[0]) == n-1 {
			n = 1
		}
		pt.RelBase[p+1] = pt.RelBase[p] + n
	}
	pt.RelRow = make([]int32, pt.RelBase[len(pt.Col)])
	for p := range pt.Col {
		src, dest := rows(p)
		rel := pt.RelRow[pt.RelBase[p]:pt.RelBase[p+1]]
		pos := 0
		for s, g := range src[:len(rel)] {
			for pos < len(dest) && dest[pos] < g {
				pos++
			}
			if pos == len(dest) || dest[pos] != g {
				panic("sched: BMOD source row missing from its destination")
			}
			rel[s] = int32(pos)
		}
	}
}

// RowMap returns pairing p's row index map (see RelRow): the full map, or
// its first entry alone when the map is the consecutive run from there.
func (pt *PairTable) RowMap(p int32) []int32 {
	return pt.RelRow[pt.RelBase[p]:pt.RelBase[p+1]:pt.RelBase[p+1]]
}

// BlockID returns the block id of column j, index idx.
func (pr *Program) BlockID(j, idx int) int32 { return pr.ColBase[j] + int32(idx) }

// Build precomputes the program for a block structure under an assignment.
func Build(bs *blocks.Structure, a Assignment) *Program {
	nb := 0
	ncols := bs.N()
	pr := &Program{
		BS:      bs,
		NProc:   a.P(),
		Dom:     a.Dom,
		Split:   numeric.NewSplit(bs, a.Dom),
		ColBase: make([]int32, ncols+1),
	}
	for j := 0; j < ncols; j++ {
		pr.ColBase[j] = int32(nb)
		nb += len(bs.Cols[j].Blocks)
	}
	pr.ColBase[ncols] = int32(nb)
	pr.NBlocks = nb
	pr.ColOf = make([]int32, nb)
	pr.IdxOf = make([]int32, nb)
	pr.Owner = make([]int32, nb)
	pr.NMods = make([]int32, nb)
	pr.OwnOpFlops = make([]int64, nb)
	pr.Bytes = make([]int64, nb)
	pr.Consumers = make([][]int32, nb)
	pr.IncomingRemote = make([]int, pr.NProc)
	pr.OwnedCount = make([]int, pr.NProc)

	for j := 0; j < ncols; j++ {
		w := bs.Part.Width(j)
		for idx := range bs.Cols[j].Blocks {
			id := pr.BlockID(j, idx)
			b := &bs.Cols[j].Blocks[idx]
			pr.ColOf[id] = int32(j)
			pr.IdxOf[id] = int32(idx)
			pr.Owner[id] = int32(a.Owner(b.I, j))
			pr.OwnedCount[pr.Owner[id]]++
			pr.Bytes[id] = int64(len(b.Rows))*int64(w)*8 + MsgHeaderBytes
		}
	}

	// Dependency counts and own-op flop costs.
	bs.ForEachOp(func(op blocks.Op) {
		switch op.Kind {
		case blocks.BFAC:
			pr.OwnOpFlops[pr.BlockID(op.K, 0)] = op.Flops
		case blocks.BDIV:
			id := pr.findID(op.I, op.K)
			pr.OwnOpFlops[id] = op.Flops
		case blocks.BMOD:
			pr.NMods[pr.findID(op.I, op.J)]++
		}
	})

	// Consumer lists. procMark/gen implement an O(1)-reset membership set.
	procMark := make([]int, pr.NProc)
	for i := range procMark {
		procMark[i] = -1
	}
	gen := 0
	addConsumer := func(id int32, p int32) {
		if procMark[p] != gen {
			procMark[p] = gen
			pr.Consumers[id] = append(pr.Consumers[id], p)
		}
	}
	for k := 0; k < ncols; k++ {
		col := &bs.Cols[k]
		diagID := pr.BlockID(k, 0)
		// The factored diagonal block is needed by the owner of every
		// off-diagonal block in its column (for their BDIVs).
		gen++
		for idx := 1; idx < len(col.Blocks); idx++ {
			addConsumer(diagID, pr.Owner[pr.BlockID(k, idx)])
		}
		// Completed off-diagonal blocks pair up within the column: the
		// pair (ia ≥ jb) is consumed by the owner of dest (I_a, I_b).
		for ia := 1; ia < len(col.Blocks); ia++ {
			idA := pr.BlockID(k, ia)
			gen++
			for jb := 1; jb < len(col.Blocks); jb++ {
				var destI, destJ int
				if col.Blocks[ia].I >= col.Blocks[jb].I {
					destI, destJ = col.Blocks[ia].I, col.Blocks[jb].I
				} else {
					destI, destJ = col.Blocks[jb].I, col.Blocks[ia].I
				}
				addConsumer(idA, int32(a.Owner(destI, destJ)))
			}
		}
	}

	// BMOD destination table: one binary search per pairing here at build
	// time removes every FindID call from the executors' inner loops.
	pr.ModBase = make([]int, ncols+1)
	total := 0
	for k := 0; k < ncols; k++ {
		pr.ModBase[k] = total
		m := len(bs.Cols[k].Blocks) - 1 // off-diagonal blocks
		total += m * (m + 1) / 2
	}
	pr.ModBase[ncols] = total
	pr.ModDest = make([]int32, total)
	for k := 0; k < ncols; k++ {
		col := &bs.Cols[k]
		base := pr.ModBase[k]
		for ia := 1; ia < len(col.Blocks); ia++ {
			for jb := 1; jb <= ia; jb++ {
				pr.ModDest[base+(ia-1)*ia/2+jb-1] = pr.findID(col.Blocks[ia].I, col.Blocks[jb].I)
			}
		}
	}

	for id := 0; id < nb; id++ {
		for _, p := range pr.Consumers[id] {
			if p != pr.Owner[id] {
				pr.IncomingRemote[p]++
				pr.TotalMessages++
				pr.TotalBytes += pr.Bytes[id]
			}
		}
	}
	return pr
}

// findID returns the block id of block (i,j), panicking if absent (the
// block structure guarantees presence of all op destinations).
func (pr *Program) findID(i, j int) int32 {
	col := &pr.BS.Cols[j]
	lo, hi := 0, len(col.Blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if col.Blocks[mid].I < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(col.Blocks) || col.Blocks[lo].I != i {
		panic("sched: block not found")
	}
	return pr.BlockID(j, lo)
}

// FindID is the exported lookup of a block id by block coordinates. The
// executors' hot paths use the precomputed ModDest table instead; this
// binary search remains for callers that start from coordinates.
func (pr *Program) FindID(i, j int) int32 { return pr.findID(i, j) }

// ModDestID returns the destination block id of the BMOD pairing of
// source block indices ia and jb (either order, both ≥ 1) of column k,
// served from the table precomputed at Build time.
func (pr *Program) ModDestID(k, ia, jb int) int32 {
	if ia < jb {
		ia, jb = jb, ia
	}
	return pr.ModDest[pr.ModBase[k]+(ia-1)*ia/2+jb-1]
}

// ModFlops returns the flop cost of the BMOD with sources (ia, jb) of
// column k (block indices within the column, ia pairs the larger block row
// when destI != destJ — callers pass any order; cost is symmetric except
// for the diagonal destination).
func (pr *Program) ModFlops(k, ia, jb int) int64 {
	col := &pr.BS.Cols[k]
	wk := int64(pr.BS.Part.Width(k))
	ri := int64(len(col.Blocks[ia].Rows))
	cj := int64(len(col.Blocks[jb].Rows))
	if col.Blocks[ia].I == col.Blocks[jb].I {
		return ri * (ri + 1) * wk
	}
	return 2 * ri * cj * wk
}
