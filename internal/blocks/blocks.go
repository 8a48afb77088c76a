// Package blocks forms the 2-D block decomposition of the factor matrix
// that the block fan-out method operates on, exactly as the paper describes
// in §2.1–2.2: the columns are divided into N contiguous subsets of size at
// most B (48 in the paper), each subset lying within one supernode, and the
// identical partition is applied to the rows. Block L_IJ collects the
// factor entries falling simultaneously in row subset I and column subset
// J; because block columns respect supernodes, every block row is either
// completely zero or dense.
//
// The package also enumerates the block operations (BFAC, BDIV, BMOD) and
// evaluates the paper's work model: work[I,J] = flops performed on behalf
// of block L_IJ plus 1000 times the number of distinct block operations
// with L_IJ as destination (§3.2).
package blocks

import (
	"fmt"
	"sort"
	"sync"

	"blockfanout/internal/symbolic"
)

// FixedOpCost is the per-block-operation fixed cost of the paper's work
// measure, "measured from our factorization code" as one thousand flops.
const FixedOpCost = 1000

// Partition is the common row/column partition into panels.
type Partition struct {
	B       int   // requested block size
	Start   []int // panel p covers columns [Start[p], Start[p+1]); len = N+1
	SnodeOf []int // panel → supernode index
	PanelOf []int // column → panel index
}

// N returns the number of panels.
func (p *Partition) N() int { return len(p.Start) - 1 }

// Width returns the number of columns of panel i.
func (p *Partition) Width(i int) int { return p.Start[i+1] - p.Start[i] }

// NewPartition splits every supernode of st into panels of width ≤ b,
// balanced so subset sizes are as close to b as possible.
func NewPartition(st *symbolic.Structure, b int) *Partition {
	if b < 1 {
		b = 1
	}
	part := &Partition{B: b, PanelOf: make([]int, st.N)}
	part.Start = append(part.Start, 0)
	for s, sn := range st.Snodes {
		chunks := (sn.Width + b - 1) / b
		if chunks == 0 {
			continue
		}
		base := sn.Width / chunks
		rem := sn.Width % chunks
		col := sn.First
		for c := 0; c < chunks; c++ {
			w := base
			if c < rem {
				w++
			}
			col += w
			part.Start = append(part.Start, col)
			part.SnodeOf = append(part.SnodeOf, s)
		}
	}
	for p := 0; p < part.N(); p++ {
		for j := part.Start[p]; j < part.Start[p+1]; j++ {
			part.PanelOf[j] = p
		}
	}
	return part
}

// Block is one nonzero block L_IJ of the factor. For the diagonal block
// (I == J) Rows holds the panel's own columns and the stored shape is the
// dense lower triangle; off-diagonal blocks are |Rows| dense rows by the
// panel width of J.
type Block struct {
	I     int
	Rows  []int // global row indices, sorted ascending
	Work  int64 // paper work measure accumulated for this destination
	Flops int64 // flop portion of Work
	NOps  int32 // number of block operations with this block as destination
}

// BlockCol is the set of nonzero blocks in one block column (panel).
type BlockCol struct {
	J      int
	Snode  int
	Blocks []Block // ascending I; Blocks[0].I == J (the diagonal block)
}

// Structure is the full block decomposition, the work model, and the
// block-operation DAG over it (dag.go). Build fills all of it in one pass
// over the operations; every schedule built over the structure, and the
// executors and simulator running one, read these tables instead of
// deriving their own.
type Structure struct {
	Part *Partition
	Cols []BlockCol

	TotalWork  int64
	TotalFlops int64
	TotalOps   int64

	// NBlocks counts the nonzero blocks. Block ids number them column by
	// column: Cols[j].Blocks[idx] has id ColBase[j]+idx (BlockID).
	NBlocks int
	ColBase []int32 // block id of Cols[j].Blocks[0]; len N+1
	ColOf   []int32 // block id → column (panel J)
	IdxOf   []int32 // block id → index within the column

	NMods []int32 // block id → number of BMOD operations targeting it
	// OwnOpFlops is the flop count of the block's completing operation:
	// BFAC for diagonal blocks, BDIV otherwise.
	OwnOpFlops []int64

	// ModBase/ModDest form the BMOD destination table: the pairing of
	// source block indices ia ≥ jb ≥ 1 in column k has index
	// PairIndex(k, ia, jb) = ModBase[k] + (ia−1)·ia/2 + (jb−1), and
	// ModDest at that index is its destination block id. Executors read
	// it through ModDestID, so their inner loops never search the
	// structure.
	ModBase []int
	ModDest []int32

	// Seeds lists, in column order, the diagonal blocks no BMOD updates:
	// the BFACs that are ready before anything has run.
	Seeds []int32

	pairsOnce sync.Once
	pairs     *PairTable
	relOnce   sync.Once
	relBase   []int // PairTable.RelBase (rowMapBase)
}

// N returns the number of panels (block rows = block columns).
func (bs *Structure) N() int { return len(bs.Cols) }

// Find returns a pointer to block (I,J) or nil if that block is zero.
func (bs *Structure) Find(i, j int) *Block {
	if k := bs.index(i, j); k >= 0 {
		return &bs.Cols[j].Blocks[k]
	}
	return nil
}

// index returns the position of block row i within column j, or -1 if
// block (i,j) is zero.
func (bs *Structure) index(i, j int) int {
	blks := bs.Cols[j].Blocks
	lo, hi := 0, len(blks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if blks[mid].I < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(blks) && blks[lo].I == i {
		return lo
	}
	return -1
}

// Build forms the block structure over the given partition, accumulates
// the work model and derives the operation DAG. It verifies that every
// BMOD destination block exists in the structure (the containment property
// of §2.1).
func Build(st *symbolic.Structure, part *Partition) (*Structure, error) {
	n := part.N()
	bs := &Structure{Part: part, Cols: make([]BlockCol, n)}

	// Panels of each supernode, in order.
	snPanels := make([][]int, len(st.Snodes))
	for p := 0; p < n; p++ {
		s := part.SnodeOf[p]
		snPanels[s] = append(snPanels[s], p)
	}
	// Group each supernode's below-diagonal rows by panel once; the
	// resulting sub-slices are shared by every block column of the
	// supernode.
	type group struct {
		panel int
		rows  []int
	}
	snGroups := make([][]group, len(st.Snodes))
	for s, rows := range st.Rows {
		var gs []group
		for lo := 0; lo < len(rows); {
			p := part.PanelOf[rows[lo]]
			hi := lo + 1
			for hi < len(rows) && part.PanelOf[rows[hi]] == p {
				hi++
			}
			gs = append(gs, group{panel: p, rows: rows[lo:hi]})
			lo = hi
		}
		snGroups[s] = gs
	}

	for j := 0; j < n; j++ {
		s := part.SnodeOf[j]
		col := &bs.Cols[j]
		col.J = j
		col.Snode = s
		// Diagonal block: the panel's own columns.
		diagRows := make([]int, part.Width(j))
		for t := range diagRows {
			diagRows[t] = part.Start[j] + t
		}
		col.Blocks = append(col.Blocks, Block{I: j, Rows: diagRows})
		// Dense blocks from the supernode's remaining panels.
		panels := snPanels[s]
		idx := sort.SearchInts(panels, j)
		for _, p := range panels[idx+1:] {
			rows := make([]int, part.Width(p))
			for t := range rows {
				rows[t] = part.Start[p] + t
			}
			col.Blocks = append(col.Blocks, Block{I: p, Rows: rows})
		}
		// Blocks from the supernode's below-diagonal row structure.
		for _, g := range snGroups[s] {
			col.Blocks = append(col.Blocks, Block{I: g.panel, Rows: g.rows})
		}
	}

	if err := bs.buildDAG(); err != nil {
		return nil, err
	}
	return bs, nil
}

// OpKind identifies a block operation.
type OpKind uint8

const (
	BFAC OpKind = iota // Cholesky factorization of a diagonal block
	BDIV               // triangular solve of an off-diagonal block
	BMOD               // L_IJ -= L_IK · L_JKᵀ
)

func (k OpKind) String() string {
	switch k {
	case BFAC:
		return "BFAC"
	case BDIV:
		return "BDIV"
	case BMOD:
		return "BMOD"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one block operation. For BFAC, I = J = K. For BDIV, J = K (the
// block solved is L_IK). For BMOD, the destination is (I,J) and the sources
// are L_IK and L_JK.
type Op struct {
	Kind    OpKind
	I, J, K int
	Flops   int64
}

// ForEachOp enumerates every block operation of the factorization in
// column-major (K) order, computing its flop count. The enumeration is
// deterministic: BFAC(K), then BDIVs by increasing I, then BMODs by (I,J),
// which is the pairing order of the BMOD destination table.
func (bs *Structure) ForEachOp(fn func(Op)) {
	for k := range bs.Cols {
		blks := bs.Cols[k].Blocks
		wk := int64(bs.Part.Width(k))
		fn(Op{Kind: BFAC, I: k, J: k, K: k, Flops: wk * (wk + 1) * (2*wk + 1) / 6})
		for ia := 1; ia < len(blks); ia++ {
			fn(Op{Kind: BDIV, I: blks[ia].I, J: k, K: k, Flops: int64(len(blks[ia].Rows)) * wk * wk})
		}
		for ia := 1; ia < len(blks); ia++ {
			for jb := 1; jb <= ia; jb++ {
				fn(Op{Kind: BMOD, I: blks[ia].I, J: blks[jb].I, K: k, Flops: bs.ModFlops(k, ia, jb)})
			}
		}
	}
}

// ModFlops returns the flop count of the BMOD with sources ia and jb
// (block indices within column k, either order).
func (bs *Structure) ModFlops(k, ia, jb int) int64 {
	blks := bs.Cols[k].Blocks
	wk := int64(bs.Part.Width(k))
	ri := int64(len(blks[ia].Rows))
	if ia == jb {
		// Destination is a diagonal block: only the lower triangle of
		// the symmetric update is computed.
		return ri * (ri + 1) * wk
	}
	return 2 * ri * int64(len(blks[jb].Rows)) * wk
}

// WorkI returns the aggregate work of every block row: workI[I] = Σ_J
// work[I,J] (§3.2).
func (bs *Structure) WorkI() []int64 {
	w := make([]int64, bs.N())
	for j := range bs.Cols {
		for bi := range bs.Cols[j].Blocks {
			b := &bs.Cols[j].Blocks[bi]
			w[b.I] += b.Work
		}
	}
	return w
}

// WorkJ returns the aggregate work of every block column.
func (bs *Structure) WorkJ() []int64 {
	w := make([]int64, bs.N())
	for j := range bs.Cols {
		for bi := range bs.Cols[j].Blocks {
			w[j] += bs.Cols[j].Blocks[bi].Work
		}
	}
	return w
}
