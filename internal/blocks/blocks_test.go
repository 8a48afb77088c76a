package blocks

import (
	"sort"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// analyzed prepares a symbolic structure for a matrix (permute, postorder,
// analyze).
func analyzed(t *testing.T, m *sparse.Matrix, method order.Method, gridDim int, amalg symbolic.AmalgamationConfig) (*symbolic.Structure, *sparse.Matrix) {
	t.Helper()
	p, err := order.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, _, st, err := symbolic.AnalyzeOrdering(m, p, amalg)
	if err != nil {
		t.Fatal(err)
	}
	return st, m2
}

func buildFor(t *testing.T, m *sparse.Matrix, method order.Method, gridDim, b int) *Structure {
	t.Helper()
	st, _ := analyzed(t, m, method, gridDim, symbolic.DefaultAmalgamation())
	part := NewPartition(st, b)
	bs, err := Build(st, part)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func TestPartitionInvariants(t *testing.T) {
	st, _ := analyzed(t, gen.IrregularMesh(200, 5, 3, 9), order.MinDegree, 0, symbolic.DefaultAmalgamation())
	for _, b := range []int{1, 3, 8, 48} {
		part := NewPartition(st, b)
		if part.Start[0] != 0 || part.Start[part.N()] != st.N {
			t.Fatalf("B=%d: partition does not cover matrix", b)
		}
		for p := 0; p < part.N(); p++ {
			w := part.Width(p)
			if w < 1 || w > b {
				t.Fatalf("B=%d: panel %d width %d", b, p, w)
			}
			s := part.SnodeOf[p]
			sn := st.Snodes[s]
			if part.Start[p] < sn.First || part.Start[p+1]-1 > sn.Last() {
				t.Fatalf("B=%d: panel %d crosses supernode boundary", b, p)
			}
			for j := part.Start[p]; j < part.Start[p+1]; j++ {
				if part.PanelOf[j] != p {
					t.Fatalf("B=%d: PanelOf[%d]=%d, want %d", b, j, part.PanelOf[j], p)
				}
			}
		}
	}
}

func TestPartitionBalanced(t *testing.T) {
	// A 10-column supernode with B=4 must split 4/3/3, not 4/4/2.
	st := &symbolic.Structure{
		N:      10,
		Snodes: []symbolic.Supernode{{First: 0, Width: 10}},
		Rows:   [][]int{nil},
	}
	st.SnodeOf = make([]int, 10)
	part := NewPartition(st, 4)
	if part.N() != 3 {
		t.Fatalf("panels=%d, want 3", part.N())
	}
	widths := []int{part.Width(0), part.Width(1), part.Width(2)}
	want := []int{4, 3, 3}
	for i := range want {
		if widths[i] != want[i] {
			t.Fatalf("widths=%v, want %v", widths, want)
		}
	}
}

func TestBlockColumnsWellFormed(t *testing.T) {
	bs := buildFor(t, gen.Grid2D(12), order.NDGrid2D, 12, 6)
	part := bs.Part
	for j := range bs.Cols {
		col := &bs.Cols[j]
		if col.J != j || col.Blocks[0].I != j {
			t.Fatalf("column %d: diagonal block missing or misplaced", j)
		}
		if len(col.Blocks[0].Rows) != part.Width(j) {
			t.Fatalf("column %d: diagonal rows %d != width %d", j, len(col.Blocks[0].Rows), part.Width(j))
		}
		for bi := 1; bi < len(col.Blocks); bi++ {
			b := &col.Blocks[bi]
			if b.I <= col.Blocks[bi-1].I {
				t.Fatalf("column %d: blocks not strictly increasing", j)
			}
			if len(b.Rows) == 0 {
				t.Fatalf("column %d: empty block %d", j, bi)
			}
			for r := 0; r < len(b.Rows); r++ {
				if part.PanelOf[b.Rows[r]] != b.I {
					t.Fatalf("column %d block %d: row %d not in panel %d", j, bi, b.Rows[r], b.I)
				}
				if r > 0 && b.Rows[r] <= b.Rows[r-1] {
					t.Fatalf("column %d block %d: rows not sorted", j, bi)
				}
			}
		}
	}
}

func TestFind(t *testing.T) {
	bs := buildFor(t, gen.Grid2D(10), order.NDGrid2D, 10, 5)
	for j := range bs.Cols {
		for bi := range bs.Cols[j].Blocks {
			b := &bs.Cols[j].Blocks[bi]
			if got := bs.Find(b.I, j); got != b {
				t.Fatalf("Find(%d,%d) wrong", b.I, j)
			}
		}
	}
	if bs.Find(bs.N()-1, bs.N()-1) == nil {
		t.Fatal("last diagonal missing")
	}
	// A block row below everything cannot exist.
	if bs.Find(bs.N()+5, 0) != nil {
		t.Fatal("found nonexistent block")
	}
}

func TestWorkModelTotals(t *testing.T) {
	bs := buildFor(t, gen.IrregularMesh(300, 5, 3, 17), order.MinDegree, 0, 8)
	// Totals are consistent with per-block tallies.
	var work, flops int64
	var ops int64
	for j := range bs.Cols {
		for bi := range bs.Cols[j].Blocks {
			b := &bs.Cols[j].Blocks[bi]
			work += b.Work
			flops += b.Flops
			ops += int64(b.NOps)
		}
	}
	if work != bs.TotalWork || flops != bs.TotalFlops || ops != bs.TotalOps {
		t.Fatalf("totals inconsistent: %d/%d %d/%d %d/%d",
			work, bs.TotalWork, flops, bs.TotalFlops, ops, bs.TotalOps)
	}
	if work != flops+FixedOpCost*ops {
		t.Fatalf("work model identity violated: %d != %d + 1000·%d", work, flops, ops)
	}
	// Aggregates match.
	wi, wj := bs.WorkI(), bs.WorkJ()
	var si, sj int64
	for i := range wi {
		si += wi[i]
		sj += wj[i]
	}
	if si != bs.TotalWork || sj != bs.TotalWork {
		t.Fatalf("aggregate sums %d/%d != total %d", si, sj, bs.TotalWork)
	}
}

func TestOpEnumeration(t *testing.T) {
	bs := buildFor(t, gen.Grid2D(9), order.NDGrid2D, 9, 4)
	var nfac, ndiv, nmod int64
	seen := map[[4]int]bool{}
	bs.ForEachOp(func(op Op) {
		key := [4]int{int(op.Kind), op.I, op.J, op.K}
		if seen[key] {
			t.Fatalf("duplicate op %+v", op)
		}
		seen[key] = true
		if op.Flops <= 0 {
			t.Fatalf("non-positive flops in %+v", op)
		}
		switch op.Kind {
		case BFAC:
			nfac++
			if op.I != op.K || op.J != op.K {
				t.Fatalf("malformed BFAC %+v", op)
			}
		case BDIV:
			ndiv++
			if op.J != op.K || op.I <= op.K {
				t.Fatalf("malformed BDIV %+v", op)
			}
			if bs.Find(op.I, op.K) == nil {
				t.Fatalf("BDIV of nonexistent block %+v", op)
			}
		case BMOD:
			nmod++
			if op.I < op.J || op.J <= op.K {
				t.Fatalf("malformed BMOD %+v", op)
			}
			if bs.Find(op.I, op.J) == nil {
				t.Fatalf("BMOD dest missing %+v", op)
			}
		}
	})
	if nfac != int64(bs.N()) {
		t.Fatalf("BFAC count %d != %d panels", nfac, bs.N())
	}
	// BDIVs = total off-diagonal blocks; BMODs = Σ b(b+1)/2.
	var wantDiv, wantMod int64
	for j := range bs.Cols {
		b := int64(len(bs.Cols[j].Blocks) - 1)
		wantDiv += b
		wantMod += b * (b + 1) / 2
	}
	if ndiv != wantDiv || nmod != wantMod {
		t.Fatalf("op counts div=%d/%d mod=%d/%d", ndiv, wantDiv, nmod, wantMod)
	}
	if nfac+ndiv+nmod != bs.TotalOps {
		t.Fatalf("TotalOps=%d != %d", bs.TotalOps, nfac+ndiv+nmod)
	}
}

func TestDenseFlopsMatchFormula(t *testing.T) {
	// For a dense matrix in one supernode, the blocked op flops must sum
	// to the exact blocked dense Cholesky count regardless of B.
	n := 60
	for _, b := range []int{60, 20, 7} {
		na := symbolic.NoAmalgamation()
		st, _ := analyzed(t, gen.Dense(n), order.Natural, 0, na)
		part := NewPartition(st, b)
		bs, err := Build(st, part)
		if err != nil {
			t.Fatal(err)
		}
		// Blocked flops ≥ unblocked Σc² is not exact; just check that the
		// count is within a few percent of n³/3 for modest B.
		exact := int64(0)
		for c := 1; c <= n; c++ {
			exact += int64(c) * int64(c)
		}
		ratio := float64(bs.TotalFlops) / float64(exact)
		if ratio < 0.9 || ratio > 1.35 {
			t.Fatalf("B=%d: blocked flops %d vs exact %d (ratio %.2f)", b, bs.TotalFlops, exact, ratio)
		}
	}
}

func TestBMODDestinationRowsContainSourceRows(t *testing.T) {
	// The containment property the numeric scatter relies on.
	bs := buildFor(t, gen.IrregularMesh(250, 6, 3, 23), order.MinDegree, 0, 8)
	bs.ForEachOp(func(op Op) {
		if op.Kind != BMOD {
			return
		}
		src := bs.Find(op.I, op.K)
		dest := bs.Find(op.I, op.J)
		if src == nil || dest == nil {
			t.Fatalf("missing blocks for %+v", op)
		}
		for _, r := range src.Rows {
			k := sort.SearchInts(dest.Rows, r)
			if k >= len(dest.Rows) || dest.Rows[k] != r {
				t.Fatalf("row %d of L(%d,%d) missing from dest (%d,%d)", r, op.I, op.K, op.I, op.J)
			}
		}
		// Column-side rows must fall inside the destination panel.
		srcB := bs.Find(op.J, op.K)
		for _, r := range srcB.Rows {
			if bs.Part.PanelOf[r] != op.J {
				t.Fatalf("col-source row %d outside dest panel %d", r, op.J)
			}
		}
	})
}

func TestOpKindString(t *testing.T) {
	if BFAC.String() != "BFAC" || BDIV.String() != "BDIV" || BMOD.String() != "BMOD" {
		t.Fatal("OpKind strings wrong")
	}
}
