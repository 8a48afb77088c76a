package sched

import (
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/domains"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

func setup(t *testing.T, m *sparse.Matrix, method ord.Method, gridDim, b int) (*symbolic.Structure, *blocks.Structure) {
	t.Helper()
	p, err := ord.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, st, err := symbolic.AnalyzeOrdering(m, p, symbolic.DefaultAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blocks.Build(st, blocks.NewPartition(st, b))
	if err != nil {
		t.Fatal(err)
	}
	return st, bs
}

func TestProgramIdentities(t *testing.T) {
	_, bs := setup(t, gen.IrregularMesh(250, 5, 3, 13), ord.MinDegree, 0, 8)
	g := mapping.Grid{Pr: 3, Pc: 4}
	a := Assignment{Map: mapping.Cyclic(g, bs.N())}
	pr := Build(bs, a)

	// Block count and id round trips.
	want := 0
	for j := range bs.Cols {
		want += len(bs.Cols[j].Blocks)
	}
	if pr.NBlocks != want {
		t.Fatalf("NBlocks=%d, want %d", pr.NBlocks, want)
	}
	for j := range bs.Cols {
		for idx := range bs.Cols[j].Blocks {
			id := pr.BlockID(j, idx)
			if int(pr.ColOf[id]) != j || int(pr.IdxOf[id]) != idx {
				t.Fatalf("id round trip broken at (%d,%d)", j, idx)
			}
			b := &bs.Cols[j].Blocks[idx]
			if pr.FindID(b.I, j) != id {
				t.Fatalf("FindID(%d,%d) wrong", b.I, j)
			}
			if int(pr.Owner[id]) != a.Owner(b.I, j) {
				t.Fatalf("owner mismatch at (%d,%d)", b.I, j)
			}
		}
	}

	// NMods must sum to the number of BMOD ops; OwnOpFlops set everywhere.
	var modSum int64
	var bmods int64
	for id := 0; id < pr.NBlocks; id++ {
		modSum += int64(pr.NMods[id])
		if pr.OwnOpFlops[id] <= 0 {
			t.Fatalf("block %d has no completing op cost", id)
		}
	}
	bs.ForEachOp(func(op blocks.Op) {
		if op.Kind == blocks.BMOD {
			bmods++
		}
	})
	if modSum != bmods {
		t.Fatalf("NMods sum %d != BMOD count %d", modSum, bmods)
	}

	// OwnedCount sums to NBlocks.
	sum := 0
	for _, c := range pr.OwnedCount {
		sum += c
	}
	if sum != pr.NBlocks {
		t.Fatalf("owned counts sum %d", sum)
	}

	// Message totals consistent with consumer lists.
	var msgs, bytes int64
	for id := 0; id < pr.NBlocks; id++ {
		seen := map[int32]bool{}
		for _, c := range pr.Consumers[id] {
			if seen[c] {
				t.Fatalf("duplicate consumer %d of block %d", c, id)
			}
			seen[c] = true
			if c != pr.Owner[id] {
				msgs++
				bytes += pr.Bytes[id]
			}
		}
	}
	if msgs != pr.TotalMessages || bytes != pr.TotalBytes {
		t.Fatalf("message totals %d/%d, want %d/%d", pr.TotalMessages, pr.TotalBytes, msgs, bytes)
	}
}

func TestConsumersCoverAllModsAndDivs(t *testing.T) {
	_, bs := setup(t, gen.Grid2D(12), ord.NDGrid2D, 12, 4)
	g := mapping.Grid{Pr: 2, Pc: 3}
	a := Assignment{Map: mapping.Cyclic(g, bs.N())}
	pr := Build(bs, a)

	has := func(id int32, p int32) bool {
		for _, c := range pr.Consumers[id] {
			if c == p {
				return true
			}
		}
		return false
	}
	bs.ForEachOp(func(op blocks.Op) {
		switch op.Kind {
		case blocks.BDIV:
			// The owner of L(I,K) must receive the diagonal of K.
			diag := pr.BlockID(op.K, 0)
			owner := pr.Owner[pr.FindID(op.I, op.K)]
			if !has(diag, owner) {
				t.Fatalf("diag %d not sent to BDIV owner %d", op.K, owner)
			}
		case blocks.BMOD:
			destOwner := pr.Owner[pr.FindID(op.I, op.J)]
			for _, src := range [][2]int{{op.I, op.K}, {op.J, op.K}} {
				if !has(pr.FindID(src[0], src[1]), destOwner) {
					t.Fatalf("source (%d,%d) not sent to dest owner %d", src[0], src[1], destOwner)
				}
			}
		}
	})
}

func TestAssignmentDomainOverride(t *testing.T) {
	st, bs := setup(t, gen.Grid2D(16), ord.NDGrid2D, 16, 4)
	g := mapping.Grid{Pr: 3, Pc: 3}
	m := mapping.Cyclic(g, bs.N())
	dom := domains.Select(st, bs, g.P(), 2)
	a := Assignment{Map: m, Dom: dom}
	for j := 0; j < bs.N(); j++ {
		for bi := range bs.Cols[j].Blocks {
			b := &bs.Cols[j].Blocks[bi]
			got := a.Owner(b.I, j)
			if dom.PanelOwner[j] >= 0 {
				if got != dom.PanelOwner[j] {
					t.Fatalf("domain panel %d not owned by domain proc", j)
				}
			} else if got != m.Owner(b.I, j) {
				t.Fatalf("root panel %d not 2-D mapped", j)
			}
		}
	}
}

func TestDomainsReduceCommunication(t *testing.T) {
	st, bs := setup(t, gen.Grid2D(20), ord.NDGrid2D, 20, 4)
	g := mapping.Grid{Pr: 4, Pc: 4}
	m := mapping.Cyclic(g, bs.N())
	plain := Build(bs, Assignment{Map: m})
	dom := Build(bs, Assignment{Map: m, Dom: domains.Select(st, bs, g.P(), 2)})
	if dom.TotalBytes >= plain.TotalBytes {
		t.Fatalf("domains did not reduce traffic: %d vs %d", dom.TotalBytes, plain.TotalBytes)
	}
}

func TestModFlops(t *testing.T) {
	_, bs := setup(t, gen.Grid2D(10), ord.NDGrid2D, 10, 5)
	pr := Build(bs, Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
	// Spot-check against the enumerated ops.
	bs.ForEachOp(func(op blocks.Op) {
		if op.Kind != blocks.BMOD {
			return
		}
		col := &bs.Cols[op.K]
		var ia, jb int
		for idx := 1; idx < len(col.Blocks); idx++ {
			if col.Blocks[idx].I == op.I {
				ia = idx
			}
			if col.Blocks[idx].I == op.J {
				jb = idx
			}
		}
		if got := pr.ModFlops(op.K, ia, jb); got != op.Flops {
			t.Fatalf("ModFlops(%d,%d,%d)=%d, want %d", op.K, ia, jb, got, op.Flops)
		}
	})
}

func TestAssignmentOverride(t *testing.T) {
	_, bs := setup(t, gen.Grid2D(10), ord.NDGrid2D, 10, 4)
	g := mapping.Grid{Pr: 2, Pc: 2}
	base := mapping.Cyclic(g, bs.N())
	arb := mapping.NewArbitraryGreedy(g.P(), bs)
	a := Assignment{Map: base, Override: arb}
	if a.P() != g.P() {
		t.Fatalf("P=%d", a.P())
	}
	for j := range bs.Cols {
		for bi := range bs.Cols[j].Blocks {
			b := &bs.Cols[j].Blocks[bi]
			if a.Owner(b.I, j) != arb.Owner(b.I, j) {
				t.Fatalf("override ignored at (%d,%d)", b.I, j)
			}
		}
	}
	// Build + simulate-able: total owned blocks conserved.
	pr := Build(bs, a)
	sum := 0
	for _, c := range pr.OwnedCount {
		sum += c
	}
	if sum != pr.NBlocks {
		t.Fatal("owned count broken under override")
	}
}

func TestModDestTableMatchesFindID(t *testing.T) {
	_, mesh := setup(t, gen.IrregularMesh(250, 5, 3, 29), ord.MinDegree, 0, 8)
	_, grid := setup(t, gen.Grid2D(14), ord.NDGrid2D, 14, 6)
	for name, bs := range map[string]*blocks.Structure{
		"mesh":           mesh,
		"grid":           grid,
		"cube/irregular": irregularBlocks(t, gen.Cube3D(6), ord.NDCube3D, 6, 8),
	} {
		pr := Build(bs, Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 3}, bs.N())})

		// Every (k, ia, jb) pairing, in both argument orders, must resolve
		// to the same id the binary search finds from coordinates.
		pairs := 0
		for k := range bs.Cols {
			col := &bs.Cols[k]
			for ia := 1; ia < len(col.Blocks); ia++ {
				for jb := 1; jb <= ia; jb++ {
					destI := col.Blocks[ia].I
					destJ := col.Blocks[jb].I
					want := pr.FindID(destI, destJ)
					if want < 0 {
						t.Fatalf("%s pairing (%d,%d,%d): destination (%d,%d) not in structure",
							name, k, ia, jb, destI, destJ)
					}
					if got := pr.ModDestID(k, ia, jb); got != want {
						t.Fatalf("%s: ModDestID(%d,%d,%d)=%d, FindID(%d,%d)=%d",
							name, k, ia, jb, got, destI, destJ, want)
					}
					if got := pr.ModDestID(k, jb, ia); got != want {
						t.Fatalf("%s: ModDestID(%d,%d,%d) (swapped)=%d, want %d", name, k, jb, ia, got, want)
					}
					pairs++
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("%s: no pairings exercised", name)
		}
		// Table sized exactly: sum over columns of m(m+1)/2 entries.
		want := 0
		for k := range bs.Cols {
			m := len(bs.Cols[k].Blocks) - 1
			want += m * (m + 1) / 2
		}
		if len(pr.ModDest) != want {
			t.Fatalf("%s: ModDest has %d entries, want %d", name, len(pr.ModDest), want)
		}
	}
}

// Every pairing's precomputed row map must equal the merge BMOD would
// otherwise do, under uniform and irregular blocking of each generator
// the suite uses, with a one-entry map standing for the consecutive run
// from its entry. The reference here looks each source row up in a map of
// the destination's rows rather than merging.
func TestPairRowMapsMatchMerge(t *testing.T) {
	cases := []struct {
		name    string
		m       *sparse.Matrix
		method  ord.Method
		gridDim int
	}{
		{"cube", gen.Cube3D(7), ord.NDCube3D, 7},
		{"grid", gen.Grid2D(18), ord.NDGrid2D, 18},
		{"mesh", gen.IrregularMesh(400, 6, 3, 5), ord.MinDegree, 0},
	}
	for _, tc := range cases {
		for _, irregular := range []bool{false, true} {
			_, bs := setup(t, tc.m, tc.method, tc.gridDim, 8)
			if irregular {
				bs = irregularBlocks(t, tc.m, tc.method, tc.gridDim, 8)
			}
			pr := Build(bs, Assignment{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 2}, bs.N())})
			pt := pr.Pairs()
			if len(pt.RelBase) != len(pt.Col)+1 {
				t.Fatalf("%s irregular=%v: %d map offsets for %d pairings", tc.name, irregular, len(pt.RelBase), len(pt.Col))
			}
			for p := range pt.Col {
				src := bs.Cols[pt.Col[p]].Blocks[pt.A[p]].Rows
				d := pt.Dest[p]
				pos := map[int]int32{}
				for i, g := range bs.Cols[pr.ColOf[d]].Blocks[pr.IdxOf[d]].Rows {
					pos[g] = int32(i)
				}
				got := append([]int32(nil), pt.RowMap(int32(p))...)
				if len(got) == 1 {
					for s := 1; s < len(src); s++ {
						got = append(got, got[0]+int32(s))
					}
				}
				if len(got) != len(src) {
					t.Fatalf("%s irregular=%v pairing %d: map length %d, source rows %d", tc.name, irregular, p, len(got), len(src))
				}
				for s, g := range src {
					want, ok := pos[g]
					if !ok || got[s] != want {
						t.Fatalf("%s irregular=%v pairing %d row %d: map %d, want %d (present %v)", tc.name, irregular, p, s, got[s], want, ok)
					}
				}
			}
		}
	}
}

// irregularBlocks is setup's ordering and analysis under the irregular
// strategy: relative-fill amalgamation, then supernode-aligned panels of
// at most b columns.
func irregularBlocks(t *testing.T, m *sparse.Matrix, method ord.Method, gridDim, b int) *blocks.Structure {
	t.Helper()
	p, err := ord.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, st, err := symbolic.AnalyzeOrdering(m, p, symbolic.RelativeAmalgamation(0))
	if err != nil {
		t.Fatal(err)
	}
	part, err := blocks.NewPartitionIrregular(st, blocks.IrregularConfig{MaxPanel: b})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blocks.Build(st, part)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}
