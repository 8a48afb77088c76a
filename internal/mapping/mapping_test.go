package mapping

import (
	"testing"
	"testing/quick"

	"blockfanout/internal/blocks"
	"blockfanout/internal/gen"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

func structureFor(t *testing.T, m *sparse.Matrix, method ord.Method, gridDim, b int) (*blocks.Structure, *symbolic.Structure, []int) {
	t.Helper()
	p, err := ord.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, st, err := symbolic.AnalyzeOrdering(m, p, symbolic.DefaultAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	part := blocks.NewPartition(st, b)
	bs, err := blocks.Build(st, part)
	if err != nil {
		t.Fatal(err)
	}
	depth := make([]int, part.N())
	for pn := range depth {
		depth[pn] = st.Depth[part.SnodeOf[pn]]
	}
	return bs, st, depth
}

func TestGridBasics(t *testing.T) {
	g := Grid{Pr: 3, Pc: 4}
	if g.P() != 12 {
		t.Fatal("P")
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			rr, cc := g.RowCol(g.ProcID(r, c))
			if rr != r || cc != c {
				t.Fatalf("RowCol round trip (%d,%d)", r, c)
			}
		}
	}
}

func TestSquareGrid(t *testing.T) {
	g, err := SquareGrid(64)
	if err != nil || g.Pr != 8 || g.Pc != 8 {
		t.Fatalf("%v %v", g, err)
	}
	if _, err := SquareGrid(60); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestBestGrid(t *testing.T) {
	cases := map[int]Grid{
		63: {Pr: 9, Pc: 7},
		99: {Pr: 11, Pc: 9},
		64: {Pr: 8, Pc: 8},
		13: {Pr: 13, Pc: 1},
		12: {Pr: 4, Pc: 3},
	}
	for p, want := range cases {
		if got := BestGrid(p); got != want {
			t.Fatalf("BestGrid(%d)=%v, want %v", p, got, want)
		}
	}
	if !BestGrid(63).RelativelyPrime() || BestGrid(64).RelativelyPrime() {
		t.Fatal("RelativelyPrime wrong")
	}
}

func TestCyclicMapping(t *testing.T) {
	g := Grid{Pr: 3, Pc: 3}
	m := Cyclic(g, 10)
	for i := 0; i < 10; i++ {
		if m.MapI[i] != i%3 || m.MapJ[i] != i%3 {
			t.Fatalf("cyclic wrong at %d", i)
		}
	}
	if m.Owner(4, 7) != g.ProcID(1, 1) {
		t.Fatal("Owner wrong")
	}
}

func TestHeuristicParse(t *testing.T) {
	for _, h := range AllHeuristics() {
		got, err := ParseHeuristic(h.String())
		if err != nil || got != h {
			t.Fatalf("%v round trip failed", h)
		}
	}
	if _, err := ParseHeuristic("XX"); err == nil {
		t.Fatal("bad name accepted")
	}
}

func TestGreedyIsBalanced(t *testing.T) {
	// Greedy over decreasing weights gives max bin ≤ opt·(4/3-ish); for
	// identical weights it is perfectly balanced.
	w := make([]int64, 12)
	for i := range w {
		w[i] = 5
	}
	ord := make([]int, 12)
	for i := range ord {
		ord[i] = i
	}
	bins := Greedy(ord, w, 4)
	load := make([]int64, 4)
	for i, b := range bins {
		load[b] += w[i]
	}
	for _, l := range load {
		if l != 15 {
			t.Fatalf("loads %v", load)
		}
	}
}

func TestOrdersAreCorrectSequences(t *testing.T) {
	weight := []int64{5, 1, 9, 7, 3}
	depth := []int{2, 2, 0, 1, 1}
	check := func(h Heuristic, want []int) {
		got := order(h, weight, depth)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v order %v, want %v", h, got, want)
			}
		}
	}
	check(IN, []int{0, 1, 2, 3, 4})
	check(DN, []int{4, 3, 2, 1, 0})
	check(DW, []int{2, 3, 0, 4, 1})
	// ID: depth 0 first (panel 2), depth 1 by decreasing number (4, 3),
	// then depth 2 (1, 0).
	check(ID, []int{2, 4, 3, 1, 0})
}

func TestNewMappingStaysOnGrid(t *testing.T) {
	bs, _, depth := structureFor(t, gen.IrregularMesh(300, 5, 3, 12), ord.MinDegree, 0, 8)
	g := Grid{Pr: 4, Pc: 5}
	for _, rh := range AllHeuristics() {
		for _, ch := range AllHeuristics() {
			m := New(g, rh, ch, bs, depth)
			if len(m.MapI) != bs.N() || len(m.MapJ) != bs.N() {
				t.Fatal("map lengths")
			}
			for i := 0; i < bs.N(); i++ {
				if m.MapI[i] < 0 || m.MapI[i] >= g.Pr || m.MapJ[i] < 0 || m.MapJ[i] >= g.Pc {
					t.Fatalf("%v/%v: off-grid entry", rh, ch)
				}
			}
		}
	}
}

func TestIDNeedsDepths(t *testing.T) {
	bs, _, _ := structureFor(t, gen.Grid2D(8), ord.NDGrid2D, 8, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when ID lacks depths")
		}
	}()
	New(Grid{Pr: 2, Pc: 2}, ID, CY, bs, nil)
}

func TestHeuristicsImproveRowBalance(t *testing.T) {
	// Direct check of the number-partitioning objective: greedy DW must
	// beat cyclic's max row-bin load.
	bs, _, depth := structureFor(t, gen.IrregularMesh(400, 6, 3, 31), ord.MinDegree, 0, 8)
	g := Grid{Pr: 8, Pc: 8}
	workI := bs.WorkI()
	maxLoad := func(mapI []int) int64 {
		load := make([]int64, g.Pr)
		for i, r := range mapI {
			load[r] += workI[i]
		}
		var mx int64
		for _, l := range load {
			if l > mx {
				mx = l
			}
		}
		return mx
	}
	cyc := Cyclic(g, bs.N())
	for _, h := range []Heuristic{DW, DN, ID} {
		m := New(g, h, CY, bs, depth)
		if maxLoad(m.MapI) > maxLoad(cyc.MapI) {
			t.Fatalf("%v worse than cyclic: %d vs %d", h, maxLoad(m.MapI), maxLoad(cyc.MapI))
		}
	}
}

func TestPerProcessorMappingValid(t *testing.T) {
	bs, _, depth := structureFor(t, gen.IrregularMesh(300, 5, 3, 44), ord.MinDegree, 0, 8)
	g := Grid{Pr: 4, Pc: 4}
	m := NewPerProcessor(g, DW, CY, bs, depth)
	for i := 0; i < bs.N(); i++ {
		if m.MapI[i] < 0 || m.MapI[i] >= g.Pr {
			t.Fatal("off-grid row")
		}
		if m.MapJ[i] != i%g.Pc {
			t.Fatal("column mapping should be cyclic")
		}
	}
	// The refinement optimizes max processor load directly; it must not
	// be worse than the aggregate heuristic on that objective.
	procLoad := func(mp *Mapping) int64 {
		load := make([]int64, g.P())
		for j := range bs.Cols {
			for bi := range bs.Cols[j].Blocks {
				b := &bs.Cols[j].Blocks[bi]
				load[mp.Owner(b.I, j)] += b.Work
			}
		}
		var mx int64
		for _, l := range load {
			if l > mx {
				mx = l
			}
		}
		return mx
	}
	agg := New(g, DW, CY, bs, depth)
	if procLoad(m) > procLoad(agg) {
		t.Fatalf("refined mapping worse: %d vs %d", procLoad(m), procLoad(agg))
	}
}

func TestSubcubeColumnsValidAndDisjoint(t *testing.T) {
	bs, st, depth := structureFor(t, gen.Grid2D(16), ord.NDGrid2D, 16, 4)
	pc := 4
	mapJ := SubcubeColumns(st, bs, pc)
	if len(mapJ) != bs.N() {
		t.Fatal("length")
	}
	for _, c := range mapJ {
		if c < 0 || c >= pc {
			t.Fatalf("column %d off grid", c)
		}
	}
	m := Compose(Grid{Pr: 4, Pc: pc}, ID, mapJ, bs, depth)
	if len(m.MapI) != bs.N() {
		t.Fatal("compose")
	}
	// Sibling subtrees deep in the forest must use disjoint column sets:
	// verify at least two distinct processor columns are used.
	seen := map[int]bool{}
	for _, c := range mapJ {
		seen[c] = true
	}
	if len(seen) != pc {
		t.Fatalf("subcube used %d of %d columns", len(seen), pc)
	}
}

// Property: Greedy assignment never leaves a bin empty while another bin
// has two or more items (when there are at least as many items as bins).
func TestQuickGreedyNoEmptyBins(t *testing.T) {
	f := func(seed uint8) bool {
		n := 8 + int(seed%20)
		bins := 2 + int(seed%5)
		w := make([]int64, n)
		ord := make([]int, n)
		for i := range w {
			w[i] = int64(1 + (i*int(seed+3))%17)
			ord[i] = i
		}
		assign := Greedy(ord, w, bins)
		count := make([]int, bins)
		for _, b := range assign {
			if b < 0 || b >= bins {
				return false
			}
			count[b]++
		}
		for _, c := range count {
			if c == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
