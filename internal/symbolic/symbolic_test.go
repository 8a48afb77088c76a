package symbolic

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"blockfanout/internal/etree"
	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// prep permutes m by an ordering and postorders it, the precondition of
// Analyze.
func prep(t *testing.T, m *sparse.Matrix, method order.Method, gridDim int) *sparse.Matrix {
	t.Helper()
	p, err := order.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, _, _, err := AnalyzeOrdering(m, p, NoAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	return m2
}

// exactStruct computes the exact below-diagonal structure of every factor
// column by dense boolean elimination (test reference).
func exactStruct(m *sparse.Matrix) [][]int {
	n := m.N
	p := make([][]bool, n)
	for i := range p {
		p[i] = make([]bool, n)
	}
	for j := 0; j < n; j++ {
		for q := m.ColPtr[j]; q < m.ColPtr[j+1]; q++ {
			p[m.RowInd[q]][j] = true
		}
	}
	out := make([][]int, n)
	for j := 0; j < n; j++ {
		var s []int
		for i := j + 1; i < n; i++ {
			if p[i][j] {
				s = append(s, i)
			}
		}
		out[j] = s
		for a := 0; a < len(s); a++ {
			for b := a + 1; b < len(s); b++ {
				p[s[b]][s[a]] = true
			}
		}
	}
	return out
}

func testMatrices(t *testing.T) map[string]*sparse.Matrix {
	t.Helper()
	return map[string]*sparse.Matrix{
		"grid":  prep(t, gen.Grid2D(8), order.NDGrid2D, 8),
		"mesh":  prep(t, gen.IrregularMesh(120, 5, 3, 4), order.MinDegree, 0),
		"dense": prep(t, gen.Dense(20), order.Natural, 0),
		"lp":    prep(t, gen.NormalEq(90, 3, 2, 10, 6), order.MinDegree, 0),
	}
}

func TestSupernodesPartitionColumns(t *testing.T) {
	for name, m := range testMatrices(t) {
		for _, cfg := range []AmalgamationConfig{NoAmalgamation(), DefaultAmalgamation()} {
			st, err := Analyze(m, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			col := 0
			for s, sn := range st.Snodes {
				if sn.First != col {
					t.Fatalf("%s: supernode %d starts at %d, want %d", name, s, sn.First, col)
				}
				if sn.Width < 1 {
					t.Fatalf("%s: empty supernode %d", name, s)
				}
				for j := sn.First; j <= sn.Last(); j++ {
					if st.SnodeOf[j] != s {
						t.Fatalf("%s: SnodeOf[%d]=%d, want %d", name, j, st.SnodeOf[j], s)
					}
				}
				col += sn.Width
			}
			if col != m.N {
				t.Fatalf("%s: supernodes cover %d of %d columns", name, col, m.N)
			}
		}
	}
}

func TestStructureIsSupersetOfExactFill(t *testing.T) {
	for name, m := range testMatrices(t) {
		exact := exactStruct(m)
		for _, cfg := range []AmalgamationConfig{NoAmalgamation(), DefaultAmalgamation()} {
			st, err := Analyze(m, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for j := 0; j < m.N; j++ {
				s := st.SnodeOf[j]
				sn := st.Snodes[s]
				inSn := func(r int) bool { return r >= sn.First && r <= sn.Last() }
				for _, r := range exact[j] {
					if inSn(r) {
						continue // inside the dense diagonal trapezoid
					}
					k := sort.SearchInts(st.Rows[s], r)
					if k >= len(st.Rows[s]) || st.Rows[s][k] != r {
						t.Fatalf("%s: exact fill L(%d,%d) missing from supernodal structure", name, r, j)
					}
				}
			}
		}
	}
}

func TestNoAmalgamationIsExactForFirstColumn(t *testing.T) {
	// With exact (fundamental) supernodes, the supernode's row set equals
	// the exact structure of its first column minus its own columns.
	for name, m := range testMatrices(t) {
		exact := exactStruct(m)
		st, err := Analyze(m, NoAmalgamation())
		if err != nil {
			t.Fatal(err)
		}
		for s, sn := range st.Snodes {
			var want []int
			for _, r := range exact[sn.First] {
				if r > sn.Last() {
					want = append(want, r)
				}
			}
			if len(want) != len(st.Rows[s]) {
				t.Fatalf("%s: supernode %d rows %v, want %v", name, s, st.Rows[s], want)
			}
			for i := range want {
				if want[i] != st.Rows[s][i] {
					t.Fatalf("%s: supernode %d rows differ at %d", name, s, i)
				}
			}
		}
	}
}

func TestNNZMatchesExactWithoutAmalgamation(t *testing.T) {
	for name, m := range testMatrices(t) {
		st, err := Analyze(m, NoAmalgamation())
		if err != nil {
			t.Fatal(err)
		}
		exactNZ := etree.FactorStats(st.ColCounts).NZinL
		if st.NNZ() != exactNZ {
			t.Fatalf("%s: structure nnz %d != exact %d", name, st.NNZ(), exactNZ)
		}
		exactFlops := etree.FactorStats(st.ColCounts).Flops
		if st.Flops() != exactFlops {
			t.Fatalf("%s: structure flops %d != exact %d", name, st.Flops(), exactFlops)
		}
	}
}

func TestAmalgamationMergesAndBoundsWaste(t *testing.T) {
	m := testMatrices(t)["mesh"]
	exact, err := Analyze(m, NoAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := Analyze(m, DefaultAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	if len(relaxed.Snodes) >= len(exact.Snodes) {
		t.Fatalf("amalgamation did not merge: %d vs %d supernodes",
			len(relaxed.Snodes), len(exact.Snodes))
	}
	if relaxed.NNZ() < exact.NNZ() {
		t.Fatal("relaxed structure lost nonzeros")
	}
	if float64(relaxed.NNZ()) > 1.5*float64(exact.NNZ()) {
		t.Fatalf("amalgamation wasted too much: %d vs %d", relaxed.NNZ(), exact.NNZ())
	}
}

func TestSupernodeForest(t *testing.T) {
	for name, m := range testMatrices(t) {
		st, err := Analyze(m, DefaultAmalgamation())
		if err != nil {
			t.Fatal(err)
		}
		for s := range st.Snodes {
			p := st.Parent[s]
			if len(st.Rows[s]) == 0 {
				if p != -1 {
					t.Fatalf("%s: rootless supernode %d has parent %d", name, s, p)
				}
				continue
			}
			if p <= s {
				t.Fatalf("%s: parent %d of supernode %d not later", name, p, s)
			}
			if st.SnodeOf[st.Rows[s][0]] != p {
				t.Fatalf("%s: parent mismatch for supernode %d", name, s)
			}
			if st.Depth[s] != st.Depth[p]+1 {
				t.Fatalf("%s: depth[%d]=%d, parent depth %d", name, s, st.Depth[s], st.Depth[p])
			}
		}
	}
}

// TestChainContainment verifies the containment property the block
// structure relies on (DESIGN.md): for supernode s and any row r ∈ Rows[s],
// the supernode q containing r also contains (in Rows[q] or its own column
// range) every row of Rows[s] beyond q's columns.
func TestChainContainment(t *testing.T) {
	for name, m := range testMatrices(t) {
		for _, cfg := range []AmalgamationConfig{NoAmalgamation(), DefaultAmalgamation()} {
			st, err := Analyze(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for s := range st.Snodes {
				for _, r := range st.Rows[s] {
					q := st.SnodeOf[r]
					qn := st.Snodes[q]
					for _, r2 := range st.Rows[s] {
						if r2 <= qn.Last() {
							continue
						}
						k := sort.SearchInts(st.Rows[q], r2)
						if k >= len(st.Rows[q]) || st.Rows[q][k] != r2 {
							t.Fatalf("%s: containment violated: row %d of snode %d missing from snode %d",
								name, r2, s, q)
						}
					}
				}
			}
		}
	}
}

func TestAnalyzeEmptyAndSingleton(t *testing.T) {
	m, err := sparse.FromTriplets(1, []sparse.Triplet{{Row: 0, Col: 0, Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Analyze(m, DefaultAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Snodes) != 1 || st.Snodes[0].Width != 1 {
		t.Fatalf("singleton: %+v", st.Snodes)
	}
	if st.NNZ() != 0 {
		t.Fatalf("singleton nnz %d", st.NNZ())
	}
}

func TestDenseIsOneSupernode(t *testing.T) {
	m := prep(t, gen.Dense(16), order.Natural, 0)
	st, err := Analyze(m, NoAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Snodes) != 1 {
		t.Fatalf("dense matrix split into %d supernodes", len(st.Snodes))
	}
	if st.Snodes[0].Width != 16 || len(st.Rows[0]) != 0 {
		t.Fatalf("dense supernode malformed: %+v rows=%d", st.Snodes[0], len(st.Rows[0]))
	}
}

// Property: for random meshes and random amalgamation settings, the
// supernodal structure always covers the exact fill and partitions the
// columns.
func TestQuickStructureInvariants(t *testing.T) {
	f := func(seed uint16) bool {
		n := 40 + int(seed%80)
		m := prepQuick(t, seed, n)
		cfg := NoAmalgamation()
		if seed%2 == 1 {
			cfg = AmalgamationConfig{MaxZeros: int64(seed % 64), MaxZeroFrac: float64(seed%20) / 100}
		}
		st, err := Analyze(m, cfg)
		if err != nil {
			return false
		}
		// Columns partitioned.
		col := 0
		for _, sn := range st.Snodes {
			if sn.First != col || sn.Width < 1 {
				return false
			}
			col += sn.Width
		}
		if col != n {
			return false
		}
		// Superset of exact fill.
		exact := exactStruct(m)
		for j := 0; j < n; j++ {
			s := st.SnodeOf[j]
			sn := st.Snodes[s]
			for _, r := range exact[j] {
				if r <= sn.Last() {
					continue
				}
				k := sort.SearchInts(st.Rows[s], r)
				if k >= len(st.Rows[s]) || st.Rows[s][k] != r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func prepQuick(t *testing.T, seed uint16, n int) *sparse.Matrix {
	t.Helper()
	m := gen.IrregularMesh(n, 3+int(seed%4), 3, uint64(seed)*13+1)
	return prep(t, m, order.MinDegree, 0)
}

// AnalyzeOrdering's structure, built from the tree and counts of the
// fill-permuted matrix relabelled by the postorder, must be Analyze's on the
// matrix it returns; its permutation must carry A onto that matrix.
func TestAnalyzeOrderingMatchesAnalyze(t *testing.T) {
	for name, m := range map[string]*sparse.Matrix{
		"grid": gen.Grid2D(9),
		"mesh": gen.IrregularMesh(150, 5, 3, 7),
		"lp":   gen.NormalEq(90, 3, 2, 10, 6),
	} {
		fill := order.MinDeg(sparse.PatternOf(m))
		for _, cfg := range []AmalgamationConfig{NoAmalgamation(), DefaultAmalgamation(), RelativeAmalgamation(0.3)} {
			perm, pa, vmap, st, err := AnalyzeOrdering(m, fill, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Permute(perm)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pa, want) {
				t.Fatalf("%s: PA is not A under the returned permutation", name)
			}
			for q, p := range vmap {
				if pa.Val[q] != m.Val[p] {
					t.Fatalf("%s: value map wrong at %d", name, q)
				}
			}
			ref, err := Analyze(pa, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st, ref) {
				t.Fatalf("%s %+v: structure differs from Analyze's", name, cfg)
			}
		}
	}
}

func TestAnalyzeOrderingRejectsBadOrdering(t *testing.T) {
	m := gen.Grid2D(3)
	for _, fill := range [][]int{{0, 1, 2}, {0, 1, 2, 3, 4, 5, 6, 7, 7}, {0, 1, 2, 3, 4, 5, 6, 7, 9}} {
		if _, _, _, _, err := AnalyzeOrdering(m, fill, DefaultAmalgamation()); err == nil {
			t.Fatalf("ordering %v accepted", fill)
		}
	}
}
