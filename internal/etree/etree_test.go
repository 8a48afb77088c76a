package etree

import (
	"reflect"
	"testing"
	"testing/quick"

	"blockfanout/internal/gen"
	"blockfanout/internal/sparse"
)

// bruteFill computes the exact factor structure of a lower-triangular
// pattern by right-looking elimination on a dense boolean matrix, returning
// per-column counts (incl. diagonal) and etree parents (-1 for roots).
func bruteFill(m *sparse.Matrix) (counts []int, parent []int) {
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
	counts = make([]int, n)
	parent = make([]int, n)
	for j := 0; j < n; j++ {
		var s []int
		for i := j + 1; i < n; i++ {
			if p[i][j] {
				s = append(s, i)
			}
		}
		counts[j] = len(s) + 1
		if len(s) == 0 {
			parent[j] = -1
		} else {
			parent[j] = s[0]
		}
		for a := 0; a < len(s); a++ {
			for b := a + 1; b < len(s); b++ {
				p[s[b]][s[a]] = true
			}
		}
	}
	return counts, parent
}

func matrices(t *testing.T) map[string]*sparse.Matrix {
	t.Helper()
	return map[string]*sparse.Matrix{
		"grid":  gen.Grid2D(7),
		"cube":  gen.Cube3D(3),
		"mesh":  gen.IrregularMesh(80, 4, 3, 2),
		"dense": gen.Dense(15),
	}
}

func TestBuildMatchesBruteForce(t *testing.T) {
	for name, m := range matrices(t) {
		wantCounts, wantParent := bruteFill(m)
		tr := Build(m)
		for j := 0; j < m.N; j++ {
			if tr.Parent[j] != wantParent[j] {
				t.Fatalf("%s: parent[%d]=%d, want %d", name, j, tr.Parent[j], wantParent[j])
			}
		}
		counts := tr.ColCounts()
		for j := 0; j < m.N; j++ {
			if counts[j] != wantCounts[j] {
				t.Fatalf("%s: count[%d]=%d, want %d", name, j, counts[j], wantCounts[j])
			}
		}
	}
}

func TestParentAlwaysLarger(t *testing.T) {
	for name, m := range matrices(t) {
		tr := Build(m)
		for j, p := range tr.Parent {
			if p != -1 && p <= j {
				t.Fatalf("%s: parent[%d]=%d not larger", name, j, p)
			}
		}
	}
}

func TestPostorderIsPermutationAndChildrenFirst(t *testing.T) {
	for name, m := range matrices(t) {
		tr := Build(m)
		po := tr.Postorder()
		seen := make([]bool, m.N)
		pos := make([]int, m.N)
		for k, v := range po {
			if v < 0 || v >= m.N || seen[v] {
				t.Fatalf("%s: invalid postorder", name)
			}
			seen[v] = true
			pos[v] = k
		}
		for j, p := range tr.Parent {
			if p != -1 && pos[p] <= pos[j] {
				t.Fatalf("%s: parent %d visited before child %d", name, p, j)
			}
		}
	}
}

func TestPostorderSubtreesContiguous(t *testing.T) {
	// In a postorder, every subtree occupies a contiguous range ending at
	// its root. Verify via subtree sizes.
	m := gen.Grid2D(8)
	tr := Build(m)
	po := tr.Postorder()
	size := make([]int, m.N)
	for j := 0; j < m.N; j++ {
		size[j] = 1
	}
	for j := 0; j < m.N; j++ {
		if p := tr.Parent[j]; p != -1 {
			size[p] += size[j]
		}
	}
	pos := make([]int, m.N)
	for k, v := range po {
		pos[v] = k
	}
	for j := 0; j < m.N; j++ {
		// All descendants of j must lie in (pos[j]-size[j], pos[j]].
		if p := tr.Parent[j]; p != -1 {
			if pos[j] >= pos[p] || pos[j] < pos[p]-size[p]+1 {
				t.Fatalf("child %d at %d outside parent %d range (%d,%d]",
					j, pos[j], p, pos[p]-size[p], pos[p])
			}
		}
	}
}

func TestFactorStatsDense(t *testing.T) {
	n := 10
	counts := make([]int, n)
	for j := range counts {
		counts[j] = n - j
	}
	s := FactorStats(counts)
	if s.NZinL != int64(n*(n-1)/2) {
		t.Fatalf("NZinL=%d", s.NZinL)
	}
	want := int64(0)
	for j := 0; j < n; j++ {
		c := int64(n - j)
		want += c * c
	}
	if s.Flops != want {
		t.Fatalf("Flops=%d, want %d", s.Flops, want)
	}
}

// Property: ColCounts sums to nnz(L) computed by brute force on random
// small meshes, and every count is at least 1.
func TestQuickColCounts(t *testing.T) {
	f := func(seed uint16) bool {
		n := 20 + int(seed%40)
		m := gen.IrregularMesh(n, 3, 2, uint64(seed)*7+1)
		want, _ := bruteFill(m)
		got := Build(m).ColCounts()
		for j := range got {
			if got[j] != want[j] || got[j] < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BuildPermuted must give the tree and counts of the permuted matrix
// without forming it.
func TestBuildPermutedMatchesPermute(t *testing.T) {
	for name, m := range matrices(t) {
		for seed := uint64(1); seed <= 3; seed++ {
			perm := make([]int, m.N)
			for i := range perm {
				perm[i] = i
			}
			s := seed
			for i := m.N - 1; i > 0; i-- { // Fisher-Yates, xorshift
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				k := int(s % uint64(i+1))
				perm[i], perm[k] = perm[k], perm[i]
			}
			pm, err := m.Permute(perm)
			if err != nil {
				t.Fatal(err)
			}
			want, got := Build(pm), BuildPermuted(m, perm)
			if !reflect.DeepEqual(got.Parent, want.Parent) || !reflect.DeepEqual(got.ColCounts(), want.ColCounts()) {
				t.Fatalf("%s seed %d: tree or counts differ from the permuted matrix's", name, seed)
			}
		}
	}
}
