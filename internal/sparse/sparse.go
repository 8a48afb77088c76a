// Package sparse provides the symmetric sparse matrix representations used
// throughout the library.
//
// Two views of a symmetric matrix are used:
//
//   - Matrix: the numeric lower triangle (including the diagonal) in
//     compressed sparse column (CSC) form. This is the input to symbolic and
//     numeric factorization.
//   - Pattern: the full symmetric adjacency structure (both triangles, no
//     diagonal). This is the input to fill-reducing ordering algorithms,
//     which operate on the graph of the matrix.
//
// Row indices within each column are kept sorted ascending; all constructors
// and transformations preserve this invariant.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Matrix is a symmetric positive definite matrix stored as its lower
// triangle (diagonal included) in compressed sparse column form.
// Column j occupies Val[ColPtr[j]:ColPtr[j+1]] with row indices
// RowInd[ColPtr[j]:ColPtr[j+1]] sorted ascending; the first entry of every
// column is the diagonal.
type Matrix struct {
	N      int
	ColPtr []int
	RowInd []int
	Val    []float64
}

// NNZ returns the number of stored entries (lower triangle incl. diagonal).
func (m *Matrix) NNZ() int { return len(m.RowInd) }

// Validate checks the structural invariants of the matrix and returns a
// descriptive error on the first violation.
func (m *Matrix) Validate() error {
	if m.N < 0 {
		return fmt.Errorf("sparse: negative dimension %d", m.N)
	}
	if len(m.ColPtr) != m.N+1 {
		return fmt.Errorf("sparse: len(ColPtr)=%d, want %d", len(m.ColPtr), m.N+1)
	}
	if len(m.RowInd) != len(m.Val) {
		return fmt.Errorf("sparse: len(RowInd)=%d != len(Val)=%d", len(m.RowInd), len(m.Val))
	}
	if m.ColPtr[0] != 0 || m.ColPtr[m.N] != len(m.RowInd) {
		return fmt.Errorf("sparse: ColPtr bounds [%d,%d], want [0,%d]", m.ColPtr[0], m.ColPtr[m.N], len(m.RowInd))
	}
	for j := 0; j < m.N; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		if lo > hi {
			return fmt.Errorf("sparse: column %d has negative length", j)
		}
		// The endpoint check above pins ColPtr[0] and ColPtr[N] only;
		// interior pointers from untrusted input can still stray outside
		// RowInd, which would turn the scans below into panics.
		if lo < 0 || hi > len(m.RowInd) {
			return fmt.Errorf("sparse: column %d pointers [%d,%d] outside nonzeros [0,%d]", j, lo, hi, len(m.RowInd))
		}
		if lo == hi || m.RowInd[lo] != j {
			return fmt.Errorf("sparse: column %d missing diagonal entry", j)
		}
		for p := lo; p < hi; p++ {
			r := m.RowInd[p]
			if r < j || r >= m.N {
				return fmt.Errorf("sparse: column %d row %d out of range", j, r)
			}
			if p > lo && m.RowInd[p-1] >= r {
				return fmt.Errorf("sparse: column %d rows not strictly increasing at %d", j, p)
			}
		}
	}
	return nil
}

// FNVOffset is the FNV-1a 64-bit offset basis: the state an FNVMix chain
// starts from.
const FNVOffset = 14695981039346656037

// FNVMix folds one integer, as 8 little-endian bytes, into an FNV-1a
// state. It is the one fold behind every persisted or routed digest
// (PatternHash, core's ConfigKey, store's ValChecksum, the plan cache key
// and the cluster's ring); it works on
// raw integers rather than hash/fnv's byte slices so that it inlines and
// allocates nothing.
func FNVMix(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// PatternHash returns an FNV-1a hash of the matrix's sparsity structure —
// the dimension, column pointers, and row indices. Values are deliberately
// excluded: two matrices with the same pattern but different numeric
// entries hash equal, which is exactly the key a plan cache wants
// (analysis and block partitioning depend only on structure, so a cached
// Plan can be refactored with new values). The hash allocates nothing.
func (m *Matrix) PatternHash() uint64 {
	h := FNVMix(FNVOffset, uint64(m.N))
	for _, p := range m.ColPtr {
		h = FNVMix(h, uint64(p))
	}
	for _, r := range m.RowInd {
		h = FNVMix(h, uint64(r))
	}
	return h
}

// SamePattern reports whether m and o have identical sparsity structure.
// It is the exact check behind PatternHash's probabilistic one, used to
// rule out hash collisions before reusing a cached analysis.
func (m *Matrix) SamePattern(o *Matrix) bool {
	if m.N != o.N || len(m.RowInd) != len(o.RowInd) {
		return false
	}
	for j := 0; j <= m.N; j++ {
		if m.ColPtr[j] != o.ColPtr[j] {
			return false
		}
	}
	for p, r := range m.RowInd {
		if o.RowInd[p] != r {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{
		N:      m.N,
		ColPtr: append([]int(nil), m.ColPtr...),
		RowInd: append([]int(nil), m.RowInd...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// Diag returns a copy of the diagonal.
func (m *Matrix) Diag() []float64 {
	d := make([]float64, m.N)
	for j := 0; j < m.N; j++ {
		d[j] = m.Val[m.ColPtr[j]]
	}
	return d
}

// At returns A(i,j). Both orderings of (i,j) are accepted; the lookup is a
// binary search within the column of min(i,j).
func (m *Matrix) At(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	rows := m.RowInd[lo:hi]
	k := sort.SearchInts(rows, i)
	if k < len(rows) && rows[k] == i {
		return m.Val[lo+k]
	}
	return 0
}

// MulVec computes y = A·x for the full symmetric matrix (both triangles).
func (m *Matrix) MulVec(x []float64) []float64 {
	y := make([]float64, m.N)
	for j := 0; j < m.N; j++ {
		xj := x[j]
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			i := m.RowInd[p]
			v := m.Val[p]
			y[i] += v * xj
			if i != j {
				y[j] += v * x[i]
			}
		}
	}
	return y
}

// Pattern is the adjacency structure of a symmetric matrix: for each column
// j, the sorted row indices of off-diagonal nonzeros in BOTH triangles
// (i.e. the graph neighbourhood of vertex j). The diagonal is excluded.
type Pattern struct {
	N      int
	ColPtr []int
	RowInd []int
}

// Degree returns the number of neighbours of vertex j.
func (p *Pattern) Degree(j int) int { return p.ColPtr[j+1] - p.ColPtr[j] }

// Adj returns the (sorted) neighbour list of vertex j. The returned slice
// aliases the pattern's storage and must not be modified.
func (p *Pattern) Adj(j int) []int { return p.RowInd[p.ColPtr[j]:p.ColPtr[j+1]] }

// NEdges returns the number of undirected edges.
func (p *Pattern) NEdges() int { return len(p.RowInd) / 2 }

// PatternOf builds the full symmetric adjacency structure from the lower
// triangle of m.
func PatternOf(m *Matrix) *Pattern {
	n := m.N
	deg := make([]int, n)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			i := m.RowInd[p]
			if i != j {
				deg[i]++
				deg[j]++
			}
		}
	}
	ptr := make([]int, n+1)
	for j := 0; j < n; j++ {
		ptr[j+1] = ptr[j] + deg[j]
	}
	ind := make([]int, ptr[n])
	next := append([]int(nil), ptr[:n]...)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			i := m.RowInd[p]
			if i != j {
				ind[next[j]] = i
				next[j]++
				ind[next[i]] = j
				next[i]++
			}
		}
	}
	// Row indices are appended in increasing column order for the upper
	// part and increasing row order for the lower part; each adjacency
	// list is already sorted because columns are visited in order and
	// each column's rows are sorted. Verify cheaply in debug builds via
	// tests; sort defensively here only if needed.
	for j := 0; j < n; j++ {
		adj := ind[ptr[j]:ptr[j+1]]
		if !sort.IntsAreSorted(adj) {
			sort.Ints(adj)
		}
	}
	return &Pattern{N: n, ColPtr: ptr, RowInd: ind}
}

// Triplet is a single (row, col, value) entry used during assembly.
type Triplet struct {
	Row, Col int
	Val      float64
}

// FromTriplets assembles a symmetric matrix from lower-or-upper triangle
// triplets. Entries are mirrored into the lower triangle and duplicates are
// summed in input order, starting from +0; diagonal entries absent from the
// input are created with value +0 so the CSC invariant (explicit diagonal)
// holds. It is the one assembler behind every reader and generator, and
// takes O(n + len(ts)) time whatever order the triplets come in.
func FromTriplets(n int, ts []Triplet) (*Matrix, error) {
	// Positions n.. are the triplets; positions 0..n-1 are one +0 diagonal
	// per column, which the stable ordering puts ahead of the input's own
	// diagonal entries, so they sum onto it.
	rows := make([]int, n+len(ts))
	cols := make([]int, n+len(ts))
	for j := 0; j < n; j++ {
		rows[j], cols[j] = j, j
	}
	for k, t := range ts {
		r, c := t.Row, t.Col
		if r < 0 || r >= n || c < 0 || c >= n {
			return nil, fmt.Errorf("sparse: triplet (%d,%d) out of range for n=%d", r, c, n)
		}
		if r < c {
			r, c = c, r
		}
		rows[n+k], cols[n+k] = r, c
	}
	_, src := lowerOrder(n, rows, cols)
	// src lists the entries in CSC order, a repeated position's entries
	// adjacent and in input order; the first of them opens a new entry.
	opens := func(q int) bool {
		return q == 0 || rows[src[q]] != rows[src[q-1]] || cols[src[q]] != cols[src[q-1]]
	}
	m := &Matrix{N: n, ColPtr: make([]int, n+1)}
	for q, k := range src {
		if opens(q) {
			m.ColPtr[cols[k]+1]++
		}
	}
	for j := 0; j < n; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	m.RowInd = make([]int, m.ColPtr[n])
	m.Val = make([]float64, m.ColPtr[n])
	p := -1
	for q, k := range src {
		if opens(q) {
			p++
			m.RowInd[p] = rows[k]
		}
		if k >= n {
			m.Val[p] += ts[k-n].Val
		}
	}
	return m, nil
}

// lowerOrder sorts entries k at lower-triangle positions (rows[k], cols[k])
// into CSC order: column by column, rows ascending within a column, equal
// positions in increasing k. It returns the column pointers and src, where
// src[q] is the entry at sorted position q. Two stable counting passes, by
// row and then by column, make it O(n + len(rows)).
func lowerOrder(n int, rows, cols []int) (ptr, src []int) {
	_, byRow := bucket(n, rows, nil)
	return bucket(n, cols, byRow)
}

// bucket is one stable counting-sort pass: it orders the entries listed in
// in (nil means 0..len(key)-1) by key, keeping their order within a key,
// and returns the key pointers and the reordered entries.
func bucket(n int, key, in []int) (ptr, out []int) {
	ptr = make([]int, n+1)
	for _, v := range key {
		ptr[v+1]++
	}
	for j := 0; j < n; j++ {
		ptr[j+1] += ptr[j]
	}
	next := append([]int(nil), ptr[:n]...)
	out = make([]int, len(key))
	for i := range key {
		k := i
		if in != nil {
			k = in[i]
		}
		out[next[key[k]]] = k
		next[key[k]]++
	}
	return ptr, out
}

// PatternLaplacian overwrites the values of an assembled matrix with the
// graph Laplacian plus identity of its pattern: −1 at every off-diagonal
// entry, and on the diagonal the number of distinct off-diagonal neighbours
// plus 1. The result is strictly diagonally dominant, hence positive
// definite. It is the one rule by which pattern-only input (Matrix Market
// and Harwell-Boeing pattern files, the generators' graphs) gets values.
func PatternLaplacian(m *Matrix) {
	deg := make([]int, m.N)
	for j := 0; j < m.N; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if i := m.RowInd[p]; i != j {
				deg[i]++
				deg[j]++
			}
		}
	}
	for j := 0; j < m.N; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if m.RowInd[p] == j {
				m.Val[p] = float64(deg[j]) + 1
			} else {
				m.Val[p] = -1
			}
		}
	}
}

// Permute computes the symmetric permutation B = P·A·Pᵀ where perm[new] =
// old, i.e. B(i,j) = A(perm[i], perm[j]). The result is again a sorted
// lower-triangular CSC matrix.
func (m *Matrix) Permute(perm []int) (*Matrix, error) {
	b, _, err := m.PermuteWithMap(perm)
	return b, err
}

// PermuteWithMap is Permute plus a value map: vmap[q] is the position in
// m.Val whose entry landed at position q of the result, i.e.
// B.Val[q] == m.Val[vmap[q]]. The map lets callers re-permute fresh numeric
// values onto a fixed pattern without redoing the symbolic permutation —
// the refactorization path applies it as a gather.
func (m *Matrix) PermuteWithMap(perm []int) (*Matrix, []int, error) {
	n := m.N
	if len(perm) != n {
		return nil, nil, fmt.Errorf("sparse: permutation length %d for n=%d", len(perm), n)
	}
	inv := make([]int, n)
	seen := make([]bool, n)
	for newIdx, old := range perm {
		if old < 0 || old >= n || seen[old] {
			return nil, nil, fmt.Errorf("sparse: invalid permutation at position %d", newIdx)
		}
		seen[old] = true
		inv[old] = newIdx
	}
	rows := make([]int, m.NNZ())
	cols := make([]int, m.NNZ())
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			ni, nj := inv[m.RowInd[p]], inv[j]
			if ni < nj {
				ni, nj = nj, ni
			}
			rows[p], cols[p] = ni, nj
		}
	}
	ptr, vmap := lowerOrder(n, rows, cols)
	b := &Matrix{
		N:      n,
		ColPtr: ptr,
		RowInd: make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	for q, p := range vmap {
		b.RowInd[q] = rows[p]
		b.Val[q] = m.Val[p]
	}
	return b, vmap, nil
}

// ResidualNorm returns ‖A·x − b‖∞, a convergence check for solvers.
func (m *Matrix) ResidualNorm(x, b []float64) float64 {
	ax := m.MulVec(x)
	worst := 0.0
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// Dense expands the full symmetric matrix into a row-major n×n dense
// matrix. Intended for tests and tiny reference computations only.
func (m *Matrix) Dense() [][]float64 {
	d := make([][]float64, m.N)
	for i := range d {
		d[i] = make([]float64, m.N)
	}
	for j := 0; j < m.N; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			i := m.RowInd[p]
			d[i][j] = m.Val[p]
			d[j][i] = m.Val[p]
		}
	}
	return d
}
