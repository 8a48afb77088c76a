// Package etree computes the elimination tree of a symmetric sparse matrix
// and the derived quantities used throughout the reproduction: postorder,
// per-column nonzero counts of the Cholesky factor (via row-subtree
// traversal), per-node depths (for the paper's Increasing Depth mapping
// heuristic), and per-subtree work (for domain selection).
package etree

import "blockfanout/internal/sparse"

// rowAdj returns, for each row i, the sorted columns j < i with A(i,j) ≠ 0.
// This is the strict upper triangle of the CSC lower-triangular input,
// i.e. the transpose access path needed by Liu's algorithms.
func rowAdj(m *sparse.Matrix) (ptr, ind []int) {
	n := m.N
	ptr = make([]int, n+1)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if i := m.RowInd[p]; i != j {
				ptr[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	ind = make([]int, ptr[n])
	next := append([]int(nil), ptr[:n]...)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if i := m.RowInd[p]; i != j {
				ind[next[i]] = j
				next[i]++
			}
		}
	}
	// Columns are appended in increasing j, so each row list is sorted.
	return ptr, ind
}

// Tree holds the elimination tree of a matrix along with the row-adjacency
// view used to build it (kept because column counting reuses it).
type Tree struct {
	Parent []int // Parent[j] = etree parent of column j, -1 for roots
	rowPtr []int
	rowInd []int
}

// Build computes the elimination tree of the lower-triangular CSC matrix m
// using Liu's algorithm with path compression.
func Build(m *sparse.Matrix) *Tree {
	n := m.N
	parent := make([]int, n)
	anc := make([]int, n)
	for i := range parent {
		parent[i] = -1
		anc[i] = -1
	}
	ptr, ind := rowAdj(m)
	for i := 0; i < n; i++ {
		for p := ptr[i]; p < ptr[i+1]; p++ {
			r := ind[p]
			for anc[r] != -1 && anc[r] != i {
				next := anc[r]
				anc[r] = i
				r = next
			}
			if anc[r] == -1 {
				anc[r] = i
				parent[r] = i
			}
		}
	}
	return &Tree{Parent: parent, rowPtr: ptr, rowInd: ind}
}

// N returns the number of columns.
func (t *Tree) N() int { return len(t.Parent) }

// Postorder returns a postorder permutation of the tree: po[k] is the k-th
// column in postorder (perm[new] = old semantics). Children are visited in
// increasing column order, so a matrix already ordered by a fill-reducing
// permutation keeps indistinguishable columns adjacent.
func (t *Tree) Postorder() []int {
	n := t.N()
	// Build child lists (sorted: iterate columns in decreasing order and
	// prepend via head/next links, yielding increasing order on traversal).
	head := make([]int, n)
	next := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	for j := n - 1; j >= 0; j-- {
		if p := t.Parent[j]; p >= 0 {
			next[j] = head[p]
			head[p] = j
		}
	}
	po := make([]int, 0, n)
	stack := make([]int, 0, 64)
	state := make([]int, n) // next unvisited child
	for i := range state {
		state[i] = head[i]
	}
	for root := 0; root < n; root++ {
		if t.Parent[root] != -1 {
			continue
		}
		stack = append(stack, root)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if c := state[v]; c != -1 {
				state[v] = next[c]
				stack = append(stack, c)
			} else {
				po = append(po, v)
				stack = stack[:len(stack)-1]
			}
		}
	}
	return po
}

// ColCounts returns, for each column j, the number of nonzeros of L(:,j)
// including the diagonal. Computed by walking row subtrees (O(nnz(L))).
func (t *Tree) ColCounts() []int {
	n := t.N()
	count := make([]int, n)
	mark := make([]int, n)
	for j := range count {
		count[j] = 1
		mark[j] = -1
	}
	for i := 0; i < n; i++ {
		mark[i] = i
		for p := t.rowPtr[i]; p < t.rowPtr[i+1]; p++ {
			r := t.rowInd[p]
			for r != -1 && mark[r] != i {
				count[r]++
				mark[r] = i
				r = t.Parent[r]
			}
		}
	}
	return count
}

// Depths returns the depth of every column in the elimination forest; roots
// have depth 0. This is the key of the paper's Increasing Depth heuristic.
func (t *Tree) Depths() []int {
	n := t.N()
	depth := make([]int, n)
	// Parents always have larger indices than children in an elimination
	// tree, so a reverse sweep sees every parent before its children.
	for j := n - 1; j >= 0; j-- {
		if p := t.Parent[j]; p >= 0 {
			depth[j] = depth[p] + 1
		}
	}
	return depth
}

// Stats aggregates the factor statistics the paper's Tables 1 and 6 report.
type Stats struct {
	N     int
	NZinL int64 // off-diagonal nonzeros of L (the paper's "NZ in L")
	Flops int64 // multiply-add operations to factor (≈ Σⱼ c(j)², n³/3 dense)
}

// FactorStats computes nnz(L) and the sequential factorization operation
// count from the column counts (the "best known sequential algorithm"
// numbers used as the Mflops numerator throughout the paper).
func FactorStats(counts []int) Stats {
	var s Stats
	s.N = len(counts)
	for _, c := range counts {
		s.NZinL += int64(c - 1)
		s.Flops += int64(c) * int64(c)
	}
	return s
}

// NNZ is nnz(L) with the diagonal — the entry count a stored factor
// holds, and the size every byte or solve-cost estimate must use. NZinL,
// the paper's number, counts off-diagonal entries only.
func (s Stats) NNZ() int64 { return s.NZinL + int64(s.N) }

// SubtreeWork returns, for every column, the total work (Σ c(j)² over the
// subtree rooted there). Domain selection splits the elimination forest
// into subtrees of roughly equal subtree work.
func (t *Tree) SubtreeWork(counts []int) []int64 {
	n := t.N()
	work := make([]int64, n)
	for j := 0; j < n; j++ {
		work[j] += int64(counts[j]) * int64(counts[j])
		if p := t.Parent[j]; p >= 0 {
			work[p] += work[j]
		}
	}
	return work
}
