// Package etree computes the elimination tree of a symmetric sparse matrix
// and the derived quantities the symbolic phase is built on: postorder and
// per-column nonzero counts of the Cholesky factor (via row-subtree
// traversal).
package etree

import "blockfanout/internal/sparse"

// Tree holds the elimination tree of a matrix along with the row-adjacency
// view used to build it (kept because column counting reuses it).
type Tree struct {
	Parent []int // Parent[j] = etree parent of column j, -1 for roots
	rowPtr []int
	rowInd []int
}

// Build computes the elimination tree of the lower-triangular CSC matrix m
// using Liu's algorithm with path compression.
func Build(m *sparse.Matrix) *Tree { return BuildPermuted(m, nil) }

// BuildPermuted computes the elimination tree of P·m·Pᵀ, where perm[new] =
// old is a valid permutation (nil means the identity), without forming the
// permuted matrix: only its row adjacency is built. The tree and
// ColCounts are those of the permuted matrix, in its labels.
func BuildPermuted(m *sparse.Matrix, perm []int) *Tree {
	n := m.N
	inv := make([]int, n)
	for i := range inv {
		inv[i] = i
	}
	for newIdx, old := range perm {
		inv[old] = newIdx
	}
	// Row adjacency of the permuted strict lower triangle: for each row i,
	// the columns j < i with A(i,j) ≠ 0. Neither the tree nor the counts
	// depend on the order within a row.
	ptr := make([]int, n+1)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if i := m.RowInd[p]; i != j {
				ptr[max(inv[i], inv[j])+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	ind := make([]int, ptr[n])
	next := append([]int(nil), ptr[:n]...)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if i := m.RowInd[p]; i != j {
				r, c := max(inv[i], inv[j]), min(inv[i], inv[j])
				ind[next[r]] = c
				next[r]++
			}
		}
	}

	parent := make([]int, n)
	anc := make([]int, n)
	for i := range parent {
		parent[i] = -1
		anc[i] = -1
	}
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
