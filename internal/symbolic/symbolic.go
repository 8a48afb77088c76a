// Package symbolic performs the symbolic phase of sparse Cholesky
// factorization: fundamental supernode detection, relaxed supernode
// amalgamation (Ashcraft–Grimes style, which the paper applies to increase
// block regularity), and computation of the supernodal row structures that
// the block partitioning is built on.
//
// AnalyzeOrdering is the analysis pipeline: given A and a fill-reducing
// ordering it builds the elimination tree and column counts once,
// postorders the tree so that supernodes occupy contiguous column ranges,
// permutes A once to the total ordering, and analyzes the result. Analyze
// is the last step alone, for a matrix already so ordered.
package symbolic

import (
	"fmt"
	"sort"

	"blockfanout/internal/etree"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// Supernode is a contiguous range of factor columns sharing (after
// amalgamation: approximately sharing) one below-diagonal row structure.
type Supernode struct {
	First int // first column
	Width int // number of columns
}

// Last returns the last column of the supernode.
func (s Supernode) Last() int { return s.First + s.Width - 1 }

// AmalgamationConfig controls relaxed supernode merging. A child supernode
// immediately preceding its parent is merged when the CUMULATIVE number of
// explicit zeros stored by the merged supernode (relative to the exact
// fundamental supernodes it absorbs) is small in absolute terms or relative
// to the merged supernode's size. Bounding cumulative rather than
// incremental waste prevents chains of merges from compounding.
type AmalgamationConfig struct {
	// MaxZeros merges whenever the merged supernode stores at most this
	// many explicit zeros in total.
	MaxZeros int64
	// MaxZeroFrac merges whenever total zeros/(merged entries) stays
	// below it.
	MaxZeroFrac float64
}

// DefaultAmalgamation mirrors the mild relaxation used in the paper's
// experimental setup: merges that waste little storage but grow supernodes
// past the tiny sizes minimum-degree orderings otherwise produce.
func DefaultAmalgamation() AmalgamationConfig {
	return AmalgamationConfig{MaxZeros: 16, MaxZeroFrac: 0.10}
}

// NoAmalgamation disables merging entirely (exact fundamental supernodes).
func NoAmalgamation() AmalgamationConfig {
	return AmalgamationConfig{MaxZeros: 0, MaxZeroFrac: 0}
}

// RelativeAmalgamation builds the config the structure-aware irregular
// blocking strategy drives its merging with: a pure relative-fill threshold
// (explicit zeros may make up at most frac of the merged supernode's
// entries) plus the small absolute floor of DefaultAmalgamation, so tiny
// supernodes near the leaves still merge when the fraction alone would
// round to nothing. frac outside (0, 1) falls back to the default 0.10.
func RelativeAmalgamation(frac float64) AmalgamationConfig {
	if frac <= 0 || frac >= 1 {
		frac = DefaultAmalgamation().MaxZeroFrac
	}
	return AmalgamationConfig{MaxZeros: DefaultAmalgamation().MaxZeros, MaxZeroFrac: frac}
}

// Structure is the result of the symbolic phase.
type Structure struct {
	N       int
	Snodes  []Supernode
	SnodeOf []int   // column → supernode index
	Rows    [][]int // supernode → sorted below-diagonal row indices (rows > Last())
	Parent  []int   // supernode elimination forest (-1 for roots)
	Depth   []int   // supernode depth in that forest (roots at 0)

	ColCounts []int // exact per-column counts of L (pre-amalgamation)
}

// NNZ returns the number of stored factor entries implied by the (possibly
// relaxed) supernodal structure, excluding the diagonal.
func (st *Structure) NNZ() int64 {
	var nz int64
	for s, sn := range st.Snodes {
		w, b := int64(sn.Width), int64(len(st.Rows[s]))
		nz += w*(w-1)/2 + w*b
	}
	return nz
}

// Flops returns the factorization operation count implied by the stored
// (relaxed) structure: Σ over columns of (entries at or below diagonal)².
func (st *Structure) Flops() int64 {
	var f int64
	for s, sn := range st.Snodes {
		w, b := int64(sn.Width), int64(len(st.Rows[s]))
		// column k of the supernode (0-based) holds (w-k)+b entries.
		for k := int64(0); k < w; k++ {
			c := w - k + b
			f += c * c
		}
	}
	return f
}

// AnalyzeOrdering runs the whole analysis of a under the fill-reducing
// ordering fill (fill[new] = old). It builds the elimination tree and column
// counts of fill·a·fillᵀ without forming that matrix, relabels both by the
// tree's postorder po, permutes a once by perm = fill∘po (perm[new] =
// fill[po[new]]), and runs the symbolic phase on the result. It returns
// perm, the permuted matrix pa, the value map (pa.Val[q] == a.Val[vmap[q]])
// and the structure.
func AnalyzeOrdering(a *sparse.Matrix, fill []int, cfg AmalgamationConfig) (perm []int, pa *sparse.Matrix, vmap []int, st *Structure, err error) {
	n := a.N
	if len(fill) != n {
		return nil, nil, nil, nil, fmt.Errorf("symbolic: ordering length %d for n=%d", len(fill), n)
	}
	if err := order.Permutation(fill).Validate(); err != nil {
		return nil, nil, nil, nil, err
	}
	t := etree.BuildPermuted(a, fill)
	counts := t.ColCounts()
	po := t.Postorder()
	// Relabel by the postorder: new column k is old column po[k]. A
	// postorder is a topological order of the tree, so the relabelled tree
	// and counts are those of the postordered matrix.
	inv := make([]int, n)
	for k, j := range po {
		inv[j] = k
	}
	perm = make([]int, n)
	parent := make([]int, n)
	pcounts := make([]int, n)
	for k, j := range po {
		perm[k] = fill[j]
		parent[k] = -1
		if p := t.Parent[j]; p >= 0 {
			parent[k] = inv[p]
		}
		pcounts[k] = counts[j]
	}
	if pa, vmap, err = a.PermuteWithMap(perm); err != nil {
		return nil, nil, nil, nil, err
	}
	if st, err = analyze(pa, parent, pcounts, cfg); err != nil {
		return nil, nil, nil, nil, err
	}
	return perm, pa, vmap, st, nil
}

// Analyze runs the symbolic phase on a permuted, postordered matrix.
func Analyze(m *sparse.Matrix, cfg AmalgamationConfig) (*Structure, error) {
	t := etree.Build(m)
	return analyze(m, t.Parent, t.ColCounts(), cfg)
}

// analyze runs the symbolic phase on a postordered matrix given its
// elimination tree and column counts.
func analyze(m *sparse.Matrix, parent, counts []int, cfg AmalgamationConfig) (*Structure, error) {
	sn := fundamental(parent, counts)
	sn = amalgamate(sn, parent, counts, cfg)
	st := &Structure{
		N:         m.N,
		Snodes:    sn,
		SnodeOf:   make([]int, m.N),
		ColCounts: counts,
	}
	for i, s := range sn {
		for j := s.First; j <= s.Last(); j++ {
			st.SnodeOf[j] = i
		}
	}
	if err := st.buildRows(m); err != nil {
		return nil, err
	}
	st.Depth = make([]int, len(sn))
	for s := len(sn) - 1; s >= 0; s-- {
		if p := st.Parent[s]; p >= 0 {
			st.Depth[s] = st.Depth[p] + 1
		}
	}
	return st, nil
}

// fundamental detects maximal supernodes: column j+1 extends the supernode
// of column j iff parent(j) = j+1 and count(j+1) = count(j) − 1 (nested
// structure).
func fundamental(parent, counts []int) []Supernode {
	n := len(parent)
	var sns []Supernode
	if n == 0 {
		return sns
	}
	first := 0
	for j := 1; j < n; j++ {
		if parent[j-1] == j && counts[j] == counts[j-1]-1 {
			continue
		}
		sns = append(sns, Supernode{First: first, Width: j - first})
		first = j
	}
	sns = append(sns, Supernode{First: first, Width: n - first})
	return sns
}

// amSn is a supernode candidate during amalgamation: its current column
// range, its estimated below-diagonal row count b (treated dense once
// merged), and the exact entry count of the fundamental supernodes it has
// absorbed (used to bound cumulative waste).
type amSn struct {
	first, width int
	b            int64
	exactNZ      int64
}

func trapNZ(w, r int64) int64 { return w*r - w*(w-1)/2 }

// amalgamate greedily merges each supernode with the immediately preceding
// one when that predecessor is its child in the supernode elimination
// forest and the merged supernode's cumulative zero padding stays within
// the config's bounds. A stack-based sweep lets merges cascade up chains of
// small supernodes without compounding waste (the bound always compares
// against the exact entry count of everything absorbed).
func amalgamate(sns []Supernode, parent, counts []int, cfg AmalgamationConfig) []Supernode {
	stack := make([]amSn, 0, len(sns))
	for _, s := range sns {
		w, b := int64(s.Width), int64(counts[s.First]-s.Width)
		cur := amSn{first: s.First, width: s.Width, b: b, exactNZ: trapNZ(w, w+b)}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			// c is cur's child iff the parent column of c's last
			// column lies within cur's (current) column range.
			pcol := parent[c.first+c.width-1]
			if pcol < cur.first || pcol >= cur.first+cur.width {
				break
			}
			wm := int64(c.width + cur.width)
			rm := wm + cur.b
			exact := c.exactNZ + cur.exactNZ
			zeros := trapNZ(wm, rm) - exact
			ok := zeros <= cfg.MaxZeros ||
				(cfg.MaxZeroFrac > 0 && float64(zeros) <= cfg.MaxZeroFrac*float64(trapNZ(wm, rm)))
			if !ok {
				break
			}
			cur = amSn{first: c.first, width: c.width + cur.width, b: cur.b, exactNZ: exact}
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, cur)
	}
	out := make([]Supernode, len(stack))
	for i, s := range stack {
		out[i] = Supernode{First: s.first, Width: s.width}
	}
	return out
}

// buildRows computes each supernode's below-diagonal row set bottom-up: the
// union of its columns' A-structure with the (truncated) row sets of its
// children in the supernode forest. The forest parent of s is the supernode
// containing s's smallest below-diagonal row, which guarantees every block
// update's destination block exists (see DESIGN.md).
func (st *Structure) buildRows(m *sparse.Matrix) error {
	ns := len(st.Snodes)
	st.Rows = make([][]int, ns)
	st.Parent = make([]int, ns)
	children := make([][]int, ns)
	mark := make([]int, st.N)
	for i := range mark {
		mark[i] = -1
	}
	var buf []int
	for s := 0; s < ns; s++ {
		sn := st.Snodes[s]
		last := sn.Last()
		buf = buf[:0]
		for j := sn.First; j <= last; j++ {
			for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
				if r := m.RowInd[p]; r > last && mark[r] != s {
					mark[r] = s
					buf = append(buf, r)
				}
			}
		}
		for _, c := range children[s] {
			for _, r := range st.Rows[c] {
				if r > last && mark[r] != s {
					mark[r] = s
					buf = append(buf, r)
				}
			}
		}
		rows := append([]int(nil), buf...)
		sort.Ints(rows)
		st.Rows[s] = rows
		if len(rows) == 0 {
			st.Parent[s] = -1
			continue
		}
		p := st.SnodeOf[rows[0]]
		if p <= s {
			return fmt.Errorf("symbolic: supernode %d has non-ancestor parent %d", s, p)
		}
		st.Parent[s] = p
		children[p] = append(children[p], s)
	}
	return nil
}
