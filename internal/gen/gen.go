// Package gen generates the benchmark matrices used throughout the
// reproduction.
//
// The regular model problems (dense matrices, 2-D grid and 3-D cube
// Laplacians) are exactly the ones the paper uses. The irregular
// Harwell-Boeing matrices (BCSSTK15/29/31/33), the COPTER2 helicopter-rotor
// model, and the 10FLEET linear-programming matrix are not distributable,
// so this package substitutes synthetic analogues of matching order: random
// geometric finite-element-style meshes for the structural matrices and a
// normal-equations (B·Bᵀ) pattern for the LP matrix. See DESIGN.md for the
// substitution rationale.
//
// All generators return symmetric positive definite matrices: off-diagonal
// entries are negative and each diagonal entry exceeds the sum of absolute
// off-diagonal entries in its row (strict diagonal dominance).
package gen

import (
	"fmt"
	"math"

	"blockfanout/internal/sparse"
)

// rng is a small deterministic PRNG (xorshift64*), so that generated
// benchmark matrices are reproducible across runs and platforms without
// depending on math/rand's global state.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// float64 returns a uniform value in [0,1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform value in [0,n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// Dense returns a dense n×n SPD matrix (every lower-triangle entry stored).
func Dense(n int) *sparse.Matrix {
	nnz := n * (n + 1) / 2
	m := &sparse.Matrix{
		N:      n,
		ColPtr: make([]int, n+1),
		RowInd: make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	r := newRNG(uint64(n)*2654435761 + 1)
	for j := 0; j < n; j++ {
		m.ColPtr[j] = len(m.RowInd)
		m.RowInd = append(m.RowInd, j)
		m.Val = append(m.Val, float64(n)+1) // diagonal, strictly dominant
		for i := j + 1; i < n; i++ {
			m.RowInd = append(m.RowInd, i)
			m.Val = append(m.Val, -0.25-0.5*r.float64())
		}
	}
	m.ColPtr[n] = len(m.RowInd)
	return m
}

// laplacian assembles the graph Laplacian plus identity of the undirected
// edges listed in ts, in either orientation and possibly repeated (their
// values are ignored): A(i,i) = degree(i)+1, A(i,j) = -1 for edges.
func laplacian(n int, ts []sparse.Triplet) *sparse.Matrix {
	m, err := sparse.FromTriplets(n, ts)
	if err != nil {
		panic(err) // construction is internally consistent
	}
	sparse.PatternLaplacian(m)
	return m
}

// Grid2D returns the 5-point Laplacian (plus identity) on a k×k grid.
// Vertex (x,y) has index x*k+y.
func Grid2D(k int) *sparse.Matrix {
	n := k * k
	edges := make([]sparse.Triplet, 0, 2*k*(k-1))
	for x := 0; x < k; x++ {
		for y := 0; y < k; y++ {
			v := x*k + y
			if y+1 < k {
				edges = append(edges, sparse.Triplet{Row: v, Col: v + 1})
			}
			if x+1 < k {
				edges = append(edges, sparse.Triplet{Row: v, Col: v + k})
			}
		}
	}
	return laplacian(n, edges)
}

// Cube3D returns the 7-point Laplacian (plus identity) on a k×k×k grid.
// Vertex (x,y,z) has index (x*k+y)*k+z.
func Cube3D(k int) *sparse.Matrix {
	n := k * k * k
	edges := make([]sparse.Triplet, 0, 3*k*k*(k-1))
	for x := 0; x < k; x++ {
		for y := 0; y < k; y++ {
			for z := 0; z < k; z++ {
				v := (x*k+y)*k + z
				if z+1 < k {
					edges = append(edges, sparse.Triplet{Row: v, Col: v + 1})
				}
				if y+1 < k {
					edges = append(edges, sparse.Triplet{Row: v, Col: v + k})
				}
				if x+1 < k {
					edges = append(edges, sparse.Triplet{Row: v, Col: v + k*k})
				}
			}
		}
	}
	return laplacian(n, edges)
}

// IrregularMesh returns an SPD matrix whose graph is a random geometric
// k-nearest-neighbour mesh on n points in the unit cube (dim 2 or 3). It is
// the stand-in for the Harwell-Boeing structural matrices: irregular,
// locally clustered sparsity with supernodes of widely varying size after a
// fill-reducing ordering.
func IrregularMesh(n, k, dim int, seed uint64) *sparse.Matrix {
	if dim != 2 && dim != 3 {
		panic(fmt.Sprintf("gen: IrregularMesh dim=%d (want 2 or 3)", dim))
	}
	r := newRNG(seed)
	pts := make([][3]float64, n)
	for i := range pts {
		pts[i][0] = r.float64()
		pts[i][1] = r.float64()
		if dim == 3 {
			pts[i][2] = r.float64()
		}
	}
	// Spatial hash grid: cell side chosen so a cell holds ~2k points.
	cells := int(math.Max(1, math.Floor(math.Pow(float64(n)/float64(2*k), 1.0/float64(dim)))))
	cellOf := func(p [3]float64) int {
		cx := int(p[0] * float64(cells))
		cy := int(p[1] * float64(cells))
		cz := 0
		if dim == 3 {
			cz = int(p[2] * float64(cells))
		}
		clamp := func(v int) int {
			if v < 0 {
				return 0
			}
			if v >= cells {
				return cells - 1
			}
			return v
		}
		return (clamp(cx)*cells+clamp(cy))*cells + clamp(cz)
	}
	ncell := cells * cells
	if dim == 3 {
		ncell *= cells
	} else {
		// 2-D uses z-cell 0 only but keep addressing uniform.
		ncell = cells * cells * cells
	}
	bucket := make([][]int, ncell)
	for i, p := range pts {
		c := cellOf(p)
		bucket[c] = append(bucket[c], i)
	}
	dist2 := func(a, b [3]float64) float64 {
		dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
		return dx*dx + dy*dy + dz*dz
	}
	// Each point links to its k nearest; a pair that picks each other is
	// listed twice and assembled once. best keeps the k nearest candidates
	// seen so far in increasing distance, so no search ring is sorted whole.
	edges := make([]sparse.Triplet, 0, n*k)
	best := make([]cand, 0, k)
	for i, p := range pts {
		cx := int(p[0] * float64(cells))
		cy := int(p[1] * float64(cells))
		cz := 0
		if dim == 3 {
			cz = int(p[2] * float64(cells))
		}
		// Expand the search ring until enough candidates are found.
		for ring := 1; ; ring++ {
			best = best[:0]
			found := 0
			zlo, zhi := 0, 0
			if dim == 3 {
				zlo, zhi = cz-ring, cz+ring
			}
			for x := cx - ring; x <= cx+ring; x++ {
				if x < 0 || x >= cells {
					continue
				}
				for y := cy - ring; y <= cy+ring; y++ {
					if y < 0 || y >= cells {
						continue
					}
					for z := zlo; z <= zhi; z++ {
						if z < 0 || z >= cells {
							continue
						}
						for _, j := range bucket[(x*cells+y)*cells+z] {
							if j == i {
								continue
							}
							found++
							best = keepNearest(best, k, cand{j, dist2(p, pts[j])})
						}
					}
				}
			}
			if found >= k || ring > cells {
				break
			}
		}
		for _, c := range best {
			edges = append(edges, sparse.Triplet{Row: i, Col: c.idx})
		}
	}
	return laplacian(n, edges)
}

// cand is one neighbour candidate of IrregularMesh: a point and its squared
// distance.
type cand struct {
	idx int
	d2  float64
}

// keepNearest inserts c into best, which holds at most k candidates in
// increasing distance, dropping the farthest when best is full. A tie keeps
// the candidate seen first.
func keepNearest(best []cand, k int, c cand) []cand {
	if len(best) == k {
		if k == 0 || c.d2 >= best[k-1].d2 {
			return best
		}
		best = best[:k-1]
	}
	i := len(best)
	best = append(best, c)
	for ; i > 0 && best[i-1].d2 > c.d2; i-- {
		best[i] = best[i-1]
	}
	best[i] = c
	return best
}

// NormalEq returns an SPD matrix with the sparsity pattern of B·Bᵀ where B
// is a random m×(colsPerRow·m) sparse constraint matrix with nzPerCol
// entries per column plus a small number of denser columns. This mimics the
// normal-equations matrices arising in interior-point LP solvers (the
// paper's 10FLEET matrix).
func NormalEq(m, nzPerCol, denseCols, denseLen int, seed uint64) *sparse.Matrix {
	r := newRNG(seed)
	ncols := 3 * m
	// Columns overlap, so many pairs repeat; assembly merges them. A pair
	// of equal rows lands on the diagonal, which the Laplacian overwrites.
	var edges []sparse.Triplet
	rowsBuf := make([]int, 0, denseLen)
	addClique := func(rows []int) {
		for a := 0; a < len(rows); a++ {
			for b := a + 1; b < len(rows); b++ {
				edges = append(edges, sparse.Triplet{Row: rows[a], Col: rows[b]})
			}
		}
	}
	for c := 0; c < ncols; c++ {
		rowsBuf = rowsBuf[:0]
		// Cluster the column's rows: pick a base row, then nearby rows.
		// Locality keeps fill realistic (pure uniform random rows would
		// make the factor nearly dense).
		base := r.intn(m)
		span := 2 + r.intn(m/50+2)
		for t := 0; t < nzPerCol; t++ {
			row := base + r.intn(2*span+1) - span
			if row < 0 {
				row = 0
			}
			if row >= m {
				row = m - 1
			}
			rowsBuf = append(rowsBuf, row)
		}
		addClique(rowsBuf)
	}
	for c := 0; c < denseCols; c++ {
		rowsBuf = rowsBuf[:0]
		for t := 0; t < denseLen; t++ {
			rowsBuf = append(rowsBuf, r.intn(m))
		}
		addClique(rowsBuf)
	}
	return laplacian(m, edges)
}

// Grid2D9 returns the 9-point Laplacian (plus identity) on a k×k grid:
// the 5-point stencil plus diagonal neighbours, a denser model problem
// whose factors have larger supernodes for the same n.
func Grid2D9(k int) *sparse.Matrix {
	n := k * k
	edges := make([]sparse.Triplet, 0, 4*k*(k-1))
	for x := 0; x < k; x++ {
		for y := 0; y < k; y++ {
			v := x*k + y
			if y+1 < k {
				edges = append(edges, sparse.Triplet{Row: v, Col: v + 1})
			}
			if x+1 < k {
				edges = append(edges, sparse.Triplet{Row: v, Col: v + k})
				if y+1 < k {
					edges = append(edges, sparse.Triplet{Row: v, Col: v + k + 1})
				}
				if y > 0 {
					edges = append(edges, sparse.Triplet{Row: v, Col: v + k - 1})
				}
			}
		}
	}
	return laplacian(n, edges)
}

// GridAniso returns an anisotropic 5-point operator on a k×k grid: x-edges
// carry weight −1 and y-edges −eps. Strong anisotropy (eps ≪ 1) produces
// the long, thin elimination structures that stress orderings.
func GridAniso(k int, eps float64) *sparse.Matrix {
	n := k * k
	var ts []sparse.Triplet
	diag := make([]float64, n)
	addEdge := func(a, b int, wgt float64) {
		ts = append(ts, sparse.Triplet{Row: b, Col: a, Val: -wgt})
		diag[a] += wgt
		diag[b] += wgt
	}
	for x := 0; x < k; x++ {
		for y := 0; y < k; y++ {
			v := x*k + y
			if y+1 < k {
				addEdge(v, v+1, eps)
			}
			if x+1 < k {
				addEdge(v, v+k, 1)
			}
		}
	}
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: diag[i] + 1})
	}
	m, err := sparse.FromTriplets(n, ts)
	if err != nil {
		panic(err) // construction is internally consistent
	}
	return m
}
