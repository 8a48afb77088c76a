// Package order provides fill-reducing orderings for symmetric sparse
// matrices: natural (identity), geometric nested dissection for 2-D grids
// and 3-D cubes (the paper's ordering for the regular model problems),
// general-graph nested dissection, and a quotient-graph minimum-degree
// ordering with mass elimination (the paper's ordering family — multiple
// minimum degree — for the irregular problems).
package order

import (
	"fmt"

	"blockfanout/internal/sparse"
)

// Permutation maps new indices to old: perm[new] = old. Applying it to a
// matrix A yields B with B(i,j) = A(perm[i], perm[j]).
type Permutation []int

// Identity returns the natural ordering of size n.
func Identity(n int) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Validate reports whether p is a permutation of 0..n-1.
func (p Permutation) Validate() error {
	seen := make([]bool, len(p))
	for pos, v := range p {
		if v < 0 || v >= len(p) {
			return fmt.Errorf("order: value %d out of range at position %d", v, pos)
		}
		if seen[v] {
			return fmt.Errorf("order: duplicate value %d at position %d", v, pos)
		}
		seen[v] = true
	}
	return nil
}

// Inverse returns q with q[old] = new.
func (p Permutation) Inverse() Permutation {
	q := make(Permutation, len(p))
	for newIdx, old := range p {
		q[old] = newIdx
	}
	return q
}

// Compose returns the permutation equivalent to applying p first and then
// q to the result: r[new] = p[q[new]].
func (p Permutation) Compose(q Permutation) Permutation {
	r := make(Permutation, len(p))
	for i := range r {
		r[i] = p[q[i]]
	}
	return r
}

// Apply permutes x (indexed by old labels) into a new slice indexed by new
// labels: out[new] = x[perm[new]].
func (p Permutation) Apply(x []float64) []float64 {
	out := make([]float64, len(p))
	for i, old := range p {
		out[i] = x[old]
	}
	return out
}

// ApplyInverse scatters x (indexed by new labels) back to old labels:
// out[perm[new]] = x[new].
func (p Permutation) ApplyInverse(x []float64) []float64 {
	out := make([]float64, len(p))
	for i, old := range p {
		out[old] = x[i]
	}
	return out
}

// Method identifies an ordering algorithm.
//
// The zero Method is Default, which Compute (and every ConfigKey built on
// Resolve) treats as MinDegree — the paper's ordering family for general
// sparse matrices — so zero-valued options anywhere in the library order
// with minimum degree. The identity ordering must be asked for explicitly
// with Natural. Method numbers are persisted inside plan-cache and
// snapshot keys, so none may ever be renumbered; Natural's is non-zero
// because keys that mixed a zero for the identity ordering exist on disk
// and must never name another ordering. All values fit in a byte, the
// width the cluster wire carries.
type Method int

const (
	Default Method = iota // resolved to MinDegree
	NDGrid2D
	NDCube3D
	NDGraph
	MinDegree
	CuthillMcKee    // reverse Cuthill–McKee (bandwidth/profile baseline)
	NDHybrid        // graph nested dissection with minimum-degree leaves
	MinDegreeApprox // minimum degree with AMD-style approximate degrees
	Natural         // identity ordering (dense matrices)
)

// Resolve returns the method Compute runs for m: MinDegree for Default,
// m itself otherwise.
func (m Method) Resolve() Method {
	if m == Default {
		return MinDegree
	}
	return m
}

func (m Method) String() string {
	switch m {
	case Default:
		return "default"
	case Natural:
		return "natural"
	case NDGrid2D:
		return "nd-grid2d"
	case NDCube3D:
		return "nd-cube3d"
	case NDGraph:
		return "nd-graph"
	case MinDegree:
		return "mindeg"
	case CuthillMcKee:
		return "rcm"
	case NDHybrid:
		return "nd-hybrid"
	case MinDegreeApprox:
		return "amd"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Compute runs the requested ordering (Default runs MinDegree). gridDim
// is required for the geometric methods (the grid side length k) and
// ignored otherwise.
func Compute(m Method, a *sparse.Matrix, gridDim int) (Permutation, error) {
	switch m.Resolve() {
	case Natural:
		return Identity(a.N), nil
	case NDGrid2D:
		if gridDim*gridDim != a.N {
			return nil, fmt.Errorf("order: NDGrid2D dim %d² != n=%d", gridDim, a.N)
		}
		return NestedDissection2D(gridDim), nil
	case NDCube3D:
		if gridDim*gridDim*gridDim != a.N {
			return nil, fmt.Errorf("order: NDCube3D dim %d³ != n=%d", gridDim, a.N)
		}
		return NestedDissection3D(gridDim), nil
	case NDGraph:
		return GraphND(sparse.PatternOf(a)), nil
	case MinDegree:
		return MinDeg(sparse.PatternOf(a)), nil
	case CuthillMcKee:
		return RCM(sparse.PatternOf(a)), nil
	case NDHybrid:
		return HybridND(sparse.PatternOf(a)), nil
	case MinDegreeApprox:
		return MinDegApprox(sparse.PatternOf(a)), nil
	}
	return nil, fmt.Errorf("order: unknown method %v", m)
}
