package order

import (
	"testing"
	"testing/quick"

	"blockfanout/internal/etree"
	"blockfanout/internal/gen"
	"blockfanout/internal/sparse"
)

func TestIdentity(t *testing.T) {
	p := Identity(5)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, v := range p {
		if v != i {
			t.Fatalf("Identity[%d]=%d", i, v)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	if err := Permutation([]int{0, 0, 1}).Validate(); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := Permutation([]int{0, 3, 1}).Validate(); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestInverseCompose(t *testing.T) {
	p := Permutation([]int{2, 0, 3, 1})
	inv := p.Inverse()
	id := p.Compose(inv)
	// p[inv[new]] should be... verify p∘p⁻¹ on values: applying inv then p
	// must be identity in the appropriate sense: p[inv[old]] = old.
	for old := 0; old < 4; old++ {
		if p[inv[old]] != old {
			t.Fatalf("p[inv[%d]]=%d", old, p[inv[old]])
		}
	}
	_ = id
}

func TestApplyInverseRoundTrip(t *testing.T) {
	p := Permutation([]int{2, 0, 3, 1})
	x := []float64{10, 11, 12, 13}
	y := p.Apply(x)
	for newIdx := range y {
		if y[newIdx] != x[p[newIdx]] {
			t.Fatalf("Apply wrong at %d", newIdx)
		}
	}
	z := p.ApplyInverse(y)
	for i := range z {
		if z[i] != x[i] {
			t.Fatalf("round trip broken at %d", i)
		}
	}
}

func TestQuickComposeAssociativeWithApply(t *testing.T) {
	// Property: Apply(Compose(p,q), x) == Apply(p, Apply(q,... careful:
	// r = p.Compose(q) means r[new] = p[q[new]], so applying r to x
	// equals applying q to (p applied to x).
	f := func(seed uint8) bool {
		n := 4 + int(seed%5)
		mk := func(s int) Permutation {
			p := Identity(n)
			for i := n - 1; i > 0; i-- {
				j := (i*s + 1) % (i + 1)
				p[i], p[j] = p[j], p[i]
			}
			return p
		}
		p, q := mk(int(seed)+2), mk(int(seed)*3+5)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i * i)
		}
		r := p.Compose(q)
		if r.Validate() != nil {
			return false
		}
		lhs := r.Apply(x)
		rhs := q.Apply(p.Apply(x))
		for i := range lhs {
			if lhs[i] != rhs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// fillOf returns nnz(L) for matrix m under permutation p.
func fillOf(t *testing.T, m *sparse.Matrix, p Permutation) int64 {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid permutation: %v", err)
	}
	pm, err := m.Permute(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := etree.Build(pm)
	return etree.FactorStats(tr.ColCounts()).NZinL
}

func TestNestedDissection2D(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 12, 20} {
		p := NestedDissection2D(k)
		if len(p) != k*k {
			t.Fatalf("k=%d: len=%d", k, len(p))
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	// Fill must be much lower than the natural ordering on a real grid.
	k := 20
	m := gen.Grid2D(k)
	nat := fillOf(t, m, Identity(k*k))
	nd := fillOf(t, m, NestedDissection2D(k))
	if nd >= nat {
		t.Fatalf("ND fill %d not better than natural %d", nd, nat)
	}
}

func TestNestedDissection3D(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		p := NestedDissection3D(k)
		if len(p) != k*k*k {
			t.Fatalf("k=%d: len=%d", k, len(p))
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	k := 7
	m := gen.Cube3D(k)
	nat := fillOf(t, m, Identity(k*k*k))
	nd := fillOf(t, m, NestedDissection3D(k))
	if nd >= nat {
		t.Fatalf("ND fill %d not better than natural %d", nd, nat)
	}
}

func TestMinDegValidAndReducesFill(t *testing.T) {
	m := gen.IrregularMesh(400, 6, 3, 11)
	p := MinDeg(sparse.PatternOf(m))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	nat := fillOf(t, m, Identity(m.N))
	md := fillOf(t, m, p)
	if float64(md) > 0.8*float64(nat) {
		t.Fatalf("mindeg fill %d vs natural %d: insufficient reduction", md, nat)
	}
}

func TestMinDegOnGrid(t *testing.T) {
	k := 15
	m := gen.Grid2D(k)
	p := MinDeg(sparse.PatternOf(m))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	nat := fillOf(t, m, Identity(m.N))
	md := fillOf(t, m, p)
	if md >= nat {
		t.Fatalf("mindeg fill %d not better than natural %d on grid", md, nat)
	}
}

func TestMinDegDense(t *testing.T) {
	// Fully dense pattern: any elimination order gives the same fill;
	// MinDeg must terminate and produce a valid permutation.
	m := gen.Dense(24)
	p := MinDeg(sparse.PatternOf(m))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMinDegDisconnected(t *testing.T) {
	// Two disconnected paths plus isolated vertices.
	ts := []sparse.Triplet{}
	n := 12
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 4})
	}
	for i := 1; i < 5; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i - 1, Val: -1})
	}
	for i := 7; i < 10; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i - 1, Val: -1})
	}
	m, err := sparse.FromTriplets(n, ts)
	if err != nil {
		t.Fatal(err)
	}
	p := MinDeg(sparse.PatternOf(m))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMinDegEmpty(t *testing.T) {
	p := MinDeg(&sparse.Pattern{N: 0, ColPtr: []int{0}})
	if len(p) != 0 {
		t.Fatal("nonempty permutation for empty pattern")
	}
}

func TestGraphNDValid(t *testing.T) {
	for _, m := range []*sparse.Matrix{
		gen.Grid2D(12),
		gen.IrregularMesh(300, 5, 3, 3),
	} {
		p := GraphND(sparse.PatternOf(m))
		if len(p) != m.N {
			t.Fatalf("len=%d, want %d", len(p), m.N)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGraphNDReducesFillOnGrid(t *testing.T) {
	k := 20
	m := gen.Grid2D(k)
	nat := fillOf(t, m, Identity(k*k))
	nd := fillOf(t, m, GraphND(sparse.PatternOf(m)))
	if nd >= nat {
		t.Fatalf("graph ND fill %d not better than natural %d", nd, nat)
	}
}

func TestGraphNDDisconnected(t *testing.T) {
	// Three isolated vertices only.
	m, err := sparse.FromTriplets(3, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}, {Row: 2, Col: 2, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := GraphND(sparse.PatternOf(m))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeDispatch(t *testing.T) {
	m := gen.Grid2D(6)
	for _, method := range []Method{Natural, NDGrid2D, NDGraph, MinDegree} {
		p, err := Compute(method, m, 6)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
	}
	if _, err := Compute(NDGrid2D, m, 5); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := Compute(NDCube3D, m, 6); err == nil {
		t.Fatal("cube dimension mismatch accepted")
	}
	if _, err := Compute(Method(99), m, 0); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		Natural: "natural", NDGrid2D: "nd-grid2d", NDCube3D: "nd-cube3d",
		NDGraph: "nd-graph", MinDegree: "mindeg", Default: "default",
	} {
		if m.String() != want {
			t.Fatalf("%v", m)
		}
	}
}

// Property: MinDeg output is always a valid permutation for random meshes.
func TestQuickMinDegValid(t *testing.T) {
	f := func(seed uint16) bool {
		n := 50 + int(seed%100)
		m := gen.IrregularMesh(n, 3+int(seed%4), 3, uint64(seed)+1)
		p := MinDeg(sparse.PatternOf(m))
		return p.Validate() == nil && len(p) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridNDValidAndBetterThanPlainND(t *testing.T) {
	m := gen.IrregularMesh(800, 6, 3, 21)
	pat := sparse.PatternOf(m)
	ph := HybridND(pat)
	if err := ph.Validate(); err != nil {
		t.Fatal(err)
	}
	fillH := fillOf(t, m, ph)
	fillN := fillOf(t, m, GraphND(pat))
	if fillH >= fillN {
		t.Fatalf("hybrid fill %d not below plain graph ND %d", fillH, fillN)
	}
}

func TestHybridNDDisconnected(t *testing.T) {
	ts := []sparse.Triplet{}
	n := 500
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 4})
	}
	// Two disjoint chains longer than the leaf size.
	for i := 1; i < 240; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i - 1, Val: -1})
	}
	for i := 251; i < 500; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i - 1, Val: -1})
	}
	m, err := sparse.FromTriplets(n, ts)
	if err != nil {
		t.Fatal(err)
	}
	p := HybridND(sparse.PatternOf(m))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestThinSeparatorValidAndSmaller(t *testing.T) {
	// Directly exercise the separator-thinning pass: build a BFS level
	// split on a grid with a deliberately fat separator (two levels worth
	// of vertices in sep) and check validity of the thinned result.
	k := 12
	m := gen.Grid2D(k)
	pat := sparse.PatternOf(m)
	n := m.N
	active := make([]int, n)
	level := make([]int, n)
	gen1 := 1
	for v := 0; v < n; v++ {
		active[v] = gen1
		level[v] = v / k // row index as BFS level proxy
	}
	mid := k / 2
	var lo, hi, sep []int
	for v := 0; v < n; v++ {
		switch {
		case level[v] < mid:
			lo = append(lo, v)
		case level[v] > mid:
			hi = append(hi, v)
		default:
			sep = append(sep, v)
		}
	}
	nlo, nhi, nsep := thinSeparator(pat, lo, hi, sep, level, mid, active, gen1)
	if len(nlo)+len(nhi)+len(nsep) != n {
		t.Fatalf("vertices lost: %d+%d+%d != %d", len(nlo), len(nhi), len(nsep), n)
	}
	// Validity: no edge between nlo and nhi.
	side := make(map[int]int, n)
	for _, v := range nlo {
		side[v] = 1
	}
	for _, v := range nhi {
		side[v] = 2
	}
	for _, v := range nlo {
		for _, w := range pat.Adj(v) {
			if side[w] == 2 {
				t.Fatalf("edge (%d,%d) crosses thinned separator", v, w)
			}
		}
	}
	if len(nsep) > len(sep) {
		t.Fatalf("separator grew: %d > %d", len(nsep), len(sep))
	}
}

func TestMinDegApproxQuality(t *testing.T) {
	for _, seed := range []uint64{7, 19} {
		m := gen.IrregularMesh(500, 6, 3, seed)
		pat := sparse.PatternOf(m)
		exact := MinDeg(pat)
		approx := MinDegApprox(pat)
		if err := approx.Validate(); err != nil {
			t.Fatal(err)
		}
		fe := fillOf(t, m, exact)
		fa := fillOf(t, m, approx)
		// The approximate degree may lose some quality but must stay in
		// the same regime (AMD's classic behaviour).
		if float64(fa) > 1.6*float64(fe) {
			t.Fatalf("seed %d: approx fill %d vs exact %d", seed, fa, fe)
		}
		nat := fillOf(t, m, Identity(m.N))
		if fa >= nat {
			t.Fatalf("seed %d: approx fill %d not below natural %d", seed, fa, nat)
		}
	}
}

func TestMinDegApproxDenseAndEmpty(t *testing.T) {
	if p := MinDegApprox(sparse.PatternOf(gen.Dense(20))); p.Validate() != nil {
		t.Fatal("dense")
	}
	if p := MinDegApprox(&sparse.Pattern{N: 0, ColPtr: []int{0}}); len(p) != 0 {
		t.Fatal("empty")
	}
}

func TestDefaultResolvesToMinDegree(t *testing.T) {
	if Method(0) != Default || Default.Resolve() != MinDegree {
		t.Fatalf("zero Method resolves to %v", Method(0).Resolve())
	}
	for m := NDGrid2D; m <= Natural; m++ {
		if m.Resolve() != m {
			t.Fatalf("%v resolves to %v", m, m.Resolve())
		}
	}
	// Natural has its own number, and it fits the byte the cluster wire
	// carries.
	if Natural == Default || Natural != Method(uint8(Natural)) {
		t.Fatalf("Natural = %d", int(Natural))
	}
	m := gen.IrregularMesh(300, 6, 3, 5)
	def, err := Compute(Default, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	md, err := Compute(MinDegree, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range md {
		if def[i] != md[i] {
			t.Fatalf("Default ordering differs from MinDegree at %d", i)
		}
	}
	nat, err := Compute(Natural, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range nat {
		if v != i {
			t.Fatalf("Natural is not the identity at %d", i)
		}
	}
}
