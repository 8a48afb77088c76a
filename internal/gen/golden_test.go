package gen

import (
	"math"
	"testing"

	"blockfanout/internal/sparse"
)

// digest folds a matrix's pattern (PatternHash) and the bits of every
// value into one FNV-1a state.
func digest(m *sparse.Matrix) uint64 {
	h := m.PatternHash()
	for _, v := range m.Val {
		h = sparse.FNVMix(h, math.Float64bits(v))
	}
	return h
}

// TestDigestsGolden pins every CI-scale suite matrix, the generators the
// suites do not reach and the benchmark's own inputs, bit for bit: the
// pattern and the bits of every value. The digests were recorded from the
// earlier generators, which assembled through an edge map and a
// per-generator Laplacian.
func TestDigestsGolden(t *testing.T) {
	want := map[string]uint64{
		"10FLEET":                   0x88b4b09a1deafd9b,
		"BCSSTK15":                  0x5e3b7655671b64bc,
		"BCSSTK29":                  0xd97045048f39689f,
		"BCSSTK31":                  0x4bbc1843e6807a28,
		"BCSSTK33":                  0xdda23e8ec1fdd8ab,
		"COPTER2":                   0x4c36607ca905b2e9,
		"CUBE30":                    0x8fca112825eb1c62,
		"CUBE35":                    0xeb3eaab6e6dbe8f1,
		"CUBE40":                    0x5d2e79bbe7bcecec,
		"Cube3D(30)":                0xf0c3c1a227ef858e,
		"DENSE1024":                 0x699a7ee05d0a326,
		"DENSE2048":                 0x8f6774269ad0d81a,
		"DENSE4096":                 0xa1171ce924070268,
		"GRID150":                   0x79c434b92d0dffca,
		"GRID300":                   0x9495ba13603238ad,
		"Grid2D(1)":                 0xc918af7e3bbbfb78,
		"Grid2D9(9)":                0x6bc49b377bb800c,
		"GridAniso(8,0.01)":         0x36236eda56ccddc1,
		"IrregularMesh(1200,8,3,1)": 0xcae23a352806a038,
		"IrregularMesh(200,5,2,4)":  0x2874d3dfc2fd40c6,
		"NormalEq(300,4,3,20,7)":    0x696fe27f624709a2,
	}
	builds := map[string]func() *sparse.Matrix{
		"Cube3D(30)":                func() *sparse.Matrix { return Cube3D(30) },
		"Grid2D(1)":                 func() *sparse.Matrix { return Grid2D(1) },
		"Grid2D9(9)":                func() *sparse.Matrix { return Grid2D9(9) },
		"GridAniso(8,0.01)":         func() *sparse.Matrix { return GridAniso(8, 0.01) },
		"IrregularMesh(1200,8,3,1)": func() *sparse.Matrix { return IrregularMesh(1200, 8, 3, 1) },
		"IrregularMesh(200,5,2,4)":  func() *sparse.Matrix { return IrregularMesh(200, 5, 2, 4) },
		"NormalEq(300,4,3,20,7)":    func() *sparse.Matrix { return NormalEq(300, 4, 3, 20, 7) },
	}
	for _, suite := range [][]Problem{Table1Suite(ScaleCI), Table6Suite(ScaleCI)} {
		for _, p := range suite {
			builds[p.Name] = p.Build
		}
	}
	if len(builds) != len(want) {
		t.Fatalf("%d matrices, %d digests", len(builds), len(want))
	}
	for name, build := range builds {
		if got := digest(build()); got != want[name] {
			t.Errorf("%s: digest %#x, want %#x", name, got, want[name])
		}
	}
}
