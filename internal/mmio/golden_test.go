package mmio

import (
	"math"
	"strings"
	"testing"

	"blockfanout/internal/gen"
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

func written(m *sparse.Matrix) string {
	var sb strings.Builder
	if err := Write(&sb, m); err != nil {
		panic(err)
	}
	return sb.String()
}

// TestReadDigestsGolden pins what Read assembles from every accepted
// fixture, bit for bit: the pattern and the bits of every value, as
// recorded before the parser stopped assembling through hash maps.
func TestReadDigestsGolden(t *testing.T) {
	for _, c := range []struct {
		name, in string
		want     uint64
	}{
		{"symmetric-upper", "%%MatrixMarket matrix coordinate real symmetric\n% a comment\n3 3 5\n1 1 4.0\n2 2 4.0\n3 3 4.0\n1 2 -1.5\n1 3 -0.5\n", 0x5f37acf4079f8ccc},
		{"general", "%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 2\n2 2 3\n1 2 -1\n2 1 -1\n", 0x47db1ece6ee8696f},
		{"general-unordered", "%%MatrixMarket matrix coordinate real general\n3 3 7\n3 2 0.25\n1 1 5\n2 1 -1\n3 3 6\n1 2 -1\n2 3 0.25\n2 2 7\n", 0xc0d06a66ba29c4a5},
		{"pattern", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 2\n1 1\n", 0x496421c92ac906d},
		{"pattern-general", "%%MatrixMarket matrix coordinate pattern general\n4 4 6\n2 1\n1 2\n3 2\n2 3\n4 1\n1 4\n", 0xf4ed946ebaf73c37},
		{"pattern-upper-no-diag", "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 3\n1 2\n1 3\n3 4\n", 0xe1095b684a8e38f6},
		{"integer", "%%MatrixMarket matrix coordinate integer symmetric\n2 2 3\n1 1 5\n2 2 5\n2 1 -2\n", 0x114657837275d9a6},
		{"integer-comment", "%%MatrixMarket matrix coordinate integer symmetric\n% comment\n\n2 2 2\n1 1 9\n2 2 9\n", 0xe31f2ff6ad31db05},
		{"general-1x1", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n", 0xc918af7e3bbbfb78},
		{"missing-diagonal", "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 2\n3 1 -1\n", 0x132c11888c1a3c9b},
		{"negative-zero", "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 -0\n2 2 1\n1 2 -0.0\n", 0xb9240cbcbfde297},
		{"grid", written(gen.Grid2D(7)), 0x2ed801150f799d91},
		{"mesh", written(gen.IrregularMesh(120, 4, 3, 3)), 0x470bfb17cce66bc8},
		{"aniso", written(gen.GridAniso(6, 0.1)), 0x92052d20e2344203},
	} {
		m, err := Read(strings.NewReader(c.in))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := digest(m); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
