package hb

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
	if err := Write(&sb, m, "golden", "G"); err != nil {
		panic(err)
	}
	return sb.String()
}

// A pattern file storing its upper triangle, with column 1 empty and one
// explicit diagonal entry, (3,3).
const upperPSA = `UPPER PATTERN                                                           UP
             3             1             1             0             0
PSA                         4             4             4             0
(5I4)           (4I4)
   1   1   2   4   5
   1   2   3   3
`

// TestReadDigestsGolden pins what Read assembles from every accepted
// fixture, bit for bit: the pattern and the bits of every value, as
// recorded before the pattern Laplacian had one shared rule.
func TestReadDigestsGolden(t *testing.T) {
	for _, c := range []struct {
		name, in string
		want     uint64
	}{
		{"tinyRSA", tinyRSA, 0xf6d779d737b114ac},
		{"tinyPSA", tinyPSA, 0x373f029a3b68a1c1},
		{"tinyRSA-D", strings.ReplaceAll(tinyRSA, "E+00", "D+00"), 0xf6d779d737b114ac},
		{"upperPSA", upperPSA, 0x7995a6476e859ed7},
		{"grid", written(gen.Grid2D(6)), 0x6cc62d29e41653c7},
		{"mesh", written(gen.IrregularMesh(90, 4, 3, 5)), 0x795729c0a5d3c652},
		{"aniso", written(gen.GridAniso(5, 0.1)), 0x19488b48f47a9135},
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
