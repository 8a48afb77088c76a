package hb

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/sparse"
)

func TestParseFormat(t *testing.T) {
	cases := map[string]fortranFormat{
		"(16I5)":      {16, 5, 'I'},
		"(8I10)":      {8, 10, 'I'},
		"(5E16.8)":    {5, 16, 'E'},
		"(4E20.12)":   {4, 20, 'E'},
		"(1P4D20.13)": {4, 20, 'D'},
		"(10F8.2)":    {10, 8, 'F'},
		" (3E26.18) ": {3, 26, 'E'},
		"(I8)":        {1, 8, 'I'},
	}
	for in, want := range cases {
		got, err := parseFormat(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got != want {
			t.Fatalf("%q: got %+v, want %+v", in, got, want)
		}
	}
	for _, bad := range []string{"", "()", "(4X8)", "(E)", "(4E0.2)"} {
		if _, err := parseFormat(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for name, m := range map[string]*sparse.Matrix{
		"grid": gen.Grid2D(6),
		"mesh": gen.IrregularMesh(90, 4, 3, 5),
	} {
		var sb strings.Builder
		if err := Write(&sb, m, "test matrix "+name, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, sb.String()[:200])
		}
		if got.N != m.N || got.NNZ() != m.NNZ() {
			t.Fatalf("%s: shape %d/%d vs %d/%d", name, got.N, got.NNZ(), m.N, m.NNZ())
		}
		for j := 0; j < m.N; j++ {
			for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
				i := m.RowInd[p]
				if math.Abs(got.At(i, j)-m.Val[p]) > 1e-11*(1+math.Abs(m.Val[p])) {
					t.Fatalf("%s: entry (%d,%d): %g vs %g", name, i, j, got.At(i, j), m.Val[p])
				}
			}
		}
	}
}

// hand-written RSA file with classic narrow formats.
const tinyRSA = `TINY TEST MATRIX                                                        TINY
             3             1             1             1             0
RSA                         3             3             4             0
(4I4)           (4I4)           (4E16.8)
   1   3   4   5
   1   2   2   3
  4.00000000E+00 -1.00000000E+00  4.00000000E+00  4.00000000E+00
`

func TestReadHandWritten(t *testing.T) {
	m, err := Read(strings.NewReader(tinyRSA))
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 3 || m.NNZ() != 4 {
		t.Fatalf("n=%d nnz=%d", m.N, m.NNZ())
	}
	if m.At(0, 0) != 4 || m.At(1, 0) != -1 || m.At(2, 2) != 4 {
		t.Fatal("values wrong")
	}
}

const tinyPSA = `PATTERN MATRIX                                                          PAT
             3             1             1             0             0
PSA                         3             3             4             0
(4I4)           (4I4)
   1   3   4   5
   1   2   2   3
`

func TestReadPattern(t *testing.T) {
	m, err := Read(strings.NewReader(tinyPSA))
	if err != nil {
		t.Fatal(err)
	}
	// Edge (1,0): deg(0)=1, deg(1)=1 → diagonals 2, 2; vertex 2 isolated
	// → diagonal 1.
	if m.At(0, 0) != 2 || m.At(1, 1) != 2 || m.At(2, 2) != 1 {
		t.Fatalf("pattern diagonals: %g %g %g", m.At(0, 0), m.At(1, 1), m.At(2, 2))
	}
	if m.At(1, 0) != -1 {
		t.Fatal("pattern off-diagonal")
	}
}

func TestReadDExponent(t *testing.T) {
	in := strings.ReplaceAll(tinyRSA, "E+00", "D+00")
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 4 {
		t.Fatal("D exponent not handled")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"unsupported": strings.Replace(tinyRSA, "RSA", "CUA", 1),
		"not square":  strings.Replace(tinyRSA, "RSA                         3             3", "RSA                         3             4", 1),
		"truncated":   tinyRSA[:200],
		"bad index": strings.Replace(tinyRSA,
			"   1   2   2   3", "   1   9   2   3", 1),
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	m := gen.Grid2D(4)
	path := filepath.Join(t.TempDir(), "m.rsa")
	if err := WriteFile(path, m, "grid", "G4"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != m.NNZ() {
		t.Fatal("round trip nnz")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLongTitleTruncated(t *testing.T) {
	m := gen.Grid2D(3)
	var sb strings.Builder
	long := strings.Repeat("x", 100)
	if err := Write(&sb, m, long, long); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(sb.String(), "\n", 2)[0]
	if len(first) != 80 {
		t.Fatalf("header card %d columns, want 80", len(first))
	}
	if _, err := Read(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
}

// A PSA file that stores a position twice describes one edge: the pattern
// Laplacian counts distinct neighbours.
func TestReadPatternRepeatedPosition(t *testing.T) {
	const in = `PATTERN MATRIX                                                          PAT
             3             1             1             0             0
PSA                         2             2             4             0
(4I4)           (4I4)
   1   4   5
   1   2   2   2
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 2 || m.At(1, 1) != 2 || m.At(1, 0) != -1 {
		t.Fatalf("diagonals %g %g, off-diagonal %g; want 2 2 -1", m.At(0, 0), m.At(1, 1), m.At(1, 0))
	}
}
