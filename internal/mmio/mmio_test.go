package mmio

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/sparse"
)

func TestRoundTrip(t *testing.T) {
	for name, m := range map[string]*sparse.Matrix{
		"grid": gen.Grid2D(7),
		"mesh": gen.IrregularMesh(120, 4, 3, 3),
	} {
		var sb strings.Builder
		if err := Write(&sb, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.N != m.N || got.NNZ() != m.NNZ() {
			t.Fatalf("%s: shape changed: %d/%d vs %d/%d", name, got.N, got.NNZ(), m.N, m.NNZ())
		}
		for j := 0; j < m.N; j++ {
			for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
				i := m.RowInd[p]
				if got.At(i, j) != m.Val[p] {
					t.Fatalf("%s: entry (%d,%d) %g vs %g", name, i, j, got.At(i, j), m.Val[p])
				}
			}
		}
	}
}

func TestReadSymmetricUpperEntries(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 5
1 1 4.0
2 2 4.0
3 3 4.0
1 2 -1.5
1 3 -0.5
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != -1.5 || m.At(2, 0) != -0.5 {
		t.Fatalf("upper entries not mirrored: %g %g", m.At(1, 0), m.At(2, 0))
	}
}

func TestReadGeneralSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 4
1 1 2
2 2 3
1 2 -1
2 1 -1
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 2 || m.At(1, 1) != 3 || m.At(1, 0) != -1 {
		t.Fatal("general read wrong")
	}
}

func TestReadGeneralAsymmetricRejected(t *testing.T) {
	for _, in := range []string{
		// Mismatched values.
		"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 2\n1 2 -1\n2 1 -2\n",
		// Missing mirror entry.
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2\n1 2 -1\n",
		// Missing mirror entry, lower triangle.
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2\n2 1 -1\n",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("asymmetric general accepted: %q", in)
		}
	}
}

func TestReadPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
3 3 3
2 1
3 2
1 1
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Laplacian values: deg(0)=1 → diag 2; deg(1)=2 → diag 3.
	if m.At(0, 0) != 2 || m.At(1, 1) != 3 || m.At(2, 2) != 2 {
		t.Fatalf("pattern diagonal wrong: %g %g %g", m.At(0, 0), m.At(1, 1), m.At(2, 2))
	}
	if m.At(1, 0) != -1 {
		t.Fatal("pattern off-diagonal wrong")
	}
}

func TestReadInteger(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate integer symmetric\n2 2 3\n1 1 5\n2 2 5\n2 1 -2\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != -2 {
		t.Fatal("integer values wrong")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"no banner":    "3 3 1\n1 1 1\n",
		"array format": "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n",
		"complex":      "%%MatrixMarket matrix coordinate complex symmetric\n1 1 1\n1 1 1 0\n",
		"skew":         "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n",
		"not square":   "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1\n",
		"out of range": "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1\n",
		"short line":   "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1\n",
		"bad value":    "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 x\n",
		"truncated":    "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1\n",
		"duplicate":    "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1\n1 1 2\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	m := gen.Grid2D(5)
	path := filepath.Join(t.TempDir(), "grid.mtx")
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != m.NNZ() {
		t.Fatal("file round trip changed nnz")
	}
	x := make([]float64, m.N)
	for i := range x {
		x[i] = float64(i)
	}
	a, b := m.MulVec(x), got.MulVec(x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("file round trip changed values")
		}
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.mtx")); err == nil {
		t.Fatal("missing file accepted")
	}
}

var sinkMatrix *sparse.Matrix

// BenchmarkRead parses a symmetric real file the size of a service cold
// request: IrregularMesh(1200, 8, 3, 1), values at full precision.
func BenchmarkRead(b *testing.B) {
	var sb strings.Builder
	if err := Write(&sb, gen.IrregularMesh(1200, 8, 3, 1)); err != nil {
		b.Fatal(err)
	}
	body := sb.String()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Read(strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		sinkMatrix = m
	}
}

// A general file, like a symmetric one, must give each entry once; it
// used to keep the last copy silently.
func TestReadGeneralDuplicateRejected(t *testing.T) {
	for in, want := range map[string]string{
		"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 2\n1 1 3\n2 2 1\n":                  "mmio: duplicate entry (1,1)",
		"%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 2\n2 2 2\n1 2 -1\n2 1 -1\n1 2 -1\n": "mmio: duplicate entry (1,2)",
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2\n2 1 -1\n1 2 -1\n":              "mmio: duplicate entry (2,1)",
	} {
		_, err := Read(strings.NewReader(in))
		if err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", in, err, want)
		}
	}
}

// With several asymmetric entries, every read names the same one: the
// first in column order of the lower triangle.
func TestReadAsymmetricMessageStable(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n4 4 8\n" +
		"1 1 4\n2 2 4\n3 3 4\n4 4 4\n" +
		"4 3 -1\n3 4 -2\n" + // mismatched pair in column 3
		"1 4 -1\n" + // mirror (4,1) missing
		"3 1 -1\n" // mirror (1,3) missing
	want := "mmio: general matrix not symmetric at (3,1)"
	for i := 0; i < 20; i++ {
		_, err := Read(strings.NewReader(in))
		if err == nil || err.Error() != want {
			t.Fatalf("read %d: error %v, want %q", i, err, want)
		}
	}
}
