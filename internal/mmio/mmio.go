// Package mmio reads and writes symmetric sparse matrices in the NIST
// Matrix Market exchange format (the successor of the Harwell-Boeing format
// the paper's benchmark matrices were distributed in). Only what a Cholesky
// code needs is supported: real (or integer, widened to real) square
// matrices, symmetric or general coordinate form, plus pattern-only files
// which are assembled as diagonally dominant Laplacians so they remain
// positive definite.
//
// Every matrix entry must be given once. A repeated entry is an error in
// both file kinds (in a symmetric file (i,j) and (j,i) are the same entry),
// and so is a general file's off-diagonal entry without an equal mirror.
// Entries are checked in column order of the lower triangle, so the error
// names the first offending entry in that order, the same one on every
// read.
package mmio

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"blockfanout/internal/sparse"
)

// Parsing limits: the size line is attacker-controlled input, so both
// dimensions and the entry count are capped before anything is allocated
// from them. MaxDim bounds n; an entry count must also fit the matrix
// (nnz ≤ n²).
const (
	MaxDim = 1 << 27 // 134M rows is far beyond anything this code factors
	MaxNNZ = 1 << 31
)

// header is the parsed MatrixMarket banner.
type header struct {
	object   string // "matrix"
	format   string // "coordinate"
	field    string // "real" | "integer" | "pattern"
	symmetry string // "symmetric" | "general"
}

// Read parses a Matrix Market stream into a symmetric sparse matrix.
//
//   - "symmetric" files may list either triangle; entries are mirrored.
//   - "general" files must be structurally symmetric; each unordered pair
//     must carry equal values, or an error is returned.
//   - A repeated entry is an error in either kind (see the package doc).
//   - "pattern" files get Laplacian values (sparse.PatternLaplacian: diag
//     = degree+1, off-diag −1), preserving the structure while
//     guaranteeing positive definiteness.
func Read(r io.Reader) (*sparse.Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: empty input")
	}
	h, err := parseBanner(sc.Text())
	if err != nil {
		return nil, err
	}

	// Skip comments, read the size line.
	var n, m, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("mmio: missing size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &n, &m, &nnz); err != nil {
			return nil, fmt.Errorf("mmio: bad size line %q: %v", line, err)
		}
		break
	}
	if n != m {
		return nil, fmt.Errorf("mmio: matrix is %d×%d, not square", n, m)
	}
	if n < 0 || nnz < 0 {
		return nil, fmt.Errorf("mmio: negative size line %d %d %d", n, m, nnz)
	}
	if n > MaxDim {
		return nil, fmt.Errorf("mmio: dimension %d exceeds limit %d", n, MaxDim)
	}
	if int64(nnz) > MaxNNZ || uint64(nnz) > uint64(n)*uint64(n) {
		return nil, fmt.Errorf("mmio: entry count %d impossible for a %d×%d matrix", nnz, n, n)
	}
	// Downstream assembly allocates O(n); a size line claiming a huge n
	// with almost no entries would let a tiny request reserve it all. Any
	// usable matrix here carries its diagonal (pattern files at least
	// cover their nodes with edges), so large-n files must bring entries
	// in proportion — this bounds every allocation by the actual input
	// size, since each claimed entry must then really be parsed.
	if n > 4096 && nnz < n/2 {
		return nil, fmt.Errorf("mmio: %d entries cannot describe a usable %d×%d symmetric matrix", nnz, n, n)
	}

	// Size the entry list from the claimed entry count, but never
	// preallocate more than the input stream could plausibly back: a lying
	// size line must not be able to reserve gigabytes before the first
	// entry fails to parse.
	hint := nnz
	if hint > 1<<20 {
		hint = 1 << 20
	}
	ts := make([]sparse.Triplet, 0, hint)
	want := 3
	if h.field == "pattern" {
		want = 2
	}
	var fields [3][]byte
	for sc.Scan() && len(ts) < nnz {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		rest := line
		for k := 0; k < want; k++ {
			fields[k], rest = nextField(rest)
			if len(fields[k]) == 0 {
				return nil, fmt.Errorf("mmio: short entry line %q", line)
			}
		}
		i, err1 := strconv.Atoi(string(fields[0]))
		j, err2 := strconv.Atoi(string(fields[1]))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("mmio: bad indices in %q", line)
		}
		i--
		j-- // Matrix Market is 1-based
		if i < 0 || i >= n || j < 0 || j >= n {
			return nil, fmt.Errorf("mmio: entry (%d,%d) out of range", i+1, j+1)
		}
		v := 1.0
		if h.field != "pattern" {
			v, err = strconv.ParseFloat(string(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: bad value in %q", line)
			}
		}
		if h.symmetry == "symmetric" && i < j {
			i, j = j, i // either triangle names the same entry
		}
		ts = append(ts, sparse.Triplet{Row: i, Col: j, Val: v})
	}
	if len(ts) != nnz {
		return nil, fmt.Errorf("mmio: got %d of %d entries", len(ts), nnz)
	}
	ts, err = lowerTriangle(ts, h.symmetry == "general")
	if err != nil {
		return nil, err
	}
	a, err := sparse.FromTriplets(n, ts)
	if err != nil {
		return nil, err
	}
	if h.field == "pattern" {
		sparse.PatternLaplacian(a)
	}
	return a, nil
}

// lowerTriangle sorts the entries by lower-triangle position (column, then
// row; a general file's lower entry ahead of its mirror) and checks them in
// that order, so an error always names the first offending entry: a
// position given twice, or in a general file an off-diagonal entry whose
// mirror is missing or carries another value. It returns the lower
// triangle, one entry per position, in the entries' storage.
func lowerTriangle(ts []sparse.Triplet, general bool) ([]sparse.Triplet, error) {
	lower := func(t sparse.Triplet) (c, r int) { return min(t.Row, t.Col), max(t.Row, t.Col) }
	upper := func(t sparse.Triplet) int {
		if t.Row < t.Col {
			return 1
		}
		return 0
	}
	slices.SortFunc(ts, func(a, b sparse.Triplet) int {
		ac, ar := lower(a)
		bc, br := lower(b)
		return cmp.Or(cmp.Compare(ac, bc), cmp.Compare(ar, br), cmp.Compare(upper(a), upper(b)))
	})
	out := ts[:0]
	for k := 0; k < len(ts); {
		t := ts[k]
		c, r := lower(t)
		g := k + 1
		for ; g < len(ts); g++ {
			if gc, gr := lower(ts[g]); gc != c || gr != r {
				break
			}
			if ts[g].Row == ts[g-1].Row {
				return nil, fmt.Errorf("mmio: duplicate entry (%d,%d)", ts[g].Row+1, ts[g].Col+1)
			}
		}
		// A group now holds at most one entry per triangle.
		if general && r != c && (g-k != 2 || ts[k].Val != ts[k+1].Val) {
			return nil, fmt.Errorf("mmio: general matrix not symmetric at (%d,%d)", t.Row+1, t.Col+1)
		}
		out = append(out, sparse.Triplet{Row: r, Col: c, Val: t.Val})
		k = g
	}
	return out, nil
}

// nextField splits the first field off line, with strings.Fields' notion
// of white space but without allocating.
func nextField(line []byte) (field, rest []byte) {
	line = bytes.TrimLeftFunc(line, unicode.IsSpace)
	if end := bytes.IndexFunc(line, unicode.IsSpace); end >= 0 {
		return line[:end], line[end:]
	}
	return line, nil
}

func parseBanner(line string) (header, error) {
	var h header
	if !strings.HasPrefix(line, "%%MatrixMarket") {
		return h, fmt.Errorf("mmio: missing MatrixMarket banner")
	}
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) < 5 {
		return h, fmt.Errorf("mmio: short banner %q", line)
	}
	h.object, h.format, h.field, h.symmetry = fields[1], fields[2], fields[3], fields[4]
	if h.object != "matrix" {
		return h, fmt.Errorf("mmio: unsupported object %q", h.object)
	}
	if h.format != "coordinate" {
		return h, fmt.Errorf("mmio: unsupported format %q (only coordinate)", h.format)
	}
	switch h.field {
	case "real", "integer", "pattern":
	default:
		return h, fmt.Errorf("mmio: unsupported field %q", h.field)
	}
	switch h.symmetry {
	case "symmetric", "general":
	default:
		return h, fmt.Errorf("mmio: unsupported symmetry %q", h.symmetry)
	}
	return h, nil
}

// Write emits the lower triangle of m in coordinate real symmetric form.
func Write(w io.Writer, m *sparse.Matrix) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real symmetric")
	fmt.Fprintf(bw, "%d %d %d\n", m.N, m.N, m.NNZ())
	for j := 0; j < m.N; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			fmt.Fprintf(bw, "%d %d %.17g\n", m.RowInd[p]+1, j+1, m.Val[p])
		}
	}
	return bw.Flush()
}

// ReadFile reads a Matrix Market file from disk.
func ReadFile(path string) (*sparse.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteFile writes m to disk in Matrix Market format.
func WriteFile(path string, m *sparse.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
