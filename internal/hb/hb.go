// Package hb reads and writes the Harwell-Boeing sparse matrix exchange
// format — the format the paper's benchmark matrices (BCSSTK15/29/31/33,
// from the Harwell-Boeing test set [Duff, Grimes & Lewis 1989]) were
// distributed in. Supported matrix types are RSA (real symmetric
// assembled) and PSA (pattern symmetric assembled); pattern files are
// assembled as diagonally dominant Laplacians (sparse.PatternLaplacian) so
// they stay positive definite, mirroring package mmio's convention. A
// position an RSA file stores twice has its values summed; in a PSA file
// it is one edge.
package hb

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"blockfanout/internal/sparse"
)

// fortranFormat is a parsed FORTRAN edit descriptor like (16I5), (5E16.8)
// or (1P4D20.13): count fields per line, each width characters wide.
type fortranFormat struct {
	count int
	width int
	kind  byte // 'I', 'E', 'F', 'D', 'G'
}

// parseFormat accepts the common Harwell-Boeing descriptor shapes:
// "(nIw)", "(nEw.d)", "(nFw.d)", "(nDw.d)", optionally with a leading
// scale factor like "1P" and surrounding blanks.
func parseFormat(s string) (fortranFormat, error) {
	var f fortranFormat
	t := strings.ToUpper(strings.TrimSpace(s))
	t = strings.TrimPrefix(t, "(")
	t = strings.TrimSuffix(t, ")")
	// Drop a scale factor prefix such as "1P" or "1P," if present.
	if i := strings.Index(t, "P"); i >= 0 && i <= 2 {
		if _, err := strconv.Atoi(strings.TrimSpace(t[:i])); err == nil {
			t = strings.TrimPrefix(t[i+1:], ",")
		}
	}
	t = strings.TrimSpace(t)
	// Now expect [count] kind width [. dec].
	i := 0
	for i < len(t) && t[i] >= '0' && t[i] <= '9' {
		i++
	}
	f.count = 1
	if i > 0 {
		c, err := strconv.Atoi(t[:i])
		if err != nil {
			return f, fmt.Errorf("hb: bad format %q", s)
		}
		f.count = c
	}
	if i >= len(t) {
		return f, fmt.Errorf("hb: bad format %q", s)
	}
	f.kind = t[i]
	switch f.kind {
	case 'I', 'E', 'F', 'D', 'G':
	default:
		return f, fmt.Errorf("hb: unsupported edit descriptor %q", s)
	}
	rest := t[i+1:]
	if j := strings.IndexByte(rest, '.'); j >= 0 {
		rest = rest[:j]
	}
	w, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil || w <= 0 {
		return f, fmt.Errorf("hb: bad field width in %q", s)
	}
	f.width = w
	return f, nil
}

// fieldReader yields fixed-width fields from card images (80-column
// lines), honouring a FORTRAN format's fields-per-line count.
type fieldReader struct {
	sc     *bufio.Scanner
	format fortranFormat
	line   string
	field  int // next field index within line
}

func (fr *fieldReader) next() (string, error) {
	if fr.field >= fr.format.count || fr.field*fr.format.width >= len(fr.line) {
		if !fr.sc.Scan() {
			return "", io.ErrUnexpectedEOF
		}
		fr.line = fr.sc.Text()
		fr.field = 0
	}
	lo := fr.field * fr.format.width
	hi := lo + fr.format.width
	if lo >= len(fr.line) {
		return "", fmt.Errorf("hb: short data line %q", fr.line)
	}
	if hi > len(fr.line) {
		hi = len(fr.line)
	}
	fr.field++
	return strings.TrimSpace(fr.line[lo:hi]), nil
}

func (fr *fieldReader) ints(n int) ([]int, error) {
	out := make([]int, n)
	for i := 0; i < n; i++ {
		s, err := fr.next()
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("hb: bad integer %q", s)
		}
		out[i] = v
	}
	return out, nil
}

func (fr *fieldReader) floats(n int) ([]float64, error) {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s, err := fr.next()
		if err != nil {
			return nil, err
		}
		// FORTRAN D exponents are not understood by strconv.
		s = strings.ReplaceAll(strings.ReplaceAll(s, "D", "E"), "d", "e")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("hb: bad value %q", s)
		}
		out[i] = v
	}
	return out, nil
}

// Read parses a Harwell-Boeing stream (RSA or PSA).
func Read(r io.Reader) (*sparse.Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	readLine := func() (string, error) {
		if !sc.Scan() {
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}

	if _, err := readLine(); err != nil { // title + key card
		return nil, fmt.Errorf("hb: missing header: %w", err)
	}
	counts, err := readLine()
	if err != nil {
		return nil, fmt.Errorf("hb: missing counts card: %w", err)
	}
	cf := strings.Fields(counts)
	if len(cf) < 4 {
		return nil, fmt.Errorf("hb: bad counts card %q", counts)
	}
	rhscrd := 0
	if len(cf) >= 5 {
		rhscrd, _ = strconv.Atoi(cf[4])
	}

	typeCard, err := readLine()
	if err != nil {
		return nil, fmt.Errorf("hb: missing type card: %w", err)
	}
	tf := strings.Fields(typeCard)
	if len(tf) < 4 {
		return nil, fmt.Errorf("hb: bad type card %q", typeCard)
	}
	mxtype := strings.ToUpper(tf[0])
	if mxtype != "RSA" && mxtype != "PSA" {
		return nil, fmt.Errorf("hb: unsupported matrix type %q (want RSA or PSA)", mxtype)
	}
	nrow, err1 := strconv.Atoi(tf[1])
	ncol, err2 := strconv.Atoi(tf[2])
	nnz, err3 := strconv.Atoi(tf[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("hb: bad dimensions on type card %q", typeCard)
	}
	if nrow != ncol {
		return nil, fmt.Errorf("hb: matrix is %d×%d, not square", nrow, ncol)
	}

	fmtCard, err := readLine()
	if err != nil {
		return nil, fmt.Errorf("hb: missing format card: %w", err)
	}
	ff := strings.Fields(fmtCard)
	if len(ff) < 2 {
		return nil, fmt.Errorf("hb: bad format card %q", fmtCard)
	}
	ptrFmt, err := parseFormat(ff[0])
	if err != nil {
		return nil, err
	}
	indFmt, err := parseFormat(ff[1])
	if err != nil {
		return nil, err
	}
	var valFmt fortranFormat
	if mxtype == "RSA" {
		if len(ff) < 3 {
			return nil, fmt.Errorf("hb: RSA matrix missing value format")
		}
		if valFmt, err = parseFormat(ff[2]); err != nil {
			return nil, err
		}
	}
	if rhscrd > 0 {
		if _, err := readLine(); err != nil { // RHS format card, ignored
			return nil, fmt.Errorf("hb: missing rhs format card: %w", err)
		}
	}

	fr := &fieldReader{sc: sc, format: ptrFmt, field: ptrFmt.count}
	colptr, err := fr.ints(ncol + 1)
	if err != nil {
		return nil, fmt.Errorf("hb: reading pointers: %w", err)
	}
	fr.format = indFmt
	fr.field = indFmt.count
	fr.line = ""
	rowind, err := fr.ints(nnz)
	if err != nil {
		return nil, fmt.Errorf("hb: reading indices: %w", err)
	}
	var vals []float64
	if mxtype == "RSA" {
		fr.format = valFmt
		fr.field = valFmt.count
		fr.line = ""
		if vals, err = fr.floats(nnz); err != nil {
			return nil, fmt.Errorf("hb: reading values: %w", err)
		}
	}

	// Assemble triplets (HB symmetric files store one triangle).
	var ts []sparse.Triplet
	for j := 0; j < ncol; j++ {
		lo, hi := colptr[j]-1, colptr[j+1]-1
		if lo < 0 || hi < lo || hi > nnz {
			return nil, fmt.Errorf("hb: bad column pointer range [%d,%d) for column %d", lo, hi, j+1)
		}
		for p := lo; p < hi; p++ {
			i := rowind[p] - 1
			if i < 0 || i >= nrow {
				return nil, fmt.Errorf("hb: row index %d out of range", rowind[p])
			}
			v := 1.0
			if vals != nil {
				v = vals[p]
			}
			ts = append(ts, sparse.Triplet{Row: i, Col: j, Val: v})
		}
	}
	m, err := sparse.FromTriplets(nrow, ts)
	if err != nil {
		return nil, err
	}
	if mxtype == "PSA" {
		sparse.PatternLaplacian(m)
	}
	return m, nil
}

// Write emits m as an RSA Harwell-Boeing file with the given title/key
// (both truncated/padded to the format's field widths).
func Write(w io.Writer, m *sparse.Matrix, title, key string) error {
	bw := bufio.NewWriter(w)
	const (
		ptrPerLine = 8
		ptrWidth   = 10
		indPerLine = 8
		indWidth   = 10
		valPerLine = 4
		valWidth   = 20
	)
	nnz := m.NNZ()
	lines := func(items, perLine int) int { return (items + perLine - 1) / perLine }
	ptrcrd := lines(m.N+1, ptrPerLine)
	indcrd := lines(nnz, indPerLine)
	valcrd := lines(nnz, valPerLine)
	totcrd := ptrcrd + indcrd + valcrd

	if len(title) > 72 {
		title = title[:72]
	}
	if len(key) > 8 {
		key = key[:8]
	}
	fmt.Fprintf(bw, "%-72s%-8s\n", title, key)
	fmt.Fprintf(bw, "%14d%14d%14d%14d%14d\n", totcrd, ptrcrd, indcrd, valcrd, 0)
	fmt.Fprintf(bw, "%-14s%14d%14d%14d%14d\n", "RSA", m.N, m.N, nnz, 0)
	fmt.Fprintf(bw, "%-16s%-16s%-20s%-20s\n", "(8I10)", "(8I10)", "(4E20.12)", "")

	writeInts := func(xs []int, plus int) {
		for i, x := range xs {
			fmt.Fprintf(bw, "%10d", x+plus)
			if (i+1)%ptrPerLine == 0 || i == len(xs)-1 {
				fmt.Fprintln(bw)
			}
		}
	}
	writeInts(m.ColPtr, 1)
	writeInts(m.RowInd, 1)
	for i, v := range m.Val {
		fmt.Fprintf(bw, "%20.12E", v)
		if (i+1)%valPerLine == 0 || i == len(m.Val)-1 {
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

// ReadFile reads a Harwell-Boeing file from disk.
func ReadFile(path string) (*sparse.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteFile writes m to disk in RSA Harwell-Boeing format.
func WriteFile(path string, m *sparse.Matrix, title, key string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, m, title, key); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
