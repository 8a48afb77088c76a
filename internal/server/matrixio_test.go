package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"blockfanout/internal/gen"
	"blockfanout/internal/mmio"
	"blockfanout/internal/sparse"
)

// jsonCSC is the JSON-CSC body as encoding/json sees it. Tests encode
// request bodies with it, and the reference decoder below decodes into it.
type jsonCSC struct {
	N      int       `json:"n"`
	ColPtr []int     `json:"colptr"`
	RowInd []int     `json:"rowind"`
	Val    []float64 `json:"val"`
}

// referenceReadMatrix is the encoding/json JSON-CSC path the byte-scanning
// decoder replaced, kept as the oracle of the differential fuzz targets.
func referenceReadMatrix(body []byte) (*sparse.Matrix, error) {
	var c jsonCSC
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, err
	}
	if c.N < 0 || c.N > mmio.MaxDim || len(c.ColPtr) != c.N+1 || len(c.RowInd) != len(c.Val) {
		return nil, errors.New("bad shape")
	}
	m := &sparse.Matrix{N: c.N, ColPtr: c.ColPtr, RowInd: c.RowInd, Val: c.Val}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	for _, v := range m.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("not finite")
		}
	}
	return m, nil
}

// referenceReadSolve is the encoding/json solve-body path ReadSolve
// replaced, with the handler's "exactly one of b and bs" rule.
func referenceReadSolve(body []byte) (*SolveRequest, error) {
	var q SolveRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&q); err != nil {
		return nil, err
	}
	if (q.B == nil) == (q.BS == nil) {
		return nil, errors.New("exactly one of b and bs")
	}
	return &q, nil
}

// plainBody reports whether body lies in the subset of JSON on which the
// decoder promises to accept whatever encoding/json accepts: one object
// whose keys are unescaped, distinct, and either spelled exactly as a
// known key or (when unknownOK) unlike any known key even ignoring case;
// with nothing but whitespace after it; whose known keys hold null or
// what their kind allows. Outside it the decoder deliberately rejects
// bodies encoding/json accepts: escaped, repeated or case-variant keys,
// null array elements, and trailing bytes after the object.
func plainBody(body []byte, kinds map[string]string, unknownOK bool) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := map[string]bool{}
	for dec.More() {
		off := dec.InputOffset()
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key := tok.(string)
		raw := bytes.TrimLeft(body[off:dec.InputOffset()], " \t\r\n,")
		if string(raw) != `"`+key+`"` || bytes.IndexByte(raw, '\\') >= 0 || seen[key] {
			return false
		}
		seen[key] = true
		var v any
		if err := dec.Decode(&v); err != nil {
			return false
		}
		kind, known := kinds[key]
		if !known {
			for k := range kinds {
				if strings.EqualFold(k, key) {
					return false
				}
			}
			if !unknownOK {
				return false
			}
			continue
		}
		if v != nil && !plainValue(v, kind) {
			return false
		}
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') {
		return false
	}
	return len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) == 0
}

// plainValue checks a non-null value against its kind: "number",
// "string", "numbers" (an array of numbers) or "vectors" (an array of
// null or arrays of numbers).
func plainValue(v any, kind string) bool {
	switch kind {
	case "number":
		_, ok := v.(json.Number)
		return ok
	case "string":
		_, ok := v.(string)
		return ok
	}
	arr, ok := v.([]any)
	if !ok {
		return false
	}
	for _, e := range arr {
		if kind == "vectors" {
			if e != nil && !plainValue(e, "numbers") {
				return false
			}
		} else if _, ok := e.(json.Number); !ok {
			return false
		}
	}
	return true
}

var (
	cscKinds   = map[string]string{"n": "number", "colptr": "numbers", "rowind": "numbers", "val": "numbers"}
	solveKinds = map[string]string{"id": "string", "b": "numbers", "bs": "vectors"}
)

// sameInts and sameFloats compare element by element and nil-ness, floats
// by bit pattern so -0 and 0 differ.
func sameInts(a, b []int) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestReadMatrixNumberGrammar(t *testing.T) {
	body := func(v string) string {
		return `{"n":1,"colptr":[0,1],"rowind":[0],"val":[` + v + `]}`
	}
	for _, v := range []string{"+1", ".5", "01", "-01", "1.", "1e", "1e+", "0x1p-2", "Inf", "-Inf", "NaN", "1e999", "-", "--1", "1_0", "null", `"1"`} {
		if _, err := ReadMatrix(strings.NewReader(body(v)), "application/json"); err == nil {
			t.Errorf("value %s accepted", v)
		}
	}
	for v, want := range map[string]float64{"-0": math.Copysign(0, -1), "0.5": 0.5, "1E2": 100, "2e-1": 0.2, "-1.25e+1": -12.5, "1e-999": 0} {
		m, err := ReadMatrix(strings.NewReader(body(v)), "application/json")
		if err != nil {
			t.Errorf("value %s rejected: %v", v, err)
		} else if math.Float64bits(m.Val[0]) != math.Float64bits(want) {
			t.Errorf("value %s decoded as %g, want %g", v, m.Val[0], want)
		}
	}
	for _, n := range []string{"1.0", "1e0", "99999999999999999999"} {
		if _, err := ReadMatrix(strings.NewReader(`{"n":`+n+`,"colptr":[0,1],"rowind":[0],"val":[1]}`), "application/json"); err == nil {
			t.Errorf("dimension %s accepted", n)
		}
	}
}

func TestReadSolveBodies(t *testing.T) {
	for body, want := range map[string]string{
		`{"id":"a","b":[1,2]}`: "",
		`{"b":[1],"id":"a","extra":{"x":[1,{"y":null}],"z":"é"}}`: "",
		`{"id":null,"bs":[[1],null]}`:                             "",
		`{"id":"a"}`:                                              "exactly one",
		`{"id":"a","b":[1],"bs":[[1]]}`:                           "exactly one",
		`{"id":"a","b":[1],"extra":[1,]}`:                         "bad solve body",
		`{"id":"a","b":[1],"extra":tru}`:                          "bad solve body",
		`{"id":"a","B":[1]}`:                                      `must be spelled "b"`,
		`{"id":"a","b":[1],"b":[2]}`:                              "duplicate",
		`{"\u0069d":"a","b":[1]}`:                                 "escaped",
		`{"id":"a","b":[1]} {}`:                                   "trailing",
		`{"id":"a","b":[1,null]}`:                                 "bad solve body",
		`{"id":7,"b":[1]}`:                                        "bad solve body",
		`{"id":"a","extra":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `,"b":[1]}`: "nesting",
	} {
		_, err := ReadSolve(strings.NewReader(body))
		if want == "" && err != nil {
			t.Errorf("%.60s: %v", body, err)
		}
		if want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("%.60s: error %v, want one mentioning %q", body, err, want)
		}
	}
	// One level shallower than the cap is accepted, as encoding/json does.
	deep := `{"id":"a","b":[1],"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`
	if _, err := ReadSolve(strings.NewReader(deep)); err != nil {
		t.Errorf("nesting at the cap: %v", err)
	}
	if _, err := referenceReadSolve([]byte(deep)); err != nil {
		t.Errorf("reference rejects nesting at the cap: %v", err)
	}
}

// meshBody is a JSON-CSC body of IrregularMesh(n, 8, 3, 8) carrying
// full-precision values, the shape of the service's refactor requests.
func meshBody(tb testing.TB, n int) []byte {
	tb.Helper()
	m := gen.IrregularMesh(n, 8, 3, 8)
	r := rand.New(rand.NewSource(1))
	val := make([]float64, len(m.Val))
	for i, v := range m.Val {
		val[i] = v * (0.5 + r.Float64())
	}
	body, err := json.Marshal(jsonCSC{N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: val})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestReadMatrixAllocsFlat: the decoder sizes each array once from the
// bytes it is about to parse and reads into a recycled buffer, so its
// allocation count does not grow with the body.
func TestReadMatrixAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	allocs := func(n int) float64 {
		body := meshBody(t, n)
		var err error
		a := testing.AllocsPerRun(20, func() {
			_, err = ReadMatrix(bytes.NewReader(body), "application/json")
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	small, large := allocs(500), allocs(4000)
	t.Logf("allocs/op: %v at n=500, %v at n=4000", small, large)
	if large > small+2 {
		t.Fatalf("allocations grow with nnz: %v at n=500, %v at n=4000", small, large)
	}
}

// raceEnabled is set by race_on_test.go under the race detector.
var raceEnabled bool

var (
	sinkMatrix *sparse.Matrix
	sinkSolve  *SolveRequest
)

func BenchmarkReadMatrixJSON(b *testing.B) {
	body := meshBody(b, 2000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := ReadMatrix(bytes.NewReader(body), "application/json")
		if err != nil {
			b.Fatal(err)
		}
		sinkMatrix = m
	}
}

func BenchmarkReadSolve(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	rhs := make([]float64, 2000)
	for i := range rhs {
		rhs[i] = 2*r.Float64() - 1
	}
	body, err := json.Marshal(SolveRequest{ID: fmt.Sprintf("%016x", r.Uint64()), B: rhs})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := ReadSolve(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		sinkSolve = q
	}
}
