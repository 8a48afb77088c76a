// Request body parsing for the solve service: symmetric SPD matrices
// arrive either as MatrixMarket text (the exchange format of the paper's
// benchmark suite) or as JSON-CSC (the wire-friendly form of
// sparse.Matrix), selected by Content-Type; solve requests arrive as JSON.
//
// Both JSON bodies are decoded by one byte-scanning decoder instead of
// encoding/json: the bodies are almost entirely numbers, and reflection
// cost more than the refactorization the numbers feed. The decoder checks
// the JSON grammar itself (strconv alone accepts "+1", ".5", "0x1p-2" and
// "NaN") and sizes every array from the bytes actually read, never from a
// field of the body.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"blockfanout/internal/core"
	"blockfanout/internal/mmio"
	"blockfanout/internal/sparse"
)

// ReadMatrix parses a factor-request body. contentType selects the codec:
// anything containing "json" is decoded as JSON-CSC; everything else is
// treated as MatrixMarket coordinate text. Exported so the cluster gateway
// accepts the same request bodies as the single-node service.
//
// JSON-CSC is one object with the keys "n" (dimension), "colptr",
// "rowind" and "val": the lower triangle, diagonal included, in
// compressed sparse column order, exactly mirroring sparse.Matrix. Any
// other key is an error that names it.
func ReadMatrix(body io.Reader, contentType string) (*sparse.Matrix, error) {
	mt := contentType
	if parsed, _, err := mime.ParseMediaType(contentType); err == nil {
		mt = parsed
	}
	var m *sparse.Matrix
	var err error
	if strings.Contains(mt, "json") {
		m, err = decodeBody(body, decodeCSC)
	} else {
		m, err = mmio.Read(body)
	}
	if err != nil {
		return nil, err
	}
	for i, v := range m.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("matrix value %d is not finite (%g)", i, v)
		}
	}
	return m, nil
}

var cscKeys = []string{"n", "colptr", "rowind", "val"}

func decodeCSC(b []byte) (*sparse.Matrix, error) {
	s := jsonScan{b: b}
	m := &sparse.Matrix{}
	err := s.object(cscKeys, func(k int) (err error) {
		switch k {
		case 0:
			if !s.null() {
				m.N, err = s.int()
			}
		case 1:
			m.ColPtr, err = array(&s, s.int)
		case 2:
			m.RowInd, err = array(&s, s.int)
		case 3:
			m.Val, err = array(&s, s.float)
		}
		return err
	}, func(key []byte) error {
		return s.errf("unknown field %q", key)
	})
	if err != nil {
		return nil, fmt.Errorf("bad JSON-CSC body: %w", err)
	}
	// Cheap shape checks before anything downstream sizes buffers from
	// the claimed dimension: n is attacker-controlled, the arrays are
	// backed by actual body bytes.
	if m.N < 0 || m.N > mmio.MaxDim {
		return nil, fmt.Errorf("JSON-CSC dimension %d out of range [0, %d]", m.N, mmio.MaxDim)
	}
	if len(m.ColPtr) != m.N+1 {
		return nil, fmt.Errorf("JSON-CSC colptr has %d entries, want n+1 = %d", len(m.ColPtr), m.N+1)
	}
	if len(m.RowInd) != len(m.Val) {
		return nil, fmt.Errorf("JSON-CSC rowind/val lengths differ: %d vs %d", len(m.RowInd), len(m.Val))
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// SolveRequest is a /v1/solve body: the factor id and either one
// right-hand side in B or several in BS. The tags give its JSON form.
type SolveRequest struct {
	ID string      `json:"id"`
	B  []float64   `json:"b,omitempty"`
	BS [][]float64 `json:"bs,omitempty"`
}

var solveKeys = []string{"id", "b", "bs"}

// ReadSolve parses a solve-request body. Unknown keys are skipped (their
// values must still be valid JSON); exactly one of "b" and "bs" must be
// set. Both front ends decode solves through it.
func ReadSolve(body io.Reader) (*SolveRequest, error) {
	return decodeBody(body, decodeSolve)
}

func decodeSolve(b []byte) (*SolveRequest, error) {
	s := jsonScan{b: b}
	q := &SolveRequest{}
	err := s.object(solveKeys, func(k int) (err error) {
		switch k {
		case 0:
			if !s.null() {
				q.ID, err = s.str()
			}
		case 1:
			q.B, err = array(&s, s.float)
		case 2:
			q.BS, err = array(&s, func() ([]float64, error) { return array(&s, s.float) })
		}
		return err
	}, func([]byte) error {
		return s.skip(1)
	})
	if err != nil {
		return nil, fmt.Errorf("bad solve body: %w", err)
	}
	if (q.B == nil) == (q.BS == nil) {
		return nil, errors.New(`exactly one of "b" and "bs" must be set`)
	}
	return q, nil
}

// Check validates the request's right-hand sides against the factor's
// dimension n (core.CheckRHS), so one malformed vector can never reach —
// and fail — the coalesced SolveMany call it would otherwise share with
// innocent requests.
func (q *SolveRequest) Check(n int) error {
	if q.B != nil {
		return core.CheckRHS(n, q.B)
	}
	for i, b := range q.BS {
		if err := core.CheckRHS(n, b); err != nil {
			return fmt.Errorf("rhs %d: %w", i, err)
		}
	}
	return nil
}

// bodyBufs recycles request-body buffers, so a parse allocates the same
// few objects whatever the body size. Buffers above maxPooledBody are
// left to the collector rather than pinned by one oversized request.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 8 << 20

// decodeBody reads the whole body into a pooled buffer and decodes it.
// Decoders must copy out anything they keep: the buffer is reused.
func decodeBody[T any](body io.Reader, decode func([]byte) (T, error)) (T, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(body); err != nil {
		var zero T
		return zero, fmt.Errorf("reading request body: %w", err)
	}
	return decode(buf.Bytes())
}

// maxDepth caps container nesting at encoding/json's limit, counting the
// body's own object as depth 1.
const maxDepth = 10000

// jsonScan is a cursor over one JSON body. It implements RFC 8259 for the
// two request bodies; error messages carry the byte offset.
type jsonScan struct {
	b []byte
	i int
}

func (s *jsonScan) errf(format string, args ...any) error {
	return fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), s.i)
}

func (s *jsonScan) unexpected(want string) error {
	if s.i >= len(s.b) {
		return s.errf("unexpected end of body, want %s", want)
	}
	return s.errf("unexpected %q, want %s", s.b[s.i], want)
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (s *jsonScan) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (s *jsonScan) expect(c byte) error {
	if s.peek() != c {
		return s.unexpected(strconv.QuoteRune(rune(c)))
	}
	s.i++
	return nil
}

// literal consumes word (true, false or null) if it comes next.
func (s *jsonScan) literal(word string) bool {
	if s.peek() == word[0] && bytes.HasPrefix(s.b[s.i:], []byte(word)) {
		s.i += len(word)
		return true
	}
	return false
}

func (s *jsonScan) null() bool { return s.literal("null") }

// object decodes the body: one object and nothing after it but
// whitespace. For a key in keys, value(k) decodes its value; any other
// key goes to unknown with the cursor on its value. Keys are matched
// byte for byte: an escaped key, a repeated key, or a key that differs
// from a known one only in case (which encoding/json would accept) is an
// error, so no spelling can silently set a field twice or by accident.
func (s *jsonScan) object(keys []string, value func(k int) error, unknown func(key []byte) error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	var seen uint64
	if s.peek() == '}' {
		s.i++
	} else {
		for {
			key, err := s.key()
			if err != nil {
				return err
			}
			if err := s.expect(':'); err != nil {
				return err
			}
			k := -1
			for i, name := range keys {
				if string(key) == name {
					k = i
					break
				}
				if bytes.EqualFold(key, []byte(name)) {
					return s.errf("key %q must be spelled %q", key, name)
				}
			}
			switch {
			case k < 0:
				err = unknown(key)
			case seen&(1<<k) != 0:
				return s.errf("duplicate key %q", key)
			default:
				seen |= 1 << k
				err = value(k)
			}
			if err != nil {
				return err
			}
			if c := s.peek(); c == '}' {
				s.i++
				break
			} else if c != ',' {
				return s.unexpected(`',' or '}'`)
			}
			s.i++
		}
	}
	if s.peek(); s.i < len(s.b) {
		return s.errf("trailing data after the body's object")
	}
	return nil
}

// key returns an object key's raw bytes, which must contain no escapes.
func (s *jsonScan) key() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], nil
		case c == '\\':
			return nil, s.errf("escaped object keys are not accepted")
		case c < ' ':
			return nil, s.errf("control character %q in string", c)
		}
	}
	return nil, s.unexpected(`'"'`)
}

// str decodes a string value as encoding/json does, including its
// replacement of invalid UTF-8 and unpaired surrogates with U+FFFD.
func (s *jsonScan) str() (string, error) {
	if err := s.expect('"'); err != nil {
		return "", err
	}
	var out []byte // nil until the string needs rewriting
	lit := s.i     // start of the pending verbatim run
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			end := s.i
			s.i++
			if out == nil {
				return string(s.b[lit:end]), nil
			}
			return string(append(out, s.b[lit:end]...)), nil
		case c < ' ':
			return "", s.errf("control character %q in string", c)
		case c == '\\':
			out = append(out, s.b[lit:s.i]...)
			r, err := s.escape()
			if err != nil {
				return "", err
			}
			out = utf8.AppendRune(out, r)
			lit = s.i
		case c < utf8.RuneSelf:
			s.i++
		default:
			r, size := utf8.DecodeRune(s.b[s.i:])
			if r == utf8.RuneError && size == 1 {
				out = append(out, s.b[lit:s.i]...)
				out = utf8.AppendRune(out, utf8.RuneError)
				lit = s.i + 1
			}
			s.i += size
		}
	}
	return "", s.unexpected(`'"'`)
}

// escape decodes one backslash escape, the cursor on its backslash.
func (s *jsonScan) escape() (rune, error) {
	if s.i+1 >= len(s.b) {
		s.i = len(s.b)
		return 0, s.unexpected("an escape")
	}
	s.i += 2
	switch c := s.b[s.i-1]; c {
	case '"', '\\', '/':
		return rune(c), nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case 'u':
		r, ok := hex4(s.b[s.i:])
		if !ok {
			return 0, s.errf(`bad \u escape`)
		}
		s.i += 4
		if !utf16.IsSurrogate(r) {
			return r, nil
		}
		// A surrogate pairs only with a directly following \u escape;
		// anything else leaves it unpaired.
		if len(s.b) >= s.i+6 && s.b[s.i] == '\\' && s.b[s.i+1] == 'u' {
			if r2, ok := hex4(s.b[s.i+2:]); ok {
				if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
					s.i += 6
					return dec, nil
				}
			}
		}
		return utf8.RuneError, nil
	}
	s.i--
	return 0, s.errf("bad escape")
}

func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// number scans one number per the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it
// is an integer literal (no fraction, no exponent).
func (s *jsonScan) number() (tok []byte, isInt bool, err error) {
	s.peek()
	b, start, i := s.b, s.i, s.i
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		s.i = i
		return nil, false, s.unexpected("a number")
	}
	isInt = true
	if i < len(b) && b[i] == '.' {
		i++
		isInt = false
		if !digits() {
			s.i = i
			return nil, false, s.unexpected("a digit")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		isInt = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			s.i = i
			return nil, false, s.unexpected("a digit")
		}
	}
	s.i = i
	return b[start:i], isInt, nil
}

func (s *jsonScan) int() (int, error) {
	tok, isInt, err := s.number()
	if err != nil {
		return 0, err
	}
	if !isInt {
		return 0, s.errf("number %s is not an integer", tok)
	}
	v, err := strconv.Atoi(string(tok))
	if err != nil {
		return 0, s.errf("integer %s out of range", tok)
	}
	return v, nil
}

func (s *jsonScan) float() (float64, error) {
	tok, _, err := s.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, s.errf("number %s out of range", tok)
	}
	return v, nil
}

// array decodes an array whose elements elem decodes, or null as nil.
// The result's capacity is counted from the array's own bytes.
func array[T any](s *jsonScan, elem func() (T, error)) ([]T, error) {
	if s.null() {
		return nil, nil
	}
	if err := s.expect('['); err != nil {
		return nil, err
	}
	out := make([]T, 0, s.lenHint())
	if s.peek() == ']' {
		s.i++
		return out, nil
	}
	for {
		v, err := elem()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if c := s.peek(); c == ']' {
			s.i++
			return out, nil
		} else if c != ',' {
			return nil, s.unexpected(`',' or ']'`)
		}
		s.i++
	}
}

// lenHint estimates the length of the array just entered: one more than
// the commas before the next bracket. Exact for an array of numbers; for
// anything else it only sizes the first allocation, and never beyond the
// bytes that are there.
func (s *jsonScan) lenHint() int {
	rest := s.b[s.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	if open := bytes.IndexByte(rest, '['); open >= 0 {
		rest = rest[:open]
	}
	return bytes.Count(rest, []byte{','}) + 1
}

// skip checks and passes over one value of any type; depth counts the
// containers around it.
func (s *jsonScan) skip(depth int) error {
	switch s.peek() {
	case '"':
		_, err := s.str()
		return err
	case '{', '[':
		if depth++; depth > maxDepth {
			return s.errf("nesting deeper than %d", maxDepth)
		}
		open := s.b[s.i]
		closer := byte(']')
		if open == '{' {
			closer = '}'
		}
		s.i++
		if s.peek() == closer {
			s.i++
			return nil
		}
		for {
			if open == '{' {
				if _, err := s.str(); err != nil {
					return err
				}
				if err := s.expect(':'); err != nil {
					return err
				}
			}
			if err := s.skip(depth); err != nil {
				return err
			}
			if c := s.peek(); c == closer {
				s.i++
				return nil
			} else if c != ',' {
				return s.unexpected(fmt.Sprintf("',' or %q", closer))
			}
			s.i++
		}
	}
	if s.literal("true") || s.literal("false") || s.null() {
		return nil
	}
	_, _, err := s.number()
	return err
}
