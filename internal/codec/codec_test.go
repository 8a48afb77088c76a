package codec

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// f64bits compares floats by their bits, so NaN payloads and signed zeros
// count as round-tripped only when every bit survived.
func f64bits(v []float64) []uint64 {
	b := make([]uint64, len(v))
	for i, x := range v {
		b[i] = math.Float64bits(x)
	}
	return b
}

// TestCodec drives the shared decoder through its three contracts: every
// primitive round-trips (and fails with ErrTruncated when cut short),
// Count rejects an element count the remaining bytes cannot hold, and
// Done rejects trailing bytes.
func TestCodec(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1), nan, math.SmallestNonzeroFloat64}
	for _, tc := range []struct {
		name string
		enc  func(*Enc)
		dec  func(*Dec) any
		want any
	}{
		{"u8", func(e *Enc) { e.U8(0xab) }, func(d *Dec) any { return d.U8() }, uint8(0xab)},
		{"u16", func(e *Enc) { e.U16(0xbeef) }, func(d *Dec) any { return d.U16() }, uint16(0xbeef)},
		{"u32", func(e *Enc) { e.U32(0xdeadbeef) }, func(d *Dec) any { return d.U32() }, uint32(0xdeadbeef)},
		{"u64", func(e *Enc) { e.U64(1<<63 | 7) }, func(d *Dec) any { return d.U64() }, uint64(1<<63 | 7)},
		{"f64 nan", func(e *Enc) { e.F64(nan) }, func(d *Dec) any { return math.Float64bits(d.F64()) }, math.Float64bits(nan)},
		{"f64 +inf", func(e *Enc) { e.F64(math.Inf(1)) }, func(d *Dec) any { return d.F64() }, math.Inf(1)},
		{"f64 -inf", func(e *Enc) { e.F64(math.Inf(-1)) }, func(d *Dec) any { return d.F64() }, math.Inf(-1)},
		{"bool", func(e *Enc) { e.Bool(true); e.Bool(false) }, func(d *Dec) any { return [2]bool{d.Bool(), d.Bool()} }, [2]bool{true, false}},
		{"str", func(e *Enc) { e.Str("héllo") }, func(d *Dec) any { return d.Str() }, "héllo"},
		{"str empty", func(e *Enc) { e.Str("") }, func(d *Dec) any { return d.Str() }, ""},
		{"u16s", func(e *Enc) { e.U16s([]uint16{1, 0xffff}) }, func(d *Dec) any { return d.U16s() }, []uint16{1, 0xffff}},
		{"u32s", func(e *Enc) { e.U32s([]uint32{0, 1 << 31}) }, func(d *Dec) any { return d.U32s() }, []uint32{0, 1 << 31}},
		{"ints", func(e *Enc) { e.Ints([]int{-1, 0, math.MaxInt32}) }, func(d *Dec) any { return d.Ints() }, []int{-1, 0, math.MaxInt32}},
		{"f64s", func(e *Enc) { e.F64s(floats) }, func(d *Dec) any { return f64bits(d.F64s()) }, f64bits(floats)},
		{"empty slice decodes nil", func(e *Enc) { e.F64s([]float64{}) }, func(d *Dec) any { return d.F64s() }, []float64(nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e Enc
			tc.enc(&e)
			d := Dec{B: e.B}
			if got := tc.dec(&d); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("round trip: got %v, want %v", got, tc.want)
			}
			if err := d.Done(); err != nil {
				t.Errorf("Done after a full read: %v", err)
			}
			for cut := 0; cut < len(e.B); cut++ {
				d := Dec{B: e.B[:cut]}
				tc.dec(&d)
				if err := d.Done(); !errors.Is(err, ErrTruncated) {
					t.Errorf("cut to %d of %d bytes: Done = %v, want ErrTruncated", cut, len(e.B), err)
				}
			}
		})
	}

	for _, size := range []int{1, 2, 4, 8, 9} {
		for _, n := range []uint32{1, 3, math.MaxUint32} {
			var e Enc
			e.U32(n)
			fits := int(min(n, 3)) * size
			e.B = append(e.B, make([]byte, fits-1)...)
			d := Dec{B: e.B}
			if got := d.Count(size); got != 0 || !errors.Is(d.Err(), ErrTruncated) {
				t.Errorf("Count(%d) of %d with %d bytes left = %d, %v; want 0, ErrTruncated", size, n, fits-1, got, d.Err())
			}
			if n == math.MaxUint32 {
				continue
			}
			e.B = append(e.B, 0)
			d = Dec{B: e.B}
			if got := d.Count(size); got != int(n) || d.Err() != nil {
				t.Errorf("Count(%d) of %d with %d bytes left = %d, %v; want %d", size, n, fits, got, d.Err(), n)
			}
		}
	}

	var e Enc
	e.U32(5)
	e.U8(0)
	d := Dec{B: e.B}
	d.U32()
	if err := d.Done(); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("Done with a trailing byte = %v, want a trailing-bytes error", err)
	}
}
