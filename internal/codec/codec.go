// Package codec is the binary field format shared by the cluster wire
// (internal/cluster/wire) and the snapshot store (internal/store):
// integers little-endian at fixed width, floats as their IEEE-754 bits,
// bools as one byte, and strings and slices behind a u32 element count.
// Each caller keeps its own framing (magic, version, length header,
// checksum); this package owns only the bytes of a payload.
//
// Every decoder is total: arbitrary bytes produce an error, never a panic
// or an allocation larger than the payload that asked for it.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrTruncated reports a payload shorter than its fields claim, or a count
// the remaining bytes cannot hold.
var ErrTruncated = errors.New("codec: truncated payload")

// Enc appends fields to B.
type Enc struct{ B []byte }

func (e *Enc) U8(v uint8)    { e.B = append(e.B, v) }
func (e *Enc) U16(v uint16)  { e.B = binary.LittleEndian.AppendUint16(e.B, v) }
func (e *Enc) U32(v uint32)  { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)  { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}

// grow extends B by n bytes and returns the fresh region. The slice
// encoders write into it directly: a factor snapshot or a block payload
// is mostly float64 data, and appending it one element at a time costs
// more CPU than the write that follows.
func (e *Enc) grow(n int) []byte {
	off := len(e.B)
	e.B = slices.Grow(e.B, n)[:off+n]
	return e.B[off:]
}

func (e *Enc) U16s(v []uint16) {
	e.U32(uint32(len(v)))
	buf := e.grow(2 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint16(buf[2*i:], x)
	}
}

func (e *Enc) U32s(v []uint32) {
	e.U32(uint32(len(v)))
	buf := e.grow(4 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[4*i:], x)
	}
}

// Ints writes each int as a u64, so the bytes do not depend on the
// platform's int width.
func (e *Enc) Ints(v []int) {
	e.U32(uint32(len(v)))
	buf := e.grow(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
	}
}

func (e *Enc) F64s(v []float64) {
	e.U32(uint32(len(v)))
	buf := e.grow(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
}

// Dec reads fields from the front of B. The first failure sticks: later
// reads return zero values, and Err and Done report that failure. The
// slice decoders return nil for an empty slice.
type Dec struct {
	B   []byte // the bytes not yet read
	err error
}

// Err reports the first failure, or nil.
func (d *Dec) Err() error { return d.err }

// Fail records err unless a failure is already recorded.
func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// next consumes n bytes, or fails with ErrTruncated and returns nil.
func (d *Dec) next(n int) []byte {
	if d.err != nil || len(d.B) < n {
		d.Fail(ErrTruncated)
		return nil
	}
	b := d.B[:n:n]
	d.B = d.B[n:]
	return b
}

func (d *Dec) U8() uint8 {
	if b := d.next(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Dec) U16() uint16 {
	if b := d.next(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if b := d.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if b := d.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Dec) Bool() bool   { return d.U8() != 0 }

// Count reads a u32 element count and checks it against the bytes that
// remain at elemSize bytes per element, so a hostile count can never force
// an allocation larger than the payload that carries it. The product is
// taken in int64, so it cannot overflow on a 32-bit platform either.
func (d *Dec) Count(elemSize int) int {
	n := d.U32()
	if int64(n)*int64(elemSize) > int64(len(d.B)) {
		d.Fail(ErrTruncated)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *Dec) Str() string { return string(d.next(d.Count(1))) }

func (d *Dec) U16s() []uint16 {
	n := d.Count(2)
	if n == 0 {
		return nil
	}
	b, v := d.next(2*n), make([]uint16, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return v
}

func (d *Dec) U32s() []uint32 {
	n := d.Count(4)
	if n == 0 {
		return nil
	}
	b, v := d.next(4*n), make([]uint32, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return v
}

func (d *Dec) Ints() []int {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	b, v := d.next(8*n), make([]int, n)
	for i := range v {
		v[i] = int(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

func (d *Dec) F64s() []float64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	b, v := d.next(8*n), make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// Done reports the first failure, or an error if any bytes were left
// unread: trailing bytes are a framing bug or corruption, and are rejected
// rather than ignored.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.B) != 0 {
		return fmt.Errorf("codec: %d trailing bytes after payload", len(d.B))
	}
	return nil
}
