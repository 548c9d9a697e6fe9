// Package enc defines the d/stream binary encodings: the little-endian
// typed buffer encoder/decoder used by element inserters and extractors,
// and the on-disk record header carrying the distribution and per-element
// size information the library stores ahead of the data (paper §4.1:
// "Information about the distribution ... and about the size of the data to
// be output from each element needs to be written to the file prior to the
// actual data").
package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"pcxxstreams/internal/bufpool"
)

// Buffer is an append-only typed encoder. The zero value is ready to use
// and grows like any appended slice.
//
// A Buffer can also encode a run of elements back to back into one pooled
// arena: Adopt points it at a bufpool buffer, Mark closes each element and
// reports where the next one starts, and Detach hands the arena back. While
// an arena is adopted, Bytes, Len and Reset see only the element being
// encoded, and an append that outgrows the arena moves it up one pool class
// (copying what is there, releasing the old buffer) instead of leaving the
// pool for the allocator.
type Buffer struct {
	b []byte
	// base is where the current element starts; zero outside Adopt…Detach.
	base int
	// lim is the length past which a fixed-size appender must ask for room
	// before it appends: cap(b)-fixedMax for an adopted arena, so that what
	// it appends always fits; out of reach once a Buffer without one has
	// asked (its appends grow it themselves). One comparison against a field
	// is what keeps those appenders within the compiler's inlining budget.
	lim int
	// pooled marks b as a bufpool buffer this Buffer owns.
	pooled bool
}

// fixedMax is the most bytes a fixed-size appender appends.
const fixedMax = 8

// Adopt makes p, a buffer obtained from bufpool, the backing store; anything
// already in p stays in front of the first element. The Buffer owns p until
// Detach.
func (e *Buffer) Adopt(p []byte) {
	*e = Buffer{b: p, base: len(p), lim: cap(p) - fixedMax, pooled: true}
}

// Mark closes the current element and returns the offset, from the start of
// the backing store, at which the next one begins.
func (e *Buffer) Mark() int {
	e.base = len(e.b)
	return e.base
}

// Detach returns the backing store with every element encoded since Adopt,
// transferring its ownership to the caller, and resets e to the zero value.
func (e *Buffer) Detach() []byte {
	p := e.b
	*e = Buffer{}
	return p
}

// Reserve makes room for n more bytes in an adopted arena, so that a caller
// who can estimate what is coming pays for one move instead of one per
// class. It does nothing on a Buffer that has adopted none. (Not inlined:
// Raw stays inlinable by calling it.)
//
//go:noinline
func (e *Buffer) Reserve(n int) {
	if e.pooled && cap(e.b)-len(e.b) < n {
		e.grow(n)
	}
}

// room is where a fixed-size appender lands when len(b) > lim.
//
//go:noinline
func (e *Buffer) room() {
	if e.pooled {
		e.grow(fixedMax)
	} else {
		e.lim = math.MaxInt
	}
}

// makeRoom gives b capacity for n more bytes, for the encoders that fill
// their bytes in place instead of appending them.
func (e *Buffer) makeRoom(n int) {
	if e.pooled {
		e.grow(n)
	} else {
		e.b = slices.Grow(e.b, n)
	}
}

// grow moves an adopted arena to a pool class with room for n more bytes:
// at least the next class up, so a run of appends costs amortized one copy
// per byte. Past bufpool.MaxClass the pool falls through to the allocator
// and this is ordinary doubling.
func (e *Buffer) grow(n int) {
	need := len(e.b) + n
	if next := 2 * cap(e.b); need < next {
		need = next
	}
	nb := append(bufpool.GetCap(need), e.b...)
	bufpool.Put(e.b)
	e.b, e.lim = nb, cap(nb)-fixedMax
}

// Bytes returns the bytes of the current element — everything encoded, when
// no arena is adopted. The slice aliases the internal buffer and is valid
// only until the next append.
func (e *Buffer) Bytes() []byte { return e.b[e.base:] }

// Len returns the number of bytes Bytes would return.
func (e *Buffer) Len() int { return len(e.b) - e.base }

// Reset discards the current element, retaining capacity.
func (e *Buffer) Reset() { e.b = e.b[:e.base] }

// Uint32 appends v.
func (e *Buffer) Uint32(v uint32) {
	if len(e.b) > e.lim {
		e.room()
	}
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}

// Uint64 appends v.
func (e *Buffer) Uint64(v uint64) {
	if len(e.b) > e.lim {
		e.room()
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

// Int32 appends v.
func (e *Buffer) Int32(v int32) { e.Uint32(uint32(v)) }

// Int64 appends v.
func (e *Buffer) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool appends v as one byte.
func (e *Buffer) Bool(v bool) {
	var x byte
	if v {
		x = 1
	}
	if len(e.b) > e.lim {
		e.room()
	}
	e.b = append(e.b, x)
}

// Float64 appends v. (Spelled out, like Float32, rather than calling Uint64:
// two levels of inlining would put it over the budget.)
func (e *Buffer) Float64(v float64) {
	if len(e.b) > e.lim {
		e.room()
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

// Float32 appends v.
func (e *Buffer) Float32(v float32) {
	if len(e.b) > e.lim {
		e.room()
	}
	e.b = binary.LittleEndian.AppendUint32(e.b, math.Float32bits(v))
}

// Raw appends p verbatim.
func (e *Buffer) Raw(p []byte) {
	if cap(e.b)-len(e.b) < len(p) {
		e.Reserve(len(p))
	}
	e.b = append(e.b, p...)
}

// Bytes32 appends p with a u32 length prefix.
func (e *Buffer) Bytes32(p []byte) {
	e.Uint32(uint32(len(p)))
	e.Raw(p)
}

// String appends s with a u32 length prefix.
func (e *Buffer) String(s string) {
	e.Reserve(4 + len(s))
	e.Uint32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Float64Slice appends a u32 length prefix followed by the values. (The
// prologue is spelled out here and in Int64Slice rather than shared: the
// helper is not inlined, and its call is a tenth of a small element's encode.)
func (e *Buffer) Float64Slice(v []float64) {
	n := 4 + 8*len(v)
	if cap(e.b)-len(e.b) < n {
		e.makeRoom(n)
	}
	at := len(e.b)
	e.b = e.b[:at+n]
	p := e.b[at:]
	binary.LittleEndian.PutUint32(p, uint32(len(v)))
	if hostLittleEndian {
		copy(p[4:], wordBytes(v))
	} else {
		putFloat64s(p[4:], v)
	}
}

// Int64Slice appends a u32 length prefix followed by the values.
func (e *Buffer) Int64Slice(v []int64) {
	n := 4 + 8*len(v)
	if cap(e.b)-len(e.b) < n {
		e.makeRoom(n)
	}
	at := len(e.b)
	e.b = e.b[:at+n]
	p := e.b[at:]
	binary.LittleEndian.PutUint32(p, uint32(len(v)))
	if hostLittleEndian {
		copy(p[4:], wordBytes(v))
	} else {
		putInt64s(p[4:], v)
	}
}

// ErrShort reports a decode past the end of the buffer.
var ErrShort = errors.New("enc: short buffer")

// Reader is a sequential typed decoder with sticky error state: after the
// first failure every further Get returns the zero value and Err() reports
// the failure, so extractors can decode unconditionally and check once.
type Reader struct {
	b   []byte
	off int
	// end is len(b) while the reader is error-free, so that off+n > end is
	// the one test a fixed-width get makes: it covers "bytes left" and "no
	// error yet" at once, and keeps those gets within the compiler's inlining
	// budget (the decode mirror of Buffer.lim). A get that fails stores -n
	// there: every later test fails too, and Err formats the ErrShort from it
	// when it is asked — off and len(b) do not move after a failure.
	end int
	err error
	// slab, when the reader was handed out by a record view, is where
	// Int64Slice and Float64Slice carve their results. Reset leaves it alone.
	slab *Slab
}

// NewReader decodes from b.
func NewReader(b []byte) *Reader { return &Reader{b: b, end: len(b)} }

// Reset repoints the reader at b, clearing position and error state, so a
// single Reader can decode a stream of records without per-record
// allocation.
func (d *Reader) Reset(b []byte) {
	d.b, d.off, d.end, d.err = b, 0, len(b), nil
}

// Err returns the first decode error, if any.
func (d *Reader) Err() error {
	if d.end >= 0 {
		return nil
	}
	return d.failure()
}

// failure is the out-of-line half of Err: the error a failed get left to be
// formatted, or the one takeWords formatted itself.
func (d *Reader) failure() error {
	if d.err == nil {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrShort, -d.end, d.off, len(d.b))
	}
	return d.err
}

// Remaining returns the number of undecoded bytes.
func (d *Reader) Remaining() int { return len(d.b) - d.off }

// Offset returns the current read position.
func (d *Reader) Offset() int { return d.off }

// take is the variable-width get: n bytes, or nil once the reader has failed.
func (d *Reader) take(n int) []byte {
	o := d.off
	if o+n > d.end {
		if d.end >= 0 {
			d.end = -n
		}
		return nil
	}
	d.off = o + n
	return d.b[o : o+n]
}

// Uint32 decodes a u32.
func (d *Reader) Uint32() uint32 {
	o := d.off
	if o+4 > d.end {
		if d.end >= 0 {
			d.end = -4
		}
		return 0
	}
	d.off = o + 4
	return binary.LittleEndian.Uint32(d.b[o:])
}

// Uint64 decodes a u64.
func (d *Reader) Uint64() uint64 {
	o := d.off
	if o+8 > d.end {
		if d.end >= 0 {
			d.end = -8
		}
		return 0
	}
	d.off = o + 8
	return binary.LittleEndian.Uint64(d.b[o:])
}

// Int32 decodes an i32.
func (d *Reader) Int32() int32 { return int32(d.Uint32()) }

// Int64 decodes an i64.
func (d *Reader) Int64() int64 { return int64(d.Uint64()) }

// Bool decodes one byte as a bool.
func (d *Reader) Bool() bool {
	p := d.take(1)
	return p != nil && p[0] != 0
}

// Float64 decodes an f64.
func (d *Reader) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Float32 decodes an f32.
func (d *Reader) Float32() float32 { return math.Float32frombits(d.Uint32()) }

// Raw decodes n raw bytes (aliasing the underlying buffer).
func (d *Reader) Raw(n int) []byte { return d.take(n) }

// Bytes32 decodes a u32-length-prefixed byte slice (copied).
func (d *Reader) Bytes32() []byte {
	n := int(d.Uint32())
	p := d.take(n)
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// String decodes a u32-length-prefixed string.
func (d *Reader) String() string {
	n := int(d.Uint32())
	p := d.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// Float64Slice decodes a u32-length-prefixed []float64. The result is the
// caller's to keep and to append to, whatever becomes of the reader and the
// buffer it decoded from: len == cap, and it shares memory with no other
// decoded slice. On a reader a record view handed out it is carved from the
// view's word slab (see Slab for what keeping one pins); otherwise it is
// allocated.
func (d *Reader) Float64Slice() []float64 { return d.AppendFloat64Slice(nil) }

// Int64Slice decodes a u32-length-prefixed []int64, owned like Float64Slice's
// result.
func (d *Reader) Int64Slice() []int64 { return d.AppendInt64Slice(nil) }

// AppendFloat64Slice decodes a u32-length-prefixed []float64 and appends it
// to dst — the paper's `s >> array(p.mass, p.n)`, which fills the element's
// own array: `p.Mass = d.AppendFloat64Slice(p.Mass[:0])`. When dst's spare
// capacity holds the values they are written there, so whoever else holds
// dst's memory sees them; otherwise the result is a fresh len == cap slice,
// carved or allocated as Float64Slice's, holding dst's prefix and the values.
// On error dst comes back unchanged, its spare capacity untouched.
func (d *Reader) AppendFloat64Slice(dst []float64) []float64 {
	return appendWords(d, dst, getFloat64s)
}

// AppendInt64Slice decodes a u32-length-prefixed []int64 and appends it to
// dst, in place or not as AppendFloat64Slice.
func (d *Reader) AppendInt64Slice(dst []int64) []int64 { return appendWords(d, dst, getInt64s) }

// takeWords reads a u32 count and takes that many 8-byte words in one step,
// so a count the buffer cannot back is ErrShort before the caller allocates
// anything. The byte length is compared in int64: 8 × a u32 would overflow a
// 32-bit int. The result is nil on error and non-nil (possibly empty)
// otherwise.
func (d *Reader) takeWords() []byte {
	n := d.Uint32()
	if d.end < 0 {
		return nil
	}
	if 8*int64(n) > int64(len(d.b)-d.off) {
		d.err = fmt.Errorf("%w: need %d 8-byte words at offset %d of %d", ErrShort, n, d.off, len(d.b))
		d.end = -1
		return nil
	}
	return d.take(8 * int(n))
}
