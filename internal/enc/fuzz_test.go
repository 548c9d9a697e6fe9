package enc

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// FuzzRoundTrip: whatever a Buffer encodes, a Reader decodes back exactly —
// the wire-format property the whole d/stream file format leans on.
func FuzzRoundTrip(f *testing.F) {
	f.Add(true, uint32(0), uint64(0), 0.0, "", []byte(nil), uint8(0))
	f.Add(false, uint32(1), uint64(1<<63), -1.5, "hello", []byte{1, 2, 3}, uint8(3))
	f.Add(true, uint32(0xffffffff), uint64(0xffffffffffffffff), math.Inf(1), "κ…\x00", []byte{0}, uint8(17))
	f.Add(false, uint32(42), uint64(7), math.NaN(), "nan payload", []byte("bytes"), uint8(255))
	// Slices of 8 and 3 words behind 1-, 2- and 3-byte strings, so the words
	// start at every residue a u32 prefix can leave them; a NaN with payload
	// bits and −0 as what they carry, math.MinInt64 at the head of the ints.
	f.Add(true, uint32(1), uint64(1<<63), math.Float64frombits(0x7ff8000000abcdef), "a", []byte(nil), uint8(8))
	f.Add(true, uint32(2), uint64(1<<63), math.Copysign(0, -1), "ab", []byte{7}, uint8(8))
	f.Add(false, uint32(3), uint64(1<<63), math.Inf(-1), "abc", []byte{7, 7}, uint8(44))
	f.Fuzz(func(t *testing.T, b bool, u32 uint32, u64 uint64, f64 float64, s string, raw []byte, n uint8) {
		fslice := make([]float64, int(n)%9)
		islice := make([]int64, int(n)%5)
		for i := range fslice {
			fslice[i] = f64 * float64(i+1)
		}
		for i := range islice {
			islice[i] = int64(u64) - int64(i)
		}

		// Encoded as the host would and portably: the same bytes. Each image
		// is then decoded on both paths, once bare and once carving from a
		// slab, its word slices with the plain methods and with the append
		// form into every shape of dst: the same values every way.
		var img [][]byte
		eitherPath(func(string) {
			var e Buffer
			e.Bool(b)
			e.Uint32(u32)
			e.Uint64(u64)
			e.Int32(int32(u32))
			e.Int64(int64(u64))
			e.Float64(f64)
			e.Float32(float32(f64))
			e.String(s)
			e.Bytes32(raw)
			e.Float64Slice(fslice)
			e.Int64Slice(islice)
			img = append(img, e.Bytes())
		})
		if !bytes.Equal(img[0], img[1]) {
			t.Fatalf("the memmove path encoded %x, the portable loop %x", img[0], img[1])
		}
		eitherPath(func(string) {
			for _, shape := range dstShapes {
				for _, d := range []*Reader{NewReader(img[0]), slabReader(img[0])} {
					checkRoundTrip(t, d, shape, b, u32, u64, f64, s, raw, fslice, islice)
				}
			}
		})
	})
}

func checkRoundTrip(t *testing.T, d *Reader, shape string, b bool, u32 uint32, u64 uint64, f64 float64, s string, raw []byte, fslice []float64, islice []int64) {
	t.Helper()
	if got := d.Bool(); got != b {
		t.Fatalf("Bool = %v, want %v", got, b)
	}
	if got := d.Uint32(); got != u32 {
		t.Fatalf("Uint32 = %d, want %d", got, u32)
	}
	if got := d.Uint64(); got != u64 {
		t.Fatalf("Uint64 = %d, want %d", got, u64)
	}
	if got := d.Int32(); got != int32(u32) {
		t.Fatalf("Int32 = %d, want %d", got, int32(u32))
	}
	if got := d.Int64(); got != int64(u64) {
		t.Fatalf("Int64 = %d, want %d", got, int64(u64))
	}
	if got := d.Float64(); math.Float64bits(got) != math.Float64bits(f64) {
		t.Fatalf("Float64 = %v, want %v", got, f64)
	}
	if got := d.Float32(); math.Float32bits(got) != math.Float32bits(float32(f64)) {
		t.Fatalf("Float32 = %v, want %v", got, float32(f64))
	}
	if got := d.String(); got != s {
		t.Fatalf("String = %q, want %q", got, s)
	}
	if got := d.Bytes32(); !bytes.Equal(got, raw) {
		t.Fatalf("Bytes32 = %q, want %q", got, raw)
	}
	gf, broken := decodeWords(d, shape, (*Reader).AppendFloat64Slice)
	if broken != "" {
		t.Fatalf("Float64Slice into %s: %s", shape, broken)
	}
	if len(gf) != len(fslice) {
		t.Fatalf("Float64Slice len = %d, want %d", len(gf), len(fslice))
	}
	for i := range gf {
		if math.Float64bits(gf[i]) != math.Float64bits(fslice[i]) {
			t.Fatalf("Float64Slice[%d] = %v, want %v", i, gf[i], fslice[i])
		}
	}
	gi, broken := decodeWords(d, shape, (*Reader).AppendInt64Slice)
	if broken != "" {
		t.Fatalf("Int64Slice into %s: %s", shape, broken)
	}
	if len(gi) != len(islice) {
		t.Fatalf("Int64Slice len = %d, want %d", len(gi), len(islice))
	}
	for i := range gi {
		if gi[i] != islice[i] {
			t.Fatalf("Int64Slice[%d] = %d, want %d", i, gi[i], islice[i])
		}
	}
	if err := d.Err(); err != nil {
		t.Fatalf("reader error after clean round trip: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over after round trip", d.Remaining())
	}
}

// dstShapes are how the fuzz targets decode a word slice: with the plain
// method, and with the append form into nothing, into exactly the room the
// count needs, and into one word less.
var dstShapes = []string{"plain", "nil", "room", "short"}

// decodeWords decodes the word slice at d's position as shape says and
// returns what the plain method would: the words, or nil on a failure. It
// checks the append form's promises about dst on the way, and reports the
// first one broken instead: dst's memory refilled when the count fits and
// left alone when it does not, dst itself back on a failure.
func decodeWords[T int64 | float64](d *Reader, shape string, appendTo func(*Reader, []T) []T) ([]T, string) {
	if shape == "plain" {
		return appendTo(d, nil), ""
	}
	n := 0
	if d.end >= 0 && d.Remaining() >= 4 {
		// Capped at what the bytes left could hold, plus one: a count past
		// that fails anyway, and the dst stays small.
		n = int(min(binary.LittleEndian.Uint32(d.b[d.off:]), uint32(d.Remaining()/8+1)))
	}
	var dst []T
	switch shape {
	case "room":
		dst = make([]T, n)
	case "short":
		dst = make([]T, max(n-1, 0))
	}
	const sentinel = -0x1p40
	for i := range dst {
		dst[i] = sentinel
	}
	dst = dst[:0]
	untouched := func() bool {
		for _, w := range dst[:cap(dst)] {
			if w != sentinel {
				return false
			}
		}
		return true
	}
	v := appendTo(d, dst)
	same := unsafe.SliceData(v) == unsafe.SliceData(dst)
	switch {
	case d.Err() != nil:
		if v == nil && dst == nil || same && len(v) == len(dst) && untouched() {
			return nil, ""
		}
		return nil, "a failed decode did not hand dst back untouched"
	case len(v) <= cap(dst) && dst != nil && !same:
		return nil, "a count that fits was not decoded into dst's memory"
	case len(v) > cap(dst) && (same || !untouched() || cap(v) != len(v)):
		return nil, "a count that does not fit was not decoded into a fresh len == cap slice"
	}
	return v, ""
}

// slabReader decodes from b with a slab attached that b's words fit.
func slabReader(b []byte) *Reader {
	var s Slab
	s.Limit(len(b) / 8)
	d := NewReader(b)
	s.Attach(d)
	return d
}

// FuzzReaderNeverPanics drives a Reader over arbitrary bytes with an
// arbitrary script of decode calls: no input may panic it, offsets must stay
// in bounds, and once it errors the error must stick.
func FuzzReaderNeverPanics(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte{1, 2, 3}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{9, 9, 10, 10})
	// Two well-formed slices of two words, the second a NaN payload and
	// math.MinInt64, read whole, read one byte in (so the words are as
	// unaligned as they get), and read with a count the bytes cannot back.
	words := []byte{2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0xef, 0xcd, 0xab, 0, 0, 0, 0xf8, 0x7f,
		2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	f.Add(words, []byte{9, 10})
	f.Add(words, []byte{10, 9})
	f.Add(append([]byte{1}, words...), []byte{0, 9, 10})
	f.Add(words[:len(words)-1], []byte{9, 10, 10})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		// Readers in step — bare and carving from a slab, on the host's path
		// and on the portable one, and decoding word slices with the append
		// form into three shapes of dst: what they return, what they report
		// and where they stand must never differ.
		d := NewReader(data)
		type other struct {
			name     string
			d        *Reader
			portable bool
			shape    string
		}
		others := []other{
			{"from a slab", slabReader(data), false, "plain"},
			{"portably", NewReader(data), true, "plain"},
			{"portably from a slab", slabReader(data), true, "plain"},
		}
		for _, shape := range dstShapes[1:] {
			others = append(others,
				other{"appending into " + shape, NewReader(data), false, shape},
				other{"appending into " + shape + " from a slab", slabReader(data), false, shape},
				other{"appending into " + shape + " portably", NewReader(data), true, shape})
		}
		for _, op := range script {
			hadErr := d.Err() != nil
			got := fuzzStep(d, op, "plain")
			for _, o := range others {
				var gotO any
				if o.portable {
					portable(func() { gotO = fuzzStep(o.d, op, o.shape) })
				} else {
					gotO = fuzzStep(o.d, op, o.shape)
				}
				if !reflect.DeepEqual(got, gotO) {
					t.Fatalf("op %d decoded %v bare and %v %s", op%11, got, gotO, o.name)
				}
				if (d.Err() == nil) != (o.d.Err() == nil) || d.Err() != nil && d.Err().Error() != o.d.Err().Error() {
					t.Fatalf("op %d: Err %v bare, %v %s", op%11, d.Err(), o.d.Err(), o.name)
				}
				if d.Offset() != o.d.Offset() || d.Remaining() != o.d.Remaining() {
					t.Fatalf("op %d: at %d (%d left) bare, %d (%d left) %s", op%11, d.Offset(), d.Remaining(), o.d.Offset(), o.d.Remaining(), o.name)
				}
			}
			if hadErr && d.Err() == nil {
				t.Fatal("reader error un-stuck itself")
			}
			if d.Offset() < 0 || d.Offset() > len(data) {
				t.Fatalf("offset %d out of bounds [0,%d]", d.Offset(), len(data))
			}
			if d.Remaining() < 0 {
				t.Fatalf("negative remaining %d", d.Remaining())
			}
		}
	})
}

// fuzzStep runs one scripted decode, word slices decoded as shape says, and
// returns what it yielded in a form DeepEqual can compare: floats as their
// bits (NaN payloads included), a nil slice apart from an empty one, and a
// broken append-form promise as its description.
func fuzzStep(d *Reader, op byte, shape string) any {
	switch op % 11 {
	case 0:
		return d.Bool()
	case 1:
		return d.Uint32()
	case 2:
		return d.Uint64()
	case 3:
		return d.Int32()
	case 4:
		return d.Int64()
	case 5:
		return math.Float32bits(d.Float32())
	case 6:
		return math.Float64bits(d.Float64())
	case 7:
		return d.String()
	case 8:
		return d.Bytes32()
	case 9:
		v, broken := decodeWords(d, shape, (*Reader).AppendFloat64Slice)
		if broken != "" {
			return broken
		}
		if v == nil {
			return nil
		}
		bits := make([]uint64, len(v))
		for i, x := range v {
			bits[i] = math.Float64bits(x)
		}
		return bits
	default:
		v, broken := decodeWords(d, shape, (*Reader).AppendInt64Slice)
		if broken != "" {
			return broken
		}
		return v
	}
}

// FuzzRecordHeader: arbitrary bytes never panic the record-header decoder,
// and any header it accepts is a fixed point of encode∘decode.
func FuzzRecordHeader(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeFileHeader())
	h := RecordHeader{NArrays: 2, NElems: 9, NProcs: 4, Mode: 1, DataBytes: 1 << 20}
	f.Add(h.AppendTo(nil))
	f.Add(h.AppendTo(nil)[:RecordHeaderLen-1])
	// A mode past its byte (0x0101 is not mode 1), and descriptor lengths no
	// distribution takes: the decoder refuses the first; a stream refuses the
	// others against the file it is reading (dstream.TestCorruptHeaderBounded).
	wide := h.AppendTo(nil)
	wide[17] = 1
	f.Add(wide)
	h.DescBytes = 0x7ffffff0
	f.Add(h.AppendTo(nil))
	h.Mode, h.DescBytes = 3, 4*h.NElems+4
	f.Add(h.AppendTo(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeRecordHeader(data)
		if err != nil {
			return
		}
		again, err := DecodeRecordHeader(h.AppendTo(nil))
		if err != nil {
			t.Fatalf("re-decoding an accepted header failed: %v", err)
		}
		if again != h {
			t.Fatalf("decode∘encode not idempotent: %+v vs %+v", again, h)
		}
		if h.TotalBytes() < RecordHeaderLen {
			t.Fatalf("TotalBytes %d below header length", h.TotalBytes())
		}
	})
}
