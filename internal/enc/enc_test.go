package enc

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	var e Buffer
	e.Uint32(0xDEADBEEF)
	e.Uint64(1 << 60)
	e.Int32(-7)
	e.Int64(-1 << 40)
	e.Bool(true)
	e.Bool(false)
	e.Float64(math.Pi)
	e.Float32(2.5)
	e.String("pC++/streams")
	e.Bytes32([]byte{9, 8, 7})

	d := NewReader(e.Bytes())
	if got := d.Uint32(); got != 0xDEADBEEF {
		t.Fatalf("Uint32 = %#x", got)
	}
	if got := d.Uint64(); got != 1<<60 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := d.Int32(); got != -7 {
		t.Fatalf("Int32 = %d", got)
	}
	if got := d.Int64(); got != -1<<40 {
		t.Fatalf("Int64 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := d.Float64(); got != math.Pi {
		t.Fatalf("Float64 = %v", got)
	}
	if got := d.Float32(); got != 2.5 {
		t.Fatalf("Float32 = %v", got)
	}
	if got := d.String(); got != "pC++/streams" {
		t.Fatalf("String = %q", got)
	}
	if got := d.Bytes32(); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("Bytes32 = %v", got)
	}
	if d.Err() != nil {
		t.Fatalf("Err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d", d.Remaining())
	}
}

func TestSliceRoundTrip(t *testing.T) {
	var e Buffer
	f := []float64{1.5, -2.25, math.MaxFloat64, 0}
	i := []int64{-5, 0, 1 << 62}
	e.Float64Slice(f)
	e.Int64Slice(i)
	e.Float64Slice(nil)

	d := NewReader(e.Bytes())
	if got := d.Float64Slice(); !reflect.DeepEqual(got, f) {
		t.Fatalf("Float64Slice = %v", got)
	}
	if got := d.Int64Slice(); !reflect.DeepEqual(got, i) {
		t.Fatalf("Int64Slice = %v", got)
	}
	if got := d.Float64Slice(); got == nil || len(got) != 0 {
		t.Fatalf("empty slice = %#v, want non-nil and empty", got)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestReaderStickyError(t *testing.T) {
	d := NewReader([]byte{1, 2})
	if got := d.Uint64(); got != 0 {
		t.Fatalf("short Uint64 = %d, want 0", got)
	}
	if !errors.Is(d.Err(), ErrShort) {
		t.Fatalf("Err = %v, want ErrShort", d.Err())
	}
	// Error is sticky: subsequent reads keep failing even if bytes remain.
	if got := d.Uint32(); got != 0 {
		t.Fatalf("post-error read = %d", got)
	}
}

func TestReaderShortSlices(t *testing.T) {
	var e Buffer
	e.Uint32(1000) // claims 1000 floats, provides none
	d := NewReader(e.Bytes())
	if got := d.Float64Slice(); got != nil {
		t.Fatalf("truncated slice = %v, want nil", got)
	}
	if !errors.Is(d.Err(), ErrShort) {
		t.Fatalf("Err = %v", d.Err())
	}
	// Huge claimed length must not cause a huge allocation.
	var e2 Buffer
	e2.Uint32(math.MaxUint32)
	d2 := NewReader(e2.Bytes())
	if got := d2.Bytes32(); got != nil {
		t.Fatal("oversized Bytes32 succeeded")
	}
	// The slice decoders check the claimed count against the buffer before
	// they allocate: 8 × a u32 count does not fit a 32-bit int, and 1<<24
	// floats would be 128 MiB.
	for _, count := range []uint32{math.MaxUint32, 1 << 29, 1 << 24} {
		var e Buffer
		e.Uint32(count)
		e.Uint64(7) // one word where count are claimed
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		df, di := NewReader(e.Bytes()), NewReader(e.Bytes())
		f, i := df.Float64Slice(), di.Int64Slice()
		runtime.ReadMemStats(&after)
		if f != nil || i != nil {
			t.Fatalf("count %d over 8 bytes decoded: %d floats, %d ints", count, len(f), len(i))
		}
		if !errors.Is(df.Err(), ErrShort) || !errors.Is(di.Err(), ErrShort) {
			t.Fatalf("count %d: Err = %v / %v, want ErrShort", count, df.Err(), di.Err())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("count %d: %d bytes allocated before the short buffer was noticed", count, got)
		}
	}
}

func TestBufferReset(t *testing.T) {
	var e Buffer
	e.Uint32(1)
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after Reset = %d", e.Len())
	}
	e.Uint32(2)
	d := NewReader(e.Bytes())
	if d.Uint32() != 2 {
		t.Fatal("buffer reuse broken")
	}
}

func TestRawAliasVsCopy(t *testing.T) {
	var e Buffer
	e.Bytes32([]byte("abc"))
	src := e.Bytes()
	d := NewReader(src)
	got := d.Bytes32()
	src[4] = 'X' // mutate underlying buffer after decode
	if string(got) != "abc" {
		t.Fatalf("Bytes32 aliased its source: %q", got)
	}
}

func TestFileHeader(t *testing.T) {
	h := EncodeFileHeader()
	if len(h) != FileHeaderLen {
		t.Fatalf("header len %d, want %d", len(h), FileHeaderLen)
	}
	if err := CheckFileHeader(h); err != nil {
		t.Fatal(err)
	}
	if err := CheckFileHeader(h[:10]); err == nil {
		t.Fatal("truncated header accepted")
	}
	bad := append([]byte{}, h...)
	bad[0] = 'X'
	if err := CheckFileHeader(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRecordHeaderRoundTrip(t *testing.T) {
	h := RecordHeader{
		NArrays:     3,
		NElems:      2000,
		NProcs:      8,
		Mode:        2,
		BlockSize:   16,
		AlignOffset: -4,
		AlignStride: 3,
		TemplateN:   6000,
		DataBytes:   11_200_000,
	}
	b := h.AppendTo(nil)
	if len(b) != RecordHeaderLen {
		t.Fatalf("encoded %d bytes, want %d", len(b), RecordHeaderLen)
	}
	got, err := DecodeRecordHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
	if got.SizeTableBytes() != 8000 {
		t.Fatalf("SizeTableBytes = %d", got.SizeTableBytes())
	}
	if got.TotalBytes() != 56+8000+11_200_000 {
		t.Fatalf("TotalBytes = %d", got.TotalBytes())
	}
}

func TestRecordHeaderRejects(t *testing.T) {
	valid := RecordHeader{NElems: 1, NProcs: 1, Mode: 1}
	if _, err := DecodeRecordHeader(valid.AppendTo(nil)); err != nil {
		t.Fatalf("the header the rows below break: %v", err)
	}
	for _, row := range []struct {
		name  string
		bytes func(b []byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:3] }},
		{"one byte short", func(b []byte) []byte { return b[:RecordHeaderLen-1] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"zero writer procs", func(b []byte) []byte { copy(b[12:16], []byte{0, 0, 0, 0}); return b }},
		// The mode is one byte in a four-byte field: 0x0101 is not mode 1.
		{"mode past one byte", func(b []byte) []byte { b[17] = 1; return b }},
		{"mode high bytes only", func(b []byte) []byte { b[19] = 0x80; return b }},
		{"2^57 data bytes", func(b []byte) []byte { b[47] = 2; return b }},
	} {
		if h, err := DecodeRecordHeader(row.bytes(valid.AppendTo(nil))); err == nil {
			t.Errorf("%s: accepted as %+v", row.name, h)
		}
	}
}

func TestSizeTableRoundTrip(t *testing.T) {
	sizes := []uint32{0, 1, 5604, math.MaxUint32}
	b := AppendSizeTable(nil, sizes)
	got, err := DecodeSizeTable(b, len(sizes))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sizes) {
		t.Fatalf("got %v", got)
	}
	if _, err := DecodeSizeTable(b, len(sizes)+1); err == nil {
		t.Fatal("oversized decode accepted")
	}
}

// Property: header round trip is identity for arbitrary field values.
func TestRecordHeaderQuick(t *testing.T) {
	f := func(nArr, nEl, bs, tn uint32, np uint16, mode uint8, ao, as int32, db uint64) bool {
		h := RecordHeader{
			NArrays: nArr, NElems: nEl, NProcs: uint32(np) + 1,
			Mode: mode % 3, BlockSize: bs,
			AlignOffset: ao, AlignStride: as, TemplateN: tn,
			DataBytes: db % (1 << 56), // decoder rejects declared sizes past this bound
		}
		got, err := DecodeRecordHeader(h.AppendTo(nil))
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary scalar scripts round trip.
func TestBufferReaderQuick(t *testing.T) {
	f := func(u32 uint32, i64 int64, fl float64, s string, bs []byte) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		var e Buffer
		e.Uint32(u32)
		e.Int64(i64)
		e.Float64(fl)
		e.String(s)
		e.Bytes32(bs)
		d := NewReader(e.Bytes())
		return d.Uint32() == u32 &&
			d.Int64() == i64 &&
			d.Float64() == fl &&
			d.String() == s &&
			bytes.Equal(d.Bytes32(), bs) &&
			d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
