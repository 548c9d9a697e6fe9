package enc

import (
	"bytes"
	"errors"
	"math/rand"
	"os/exec"
	"strings"
	"testing"
	"unsafe"
)

// slabRecord encodes elems elements, element i an int64 slice of lens[i%len]
// values and a float64 slice one longer, and returns one Reader per element
// over a shared buffer, all attached to s — what a record view hands out.
func slabRecord(s *Slab, elems int, lens []int) ([]Reader, [][]int64) {
	var e Buffer
	marks := []int{0}
	want := make([][]int64, elems)
	for i := 0; i < elems; i++ {
		n := lens[i%len(lens)]
		want[i] = make([]int64, n)
		fl := make([]float64, n+1)
		for j := range want[i] {
			want[i][j] = int64(i)<<20 | int64(j)
			fl[j] = float64(i) + float64(j)/8
		}
		e.Int64Slice(want[i])
		e.Float64Slice(fl)
		marks = append(marks, e.Len())
	}
	b := bytes.Clone(e.Bytes())
	decs := make([]Reader, elems)
	words := 0
	for i := range decs {
		s.Attach(&decs[i])
		decs[i].Reset(b[marks[i]:marks[i+1]])
		words += decs[i].Remaining() / 8
	}
	s.Limit(words)
	return decs, want
}

// region is the memory a decoded slice occupies, capacity included.
type region struct{ lo, hi uintptr }

func regionOf[T int64 | float64](v []T) region {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	return region{lo, lo + 8*uintptr(cap(v))}
}

// TestSlabOwnership: what Int64Slice and Float64Slice return from a slab is
// the caller's alone — cap == len, no two results overlap, an append to one
// leaves its neighbours as decoded — and a zero-length slice is exactly what
// a bare Reader returns.
func TestSlabOwnership(t *testing.T) {
	var s Slab
	decs, want := slabRecord(&s, 3000, []int{0, 1, 4, 2, 0, 3})
	var regions []region
	ints := make([][]int64, len(decs))
	floats := make([][]float64, len(decs))
	for i := range decs {
		ints[i], floats[i] = decs[i].Int64Slice(), decs[i].Float64Slice()
		if err := decs[i].Err(); err != nil {
			t.Fatal(err)
		}
		if ints[i] == nil || len(ints[i]) != cap(ints[i]) || len(floats[i]) != cap(floats[i]) {
			t.Fatalf("element %d: ints len %d cap %d (nil %v), floats len %d cap %d",
				i, len(ints[i]), cap(ints[i]), ints[i] == nil, len(floats[i]), cap(floats[i]))
		}
		for _, r := range []region{regionOf(ints[i]), regionOf(floats[i])} {
			if r.lo != r.hi {
				regions = append(regions, r)
			}
		}
	}
	// Carved in order from few chunks, the regions sort by address within a
	// chunk; a quadratic check is small enough and assumes nothing.
	for i, a := range regions {
		for _, b := range regions[i+1:] {
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("decoded slices overlap: [%#x,%#x) and [%#x,%#x)", a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
	// Appending moves the slice out of the slab instead of into a neighbour.
	for i := range ints {
		ints[i] = append(ints[i], -1, -2, -3)
		floats[i] = append(floats[i], -1)
	}
	for i := range ints {
		if got := ints[i][:len(want[i])]; !equalInts(got, want[i]) {
			t.Fatalf("element %d after its neighbours were appended to: %v, want %v", i, got, want[i])
		}
		for j, x := range floats[i][:len(want[i])+1] {
			if w := float64(i) + float64(j)/8; j < len(want[i]) && x != w {
				t.Fatalf("element %d float %d after appends: %v, want %v", i, j, x, w)
			}
		}
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSlabChunkSizing holds the sizing rule to its word: a chunk is never
// larger than the record could still fill or than 64 KiB, a slice over an
// eighth of a chunk and a reader without a slab allocate for themselves, and
// the tail one record leaves serves the next.
func TestSlabChunkSizing(t *testing.T) {
	var s Slab
	if w := s.carve(2); w != nil {
		t.Fatal("a slab nobody gave a limit carved")
	}
	if w := (*Slab)(nil).carve(2); w != nil {
		t.Fatal("no slab carved")
	}
	s.Limit(12)
	if w := s.carve(2); len(w) != 2 || cap(w) != 2 || len(s.w) != 10 {
		t.Fatalf("first carve of a 12-word record: len %d cap %d, %d words left in the chunk, want 2, 2, 10", len(w), cap(w), len(s.w))
	}
	if w := s.carve(0); w != nil {
		t.Fatal("a zero-length carve returned memory")
	}
	// The next record starts in the tail.
	tail := unsafe.SliceData(s.w)
	s.Limit(1 << 20)
	if w := s.carve(10); unsafe.SliceData(w) != tail || len(s.w) != 0 {
		t.Fatal("the previous record's tail did not serve the next")
	}
	if w := s.carve(1); len(w) != 1 || len(s.w) != slabChunkWords-1 {
		t.Fatalf("a large record's chunk leaves %d words after one, want %d", len(s.w), slabChunkWords-1)
	}
	left := len(s.w)
	if w := s.carve(slabMaxCarve + 1); w != nil || len(s.w) != left {
		t.Fatal("a slice over an eighth of a chunk was carved")
	}
	if w := s.carve(slabMaxCarve); len(w) != slabMaxCarve {
		t.Fatal("a slice of an eighth of a chunk was not carved")
	}
	// A count the record's remaining words do not cover (a decoder whose
	// limit was never set right) falls back to make instead of growing a chunk.
	s = Slab{}
	s.Limit(3)
	if w := s.carve(4); w != nil {
		t.Fatal("carved past the limit")
	}

	// Through the Reader: three small elements allocate what they need.
	var small Slab
	decs, _ := slabRecord(&small, 3, []int{2})
	decs[0].Int64Slice()
	if got, limit := 2+len(small.w), (4+16+4+24)*3/8; got > limit {
		t.Fatalf("a three-element record allocated a %d-word chunk, over its %d words", got, limit)
	}
}

// TestReaderFailureReports pins what a failed get leaves behind — the message
// is formatted when Err is asked, not when the get fails: the text, the
// position, and the error's identity across calls.
func TestReaderFailureReports(t *testing.T) {
	var e Buffer
	e.Uint32(7)
	e.Uint32(5) // a slice prefix claiming five words, one given
	e.Uint64(9)
	for _, row := range []struct {
		name string
		get  func(d *Reader)
		off  int
		msg  string
	}{
		{"Uint64", func(d *Reader) { d.Uint32(); d.Uint32(); d.Uint64(); d.Uint64() }, 16, "enc: short buffer: need 8 bytes at offset 16 of 16"},
		{"Uint32", func(d *Reader) { d.Raw(14); d.Uint32() }, 14, "enc: short buffer: need 4 bytes at offset 14 of 16"},
		{"Float32", func(d *Reader) { d.Raw(13); d.Float32() }, 13, "enc: short buffer: need 4 bytes at offset 13 of 16"},
		{"Float64", func(d *Reader) { d.Raw(9); d.Float64() }, 9, "enc: short buffer: need 8 bytes at offset 9 of 16"},
		{"Int32", func(d *Reader) { d.Raw(16); d.Int32() }, 16, "enc: short buffer: need 4 bytes at offset 16 of 16"},
		{"Int64", func(d *Reader) { d.Raw(12); d.Int64() }, 12, "enc: short buffer: need 8 bytes at offset 12 of 16"},
		{"Bool", func(d *Reader) { d.Raw(16); d.Bool() }, 16, "enc: short buffer: need 1 bytes at offset 16 of 16"},
		{"Raw", func(d *Reader) { d.Uint32(); d.Raw(13) }, 4, "enc: short buffer: need 13 bytes at offset 4 of 16"},
		{"String", func(d *Reader) { d.Raw(8); _ = d.String() }, 12, "enc: short buffer: need 9 bytes at offset 12 of 16"},
		{"Int64Slice", func(d *Reader) { d.Uint32(); d.Int64Slice() }, 8, "enc: short buffer: need 5 8-byte words at offset 8 of 16"},
	} {
		d := NewReader(e.Bytes())
		row.get(d)
		err := d.Err()
		if !errors.Is(err, ErrShort) || err.Error() != row.msg {
			t.Errorf("%s: Err = %v, want %q", row.name, err, row.msg)
		}
		// Sticky: nothing decodes or moves afterwards, however much is left.
		if d.Uint32() != 0 || d.Bool() || d.Raw(0) != nil || d.Int64Slice() != nil || d.Float64() != 0 {
			t.Errorf("%s: a get succeeded after the failure", row.name)
		}
		if d.Offset() != row.off || d.Remaining() != 16-row.off {
			t.Errorf("%s: at %d with %d left after the failure, want %d and %d", row.name, d.Offset(), d.Remaining(), row.off, 16-row.off)
		}
		if again := d.Err(); again != err {
			t.Errorf("%s: Err changed from %v to %v", row.name, err, again)
		}
		d.Reset(e.Bytes())
		if d.Err() != nil || d.Uint32() != 7 {
			t.Errorf("%s: Reset did not clear the failure", row.name)
		}
	}
	var zero Reader
	if zero.Uint64() != 0 || !errors.Is(zero.Err(), ErrShort) {
		t.Error("the zero Reader decoded something")
	}
}

// TestSizeTableOffsets: sampling the prefix sum at any ascending cuts gives
// what the full prefix sum has there, and the length is checked first.
func TestSizeTableOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(70)
		sizes := make([]uint32, n)
		for i := range sizes {
			switch rng.Intn(4) {
			case 0: // zero-size elements
			case 1:
				sizes[i] = ^uint32(0) - uint32(rng.Intn(3))
			default:
				sizes[i] = uint32(rng.Intn(5000))
			}
		}
		full := make([]int64, n+1)
		for i, sz := range sizes {
			full[i+1] = full[i] + int64(sz)
		}
		cuts := []int{0}
		for c := 0; c < n; {
			c = min(n, c+rng.Intn(9)) // repeated cuts: ranks with no elements
			cuts = append(cuts, c)
		}
		cuts = append(cuts, n)
		offs := make([]int64, len(cuts))
		table := EncodeSizeTable(sizes)
		if err := SizeTableOffsets(table, n, cuts, offs); err != nil {
			t.Fatal(err)
		}
		for k, c := range cuts {
			if offs[k] != full[c] {
				t.Fatalf("trial %d: offset at position %d = %d, want %d (sizes %v, cuts %v)", trial, c, offs[k], full[c], sizes, cuts)
			}
		}
		for i, sz := range sizes {
			if got := SizeAt(table, i); got != int(sz) {
				t.Fatalf("SizeAt(%d) = %d, want %d", i, got, sz)
			}
		}
		for _, bad := range [][]byte{append(table, 0), append(table, 0, 0, 0, 0), table[:max(0, len(table)-1)]} {
			if len(bad) == len(table) {
				continue
			}
			if err := SizeTableOffsets(bad, n, cuts, offs); err == nil {
				t.Fatalf("a %d-byte table passed for %d entries", len(bad), n)
			}
		}
	}
}

// TestFixedWidthGetsInline builds the package with -gcflags=-m and fails when
// one of the six fixed-width gets (or what stands between an extractor and
// them) stops being inlinable: the one test they make — off+n > end — is
// shaped to fit the compiler's budget, and nothing else says so when an edit
// tips one over.
func TestFixedWidthGetsInline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build with")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, m := range []string{"Uint32", "Uint64", "Int32", "Int64", "Float32", "Float64", "Bool", "Raw", "Reset", "Err"} {
		if !strings.Contains(string(out), "can inline (*Reader)."+m+"\n") {
			t.Errorf("(*Reader).%s is no longer inlinable", m)
		}
	}
}
