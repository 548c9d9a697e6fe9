package enc

import (
	"errors"
	"math"
	"testing"
	"unsafe"
)

// wordCodec is one of the two word types' slice methods, as a table row.
type wordCodec[T int64 | float64] struct {
	name   string
	put    func(e *Buffer, v []T)
	append func(d *Reader, dst []T) []T
	word   func(i int) T // a value with bits no other index shares
	bits   func(v T) uint64
}

var (
	floatCodec = wordCodec[float64]{"float64",
		(*Buffer).Float64Slice, (*Reader).AppendFloat64Slice,
		func(i int) float64 { return math.Float64frombits(0x7ff8_0000_00ab_0000 | uint64(i)) },
		math.Float64bits}
	intCodec = wordCodec[int64]{"int64",
		(*Buffer).Int64Slice, (*Reader).AppendInt64Slice,
		func(i int) int64 { return math.MinInt64 + int64(i) },
		func(v int64) uint64 { return uint64(v) }}
)

// TestAppendWordSlices holds AppendFloat64Slice and AppendInt64Slice to their
// contract, on the host's path and the portable one, bare and on a slab: into
// dst's own memory when its spare capacity covers the count, else a fresh
// len == cap slice that keeps dst's prefix and leaves dst alone; and on a
// count the buffer cannot back, dst back unchanged with its spare capacity
// untouched.
func TestAppendWordSlices(t *testing.T) {
	eitherPath(func(path string) {
		for _, slab := range []bool{false, true} {
			name := path
			if slab {
				name += " from a slab"
			}
			appendCases(t, name, slab, floatCodec)
			appendCases(t, name, slab, intCodec)
		}
	})
}

func appendCases[T int64 | float64](t *testing.T, path string, slab bool, c wordCodec[T]) {
	t.Helper()
	const n = 5
	vals := make([]T, n)
	for i := range vals {
		vals[i] = c.word(i)
	}
	var e Buffer
	c.put(&e, vals)
	img := e.Bytes()
	reader := func(b []byte) *Reader {
		if slab {
			return slabReader(b)
		}
		return NewReader(b)
	}
	same := func(got []T, want ...[]T) bool {
		var all []T
		for _, w := range want {
			all = append(all, w...)
		}
		if len(got) != len(all) {
			return false
		}
		for i := range got {
			if c.bits(got[i]) != c.bits(all[i]) {
				return false
			}
		}
		return true
	}
	// sentinels fills v's spare capacity with words no decode writes.
	sentinels := func(v []T) []T {
		full := v[:cap(v)]
		for i := len(v); i < len(full); i++ {
			full[i] = c.word(1000 + i)
		}
		return v
	}
	untouched := func(v []T) bool {
		full := v[:cap(v)]
		for i := len(v); i < len(full); i++ {
			if c.bits(full[i]) != c.bits(c.word(1000+i)) {
				return false
			}
		}
		return true
	}
	at := func(v []T) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(v)) }
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s %s: "+format, append([]any{c.name, path}, args...)...)
	}

	// A nil dst: what the plain method returns.
	if r := c.append(reader(img), nil); !same(r, vals) || cap(r) != len(r) {
		fail("into nil: %v (cap %d), want %v with len == cap", r, cap(r), vals)
	}
	var empty Buffer
	c.put(&empty, nil)
	if r := c.append(reader(empty.Bytes()), nil); r == nil || len(r) != 0 {
		fail("an empty slice into nil came back %v (nil %v), want empty and non-nil", r, r == nil)
	}

	// Room for the count: in place.
	dst := sentinels(make([]T, 0, n+2))
	if r := c.append(reader(img), dst); !same(r, vals) || at(r) != at(dst) || cap(r) != n+2 || !untouched(r) {
		fail("into room: %v at %p cap %d, want %v at %p cap %d, spare words kept", r, at(r), cap(r), vals, at(dst), n+2)
	}

	// One word short: a fresh len == cap slice, dst as it was.
	dst = sentinels(make([]T, 0, n-1))
	if r := c.append(reader(img), dst); !same(r, vals) || at(r) == at(dst) || cap(r) != len(r) || !untouched(dst) {
		fail("one word short: %v at %p cap %d, dst at %p, want fresh and len == cap, dst untouched", r, at(r), cap(r), at(dst))
	}

	// A prefix is kept, in place and not.
	prefix := []T{c.word(500), c.word(501)}
	for _, spare := range []int{n, n - 1} {
		dst = sentinels(append(make([]T, 0, len(prefix)+spare), prefix...))
		r := c.append(reader(img), dst)
		if !same(r, prefix, vals) || (at(r) == at(dst)) != (spare >= n) || !same(dst, prefix) {
			fail("prefix with %d spare: %v, want %v then %v (in place %v)", spare, r, prefix, vals, spare >= n)
		}
	}

	// A count the buffer cannot back: dst back as it was, spare words
	// untouched, and the error sticks.
	short := img[:len(img)-1]
	for _, cp := range []int{0, n - 1, n + 2} {
		dst = sentinels(append(make([]T, 0, len(prefix)+cp), prefix...))
		d := reader(short)
		r := c.append(d, dst)
		if !errors.Is(d.Err(), ErrShort) || len(r) != len(dst) || cap(r) != cap(dst) || at(r) != at(dst) || !same(r, prefix) || !untouched(dst) {
			fail("short buffer, %d spare: %v (err %v), want dst back untouched", cp, r, d.Err())
		}
		off := d.Offset()
		if r := c.append(d, dst); len(r) != len(dst) || at(r) != at(dst) || d.Offset() != off {
			fail("after the failure: %v at offset %d, want dst at %d", r, d.Offset(), off)
		}
	}
}

// TestAppendCountsTheBudget: a decode that fits in place still takes its
// words off the slab's budget, and one that carves with a prefix takes only
// the words it decoded, while the chunk it carves from holds the prefix too.
func TestAppendCountsTheBudget(t *testing.T) {
	var s Slab
	decs, want := slabRecord(&s, 4, []int{3})
	budget := s.budget
	// Element 0: both slices refill in place.
	ints := decs[0].AppendInt64Slice(make([]int64, 0, 8))
	floats := decs[0].AppendFloat64Slice(make([]float64, 0, 8))
	if len(ints) != 3 || len(floats) != 4 || s.budget != budget-7 || s.w != nil {
		t.Fatalf("in place: budget %d, want %d; a chunk of %d words was carved", s.budget, budget-7, len(s.w))
	}
	// Element 1: a two-word prefix rides along in a chunk sized by what the
	// record has left plus the prefix.
	ints = decs[1].AppendInt64Slice([]int64{-1, -2})
	if len(ints) != 5 || ints[0] != -1 || ints[2] != want[1][0] || s.budget != budget-10 {
		t.Fatalf("carved with a prefix: %v, budget %d, want %d", ints, s.budget, budget-10)
	}
	if left := budget - 7 + 2 - 5; len(s.w) != left {
		t.Fatalf("the chunk has %d words after the prefixed carve, want %d", len(s.w), left)
	}
}
