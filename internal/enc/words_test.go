package enc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// portable runs f with the memmove kernels off, so the four slice methods
// take the per-word loops a big-endian host would. The tests of this package
// do not run in parallel, which is what makes flipping the variable safe.
func portable(f func()) {
	was := hostLittleEndian
	hostLittleEndian = false
	defer func() { hostLittleEndian = was }()
	f()
}

// eitherPath runs f once as the host would and once portably.
func eitherPath(f func(path string)) {
	f("host")
	portable(func() { f("portable") })
}

// Words every kernel has to move bit for bit: NaNs quiet and signalling with
// payload bits, both zeros and infinities, the subnormal and normal extremes;
// and the integers whose sign or carries a careless conversion would lose.
var (
	hardFloats = []float64{
		math.Float64frombits(0x7ff8000000abcdef), math.Float64frombits(0xfff0000000000001),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -1.5, math.Pi,
	}
	hardInts = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 1 << 32, -1 << 32, 0x0102030405060708}
)

// wordCase is one slice to move: n words taken from an odd element of a
// larger array, so the source is never the start of an allocation.
func wordCase(n int, rng *rand.Rand) ([]float64, []int64) {
	fs, is := make([]float64, n+3), make([]int64, n+3)
	for i := range fs {
		switch {
		case i < len(hardFloats)+1 && i > 0:
			fs[i] = hardFloats[i-1]
		default:
			fs[i] = math.Float64frombits(rng.Uint64())
		}
		if i > 0 && i < len(hardInts)+1 {
			is[i] = hardInts[i-1]
		} else {
			is[i] = int64(rng.Uint64())
		}
	}
	return fs[1 : 1+n], is[1 : 1+n]
}

// wantWords is the format spelled out by hand: count, then each word's bits
// low byte first.
func wantWords(bits []uint64) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(bits)))
	for _, w := range bits {
		for s := 0; s < 64; s += 8 {
			out = append(out, byte(w>>s))
		}
	}
	return out
}

func floatBits(v []float64) []uint64 {
	bits := make([]uint64, len(v))
	for i, x := range v {
		bits[i] = math.Float64bits(x)
	}
	return bits
}

func intBits(v []int64) []uint64 {
	bits := make([]uint64, len(v))
	for i, x := range v {
		bits[i] = uint64(x)
	}
	return bits
}

func equalBits(a, b []uint64) bool {
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

// TestWordKernelsMatchPortable: for both element types, at every length that
// matters and at every alignment of the destination (the u32 prefix alone
// leaves the words off an 8-byte boundary), the memmove path and the
// per-word loop write the bytes the format defines and read back the bits
// that went in — into a plain Buffer and into an adopted arena, out of an
// unaligned sub-slice, with a slab attached and without.
func TestWordKernelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1000}
	for _, n := range lengths {
		fs, is := wordCase(n, rng)
		wantF, wantI := wantWords(floatBits(fs)), wantWords(intBits(is))
		for off := 0; off < 8; off++ {
			pad := bytes.Repeat([]byte{0xA5}, off)
			eitherPath(func(path string) {
				for _, adopted := range []bool{false, true} {
					var e Buffer
					if adopted {
						e.Adopt(make([]byte, 0, 64)) // outgrown by the long cases
					}
					e.Raw(pad)
					e.Float64Slice(fs)
					e.Int64Slice(is)
					e.Bool(true) // and the appender after a slice lands behind it
					got := append([]byte(nil), e.Bytes()...)
					want := append(append(append(append([]byte(nil), pad...), wantF...), wantI...), 1)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s n=%d off=%d adopted=%v: encoded bytes differ from the format", path, n, off, adopted)
					}
					if adopted {
						e.Detach()
					}
				}
				// Decode from inside a larger buffer, so the words start at
				// off+4 from wherever the allocator put it.
				src := append(append(append([]byte(nil), pad...), wantF...), wantI...)
				for _, slab := range []bool{false, true} {
					d := NewReader(src)
					var s Slab
					if slab {
						s.Limit(2 * n)
						s.Attach(d)
					}
					d.Raw(off)
					gf, gi := d.Float64Slice(), d.Int64Slice()
					if d.Err() != nil || d.Remaining() != 0 {
						t.Fatalf("%s n=%d off=%d slab=%v: Err %v, %d left", path, n, off, slab, d.Err(), d.Remaining())
					}
					if gf == nil || gi == nil {
						t.Fatalf("%s n=%d off=%d slab=%v: a decoded slice is nil", path, n, off, slab)
					}
					if !equalBits(floatBits(gf), floatBits(fs)) || !equalBits(intBits(gi), intBits(is)) {
						t.Fatalf("%s n=%d off=%d slab=%v: decoded words differ", path, n, off, slab)
					}
					if cap(gf) != len(gf) || cap(gi) != len(gi) {
						t.Fatalf("%s n=%d off=%d slab=%v: a decoded slice has spare capacity", path, n, off, slab)
					}
					// The result is a copy: the source may go back to a pool.
					for i := range src {
						src[i] ^= 0xFF
					}
					if !equalBits(floatBits(gf), floatBits(fs)) || !equalBits(intBits(gi), intBits(is)) {
						t.Fatalf("%s n=%d off=%d slab=%v: a decoded slice aliases its source", path, n, off, slab)
					}
					for i := range src {
						src[i] ^= 0xFF
					}
				}
			})
		}
	}
}

// TestWordKernelsProperty: random words, lengths and offsets; both paths, one
// answer.
func TestWordKernelsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	for trial := 0; trial < 500; trial++ {
		n, off := rng.Intn(300), rng.Intn(16)
		fs, is := wordCase(n, rng)
		var img [2][]byte
		var back [2][]uint64
		i := 0
		eitherPath(func(string) {
			var e Buffer
			e.Raw(make([]byte, off))
			e.Float64Slice(fs)
			e.Int64Slice(is)
			img[i] = append([]byte(nil), e.Bytes()...)
			d := slabReader(img[i])
			d.Raw(off)
			back[i] = append(floatBits(d.Float64Slice()), intBits(d.Int64Slice())...)
			if d.Err() != nil {
				t.Fatalf("trial %d: %v", trial, d.Err())
			}
			i++
		})
		if !bytes.Equal(img[0], img[1]) {
			t.Fatalf("trial %d (n=%d off=%d): the two paths encode different bytes", trial, n, off)
		}
		if want := append(floatBits(fs), intBits(is)...); !equalBits(back[0], want) || !equalBits(back[1], want) {
			t.Fatalf("trial %d (n=%d off=%d): decoded words differ from what was encoded", trial, n, off)
		}
	}
}

// TestShortWordsAllocateNothing: the count is checked against what is left
// before anything is carved, allocated or copied, on either path. A count cut
// short costs no allocation at all; a count the buffer cannot back costs the
// error it is reported with, and leaves the slab as it was.
func TestShortWordsAllocateNothing(t *testing.T) {
	cut := []byte{9, 0} // half a count
	var over Buffer
	over.Uint32(1000)
	over.Uint64(7) // one word where a thousand are claimed
	eitherPath(func(path string) {
		var s Slab
		var d Reader
		s.Attach(&d)
		s.Limit(4096)
		s.carve(1) // a chunk is in place: a carve for the claim would move s.w
		before := len(s.w)
		if a := testing.AllocsPerRun(100, func() {
			d.Reset(cut)
			if d.Float64Slice() != nil || d.Int64Slice() != nil {
				t.Fatal("half a count decoded")
			}
		}); a != 0 {
			t.Errorf("%s: a truncated count allocated %v times", path, a)
		}
		if !errors.Is(d.Err(), ErrShort) {
			t.Errorf("%s: truncated count: Err = %v, want ErrShort", path, d.Err())
		}
		for _, get := range []func() bool{
			func() bool { return d.Float64Slice() == nil },
			func() bool { return d.Int64Slice() == nil },
		} {
			d.Reset(over.Bytes())
			if !get() {
				t.Fatalf("%s: a thousand words decoded out of one", path)
			}
			if !errors.Is(d.Err(), ErrShort) || d.Offset() != 4 {
				t.Errorf("%s: over-claimed count: Err = %v at offset %d, want ErrShort at 4", path, d.Err(), d.Offset())
			}
		}
		if len(s.w) != before || s.budget != 4095 {
			t.Errorf("%s: a refused count carved from the slab (%d words left of %d, budget %d)", path, len(s.w), before, s.budget)
		}
	})
}
