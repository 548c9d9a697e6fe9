package enc

import "unsafe"

// Slab is a bump allocator of 8-byte words for the slices a run of Readers
// decode: one chunk serves many small Int64Slice/Float64Slice results in
// place of one allocation each. The zero value is ready; a Slab belongs to
// one goroutine.
//
// A carved slice is the caller's for good. Chunks come from the garbage
// collector and go back to it — never pooled, never reset, never carved
// twice — so a slice stays valid and untouched however long it is kept, and
// what keeping one costs is the chunk around it: at most slabChunkWords words.
type Slab struct {
	w []uint64 // the uncarved tail of the current chunk
	// budget is how many words the record being decoded could still yield, as
	// last set by Limit and counted down by every slice decoded since. A new
	// chunk is never larger, so a stream of three small elements allocates
	// what three small elements need; the tail a record leaves serves the next.
	budget int
}

const (
	// slabChunkWords is the largest chunk: 64 KiB.
	slabChunkWords = 64 << 10 / 8
	// slabMaxCarve is the longest slice carved; a longer one is allocated on
	// its own, so that a chunk abandoned for being too short wastes at most
	// an eighth of itself.
	slabMaxCarve = slabChunkWords / 8
)

// Attach makes d carve its decoded slices from s; d.Reset does not undo it.
func (s *Slab) Attach(d *Reader) { d.slab = s }

// Limit tells s that the Readers attached to it now hold a new record, which
// decodes to at most words words.
func (s *Slab) Limit(words int) { s.budget = words }

// carve returns n fresh words with no spare capacity, or nil when the caller
// should allocate for itself: there is no slab, nothing to carve, a slice too
// long to share a chunk, or one the budget does not cover.
func (s *Slab) carve(n int) []uint64 {
	if s == nil || n == 0 {
		return nil
	}
	rest := s.budget // this slice included
	s.budget -= n
	if n > slabMaxCarve {
		return nil
	}
	if n > len(s.w) {
		// The chunk would be min(slabChunkWords, rest) words, fewer than n
		// exactly when rest is (n ≤ slabMaxCarve): tested this way, carve
		// keeps carveWords within the inliner's budget.
		if rest < n {
			return nil
		}
		s.w = make([]uint64, min(slabChunkWords, rest))
	}
	w := s.w[:n:n]
	s.w = s.w[n:]
	return w
}

// appendWords is the one slice decode behind the four Reader methods: the
// words d decodes next, appended to dst — in dst's own memory when its spare
// capacity holds them, or else in len(dst)+n fresh words with no spare
// capacity, carved from d's slab as one of the two 8-byte element types (or
// allocated when the slab declines), dst's prefix copied in. Either way n
// words come off the record's budget; a prefix rides along in the carve
// without counting as decoded. portable is the per-word kernel a big-endian
// host runs.
func appendWords[T int64 | float64](d *Reader, dst []T, portable func([]T, []byte)) []T {
	p := d.takeWords()
	if p == nil {
		return dst
	}
	s, l, n := d.slab, len(dst), len(p)/8
	if dst == nil {
		// The plain form, on its own: through the prefix arithmetic below, a
		// record of small elements extracted about 7 % slower. An empty
		// slice decoded into nothing comes back empty, not nil.
		out := carveWords[T](s, n)
		if out == nil {
			out = make([]T, n)
		}
		fillWords(out, p, portable)
		return out
	}
	var out []T
	if n <= cap(dst)-l {
		if s != nil {
			s.budget -= n
		}
		out = dst[:l+n]
	} else {
		if s != nil {
			s.budget += l
		}
		if out = carveWords[T](s, l+n); out == nil {
			out = make([]T, l+n)
		}
		copy(out, dst)
	}
	fillWords(out[l:], p, portable)
	return out
}

// carveWords is carve's words as one of the two 8-byte element types: nil
// when the slab declines.
func carveWords[T int64 | float64](s *Slab, n int) []T {
	w := s.carve(n)
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(w))), len(w))
}

// fillWords decodes p's 8·len(out) bytes into out: one copy on a
// little-endian host, portable on any other.
func fillWords[T int64 | float64](out []T, p []byte, portable func([]T, []byte)) {
	if hostLittleEndian {
		copy(wordBytes(out), p)
	} else {
		portable(out, p)
	}
}
