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
		size := min(slabChunkWords, rest)
		if size < n {
			return nil
		}
		s.w = make([]uint64, size)
	}
	w := s.w[:n:n]
	s.w = s.w[n:]
	return w
}

// wordSlice is the n-element result of a slice decode: carved from s as one
// of the two 8-byte element types, or allocated when s declines.
func wordSlice[T int64 | float64](s *Slab, n int) []T {
	if w := s.carve(n); w != nil {
		return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(w))), n)
	}
	return make([]T, n)
}
