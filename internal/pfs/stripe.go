package pfs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"pcxxstreams/internal/dsmon"
)

// StripedBackend scatters a file image across several child backends in
// round-robin stripe units, the way the Paragon PFS striped files across
// its I/O nodes ("Obtaining high I/O performance using these interfaces
// often requires a knowledge of parallel I/O, disk striping, and memory
// alignment of I/O buffers" — §2; the library encapsulates exactly this).
// Byte i lives on child (i/unit) mod k at offset (i/(unit·k))·unit +
// i mod unit.
type StripedBackend struct {
	mu       sync.Mutex
	children []Backend
	unit     int64
	size     int64
	// fanoutHist, when set, observes the number of concurrent child
	// transfers per multi-cell operation (pfs_stripe_fanout).
	fanoutHist atomic.Pointer[dsmon.Histogram]
}

// maxStripeFanout bounds the goroutine pool of one striped operation: at
// most this many child backends transfer concurrently, the rest of the
// involved children queue for a slot.
const maxStripeFanout = 8

// fanoutBuckets spans 2 children (the smallest multi-child op) to wide
// arrays.
var fanoutBuckets = []float64{2, 3, 4, 6, 8, 12, 16, 32}

// SetMonitor binds the pfs_stripe_fanout histogram in m's registry. The
// file system calls this (through its resilient wrapper) when a monitor is
// attached; safe to call while operations are in flight.
func (s *StripedBackend) SetMonitor(m *dsmon.Monitor) {
	s.fanoutHist.Store(m.Registry().Histogram("pfs_stripe_fanout",
		"concurrent child transfers per multi-cell striped operation", fanoutBuckets))
}

// NewStripedBackend stripes across the given children with the given unit
// (bytes per stripe cell). At least one child and a positive unit are
// required.
func NewStripedBackend(children []Backend, unit int64) (*StripedBackend, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("pfs: striped backend needs at least one child")
	}
	if unit <= 0 {
		return nil, fmt.Errorf("pfs: stripe unit must be positive, got %d", unit)
	}
	return &StripedBackend{children: children, unit: unit}, nil
}

// NewStripedMemBackend is shorthand for striping across k fresh in-memory
// backends.
func NewStripedMemBackend(k int, unit int64) (*StripedBackend, error) {
	children := make([]Backend, k)
	for i := range children {
		children[i] = NewMemBackend()
	}
	return NewStripedBackend(children, unit)
}

// WriteAt implements io.WriterAt across the stripes. Multi-child writes
// transfer to the involved children concurrently; on error, zero progress
// is reported (a concurrent fan-out has no contiguous prefix to resume
// from) and the retry layer above re-issues the whole — idempotent —
// operation.
func (s *StripedBackend) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: negative offset %d", off)
	}
	// Zero-length writes must not extend the file (pwrite semantics): with
	// no bytes to place, the size bookkeeping below would otherwise record
	// off as the new end.
	if len(p) == 0 {
		return 0, nil
	}
	if err := s.fanout(p, off, true); err != nil {
		return 0, err
	}
	end := off + int64(len(p))
	s.mu.Lock()
	if end > s.size {
		s.size = end
	}
	s.mu.Unlock()
	return len(p), nil
}

// ReadAt implements io.ReaderAt across the stripes, fanning multi-child
// reads out concurrently like WriteAt.
func (s *StripedBackend) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: negative offset %d", off)
	}
	size := s.Size()
	if off >= size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > size {
		want = size - off
	}
	if err := s.fanout(p[:want], off, false); err != nil {
		return 0, err
	}
	if int64(len(p)) > want {
		return int(want), io.EOF
	}
	return int(want), nil
}

// fanout moves [off, off+len(p)) between p and the child backends. An
// operation confined to a single child runs inline; a multi-child operation
// has one walk per involved child, each over only the cells that live on its
// child, taken in turn by the caller's goroutine and up to
// maxStripeFanout-1 helpers. The walks write to pairwise-disjoint sub-slices
// of p and share nothing mutable but the fan-out's one state value, so the
// fan-out is race-free by construction; the first error wins and stops the
// remaining walks at their next cell boundary.
func (s *StripedBackend) fanout(p []byte, off int64, write bool) error {
	k := len(s.children)
	n := int64(len(p))
	if n == 0 { // no cell to visit, and the width below counts from the last byte
		return nil
	}
	firstCell := off / s.unit
	width := int((off+n-1)/s.unit - firstCell + 1)
	if width > k {
		width = k
	}
	if width == 1 {
		return s.childWalk(p, off, int(firstCell%int64(k)), write, nil)
	}
	if h := s.fanoutHist.Load(); h != nil {
		h.Observe(float64(width))
	}
	st := &stripeFanout{s: s, p: p, off: off, write: write, width: int32(width)}
	helpers := min(width, maxStripeFanout) - 1
	st.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go st.help()
	}
	st.walk()
	st.wg.Wait()
	return st.first
}

// stripeFanout is the state of one multi-child operation: what it moves, the
// next child nobody has taken yet, and the first error.
type stripeFanout struct {
	s     *StripedBackend
	p     []byte
	off   int64
	write bool
	width int32
	next  atomic.Int32
	stop  atomic.Bool
	wg    sync.WaitGroup
	mu    sync.Mutex
	first error
}

// walk takes involved children, one at a time, until none is left.
func (st *stripeFanout) walk() {
	s := st.s
	firstCell := st.off / s.unit
	for w := st.next.Add(1) - 1; w < st.width; w = st.next.Add(1) - 1 {
		child := int((firstCell + int64(w)) % int64(len(s.children)))
		if err := s.childWalk(st.p, st.off, child, st.write, &st.stop); err != nil {
			st.stop.Store(true)
			st.mu.Lock()
			if st.first == nil {
				st.first = err
			}
			st.mu.Unlock()
		}
	}
}

func (st *stripeFanout) help() {
	defer st.wg.Done()
	st.walk()
}

// childWalk transfers every cell of [off, off+len(p)) that lives on child,
// in ascending offset order. Child transfers go through the retry loop
// so a transient fault on one stripe device (e.g. a chaos-wrapped child) is
// resumed in place instead of failing the whole striped operation.
func (s *StripedBackend) childWalk(p []byte, off int64, child int, write bool, stop *atomic.Bool) error {
	k := int64(len(s.children))
	end := off + int64(len(p))
	firstCell := off / s.unit
	// First cell at or after firstCell that maps to this child.
	cell := firstCell + ((int64(child)-firstCell)%k+k)%k
	for ; cell*s.unit < end; cell += k {
		if stop != nil && stop.Load() {
			return nil
		}
		lo := cell * s.unit
		a, b := lo, lo+s.unit
		if a < off {
			a = off
		}
		if b > end {
			b = end
		}
		childOff := (cell/k)*s.unit + (a - lo)
		seg := p[a-off : b-off]
		n, err := retryAt(s.children[child], write, seg, childOff, nil)
		if !write && err == io.EOF {
			// ReadAt has already clipped the read to the striped size, so what
			// a short child lacks is a hole: zeros, not this layer's EOF.
			clear(seg[n:])
			err = nil
		}
		if err != nil {
			return fmt.Errorf("pfs: stripe %d: %w", child, err)
		}
	}
	return nil
}

// Layout implements LayoutProvider: the real stripe geometry.
func (s *StripedBackend) Layout() Layout {
	return Layout{StripeUnit: s.unit, StripeFactor: len(s.children)}
}

// Size implements Backend.
func (s *StripedBackend) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Truncate implements Backend as the per-child operation it is: each child
// is truncated to its share of the first size bytes, and no data passes
// through here. After a shrink to S and a regrow, bytes in [S, newSize) read
// as zero, as on the flat backends: no child keeps a byte past its share, and
// what a child later grows over — by its own Truncate or by a WriteAt past its
// end — it zero-fills itself; what it never grows over, ReadAt reads as a hole.
func (s *StripedBackend) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("pfs: negative truncate %d", size)
	}
	k := int64(len(s.children))
	full, rem := size/s.unit, size%s.unit
	for c := int64(0); c < k; c++ {
		share := full / k * s.unit
		switch {
		case c < full%k:
			share += s.unit
		case c == full%k:
			share += rem
		}
		if err := s.children[c].Truncate(share); err != nil {
			return fmt.Errorf("pfs: stripe %d: %w", c, err)
		}
	}
	s.mu.Lock()
	s.size = size
	s.mu.Unlock()
	return nil
}

// Close closes every child.
func (s *StripedBackend) Close() error {
	var first error
	for _, c := range s.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StripedMemFactory returns a factory producing files striped over k fresh
// in-memory backends with the given unit.
func StripedMemFactory(k int, unit int64) BackendFactory {
	return func(string) (Backend, error) { return NewStripedMemBackend(k, unit) }
}
