// Package pfs emulates the parallel file systems of the paper's platforms —
// the Intel Paragon PFS and TMC CM-5 SFS — over pluggable storage backends.
//
// The file system provides two classes of operation:
//
//   - Independent per-node calls (ReadAt/WriteAt), the "operating system
//     I/O primitives" of the paper's unbuffered baseline. They contend for
//     the simulated disk channels.
//
//   - Synchronized parallel operations (ParallelAppend, ParallelRead,
//     ControlSync), in which every compute node participates and blocks
//     until the combined transfer completes, exactly like the Paragon mode
//     the paper describes: "parallel I/O primitives which transfer a
//     contiguous block of data from each compute node to the file system
//     simultaneously and write those blocks to the file in node order."
//
// Data genuinely moves: a MemBackend or OSBackend holds the real file
// image, so checkpoint/restart round-trips are byte-exact. Virtual time is
// layered on top by the disk cost model in disk.go.
package pfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Backend is the raw storage under a simulated parallel file. Implementations
// must be safe for concurrent use.
type Backend interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the current length of the backing store.
	Size() int64
	// Truncate resizes the backing store.
	Truncate(size int64) error
	// Close releases resources.
	Close() error
}

// BackendFactory opens (creating if needed) the backend for a named file.
type BackendFactory func(name string) (Backend, error)

// MemBackend is an in-memory backend: a growable byte slice.
type MemBackend struct {
	mu   sync.RWMutex
	data []byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{} }

// ReadAt implements io.ReaderAt.
func (m *MemBackend) ReadAt(p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("pfs: negative offset %d", off)
	}
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the store as needed.
func (m *MemBackend) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: negative offset %d", off)
	}
	// A zero-length write must not extend the file (pwrite semantics; the
	// OS backend inherits this from the kernel, so the model must match).
	if len(p) == 0 {
		return 0, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	end := off + int64(len(p))
	if old := int64(len(m.data)); end > old {
		if end <= int64(cap(m.data)) {
			m.data = m.data[:end]
			// Capacity left by a shrink still holds what was there: a write
			// past the old end must leave zeros in the hole, as a file does.
			if off > old {
				clear(m.data[old:off])
			}
		} else {
			// Grow geometrically: many small sequential writes (the
			// unbuffered baseline does hundreds of thousands) must not
			// reallocate the whole image each time.
			newCap := int64(cap(m.data))*2 + 64
			if newCap < end {
				newCap = end
			}
			grown := make([]byte, end, newCap)
			copy(grown, m.data)
			m.data = grown
		}
	}
	copy(m.data[off:end], p)
	return len(p), nil
}

// Size implements Backend.
func (m *MemBackend) Size() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.data))
}

// Truncate implements Backend.
func (m *MemBackend) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("pfs: negative truncate %d", size)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch old := len(m.data); {
	case size <= int64(old):
		m.data = m.data[:size]
	case size <= int64(cap(m.data)):
		// Capacity left by a shrink still holds what was there: the regrown
		// tail must read zero, as a file's does.
		m.data = m.data[:size]
		clear(m.data[old:])
	default:
		grown := make([]byte, size)
		copy(grown, m.data)
		m.data = grown
	}
	return nil
}

// Close implements Backend.
func (m *MemBackend) Close() error { return nil }

// OSBackend stores the file image in a real file on the host file system.
type OSBackend struct {
	f *os.File
}

// NewOSBackend opens (creating if needed) path as a backend.
func NewOSBackend(path string) (*OSBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pfs: open backend: %w", err)
	}
	return &OSBackend{f: f}, nil
}

// ReadAt implements io.ReaderAt.
func (o *OSBackend) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }

// WriteAt implements io.WriterAt.
func (o *OSBackend) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }

// Size implements Backend.
func (o *OSBackend) Size() int64 {
	fi, err := o.f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Truncate implements Backend.
func (o *OSBackend) Truncate(size int64) error { return o.f.Truncate(size) }

// Close implements Backend.
func (o *OSBackend) Close() error { return o.f.Close() }

// MemFactory returns a factory producing fresh in-memory backends.
func MemFactory() BackendFactory {
	return func(string) (Backend, error) { return NewMemBackend(), nil }
}

// OSFactory returns a factory creating file backends under dir. Path
// separators in names are flattened so callers cannot escape dir.
func OSFactory(dir string) BackendFactory {
	return func(name string) (Backend, error) {
		clean := strings.NewReplacer("/", "_", "\\", "_", "..", "_").Replace(name)
		return NewOSBackend(filepath.Join(dir, clean))
	}
}

// ErrInjected is the error returned by FaultyBackend once its budget is
// exhausted; tests use errors.Is against it.
var ErrInjected = errors.New("pfs: injected fault")

// FaultyBackend wraps a backend and fails every I/O after the first
// FailAfter operations — the library's failure-injection hook.
type FaultyBackend struct {
	Backend
	mu        sync.Mutex
	failAfter int
	ops       int
}

// NewFaultyBackend wraps b, allowing failAfter successful I/O operations.
func NewFaultyBackend(b Backend, failAfter int) *FaultyBackend {
	return &FaultyBackend{Backend: b, failAfter: failAfter}
}

func (f *FaultyBackend) tick() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	if f.ops > f.failAfter {
		return fmt.Errorf("%w after %d ops", ErrInjected, f.failAfter)
	}
	return nil
}

// ReadAt fails once the operation budget is exhausted.
func (f *FaultyBackend) ReadAt(p []byte, off int64) (int, error) {
	if err := f.tick(); err != nil {
		return 0, err
	}
	return f.Backend.ReadAt(p, off)
}

// WriteAt fails once the operation budget is exhausted.
func (f *FaultyBackend) WriteAt(p []byte, off int64) (int, error) {
	if err := f.tick(); err != nil {
		return 0, err
	}
	return f.Backend.WriteAt(p, off)
}
