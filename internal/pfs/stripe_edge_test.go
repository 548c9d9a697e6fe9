package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"
)

// stripeKinds builds a striped backend over each kind of child, so a case can
// run against both the in-memory model and real files.
var stripeKinds = map[string]func(t *testing.T, k int, unit int64) *StripedBackend{
	"mem": stripedOverMem,
	"os":  stripedOverOS,
}

func stripedOverMem(t *testing.T, k int, unit int64) *StripedBackend {
	t.Helper()
	s, err := NewStripedMemBackend(k, unit)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stripedOverOS stripes over k real files under the test's temporary directory.
func stripedOverOS(t *testing.T, k int, unit int64) *StripedBackend {
	t.Helper()
	dir := t.TempDir()
	children := make([]Backend, k)
	for i := range children {
		b, err := NewOSBackend(filepath.Join(dir, fmt.Sprintf("stripe.%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		children[i] = b
	}
	s, err := NewStripedBackend(children, unit)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStripedEdgeCases drives the stripe math through its corners: requests
// of zero length, requests that start/end exactly on cell boundaries,
// requests spanning several full cells, and reads that run past EOF — over
// both backend kinds, since the OS path has real short-read behavior the
// memory model lacks.
func TestStripedEdgeCases(t *testing.T) {
	const (
		k    = 3
		unit = int64(8)
	)
	fileLen := int(unit)*k*2 + 5 // two full rounds plus a ragged tail (53)
	img := make([]byte, fileLen)
	for i := range img {
		img[i] = byte(i*7 + 1)
	}

	writes := []struct {
		name     string
		off, n   int
		wantSize int64 // size after this write (cumulative over the table)
	}{
		{"zero-length at zero", 0, 0, 0},
		{"zero-length past end", 9999, 0, 0},
		{"first byte", 0, 1, 1},
		{"exactly one cell", 0, int(unit), unit},
		{"cell-boundary start", int(unit), int(unit), 2 * unit},
		{"spans two cells", int(unit) - 3, 6, 2 * unit},
		{"spans all children", 0, int(unit) * k, unit * k},
		{"whole file", 0, fileLen, int64(fileLen)},
		{"ragged tail rewrite", fileLen - 5, 5, int64(fileLen)},
	}
	reads := []struct {
		name   string
		off, n int
		wantN  int  // bytes expected back
		eof    bool // io.EOF expected
	}{
		{"first byte", 0, 1, 1, false},
		{"exactly one cell", 0, int(unit), int(unit), false},
		{"cell-boundary start", int(unit), int(unit), int(unit), false},
		{"last byte of cell", int(unit) - 1, 1, 1, false},
		{"spans two cells", int(unit) - 3, 6, 6, false},
		{"spans all children", 0, int(unit) * k, int(unit) * k, false},
		{"whole file", 0, fileLen, fileLen, false},
		{"tail exactly to EOF", fileLen - 5, 5, 5, false},
		{"read past EOF", fileLen - 3, 10, 3, true},
		{"read at EOF", fileLen, 4, 0, true},
		{"read far past EOF", fileLen + 100, 4, 0, true},
	}

	for kind, mk := range stripeKinds {
		t.Run(kind, func(t *testing.T) {
			sb := mk(t, k, unit)
			for _, w := range writes {
				var src []byte
				if w.n > 0 {
					src = img[w.off : w.off+w.n]
				}
				n, err := sb.WriteAt(src, int64(w.off))
				if err != nil || n != w.n {
					t.Fatalf("write %q: n=%d err=%v", w.name, n, err)
				}
				if got := sb.Size(); got != w.wantSize {
					t.Fatalf("write %q: size=%d want %d", w.name, got, w.wantSize)
				}
			}
			for _, r := range reads {
				p := make([]byte, r.n)
				n, err := sb.ReadAt(p, int64(r.off))
				if n != r.wantN {
					t.Errorf("read %q: n=%d want %d (err=%v)", r.name, n, r.wantN, err)
				}
				if r.eof && !errors.Is(err, io.EOF) {
					t.Errorf("read %q: err=%v want io.EOF", r.name, err)
				}
				if !r.eof && err != nil {
					t.Errorf("read %q: err=%v", r.name, err)
				}
				if r.off < fileLen && !bytes.Equal(p[:n], img[r.off:r.off+n]) {
					t.Errorf("read %q returned wrong bytes", r.name)
				}
			}
			// Zero-length reads: inside the file they are a clean no-op; the
			// at/past-EOF cases follow the flat backends (EOF).
			for _, off := range []int64{0, 3, unit, 2*unit + 1} { // on a cell boundary the fan-out once took it for a read of no children
				if n, err := sb.ReadAt(nil, off); n != 0 || err != nil {
					t.Errorf("zero-length read inside file at %d: n=%d err=%v", off, n, err)
				}
			}
			if _, err := sb.ReadAt(nil, int64(fileLen)); !errors.Is(err, io.EOF) {
				t.Errorf("zero-length read at EOF: err=%v want io.EOF", err)
			}
		})
	}
}

// TestStripedNegativeOffsets: both directions reject negative offsets with a
// non-transient error, matching the flat backends.
func TestStripedNegativeOffsets(t *testing.T) {
	sb, err := NewStripedMemBackend(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.WriteAt([]byte("x"), -1); err == nil || IsTransient(err) {
		t.Fatalf("negative write: %v", err)
	}
	if _, err := sb.ReadAt(make([]byte, 1), -1); err == nil || IsTransient(err) {
		t.Fatalf("negative read: %v", err)
	}
}

// TestStripedSparseWriteReadsZeros: writing past the current end leaves a
// hole that reads back as zeros, on every backend kind — into a buffer that
// held something else, since a hole nobody fills in reads as whatever the
// caller's buffer had (children the write never reached are short or empty).
func TestStripedSparseWriteReadsZeros(t *testing.T) {
	cases := []struct {
		k     int
		unit  int64
		data  string
		off   int64
		readN int
	}{
		{2, 4, "end", 21, 24},
		{4, 16, "hello", 200, 64}, // stops short of the data: three of four children hold nothing at all
		{4, 16, "hello", 200, 205},
	}
	for kind, mk := range stripeKinds {
		t.Run(kind, func(t *testing.T) {
			for _, c := range cases {
				sb := mk(t, c.k, c.unit)
				if _, err := sb.WriteAt([]byte(c.data), c.off); err != nil {
					t.Fatal(err)
				}
				p := bytes.Repeat([]byte{0xFF}, c.readN)
				n, err := sb.ReadAt(p, 0)
				if err != nil || n != c.readN {
					t.Fatalf("%+v: read over hole: n=%d err=%v", c, n, err)
				}
				want := make([]byte, c.readN)
				if int(c.off) < c.readN {
					copy(want[c.off:], c.data)
				}
				if !bytes.Equal(p, want) {
					t.Fatalf("%+v: hole read = %q", c, p)
				}
			}
		})
	}
}
