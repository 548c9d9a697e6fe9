package pfs

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"pcxxstreams/internal/vtime"
)

func TestStripedBasicRoundTrip(t *testing.T) {
	s, err := NewStripedMemBackend(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("The quick brown fox jumps over the lazy dog")
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if s.Size() != int64(len(data)) {
		t.Fatalf("Size = %d", s.Size())
	}
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: %q", got)
	}
	// Unaligned sub-reads.
	mid := make([]byte, 13)
	if _, err := s.ReadAt(mid, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mid, data[7:20]) {
		t.Fatalf("sub-read: %q", mid)
	}
}

func TestStripedActuallyStripes(t *testing.T) {
	children := []Backend{NewMemBackend(), NewMemBackend()}
	s, err := NewStripedBackend(children, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteAt([]byte("AAAABBBBCCCCDDDD"), 0); err != nil {
		t.Fatal(err)
	}
	// Child 0 gets cells 0 and 2 (AAAA, CCCC); child 1 gets BBBB, DDDD.
	c0 := children[0].(*MemBackend).Bytes()
	c1 := children[1].(*MemBackend).Bytes()
	if string(c0) != "AAAACCCC" {
		t.Fatalf("child 0 = %q", c0)
	}
	if string(c1) != "BBBBDDDD" {
		t.Fatalf("child 1 = %q", c1)
	}
}

func TestStripedValidation(t *testing.T) {
	if _, err := NewStripedBackend(nil, 4); err == nil {
		t.Error("no children accepted")
	}
	if _, err := NewStripedMemBackend(2, 0); err == nil {
		t.Error("zero unit accepted")
	}
	s, _ := NewStripedMemBackend(2, 4)
	if _, err := s.WriteAt([]byte("x"), -1); err == nil {
		t.Error("negative write offset accepted")
	}
	if _, err := s.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative read offset accepted")
	}
	if err := s.Truncate(-1); err == nil {
		t.Error("negative truncate accepted")
	}
}

func TestStripedEOF(t *testing.T) {
	s, _ := NewStripedMemBackend(2, 4)
	s.WriteAt([]byte("abcdef"), 0)
	buf := make([]byte, 10)
	n, err := s.ReadAt(buf, 2)
	if n != 4 || err != io.EOF {
		t.Fatalf("short read = (%d, %v), want (4, EOF)", n, err)
	}
	if _, err := s.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("read past end: %v", err)
	}
}

func TestStripedTruncate(t *testing.T) {
	s, _ := NewStripedMemBackend(3, 2)
	s.WriteAt([]byte("0123456789"), 0)
	if err := s.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 4 {
		t.Fatalf("Size = %d", s.Size())
	}
	// Regrow: the tail must be zeros, not stale digits.
	if err := s.Truncate(10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if _, err := s.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{'0', '1', '2', '3', 0, 0, 0, 0, 0, 0}) {
		t.Fatalf("after shrink+grow: %q", buf)
	}
}

// countingChild counts what a striped backend asks of one child, and fails
// Truncate when told to.
type countingChild struct {
	Backend
	truncates, writes atomic.Int64
	failTruncate      bool
}

func (c *countingChild) WriteAt(p []byte, off int64) (int, error) {
	c.writes.Add(1)
	return c.Backend.WriteAt(p, off)
}

func (c *countingChild) Truncate(size int64) error {
	c.truncates.Add(1)
	if c.failTruncate {
		return ErrInjected
	}
	return c.Backend.Truncate(size)
}

// TestStripedTruncateIsPerChild: truncating a striped file is one Truncate on
// each child and no write on any — to zero (what every re-open for overwrite
// costs) and growing alike — each child ends at exactly its share, and a
// child's refusal is reported under its stripe with the size left alone.
func TestStripedTruncateIsPerChild(t *testing.T) {
	const (
		k     = 4
		unit  = int64(64 << 10)
		image = 8 << 20
	)
	kids := make([]*countingChild, k)
	children := make([]Backend, k)
	for i := range kids {
		kids[i] = &countingChild{Backend: NewMemBackend()}
		children[i] = kids[i]
	}
	s, err := NewStripedBackend(children, unit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteAt(bytes.Repeat([]byte{0xEE}, image), 0); err != nil {
		t.Fatal(err)
	}
	expect := func(what string, shares ...int64) {
		t.Helper()
		for i, c := range kids {
			if tr, wr := c.truncates.Swap(0), c.writes.Swap(0); tr != 1 || wr != 0 {
				t.Errorf("%s: child %d saw %d truncates and %d writes, want 1 and 0", what, i, tr, wr)
			}
			if got := c.Size(); got != shares[i] {
				t.Errorf("%s: child %d holds %d bytes, its share is %d", what, i, got, shares[i])
			}
		}
	}
	for _, c := range kids {
		c.writes.Store(0)
	}
	if err := s.Truncate(0); err != nil {
		t.Fatal(err)
	}
	expect("Truncate(0)", 0, 0, 0, 0)

	// 129 full cells and 5 bytes: 32 rounds, then child 0 one cell more and
	// child 1 the ragged end.
	grown := 129*unit + 5
	if err := s.Truncate(grown); err != nil {
		t.Fatal(err)
	}
	expect("Truncate(grow)", 33*unit, 32*unit+5, 32*unit, 32*unit)
	if s.Size() != grown {
		t.Fatalf("Size = %d after Truncate(%d)", s.Size(), grown)
	}
	tail := bytes.Repeat([]byte{0xFF}, 64)
	if n, err := s.ReadAt(tail, grown-64); n != 64 || err != nil || !bytes.Equal(tail, make([]byte, 64)) {
		t.Fatalf("regrown tail = (%d, %v) %x, want zeros", n, err, tail)
	}

	kids[2].failTruncate = true
	err = s.Truncate(0)
	if err == nil || !errors.Is(err, ErrInjected) || !strings.HasPrefix(err.Error(), "pfs: stripe 2: ") {
		t.Fatalf("Truncate with child 2 refusing = %v, want pfs: stripe 2: … wrapping ErrInjected", err)
	}
	if s.Size() != grown {
		t.Fatalf("Size = %d after a failed Truncate, want %d unchanged", s.Size(), grown)
	}
}

// BenchmarkStripedReopen: the checkpoint's cycle at this layer — open for
// overwrite, append 8 MiB, close — on the striped store and the flat one.
func BenchmarkStripedReopen(b *testing.B) {
	const image = 8 << 20
	block := bytes.Repeat([]byte{0xEE}, image)
	for _, c := range []struct {
		name    string
		factory BackendFactory
	}{{"striped", StripedMemFactory(4, 64<<10)}, {"flat", MemFactory()}} {
		b.Run(c.name, func(b *testing.B) {
			fs := NewFileSystem(testProfile(), c.factory)
			var clock vtime.Clock
			b.SetBytes(image)
			for i := 0; i < b.N; i++ {
				h, err := fs.Open("f", 1, 0, &clock, true)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.ParallelAppend(block); err != nil {
					b.Fatal(err)
				}
				if err := h.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestStripedQuick: random single-write/read pairs agree with a flat model
// across stripe geometries.
func TestStripedQuick(t *testing.T) {
	fn := func(data []byte, off16 uint16, k8, unit8 uint8) bool {
		off := int64(off16 % 2048)
		k := int(k8)%5 + 1
		unit := int64(unit8)%63 + 1
		flat := NewMemBackend()
		striped, err := NewStripedMemBackend(k, unit)
		if err != nil {
			return false
		}
		flat.WriteAt(data, off)
		striped.WriteAt(data, off)
		if flat.Size() != striped.Size() {
			return false
		}
		if flat.Size() == 0 {
			return true
		}
		a := make([]byte, flat.Size())
		b := make([]byte, striped.Size())
		flat.ReadAt(a, 0)
		striped.ReadAt(b, 0)
		return bytes.Equal(a, b)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestStripedUnderFullPipeline: a machine run writing and reading a
// d/stream over a striped file system behaves identically to the flat one.
func TestStripedUnderFullPipeline(t *testing.T) {
	prof := vtime.Challenge()
	flatFS := NewMemFS(prof)
	stripedFS := NewFileSystem(prof, StripedMemFactory(4, 1024))

	runScript := func(fs *FileSystem) []byte {
		times := spmdFS(t, fs, 3, func(rank int, clock *vtime.Clock) error {
			h, err := fs.Open("f", 3, rank, clock, true)
			if err != nil {
				return err
			}
			defer h.Close()
			block := bytes.Repeat([]byte{byte('a' + rank)}, 700+rank*13)
			if _, err := h.ParallelAppend(block); err != nil {
				return err
			}
			got, err := h.ParallelRead(Range{Off: 0, Len: 700})
			if err != nil {
				return err
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{'a'}, 700)) {
				return io.ErrUnexpectedEOF
			}
			return nil
		})
		_ = times
		img, err := fs.Image("f")
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	if !bytes.Equal(runScript(flatFS), runScript(stripedFS)) {
		t.Fatal("striped and flat file systems produced different images")
	}
}
