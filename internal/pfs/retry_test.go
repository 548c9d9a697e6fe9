package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"pcxxstreams/internal/vtime"
)

// flakyBackend wraps a MemBackend and serves at most chunk bytes per call,
// failing the remainder with a transient error — the resumable-short-transfer
// shape the retry helpers exist for. failN makes the first failN calls fail
// outright (still transiently) before touching the store.
type flakyBackend struct {
	*MemBackend
	chunk int
	failN int
	calls int
}

func (f *flakyBackend) step() bool {
	f.calls++
	return f.calls <= f.failN
}

func (f *flakyBackend) ReadAt(p []byte, off int64) (int, error) {
	if f.step() {
		return 0, fmt.Errorf("%w: flaky read", ErrTransient)
	}
	if f.chunk > 0 && len(p) > f.chunk {
		n, err := f.MemBackend.ReadAt(p[:f.chunk], off)
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: flaky short read", ErrTransient)
	}
	return f.MemBackend.ReadAt(p, off)
}

func (f *flakyBackend) WriteAt(p []byte, off int64) (int, error) {
	if f.step() {
		return 0, fmt.Errorf("%w: flaky write", ErrTransient)
	}
	if f.chunk > 0 && len(p) > f.chunk {
		n, err := f.MemBackend.WriteAt(p[:f.chunk], off)
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: flaky short write", ErrTransient)
	}
	return f.MemBackend.WriteAt(p, off)
}

func TestRetryWriteResumesShortTransfers(t *testing.T) {
	fb := &flakyBackend{MemBackend: NewMemBackend(), chunk: 7}
	want := []byte("the quick brown fox jumps over the lazy dog")
	var fs FileSystem
	n, err := retryAt(fb, true, want, 3, &fs)
	if err != nil || n != len(want) {
		t.Fatalf("retryAt(write) = %d, %v", n, err)
	}
	got := make([]byte, len(want))
	if _, err := fb.MemBackend.ReadAt(got, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed write produced %q, want %q", got, want)
	}
	if fs.Stats().IORetries == 0 {
		t.Error("no retries reported for a 7-byte-chunk backend")
	}
}

func TestRetryReadResumesShortTransfers(t *testing.T) {
	mem := NewMemBackend()
	want := []byte("0123456789abcdef0123456789abcdef")
	mem.WriteAt(want, 0)
	fb := &flakyBackend{MemBackend: mem, chunk: 5, failN: 2}
	got := make([]byte, len(want))
	var fs FileSystem
	n, err := retryAt(fb, false, got, 0, &fs)
	if err != nil || n != len(want) {
		t.Fatalf("retryAt(read) = %d, %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed read produced %q, want %q", got, want)
	}
	if retries := fs.Stats().IORetries; retries < 2 {
		t.Errorf("retries = %d, want at least the 2 scripted outright failures", retries)
	}
}

func TestRetryZeroLengthIsNoop(t *testing.T) {
	// A zero-length transfer must not touch the backend at all (a flaky
	// backend would fail it, and pfs issues zero-length ops for empty
	// blocks).
	fb := &flakyBackend{MemBackend: NewMemBackend(), failN: 1 << 30}
	if n, err := retryAt(fb, false, nil, 0, nil); n != 0 || err != nil {
		t.Fatalf("zero-length read = %d, %v", n, err)
	}
	if n, err := retryAt(fb, true, nil, 0, nil); n != 0 || err != nil {
		t.Fatalf("zero-length write = %d, %v", n, err)
	}
	if fb.calls != 0 {
		t.Fatalf("zero-length ops reached the backend %d times", fb.calls)
	}
}

func TestRetryExhaustionSurfacesCleanly(t *testing.T) {
	fb := &flakyBackend{MemBackend: NewMemBackend(), failN: 1 << 30}
	_, err := retryAt(fb, true, []byte("doomed"), 0, nil)
	if err == nil {
		t.Fatal("write succeeded against an always-failing backend")
	}
	if !IsTransient(err) {
		t.Fatalf("exhaustion error lost its transient cause: %v", err)
	}
	if fb.calls != ioMaxAttempts {
		t.Fatalf("backend saw %d attempts, want %d", fb.calls, ioMaxAttempts)
	}
}

func TestRetryPropagatesEOF(t *testing.T) {
	mem := NewMemBackend()
	mem.WriteAt([]byte("short"), 0)
	p := make([]byte, 64)
	var fs FileSystem
	n, err := retryAt(mem, false, p, 0, &fs)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
	if fs.Stats().IORetries != 0 {
		t.Error("genuine EOF retried")
	}
	if n != 5 || string(p[:5]) != "short" {
		t.Fatalf("partial read = %d %q", n, p[:n])
	}
	if IsTransient(err) {
		t.Fatal("io.EOF classified as transient")
	}
}

func TestRetryDoesNotRetryInjectedFaults(t *testing.T) {
	// FaultyBackend models a dead disk: its errors are permanent, and the
	// retry helpers must hand them straight up instead of burning attempts.
	fb := NewFaultyBackend(NewMemBackend(), 0)
	var fs FileSystem
	_, err := retryAt(fb, true, []byte("x"), 0, &fs)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if fs.Stats().IORetries != 0 {
		t.Error("injected fault retried")
	}
	if IsTransient(err) {
		t.Fatal("injected fault classified as transient")
	}
}

// TestFileSystemRetriesFlakyFactory: the resilient layer the file system
// wraps around factory backends absorbs transient faults end-to-end, and the
// spent retries appear in both the run stats and the dsmon counter.
func TestFileSystemRetriesFlakyFactory(t *testing.T) {
	factory := func(string) (Backend, error) {
		return &flakyBackend{MemBackend: NewMemBackend(), chunk: 11}, nil
	}
	fs := NewFileSystem(vtime.Paragon(), factory)
	var clk vtime.Clock
	h, err := fs.Open("flaky", 1, 0, &clk, true)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("resilience!"), 100)
	if err := h.WriteAt(want, 0); err != nil {
		t.Fatalf("write through flaky backend: %v", err)
	}
	got := make([]byte, len(want))
	if err := h.ReadAt(got, 0); err != nil {
		t.Fatalf("read through flaky backend: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("flaky round trip corrupted data")
	}
	if n := fs.Stats().IORetries; n == 0 {
		t.Error("IORetries stat is zero after a flaky run")
	}
}

// TestFileSystemDoesNotRetryInjectedFaults: InjectFault's permanent faults
// must cut straight through the retry layer — a crashed disk is not a
// transient hiccup, and retrying it ioMaxAttempts times would only delay the
// abort.
func TestFileSystemDoesNotRetryInjectedFaults(t *testing.T) {
	fs := NewMemFS(vtime.Paragon())
	var clk vtime.Clock
	h, err := fs.Open("doomed", 1, 0, &clk, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.InjectFault("doomed", 0); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteAt([]byte("fails"), 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-fault write = %v, want ErrInjected", err)
	}
	if n := fs.Stats().IORetries; n != 0 {
		t.Errorf("permanent fault burned %d retries", n)
	}
}
