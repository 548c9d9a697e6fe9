package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/vtime"
)

// spmdFS runs body on n node goroutines against one file system, returning
// each node's final virtual time.
func spmdFS(t *testing.T, fs *FileSystem, n int, body func(rank int, clock *vtime.Clock) error) []float64 {
	t.Helper()
	clocks := make([]vtime.Clock, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = body(r, &clocks[r])
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	out := make([]float64, n)
	for i := range clocks {
		out[i] = clocks[i].Now()
	}
	return out
}

func testProfile() vtime.Profile {
	p := vtime.Challenge()
	return p
}

func TestMemBackendReadWrite(t *testing.T) {
	m := NewMemBackend()
	if _, err := m.WriteAt([]byte("hello"), 3); err != nil {
		t.Fatal(err)
	}
	if got := m.Size(); got != 8 {
		t.Fatalf("Size = %d, want 8", got)
	}
	buf := make([]byte, 5)
	if _, err := m.ReadAt(buf, 3); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
	// Leading gap is zero-filled.
	head := make([]byte, 3)
	if _, err := m.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, []byte{0, 0, 0}) {
		t.Fatalf("gap = %v", head)
	}
}

func TestMemBackendShortRead(t *testing.T) {
	m := NewMemBackend()
	m.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 10)
	n, err := m.ReadAt(buf, 1)
	if n != 2 || err != io.EOF {
		t.Fatalf("ReadAt = (%d, %v), want (2, EOF)", n, err)
	}
	if _, err := m.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("read past end: %v, want EOF", err)
	}
	if _, err := m.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestMemBackendTruncate(t *testing.T) {
	m := NewMemBackend()
	m.WriteAt([]byte("0123456789"), 0)
	if err := m.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 4 {
		t.Fatalf("Size = %d", m.Size())
	}
	if err := m.Truncate(8); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	m.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
		t.Fatalf("after grow: %q", buf)
	}
	if err := m.Truncate(-1); err == nil {
		t.Fatal("negative truncate accepted")
	}
}

func TestOSBackend(t *testing.T) {
	dir := t.TempDir()
	b, err := NewOSBackend(filepath.Join(dir, "f.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.WriteAt([]byte("paragon"), 2); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 9 {
		t.Fatalf("Size = %d, want 9", b.Size())
	}
	buf := make([]byte, 7)
	if _, err := b.ReadAt(buf, 2); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "paragon" {
		t.Fatalf("read %q", buf)
	}
	if err := b.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 2 {
		t.Fatalf("Size after truncate = %d", b.Size())
	}
}

// TestBackendsEquivalent: the same operation script yields identical images
// on the memory and OS backends.
func TestBackendsEquivalent(t *testing.T) {
	dir := t.TempDir()
	osb, err := NewOSBackend(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	defer osb.Close()
	mem := NewMemBackend()
	script := []struct {
		data []byte
		off  int64
	}{
		{[]byte("alpha"), 0},
		{[]byte("beta"), 10},
		{[]byte("overlapping"), 3},
		{[]byte{0xFF}, 20},
	}
	for _, s := range script {
		if _, err := mem.WriteAt(s.data, s.off); err != nil {
			t.Fatal(err)
		}
		if _, err := osb.WriteAt(s.data, s.off); err != nil {
			t.Fatal(err)
		}
	}
	if mem.Size() != osb.Size() {
		t.Fatalf("sizes differ: %d vs %d", mem.Size(), osb.Size())
	}
	a := make([]byte, mem.Size())
	b := make([]byte, osb.Size())
	mem.ReadAt(a, 0)
	osb.ReadAt(b, 0)
	if !bytes.Equal(a, b) {
		t.Fatalf("images differ:\nmem %v\nos  %v", a, b)
	}
}

// TestWriteAfterShrinkLeavesZeros: on every backend, a write past the end of
// a file that was shrunk leaves zeros in the hole, not what the file held
// before the shrink — a store that keeps its capacity must clear it.
func TestWriteAfterShrinkLeavesZeros(t *testing.T) {
	osb, err := NewOSBackend(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	striped, err := NewStripedMemBackend(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		b    Backend
	}{{"mem", NewMemBackend()}, {"os", osb}, {"striped-mem", striped}} {
		t.Run(c.name, func(t *testing.T) {
			defer c.b.Close()
			if _, err := c.b.WriteAt(bytes.Repeat([]byte{0xFF}, 100), 0); err != nil {
				t.Fatal(err)
			}
			if err := c.b.Truncate(10); err != nil {
				t.Fatal(err)
			}
			if _, err := c.b.WriteAt([]byte{1}, 50); err != nil {
				t.Fatal(err)
			}
			want := append(bytes.Repeat([]byte{0xFF}, 10), make([]byte, 41)...)
			want[50] = 1
			got := make([]byte, 51)
			if n, err := c.b.ReadAt(got, 0); n != len(got) || (err != nil && err != io.EOF) {
				t.Fatalf("ReadAt = %d, %v", n, err)
			}
			if c.b.Size() != 51 || !bytes.Equal(got, want) {
				t.Fatalf("size %d, image %v\nwant %v", c.b.Size(), got, want)
			}
		})
	}
}

// TestMemTruncateRegrowsInPlace: a shrink keeps the capacity, and growing
// back inside it is a reslice and a clear of the tail — no second image, and
// zeros where the old bytes were. The striped store's per-child truncate
// leans on this path every time a file is re-opened for overwrite.
func TestMemTruncateRegrowsInPlace(t *testing.T) {
	const size = 1 << 20
	m := NewMemBackend()
	if _, err := m.WriteAt(bytes.Repeat([]byte{0xFF}, size), 0); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if err := m.Truncate(100); err != nil {
			t.Fatal(err)
		}
		if err := m.Truncate(size); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		cycle()
	} else if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("shrink and regrow inside capacity: %.1f allocs, want 0", avg)
	}
	got := make([]byte, size)
	if n, err := m.ReadAt(got, 0); n != size || err != nil {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	want := make([]byte, size)
	copy(want, bytes.Repeat([]byte{0xFF}, 100))
	if !bytes.Equal(got, want) {
		t.Fatal("regrown tail does not read zero")
	}
}

func TestFaultyBackend(t *testing.T) {
	fb := NewFaultyBackend(NewMemBackend(), 2)
	if _, err := fb.WriteAt([]byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.WriteAt([]byte("b"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.WriteAt([]byte("c"), 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd op err = %v, want ErrInjected", err)
	}
	if _, err := fb.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("read err = %v, want ErrInjected", err)
	}
}

func TestOpenValidation(t *testing.T) {
	fs := NewMemFS(testProfile())
	var c vtime.Clock
	if _, err := fs.Open("f", 0, 0, &c, false); err == nil {
		t.Error("nprocs=0 accepted")
	}
	if _, err := fs.Open("f", 2, 2, &c, false); err == nil {
		t.Error("rank==nprocs accepted")
	}
}

func TestOpenChargesLatency(t *testing.T) {
	fs := NewMemFS(testProfile())
	var c vtime.Clock
	h, err := fs.Open("f", 1, 0, &c, false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if c.Now() != testProfile().OpenLatency {
		t.Fatalf("clock = %v, want %v", c.Now(), testProfile().OpenLatency)
	}
}

func TestIndependentWriteReadRoundTrip(t *testing.T) {
	fs := NewMemFS(testProfile())
	var c vtime.Clock
	h, err := fs.Open("f", 1, 0, &c, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	want := []byte("unbuffered bytes")
	if err := h.WriteAt(want, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := h.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
	if c.Now() <= testProfile().OpenLatency {
		t.Fatal("I/O ops charged no time")
	}
}

func TestReadPastEndFails(t *testing.T) {
	fs := NewMemFS(testProfile())
	var c vtime.Clock
	h, _ := fs.Open("f", 1, 0, &c, true)
	defer h.Close()
	if err := h.ReadAt(make([]byte, 10), 0); err == nil {
		t.Fatal("read of empty file succeeded")
	}
}

func TestClosedHandleRejected(t *testing.T) {
	fs := NewMemFS(testProfile())
	var c vtime.Clock
	h, _ := fs.Open("f", 1, 0, &c, true)
	h.Close()
	if err := h.WriteAt([]byte("x"), 0); err == nil {
		t.Error("write on closed handle accepted")
	}
	if err := h.ReadAt(make([]byte, 1), 0); err == nil {
		t.Error("read on closed handle accepted")
	}
	if _, err := h.ParallelAppend(nil); err == nil {
		t.Error("collective on closed handle accepted")
	}
	if err := h.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestTruncateOnOpen(t *testing.T) {
	fs := NewMemFS(testProfile())
	var c vtime.Clock
	h, _ := fs.Open("f", 1, 0, &c, true)
	h.WriteAt([]byte("leftover"), 0)
	h.Close()
	h2, _ := fs.Open("f", 1, 0, &c, true)
	defer h2.Close()
	if h2.Size() != 0 {
		t.Fatalf("size after trunc reopen = %d", h2.Size())
	}
	// Reopen without trunc preserves.
	h2.WriteAt([]byte("kept"), 0)
	h2.Close()
	h3, _ := fs.Open("f", 1, 0, &c, false)
	defer h3.Close()
	if h3.Size() != 4 {
		t.Fatalf("size after plain reopen = %d", h3.Size())
	}
}

// TestParallelAppendNodeOrder: blocks land contiguously in rank order
// regardless of arrival order, and every node gets the same exit time.
func TestParallelAppendNodeOrder(t *testing.T) {
	const n = 5
	fs := NewMemFS(testProfile())
	offsets := make([]int64, n)
	times := spmdFS(t, fs, n, func(rank int, clock *vtime.Clock) error {
		h, err := fs.Open("f", n, rank, clock, true)
		if err != nil {
			return err
		}
		defer h.Close()
		// Skew arrivals so rank order != arrival order.
		clock.Advance(float64(n-rank) * 0.01)
		block := bytes.Repeat([]byte{byte('A' + rank)}, rank+1)
		off, err := h.ParallelAppend(block)
		if err != nil {
			return err
		}
		offsets[rank] = off
		return nil
	})
	img, err := fs.Image("f")
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("ABBCCCDDDDEEEEE")
	if !bytes.Equal(img, want) {
		t.Fatalf("image = %q, want %q", img, want)
	}
	expectOff := int64(0)
	for r := 0; r < n; r++ {
		if offsets[r] != expectOff {
			t.Fatalf("rank %d offset %d, want %d", r, offsets[r], expectOff)
		}
		expectOff += int64(r + 1)
	}
	for r, tm := range times {
		if tm != times[0] {
			t.Fatalf("rank %d exit %v != %v", r, tm, times[0])
		}
	}
}

func TestParallelAppendEmptyBlocks(t *testing.T) {
	const n = 3
	fs := NewMemFS(testProfile())
	spmdFS(t, fs, n, func(rank int, clock *vtime.Clock) error {
		h, err := fs.Open("f", n, rank, clock, true)
		if err != nil {
			return err
		}
		defer h.Close()
		var block []byte
		if rank == 1 {
			block = []byte("only-me")
		}
		if _, err := h.ParallelAppend(block); err != nil {
			return err
		}
		return nil
	})
	img, _ := fs.Image("f")
	if string(img) != "only-me" {
		t.Fatalf("image %q", img)
	}
}

func TestSequentialParallelAppends(t *testing.T) {
	const n = 2
	fs := NewMemFS(testProfile())
	spmdFS(t, fs, n, func(rank int, clock *vtime.Clock) error {
		h, err := fs.Open("f", n, rank, clock, true)
		if err != nil {
			return err
		}
		defer h.Close()
		for round := 0; round < 3; round++ {
			b := []byte(fmt.Sprintf("[r%dn%d]", round, rank))
			if _, err := h.ParallelAppend(b); err != nil {
				return err
			}
		}
		return nil
	})
	img, _ := fs.Image("f")
	want := "[r0n0][r0n1][r1n0][r1n1][r2n0][r2n1]"
	if string(img) != want {
		t.Fatalf("image %q, want %q", img, want)
	}
}

func TestParallelRead(t *testing.T) {
	const n = 4
	fs := NewMemFS(testProfile())
	times := spmdFS(t, fs, n, func(rank int, clock *vtime.Clock) error {
		h, err := fs.Open("f", n, rank, clock, true)
		if err != nil {
			return err
		}
		defer h.Close()
		block := bytes.Repeat([]byte{byte('a' + rank)}, 8)
		off, err := h.ParallelAppend(block)
		if err != nil {
			return err
		}
		// Each node reads back its own block; rank 2 reads nothing.
		rg := Range{Off: off, Len: 8}
		if rank == 2 {
			rg = Range{}
		}
		got, err := h.ParallelRead(rg)
		if err != nil {
			return err
		}
		defer bufpool.Put(got)
		if rank == 2 {
			if len(got) != 0 {
				return fmt.Errorf("rank 2 got %q, want empty", got)
			}
			return nil
		}
		if !bytes.Equal(got, block) {
			return fmt.Errorf("rank %d got %q want %q", rank, got, block)
		}
		return nil
	})
	for r, tm := range times {
		if tm != times[0] {
			t.Fatalf("rank %d exit %v != %v", r, tm, times[0])
		}
	}
}

func TestParallelReadOutOfBounds(t *testing.T) {
	fs := NewMemFS(testProfile())
	errs := make([]error, 1)
	spmdFS(t, fs, 1, func(rank int, clock *vtime.Clock) error {
		h, err := fs.Open("f", 1, 0, clock, true)
		if err != nil {
			return err
		}
		defer h.Close()
		_, errs[0] = h.ParallelRead(Range{Off: 1000, Len: 10})
		return nil
	})
	if errs[0] == nil {
		t.Fatal("out-of-bounds parallel read succeeded")
	}
}

func TestControlSync(t *testing.T) {
	const n = 3
	fs := NewMemFS(testProfile())
	times := spmdFS(t, fs, n, func(rank int, clock *vtime.Clock) error {
		h, err := fs.Open("f", n, rank, clock, true)
		if err != nil {
			return err
		}
		defer h.Close()
		clock.Advance(float64(rank)) // skew
		return h.ControlSync()
	})
	want := testProfile().OpenLatency + 2 + testProfile().ControlOpLatency
	for r, tm := range times {
		if tm != want {
			t.Fatalf("rank %d exit %v, want %v", r, tm, want)
		}
	}
}

// TestParagonChannelSerialization: on a 1-channel profile, a parallel
// append's duration depends on the total bytes, not the per-node share.
func TestParagonChannelSerialization(t *testing.T) {
	prof := vtime.Paragon()
	run := func(n int, perNode int) float64 {
		fs := NewMemFS(prof)
		times := spmdFS(t, fs, n, func(rank int, clock *vtime.Clock) error {
			h, err := fs.Open("f", n, rank, clock, true)
			if err != nil {
				return err
			}
			defer h.Close()
			_, err = h.ParallelAppend(make([]byte, perNode))
			return err
		})
		return times[0] - prof.OpenLatency - float64(n)*(prof.SerialPerOp+prof.IOOpLatency)
	}
	// Same total bytes, different node counts: near-equal op time.
	t2 := run(2, 1<<20)
	t4 := run(4, 512<<10)
	if diff := t2 - t4; diff > 1e-3 || diff < -1e-3 {
		t.Fatalf("1-channel parallel time varies with node count: %v vs %v", t2, t4)
	}
}

// TestChallengeChannelParallelism: with enough channels, per-node blocks
// transfer concurrently, so doubling nodes at fixed per-node size barely
// moves the transfer term.
func TestChallengeChannelParallelism(t *testing.T) {
	prof := vtime.Challenge()
	run := func(n int) float64 {
		fs := NewMemFS(prof)
		times := spmdFS(t, fs, n, func(rank int, clock *vtime.Clock) error {
			h, err := fs.Open("f", n, rank, clock, true)
			if err != nil {
				return err
			}
			defer h.Close()
			_, err = h.ParallelAppend(make([]byte, 1<<20))
			return err
		})
		return times[0] - prof.OpenLatency - float64(n)*prof.SerialPerOp
	}
	t1, t8 := run(1), run(8)
	// With C channels, 8 equal blocks take ~ceil(8/C) block-times: real
	// scaling, unlike the 1-channel Paragon where 8 blocks take 8.
	c := prof.IOChannels
	maxRatio := float64((8+c-1)/c) * 1.2
	if t8 > t1*maxRatio {
		t.Fatalf("parallel write did not scale with %d channels: 1 node %v, 8 nodes %v (ratio %.1f, max %.1f)",
			c, t1, t8, t8/t1, maxRatio)
	}
	if t8 > t1*7 {
		t.Fatalf("parallel write fully serialized despite %d channels", c)
	}
}

// TestSlowOffsetCliff: small ops past the slow offset cost IOOpSlow.
func TestSlowOffsetCliff(t *testing.T) {
	prof := vtime.Paragon()
	fs := NewMemFS(prof)
	var c vtime.Clock
	h, err := fs.Open("f", 1, 0, &c, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	before := c.Now()
	if err := h.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	fastCost := c.Now() - before
	before = c.Now()
	if err := h.WriteAt(make([]byte, 100), prof.SlowOffset+1); err != nil {
		t.Fatal(err)
	}
	slowCost := c.Now() - before
	if slowCost < 5*fastCost {
		t.Fatalf("no cliff: fast %v, slow %v", fastCost, slowCost)
	}
}

// TestBlockCacheCliff: a block transfer beyond the per-node cache pays the
// slow bandwidth for the excess.
func TestBlockCacheCliff(t *testing.T) {
	prof := vtime.Paragon()
	d := newDisk(prof)
	within := d.streamCost(prof.BlockCache, true)
	beyond := d.streamCost(prof.BlockCache+1<<20, true)
	// Reads never pay the write-cache cliff.
	readCost := d.streamCost(prof.BlockCache+1<<20, false)
	if want := vtime.TransferTime(prof.BlockCache+1<<20, prof.DiskFastBW); readCost != want {
		t.Fatalf("read stream cost %v, want fast-only %v", readCost, want)
	}
	excess := beyond - within
	wantExcess := float64(1<<20) / prof.DiskSlowBW
	if excess < wantExcess*0.99 || excess > wantExcess*1.01 {
		t.Fatalf("cache-excess cost %v, want ~%v", excess, wantExcess)
	}
}

func TestInjectFaultPropagates(t *testing.T) {
	fs := NewMemFS(testProfile())
	if err := fs.InjectFault("f", 0); err != nil {
		t.Fatal(err)
	}
	var c vtime.Clock
	h, err := fs.Open("f", 1, 0, &c, false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.WriteAt([]byte("x"), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if _, err := h.ParallelAppend([]byte("y")); !errors.Is(err, ErrInjected) {
		t.Fatalf("parallel err = %v, want injected", err)
	}
}

func TestImageAndNames(t *testing.T) {
	fs := NewMemFS(testProfile())
	var c vtime.Clock
	h, _ := fs.Open("b-file", 1, 0, &c, true)
	h.WriteAt([]byte("z"), 0)
	h.Close()
	h2, _ := fs.Open("a-file", 1, 0, &c, true)
	h2.Close()
	if img, err := fs.Image("a-file"); err != nil || len(img) != 0 {
		t.Fatalf("Image of the empty file = %q, %v", img, err)
	}
	if _, err := fs.Image("missing"); err == nil {
		t.Fatal("Image of missing file succeeded")
	}
	img, err := fs.Image("b-file")
	if err != nil || string(img) != "z" {
		t.Fatalf("Image = %q, %v", img, err)
	}
}

// Property: MemBackend matches a plain map-of-bytes model under random
// write scripts.
func TestMemBackendModelQuick(t *testing.T) {
	f := func(ops []struct {
		Data []byte
		Off  uint16
	}) bool {
		m := NewMemBackend()
		model := map[int64]byte{}
		var maxEnd int64
		for _, op := range ops {
			off := int64(op.Off)
			if _, err := m.WriteAt(op.Data, off); err != nil {
				return false
			}
			for i, b := range op.Data {
				model[off+int64(i)] = b
			}
			// Zero-length writes do not extend the file (pwrite semantics).
			if end := off + int64(len(op.Data)); len(op.Data) > 0 && end > maxEnd {
				maxEnd = end
			}
		}
		if m.Size() != maxEnd {
			return false
		}
		if maxEnd == 0 {
			return true
		}
		img := make([]byte, maxEnd)
		if _, err := m.ReadAt(img, 0); err != nil && err != io.EOF {
			return false
		}
		for i := int64(0); i < maxEnd; i++ {
			if img[i] != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOSFactorySanitizesNames(t *testing.T) {
	dir := t.TempDir()
	fac := OSFactory(dir)
	b, err := fac("../escape/attempt")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected 1 entry in dir, got %d", len(entries))
	}
	if _, err := os.Stat(filepath.Join(dir, "..", "escape")); !os.IsNotExist(err) {
		t.Fatal("factory escaped the sandbox directory")
	}
}

// TestManyFilesAndReopenCycles: files are independent; handles can cycle
// open/close without losing images or leaking rendezvous state.
func TestManyFilesAndReopenCycles(t *testing.T) {
	fs := NewMemFS(testProfile())
	const n = 2
	spmdFS(t, fs, n, func(rank int, clock *vtime.Clock) error {
		for cycle := 0; cycle < 5; cycle++ {
			for _, name := range []string{"a", "b", "c"} {
				h, err := fs.Open(name, n, rank, clock, cycle == 0)
				if err != nil {
					return err
				}
				if _, err := h.ParallelAppend([]byte{byte('0' + cycle), byte('a' + rank)}); err != nil {
					return err
				}
				if err := h.Close(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	for _, name := range []string{"a", "b", "c"} {
		img, err := fs.Image(name)
		if err != nil {
			t.Fatal(err)
		}
		want := "0a0b1a1b2a2b3a3b4a4b"
		if string(img) != want {
			t.Fatalf("%s image %q, want %q", name, img, want)
		}
	}
}

// TestIndependentOpTotalDeterministic: on the 1-channel paragon disk, the
// makespan of a flood of independent ops equals the serialized sum of their
// costs regardless of goroutine interleaving (run-to-run determinism of the
// benchmark metric).
func TestIndependentOpTotalDeterministic(t *testing.T) {
	prof := vtime.Paragon()
	elapsed := func() float64 {
		fs := NewMemFS(prof)
		times := spmdFS(t, fs, 4, func(rank int, clock *vtime.Clock) error {
			h, err := fs.Open("flood", 4, rank, clock, rank == 0)
			if err != nil {
				return err
			}
			defer h.Close()
			for i := 0; i < 50; i++ {
				if err := h.WriteAt(make([]byte, 64), int64(rank*50+i)*64); err != nil {
					return err
				}
			}
			return nil
		})
		return vtime.MaxOf(times)
	}
	a, b := elapsed(), elapsed()
	if a != b {
		t.Fatalf("flood makespan varies: %v vs %v", a, b)
	}
}
