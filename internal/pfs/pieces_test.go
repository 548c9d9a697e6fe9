package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/vtime"
)

// pieceBytes is piece i of rank r, n bytes that depend on both.
func pieceBytes(r, i, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(r*71 + i*13 + j)
	}
	return p
}

// appendOutcome is everything a group can observe of one append: where each
// rank's block landed, when the group left, when the disk was done, what the
// file holds and what the counters say moved.
type appendOutcome struct {
	offsets     []int64
	clocks      []float64
	completions []float64
	image       []byte
	stats       IOStats
}

// appendOnce opens a fresh file on fs, appends a 5-byte preamble from rank 0
// so that offsets do not start at zero, and then makes the one collective
// append under test: blocks[r] is rank r's piece list.
func appendOnce(t *testing.T, fs *FileSystem, blocks [][][]byte, async bool) appendOutcome {
	t.Helper()
	n := len(blocks)
	out := appendOutcome{offsets: make([]int64, n), completions: make([]float64, n)}
	out.clocks = spmdFS(t, fs, n, func(rank int, clock *vtime.Clock) error {
		h, err := fs.Open("f", n, rank, clock, true)
		if err != nil {
			return err
		}
		defer h.Close()
		var pre []byte
		if rank == 0 {
			pre = []byte("magic")
		}
		if _, err := h.ParallelAppend(pre); err != nil {
			return err
		}
		clock.Advance(float64(rank) * 1e-3) // staggered arrivals
		if async {
			out.offsets[rank], out.completions[rank], err = h.ParallelAppendAsync(blocks[rank]...)
		} else {
			out.offsets[rank], err = h.ParallelAppend(blocks[rank]...)
		}
		return err
	})
	var err error
	if out.image, err = fs.Image("f"); err != nil {
		t.Fatal(err)
	}
	out.stats = fs.Stats()
	return out
}

// TestParallelAppendPieces: a block handed over as pieces lands exactly as
// the same bytes handed over as one buffer — the image, every rank's offset
// (the node-order running sum), the instant the group leaves and the disk's
// completion, sync and async, and the byte counters — whatever the shape of
// the lists, on a flat store and on a striped one whose cells are far
// smaller than the pieces.
func TestParallelAppendPieces(t *testing.T) {
	sized := func(r int, lens ...int) [][]byte {
		var ps [][]byte
		for i, n := range lens {
			ps = append(ps, pieceBytes(r, i, n))
		}
		return ps
	}
	many := func(r, count int) [][]byte {
		lens := make([]int, count)
		for i := range lens {
			lens[i] = 1 + (i*7+r)%40
		}
		return sized(r, lens...)
	}
	shapes := []struct {
		name   string
		blocks [][][]byte
	}{
		{"no pieces", [][][]byte{nil, nil, nil}},
		{"only empty pieces", [][][]byte{{nil, {}}, {{}}, sized(2, 0, 0, 0)}},
		{"empty pieces between full ones", [][][]byte{sized(0, 0, 90, 0, 0, 33, 0), sized(1, 17, 0, 210), sized(2, 0, 1)}},
		{"one piece a rank", [][][]byte{sized(0, 100), sized(1, 1), sized(2, 257)}},
		{"three pieces a rank", [][][]byte{sized(0, 64, 64, 64), sized(1, 5, 300, 11), sized(2, 129, 1, 63)}},
		{"64 pieces a rank", [][][]byte{many(0, 64), many(1, 64), many(2, 64), many(3, 64)}},
		{"ranks with different counts", [][][]byte{nil, many(1, 9), sized(2, 500), many(3, 2), {{}}}},
	}
	stores := []struct {
		name    string
		factory func() BackendFactory
	}{
		{"mem", MemFactory},
		{"striped", func() BackendFactory { return StripedMemFactory(3, 16) }},
	}
	for _, st := range stores {
		for _, sh := range shapes {
			for _, async := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/async=%v", st.name, sh.name, async), func(t *testing.T) {
					joined := make([][][]byte, len(sh.blocks))
					for r, ps := range sh.blocks {
						joined[r] = [][]byte{bytes.Join(ps, nil)}
					}
					got := appendOnce(t, NewFileSystem(testProfile(), st.factory()), sh.blocks, async)
					want := appendOnce(t, NewFileSystem(testProfile(), st.factory()), joined, async)
					if !bytes.Equal(got.image, want.image) {
						t.Fatalf("image of the piece lists differs from the one-block image (%d vs %d bytes)", len(got.image), len(want.image))
					}
					sum := int64(len("magic"))
					for r, ps := range sh.blocks {
						if got.offsets[r] != sum {
							t.Errorf("rank %d landed at %d, the running sum is %d", r, got.offsets[r], sum)
						}
						sum += int64(len(bytes.Join(ps, nil)))
					}
					if sum != int64(len(got.image)) {
						t.Errorf("file is %d bytes, the blocks end at %d", len(got.image), sum)
					}
					for r := range sh.blocks {
						if got.clocks[r] != want.clocks[r] || got.completions[r] != want.completions[r] {
							t.Errorf("rank %d left at %v (completion %v), the one-block call at %v (%v)",
								r, got.clocks[r], got.completions[r], want.clocks[r], want.completions[r])
						}
					}
					if got.stats.BytesWritten != want.stats.BytesWritten || got.stats.ParallelAppends != want.stats.ParallelAppends {
						t.Errorf("counters %+v, the one-block call's %+v", got.stats, want.stats)
					}
				})
			}
		}
	}
}

// TestParallelReadPieces: a range read into pieces fills them with exactly the
// bytes one buffer over the same range gets, and the group leaves at the same
// instant with the same disk completion, sync and async, with the same
// counters — for piece lists shaped like TestParallelAppendPieces', on a flat
// store and a striped one.
func TestParallelReadPieces(t *testing.T) {
	lens := [][][]int{
		{nil, nil, nil},
		{{0, 0}, {0}, {0, 0, 0}},
		{{0, 90, 0, 0, 33, 0}, {17, 0, 210}, {0, 1}},
		{{100}, {1}, {257}},
		{{64, 64, 64}, {5, 300, 11}, {129, 1, 63}},
		{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, {40, 1, 40}, {7}, {}},
	}
	stores := []func() BackendFactory{MemFactory, func() BackendFactory { return StripedMemFactory(3, 16) }}
	for si, factory := range stores {
		for li, shape := range lens {
			for _, async := range []bool{false, true} {
				t.Run(fmt.Sprintf("store %d/shape %d/async=%v", si, li, async), func(t *testing.T) {
					n := len(shape)
					// read writes 700 bytes a rank and then makes the collective
					// read under test: rank r reads the bytes shape[r] sums to
					// from 3r bytes into its own block, as those pieces or, whole,
					// as one buffer.
					read := func(whole bool) ([][]byte, []float64, []float64, IOStats) {
						fs := NewFileSystem(testProfile(), factory())
						got, completions := make([][]byte, n), make([]float64, n)
						clocks := spmdFS(t, fs, n, func(rank int, clock *vtime.Clock) error {
							h, err := fs.Open("f", n, rank, clock, true)
							if err != nil {
								return err
							}
							defer h.Close()
							if _, err := h.ParallelAppend(pieceBytes(rank, 0, 700)); err != nil {
								return err
							}
							fs.ResetStats()
							var pieces [][]byte
							size := 0
							for _, l := range shape[rank] {
								pieces = append(pieces, bytes.Repeat([]byte{0xEE}, l))
								size += l
							}
							if whole {
								pieces = [][]byte{make([]byte, size)}
							}
							off := int64(rank*700 + rank*3)
							clock.Advance(float64(rank) * 1e-3)
							if async {
								completions[rank], err = h.ParallelReadPiecesAsync(off, pieces...)
							} else {
								err = h.ParallelReadPieces(off, pieces...)
							}
							got[rank] = bytes.Join(pieces, nil)
							return err
						})
						return got, clocks, completions, fs.Stats()
					}
					got, clocks, completions, stats := read(false)
					want, wantClocks, wantCompletions, wantStats := read(true)
					for r := range shape {
						if !bytes.Equal(got[r], want[r]) {
							t.Errorf("rank %d: the pieces hold other bytes than one buffer over the range", r)
						}
						if clocks[r] != wantClocks[r] || completions[r] != wantCompletions[r] {
							t.Errorf("rank %d left at %v (completion %v), the one-buffer read at %v (%v)",
								r, clocks[r], completions[r], wantClocks[r], wantCompletions[r])
						}
					}
					if stats != wantStats {
						t.Errorf("counters %+v, the one-buffer read's %+v", stats, wantStats)
					}
				})
			}
		}
	}
}

// TestParallelReadPiecesLandedStopsAtTheFailure: a read whose rank fails on
// its second piece counts the first, which landed, and nothing after it — a
// piece after the failed one is not read at all.
func TestParallelReadPiecesLandedStopsAtTheFailure(t *testing.T) {
	mem := NewMemBackend()
	if _, err := mem.WriteAt(pieceBytes(0, 0, 300), 0); err != nil {
		t.Fatal(err)
	}
	fs := NewFileSystem(testProfile(), func(string) (Backend, error) {
		return &failAt{Backend: mem, bad: []int64{150}}, nil
	})
	third := bytes.Repeat([]byte{0xEE}, 100)
	var err error
	spmdFS(t, fs, 1, func(rank int, clock *vtime.Clock) error {
		h, oerr := fs.Open("f", 1, rank, clock, false)
		if oerr != nil {
			return oerr
		}
		defer h.Close()
		err = h.ParallelReadPieces(0, make([]byte, 100), make([]byte, 100), third)
		return nil
	})
	if !errors.Is(err, errBad) {
		t.Fatalf("read over a bad second piece: %v", err)
	}
	if st := fs.Stats(); st.BytesRead != 100 || st.ParallelReads != 1 {
		t.Errorf("counted %d bytes in %d reads, want the first piece's 100 in 1", st.BytesRead, st.ParallelReads)
	}
	if !bytes.Equal(third, bytes.Repeat([]byte{0xEE}, 100)) {
		t.Error("the piece after the failed one was read")
	}
}

// stingyReader serves at most max bytes a call, with no error for a short
// call that is not at the end: what io.ReaderAt allows a reader to do only
// with an error, and what io.ReadFull over a section reader resumes anyway.
type stingyReader struct {
	data []byte
	max  int
}

func (s stingyReader) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(s.data)) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), s.max)], s.data[off:])
	if n < len(p) && off+int64(n) == int64(len(s.data)) {
		return n, io.EOF
	}
	return n, nil
}

// TestReadFullMatchesSectionReader: readFull, which the reads of the file
// system make without a section reader, fills the same bytes and reports the
// same error as io.ReadFull over io.NewSectionReader — whole reads, resumed
// short ones, reads that run off the end part way (io.ErrUnexpectedEOF) and
// reads that start past it (io.EOF).
func TestReadFullMatchesSectionReader(t *testing.T) {
	data := pieceBytes(1, 2, 100)
	for _, max := range []int{1, 7, 100, 1000} {
		for _, off := range []int64{0, 3, 60, 99, 100, 130} {
			for _, n := range []int{0, 1, 40, 100} {
				r := stingyReader{data: data, max: max}
				got, want := make([]byte, n), make([]byte, n)
				err := readFull(r, got, off)
				_, wantErr := io.ReadFull(io.NewSectionReader(r, off, int64(n)), want)
				if err != wantErr || !bytes.Equal(got, want) {
					t.Errorf("max %d, %d bytes at %d: (%v, %v), the section reader (%v, %v)", max, n, off, got, err, want, wantErr)
				}
			}
		}
	}
}

// shortAt serves every write whole but the at-th, of which it takes the first
// half and reports a transient fault for the rest.
type shortAt struct {
	Backend
	mu    sync.Mutex
	at    int
	calls int
	cut   int // bytes of the cut write that were taken
}

func (s *shortAt) WriteAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	s.calls++
	hit := s.calls == s.at
	s.mu.Unlock()
	if !hit || len(p) < 2 {
		return s.Backend.WriteAt(p, off)
	}
	s.cut = len(p) / 2
	n, err := s.Backend.WriteAt(p[:s.cut], off)
	if err != nil {
		return n, err
	}
	return n, fmt.Errorf("%w: short write", ErrTransient)
}

// TestParallelAppendPiecesShortWrite: a short write lands inside one piece of
// several, and the retry layer resumes inside that piece — the pieces before
// it are not written again, the ones after it start where they should.
func TestParallelAppendPiecesShortWrite(t *testing.T) {
	blocks := [][][]byte{
		{pieceBytes(0, 0, 40), pieceBytes(0, 1, 90), pieceBytes(0, 2, 7)},
		{pieceBytes(1, 0, 64), pieceBytes(1, 1, 64)},
	}
	var want []byte
	for _, ps := range blocks {
		want = append(want, bytes.Join(ps, nil)...)
	}
	// Write 1 is the preamble; 2..6 are the five pieces, in whatever order
	// the two ranks, writing concurrently, issue them: "piece k" cuts the
	// k-th of those writes.
	for at := 2; at <= 6; at++ {
		t.Run(fmt.Sprintf("piece %d", at-1), func(t *testing.T) {
			var sb *shortAt
			fs := NewFileSystem(testProfile(), func(string) (Backend, error) {
				sb = &shortAt{Backend: NewMemBackend(), at: at}
				return sb, nil
			})
			got := appendOnce(t, fs, blocks, false)
			if !bytes.Equal(got.image[len("magic"):], want) {
				t.Fatal("image differs after a short write inside a piece")
			}
			if sb.cut == 0 {
				t.Fatal("no write was cut short")
			}
			// One extra backend call for the remainder of the cut piece, and
			// no other: 1 preamble + 5 pieces + 1.
			if sb.calls != 7 || got.stats.IORetries != 1 {
				t.Errorf("%d backend writes and %d retries, want 7 and 1", sb.calls, got.stats.IORetries)
			}
		})
	}
}

// TestParallelAppendPiecesHardFailure: the backend lets k writes of a
// collective append through and fails every one after — whichever ranks'
// pieces they are, since the ranks write concurrently. Every rank gets the
// same error, nobody hangs, and the counters hold the k pieces that landed —
// not the whole group's total — with nothing added to the size and duration
// histograms. The read mirror: a parallel read of which k ranges get through
// counts those.
func TestParallelAppendPiecesHardFailure(t *testing.T) {
	const nprocs, pieceLen = 3, 100
	blocks := make([][][]byte, nprocs)
	for r := range blocks {
		blocks[r] = [][]byte{pieceBytes(r, 0, pieceLen), nil, pieceBytes(r, 1, pieceLen)}
	}
	sizeCount := func(mon *dsmon.Monitor, op string) int64 {
		return mon.Registry().Histogram("pfs_io_size_bytes", "", dsmon.SizeBuckets, "op", op).Count()
	}
	for k := 0; k <= 2*nprocs; k++ { // k pieces land, every later one fails; 2*nprocs is no failure
		t.Run(fmt.Sprintf("append/%d pieces land", k), func(t *testing.T) {
			mon := dsmon.New()
			fs := NewMemFS(testProfile())
			fs.SetMonitor(mon)
			errs := make([]error, nprocs)
			spmdFS(t, fs, nprocs, func(rank int, clock *vtime.Clock) error {
				h, err := fs.Open("f", nprocs, rank, clock, true)
				if err != nil {
					return err
				}
				defer h.Close()
				if err := h.ControlSync(); err != nil { // everyone has opened before the fault goes in
					return err
				}
				if rank == 0 {
					if err := fs.InjectFault("f", k); err != nil {
						return err
					}
				}
				if err := h.ControlSync(); err != nil {
					return err
				}
				_, errs[rank] = h.ParallelAppend(blocks[rank]...)
				return nil
			})
			failed := k < 2*nprocs
			for r, err := range errs {
				if failed != errors.Is(err, ErrInjected) {
					t.Fatalf("rank %d: %v, want injected failure: %v", r, err, failed)
				}
				if failed && err.Error() != errs[0].Error() {
					t.Errorf("rank %d failed with %q, rank 0 with %q", r, err, errs[0])
				}
			}
			st := fs.Stats()
			if st.BytesWritten != int64(k*pieceLen) || st.ParallelAppends != 1 {
				t.Errorf("counted %d bytes in %d appends, want the %d that landed in 1", st.BytesWritten, st.ParallelAppends, k*pieceLen)
			}
			if got, want := sizeCount(mon, "parallel_append"), int64(1); failed == (got == want) {
				t.Errorf("%d appends in the size histogram after failure=%v", got, failed)
			}
		})
	}
	for k := 0; k <= nprocs; k++ { // k ranges land; nprocs is no failure
		t.Run(fmt.Sprintf("read/%d ranges land", k), func(t *testing.T) {
			mon := dsmon.New()
			fs := NewMemFS(testProfile())
			fs.SetMonitor(mon)
			errs := make([]error, nprocs)
			spmdFS(t, fs, nprocs, func(rank int, clock *vtime.Clock) error {
				h, err := fs.Open("f", nprocs, rank, clock, true)
				if err != nil {
					return err
				}
				defer h.Close()
				if _, err := h.ParallelAppend(blocks[rank]...); err != nil {
					return err
				}
				fs.ResetStats()
				if err := h.ControlSync(); err != nil {
					return err
				}
				if rank == 0 {
					if err := fs.InjectFault("f", k); err != nil {
						return err
					}
				}
				if err := h.ControlSync(); err != nil {
					return err
				}
				_, errs[rank] = h.ParallelRead(Range{Off: int64(rank * 2 * pieceLen), Len: pieceLen})
				return nil
			})
			failed := k < nprocs
			for r, err := range errs {
				if failed != errors.Is(err, ErrInjected) {
					t.Fatalf("rank %d: %v, want injected failure: %v", r, err, failed)
				}
			}
			st := fs.Stats()
			if st.BytesRead != int64(k*pieceLen) || st.ParallelReads != 1 {
				t.Errorf("counted %d bytes in %d reads, want the %d that landed in 1", st.BytesRead, st.ParallelReads, k*pieceLen)
			}
			if got, want := sizeCount(mon, "parallel_read"), int64(1); failed == (got == want) {
				t.Errorf("%d reads in the size histogram after failure=%v", got, failed)
			}
		})
	}
}

// nullBackend takes writes and keeps only the size, so that a steady-state
// allocation count is the file system's own and not a growing image's.
type nullBackend struct{ size int64 }

func (b *nullBackend) WriteAt(p []byte, off int64) (int, error) {
	b.size = max(b.size, off+int64(len(p)))
	return len(p), nil
}
func (b *nullBackend) ReadAt(p []byte, off int64) (int, error) { return len(p), nil }
func (b *nullBackend) Size() int64                             { return b.size }
func (b *nullBackend) Truncate(size int64) error               { b.size = size; return nil }
func (b *nullBackend) Close() error                            { return nil }

// TestAppendAndFanoutAllocPins: what a rendezvous in which every rank moves
// its own block costs — the rendezvous, its arrivals and its one []int64
// (offsets then sizes, or sizes), the disk model's channel loads, and nothing
// else: no piece list, reader, signal, per-rank error or landed-count slice,
// name or closure (a one-piece append 4, a three-piece one 4, a read into the
// caller's buffer 4, a three-piece read 4, a ControlSync 2; an independent
// read, untraced, nothing) — and what the fan-out's one state value buys: a
// striped write over w children is that value and one goroutine start per
// child beyond the caller's.
func TestAppendAndFanoutAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins stand down under -race")
	}
	fs := NewFileSystem(testProfile(), func(string) (Backend, error) { return &nullBackend{}, nil })
	var clock vtime.Clock
	h, err := fs.Open("f", 1, 0, &clock, true)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 4096)
	head, tail := block[:100], block[100:]
	for _, pin := range []struct {
		name string
		max  float64
		op   func() error
	}{
		{"one-piece ParallelAppend", 4, func() error { _, err := h.ParallelAppend(block); return err }},
		{"three-piece ParallelAppend", 4, func() error { _, err := h.ParallelAppend(head, nil, tail); return err }},
		{"ParallelReadInto", 4, func() error { _, err := h.ParallelReadInto(Range{Len: len(block)}, block); return err }},
		{"three-piece ParallelReadPieces", 4, func() error { return h.ParallelReadPieces(0, head, nil, tail) }},
		{"ReadAt", 0, func() error { return h.ReadAt(block, 0) }},
		{"ControlSync", 2, h.ControlSync},
	} {
		if avg := testing.AllocsPerRun(200, func() {
			if err := pin.op(); err != nil {
				t.Fatal(err)
			}
		}); avg > pin.max {
			t.Errorf("%s: %.1f allocs, want at most %.0f", pin.name, avg, pin.max)
		}
	}

	for _, children := range []int{2, 4, 12} {
		s, err := NewStripedMemBackend(children, 64)
		if err != nil {
			t.Fatal(err)
		}
		p := make([]byte, 64*children*3)
		if _, err := s.WriteAt(p, 0); err != nil { // grow the children once
			t.Fatal(err)
		}
		helpers := min(children, maxStripeFanout) - 1
		if avg := testing.AllocsPerRun(200, func() {
			if _, err := s.WriteAt(p, 0); err != nil {
				t.Fatal(err)
			}
		}); avg > float64(helpers+1) {
			t.Errorf("striped WriteAt over %d children: %.1f allocs, want at most %d", children, avg, helpers+1)
		}
	}
}
