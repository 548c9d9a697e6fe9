package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/vtime"
)

// gateWait is how long a gated call waits for the rest of its round: far
// longer than P concurrent calls need to meet, and what a serial executor —
// one goroutine issuing the P calls one after another — always runs into.
const gateWait = 10 * time.Second

// gateBackend lets WriteAt and ReadAt through in rounds of p calls: a call
// returns only once all p calls of its round are inside the gate at the same
// time, and fails (permanently, so the retry layer does not re-issue it)
// when that takes longer than gateWait. It counts the calls it saw.
type gateBackend struct {
	Backend
	p     int
	mu    sync.Mutex
	calls int
	open  []chan struct{} // one per round, closed when the round is full
}

func (g *gateBackend) enter() error {
	g.mu.Lock()
	round := g.calls / g.p
	g.calls++
	if round == len(g.open) {
		g.open = append(g.open, make(chan struct{}))
	}
	ch := g.open[round]
	if g.calls%g.p == 0 {
		close(ch)
	}
	g.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-time.After(gateWait):
		return fmt.Errorf("gate: round %d never had all %d calls inside at once", round, g.p)
	}
}

func (g *gateBackend) WriteAt(p []byte, off int64) (int, error) {
	if err := g.enter(); err != nil {
		return 0, err
	}
	return g.Backend.WriteAt(p, off)
}

func (g *gateBackend) ReadAt(p []byte, off int64) (int, error) {
	if err := g.enter(); err != nil {
		return 0, err
	}
	return g.Backend.ReadAt(p, off)
}

// TestEachRankMovesItsOwnBlock: the P backend writes of a collective append
// and the P backend reads of a collective read are all in flight at once —
// each rank moves its own block on its own goroutine — over every kind of
// store the file system sits on (the daemon client's row is in
// internal/server). The image, what each rank reads back, the offsets, the
// counters and the number of backend calls are the serial path's.
func TestEachRankMovesItsOwnBlock(t *testing.T) {
	stores := []struct {
		name    string
		factory func(t *testing.T) BackendFactory
	}{
		{"mem", func(*testing.T) BackendFactory { return MemFactory() }},
		{"os", func(t *testing.T) BackendFactory { return OSFactory(t.TempDir()) }},
		{"striped", func(*testing.T) BackendFactory { return StripedMemFactory(3, 16) }},
	}
	for _, st := range stores {
		for nprocs := 2; nprocs <= 4; nprocs++ {
			t.Run(fmt.Sprintf("%s/P=%d", st.name, nprocs), func(t *testing.T) {
				var gate *gateBackend
				inner := st.factory(t)
				fs := NewFileSystem(testProfile(), func(name string) (Backend, error) {
					b, err := inner(name)
					gate = &gateBackend{Backend: b, p: nprocs}
					return gate, err
				})
				t.Cleanup(func() { fs.Close() })
				blocks, offs := make([][]byte, nprocs), make([]int64, nprocs)
				var want []byte
				for r := range blocks {
					blocks[r], offs[r] = pieceBytes(r, 0, 100+37*r), int64(len(want))
					want = append(want, blocks[r]...)
				}
				spmdFS(t, fs, nprocs, func(rank int, clock *vtime.Clock) error {
					h, err := fs.Open("f", nprocs, rank, clock, true)
					if err != nil {
						return err
					}
					defer h.Close()
					off, err := h.ParallelAppend(blocks[rank])
					if err != nil {
						return err
					}
					if off != offs[rank] {
						return fmt.Errorf("landed at %d, the running sum is %d", off, offs[rank])
					}
					got, err := h.ParallelRead(Range{Off: off, Len: len(blocks[rank])})
					if err != nil {
						return err
					}
					if !bytes.Equal(got, blocks[rank]) {
						return fmt.Errorf("read back other bytes than it wrote")
					}
					bufpool.Put(got)
					return nil
				})
				if gate.calls != 2*nprocs {
					t.Errorf("%d backend calls, want one write and one read a rank: %d", gate.calls, 2*nprocs)
				}
				total := int64(len(want))
				img := make([]byte, total+1) // past the gate, and one byte past the end
				if n, _ := gate.Backend.ReadAt(img, 0); !bytes.Equal(img[:n], want) {
					t.Error("image is not the blocks in rank order")
				}
				wantStats := IOStats{Opens: int64(nprocs), ParallelAppends: 1, ParallelReads: 1, BytesWritten: total, BytesRead: total}
				if st := fs.Stats(); st != wantStats {
					t.Errorf("stats %+v, want %+v", st, wantStats)
				}
			})
		}
	}
}

// errBad is failAt's refusal.
var errBad = errors.New("bad block")

// failAt refuses, for good, every transfer that touches one of its offsets.
type failAt struct {
	Backend
	bad []int64
}

func (f *failAt) refuse(n int, off int64) error {
	for _, b := range f.bad {
		if b >= off && b < off+int64(n) {
			return fmt.Errorf("%w at %d", errBad, b)
		}
	}
	return nil
}

func (f *failAt) WriteAt(p []byte, off int64) (int, error) {
	if err := f.refuse(len(p), off); err != nil {
		return 0, err
	}
	return f.Backend.WriteAt(p, off)
}

func (f *failAt) ReadAt(p []byte, off int64) (int, error) {
	if err := f.refuse(len(p), off); err != nil {
		return 0, err
	}
	return f.Backend.ReadAt(p, off)
}

// TestMoveFailsTogether: some ranks' blocks fail for good while their peers'
// land. Every rank returns the same error — the lowest failing rank's — and
// the counters hold exactly the bytes that landed, for appends and for reads,
// on 1 to 4 ranks. A failed read gives back every pooled buffer the group
// drew, the failing rank's and its peers' alike, whether the caller passed no
// destination or one too small to use (the test binary's leak check holds it
// to that).
func TestMoveFailsTogether(t *testing.T) {
	const blockLen = 64
	for nprocs := 1; nprocs <= 4; nprocs++ {
		// Every non-empty set of failing ranks.
		for set := 1; set < 1<<nprocs; set++ {
			var bad []int64
			first := -1
			for r := 0; r < nprocs; r++ {
				if set&(1<<r) != 0 {
					bad = append(bad, int64(r*blockLen+blockLen/2))
					if first < 0 {
						first = r
					}
				}
			}
			wantErr := fmt.Sprintf("%v at %d", errBad, first*blockLen+blockLen/2)
			landed := int64(nprocs-len(bad)) * blockLen
			t.Run(fmt.Sprintf("P=%d/failing=%b/append", nprocs, set), func(t *testing.T) {
				fs := NewFileSystem(testProfile(), func(string) (Backend, error) {
					return &failAt{Backend: NewMemBackend(), bad: bad}, nil
				})
				errs := make([]error, nprocs)
				spmdFS(t, fs, nprocs, func(rank int, clock *vtime.Clock) error {
					h, err := fs.Open("f", nprocs, rank, clock, true)
					if err != nil {
						return err
					}
					defer h.Close()
					_, errs[rank] = h.ParallelAppend(pieceBytes(rank, 0, blockLen))
					return nil
				})
				sameError(t, errs, wantErr)
				if st := fs.Stats(); st.BytesWritten != landed || st.ParallelAppends != 1 {
					t.Errorf("counted %d bytes in %d appends, want the %d that landed in 1", st.BytesWritten, st.ParallelAppends, landed)
				}
			})
			for _, into := range []bool{false, true} {
				t.Run(fmt.Sprintf("P=%d/failing=%b/read/into=%v", nprocs, set, into), func(t *testing.T) {
					mem := NewMemBackend()
					if _, err := mem.WriteAt(make([]byte, nprocs*blockLen), 0); err != nil {
						t.Fatal(err)
					}
					fs := NewFileSystem(testProfile(), func(string) (Backend, error) {
						return &failAt{Backend: mem, bad: bad}, nil
					})
					errs := make([]error, nprocs)
					spmdFS(t, fs, nprocs, func(rank int, clock *vtime.Clock) error {
						h, err := fs.Open("f", nprocs, rank, clock, false)
						if err != nil {
							return err
						}
						defer h.Close()
						rg := Range{Off: int64(rank * blockLen), Len: blockLen}
						if into {
							_, errs[rank] = h.ParallelReadInto(rg, make([]byte, 0, blockLen/2))
						} else {
							_, errs[rank] = h.ParallelRead(rg)
						}
						return nil
					})
					sameError(t, errs, wantErr)
					if st := fs.Stats(); st.BytesRead != landed || st.ParallelReads != 1 {
						t.Errorf("counted %d bytes in %d reads, want the %d that landed in 1", st.BytesRead, st.ParallelReads, landed)
					}
				})
			}
		}
	}
}

// sameError checks that every rank failed, with errBad, and with the one
// error whose text ends in want.
func sameError(t *testing.T, errs []error, want string) {
	t.Helper()
	for r, err := range errs {
		if !errors.Is(err, errBad) || !bytes.HasSuffix([]byte(err.Error()), []byte(want)) {
			t.Fatalf("rank %d: %v, want an error ending in %q", r, err, want)
		}
		if err.Error() != errs[0].Error() {
			t.Errorf("rank %d failed with %q, rank 0 with %q", r, err, errs[0])
		}
	}
}

// holdFirst parks the first WriteAt it sees until release is closed, and
// says on entered when it has.
type holdFirst struct {
	Backend
	once             sync.Once
	entered, release chan struct{}
}

func (b *holdFirst) WriteAt(p []byte, off int64) (int, error) {
	held := false
	b.once.Do(func() { held = true })
	if held {
		close(b.entered)
		<-b.release
	}
	return b.Backend.WriteAt(p, off)
}

// TestMoveAbortLeavesNobodyParked: Abort wakes every rank parked in a
// rendezvous, in either step — ranks whose own blocks landed while a peer's
// write is stuck in the backend, and ranks still waiting for a peer that
// never arrives — and each leaves with the abort's error.
func TestMoveAbortLeavesNobodyParked(t *testing.T) {
	const nprocs = 4
	errStop := errors.New("node failed")
	// run starts the group; each rank sends its rank on left once its error
	// is in errs.
	run := func(fs *FileSystem, body func(rank int, h *File) error) (errs []error, left chan int) {
		errs, left = make([]error, nprocs), make(chan int, nprocs)
		for r := 0; r < nprocs; r++ {
			go func() {
				var clock vtime.Clock
				h, err := fs.Open("f", nprocs, r, &clock, true)
				if err == nil {
					err = body(r, h)
				}
				errs[r] = err
				left <- r
			}()
		}
		return errs, left
	}
	waitLeft := func(t *testing.T, left chan int, n int) {
		t.Helper()
		for range n {
			select {
			case <-left:
			case <-time.After(gateWait):
				t.Fatal("a rank is still parked after Abort")
			}
		}
	}

	t.Run("move", func(t *testing.T) {
		hold := &holdFirst{Backend: NewMemBackend(), entered: make(chan struct{}), release: make(chan struct{})}
		fs := NewFileSystem(testProfile(), func(string) (Backend, error) { return hold, nil })
		errs, left := run(fs, func(rank int, h *File) error {
			_, err := h.ParallelAppend(pieceBytes(rank, 0, 32))
			return err
		})
		<-hold.entered
		fs.Abort(errStop)
		waitLeft(t, left, nprocs-1) // everyone but the rank whose write is held
		close(hold.release)
		waitLeft(t, left, 1)
		aborted := 0
		for _, err := range errs {
			if errors.Is(err, errStop) {
				aborted++
			}
		}
		if aborted != nprocs-1 {
			t.Errorf("%d ranks left with the abort's error, want %d: %v", aborted, nprocs-1, errs)
		}
	})

	t.Run("agree", func(t *testing.T) {
		fs := NewMemFS(testProfile())
		never := make(chan struct{})
		errs, left := run(fs, func(rank int, h *File) error {
			if rank == nprocs-1 {
				<-never // the peer that never arrives
				return nil
			}
			_, err := h.ParallelAppend(pieceBytes(rank, 0, 32))
			return err
		})
		time.Sleep(10 * time.Millisecond) // let the others park; Abort must wake them either way
		fs.Abort(errStop)
		waitLeft(t, left, nprocs-1)
		close(never)
		waitLeft(t, left, 1)
		for r, err := range errs[:nprocs-1] {
			if !errors.Is(err, errStop) {
				t.Errorf("rank %d: %v, want the abort's error", r, err)
			}
		}
	})
}
