package dstream

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// TestTwoPhaseShuffleLends: every non-empty message of the two-phase write
// shuffle is sent lent — the aggregator is handed the contributor's arena, not
// a copy of it — the file is byte-identical to the funnel's and the parallel
// strategy's, and when the writing machine has closed its stream the pool's
// count of buffers out is where it was before: each arena went back once, by
// its own rank, after the closing append.
func TestTwoPhaseShuffleLends(t *testing.T) {
	const nprocs, nElems = 4, 23
	for _, mode := range []distr.Mode{distr.Block, distr.Cyclic} {
		want := strategyImage(t, nprocs, nElems, mode, 0, WithStrategy(StrategyFunnel))
		if got := strategyImage(t, nprocs, nElems, mode, 0, WithStrategy(StrategyParallel)); !bytes.Equal(got, want) {
			t.Fatalf("%s: the parallel image differs from the funnel's", mode)
		}
		for _, k := range []int{2, nprocs} {
			t.Run(fmt.Sprintf("%s/K=%d", mode, k), func(t *testing.T) {
				var shuffled int
				var copied error
				tap := &sendTap{each: func(m comm.Message) error {
					if m.Tag>>56 != alltoallKind || len(m.Data) == 0 {
						return nil
					}
					shuffled++
					if m.Mode != comm.Lent && copied == nil {
						copied = fmt.Errorf("a %d-byte overlap %d→%d was not lent", len(m.Data), m.From, m.To)
					}
					return nil
				}}
				fs := strategyStore()
				held := poolHeld(t, machine.Config{NProcs: nprocs, FS: fs,
					WrapTransport: func(tr comm.Transport) comm.Transport { tap.Transport = tr; return tap }},
					strategyRecords(nElems, mode, 0, WithStrategy(StrategyTwoPhase), WithAggregators(k)))
				if copied != nil {
					t.Error(copied)
				}
				if shuffled == 0 {
					t.Error("the write shuffled nothing")
				}
				if held != 0 {
					t.Errorf("%d pooled buffers out after the stream closed", held)
				}
				got, err := fs.Image("f")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Error("the two-phase image differs from the funnel's")
				}
			})
		}
	}
}

// moveTap runs each before every backend write, which may fail it.
type moveTap struct {
	pfs.Backend
	each func(p []byte, off int64) error
}

func (m *moveTap) Layout() pfs.Layout { return m.Backend.(pfs.LayoutProvider).Layout() }

func (m *moveTap) WriteAt(p []byte, off int64) (int, error) {
	if err := m.each(p, off); err != nil {
		return 0, err
	}
	return m.Backend.WriteAt(p, off)
}

// TestLentArenasOutliveAFailedAppend: the closing append of a two-phase write
// fails on rank 0 — its first piece, the front matter, which only it writes —
// while aggregator 1 is still moving its own overlap and then the one rank 2
// lent it, each piece taking a while. Every rank gets a clean ErrIO; every
// piece a mover reads holds, from the first byte it reads to the last, the
// bytes a fault-free write puts at its offset (under pooldebug a lender that
// gave its arena back early would have poisoned it); and the two lenders,
// ranks 1 and 2, leave their arenas to the garbage collector, so the pool
// counts exactly those two out. The second row aborts the file system
// instead, as a rank failing elsewhere does: the ranks waiting for the movers
// leave at once, rank 2 among them, before rank 1 has read rank 2's arena.
func TestLentArenasOutliveAFailedAppend(t *testing.T) {
	const nprocs, perRank = 3, 4
	elemLen := func(rank int) int { return []int{900, 1500, 300}[rank] }
	write := func(errs []error, opts ...Option) func(n *machine.Node) error {
		return func(n *machine.Node) error {
			d, err := distr.New(perRank*nprocs, nprocs, distr.Block, 0)
			if err != nil {
				return err
			}
			s, err := Open(n, d, "f", append(opts, WithAggregators(2))...)
			if err != nil {
				return err
			}
			defer s.Close()
			if err := s.InsertFunc(func(l int, e *Encoder) { e.Raw(fillBytes(d.GlobalIndex(n.Rank(), l), elemLen(n.Rank()))) }); err != nil {
				return err
			}
			errs[n.Rank()] = s.Write()
			return errs[n.Rank()]
		}
	}
	ref := tappedStore(func([]byte) {})
	run(t, nprocs, ref, write(make([]error, nprocs), WithStrategy(StrategyFunnel), WithFileSystem(ref)))
	want, err := ref.Image("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, abort := range []bool{false, true} {
		t.Run(fmt.Sprintf("abort=%v", abort), func(t *testing.T) {
			var fs *pfs.FileSystem
			var mu sync.Mutex
			var moved int
			var wrong error
			injected := errors.New("injected: rank 0's front matter")
			check := func(p []byte, off int64) {
				if !bytes.Equal(p, want[off:off+int64(len(p))]) && wrong == nil {
					wrong = fmt.Errorf("a %d-byte piece at %d is not the record's bytes while its mover reads it", len(p), off)
				}
			}
			// Two stripes of 64 bytes, as tappedStore's, so that the extent
			// cuts fall inside the record.
			fs = pfs.NewFileSystem(vtime.Challenge(), func(string) (pfs.Backend, error) {
				s, err := pfs.NewStripedMemBackend(2, 64)
				return &moveTap{Backend: s, each: func(p []byte, off int64) error {
					switch {
					case off == 0: // the file header, at open
						return nil
					case off == enc.FileHeaderLen: // the record's first piece: rank 0's front matter
						if abort {
							fs.Abort(injected)
						}
						return injected
					}
					mu.Lock()
					defer mu.Unlock()
					moved++
					check(p, off)
					time.Sleep(20 * time.Millisecond)
					check(p, off)
					return nil
				}}, err
			})
			errs := make([]error, nprocs)
			base := bufpool.Stats().Outstanding
			if _, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs},
				write(errs, WithStrategy(StrategyTwoPhase), WithFileSystem(fs))); err == nil {
				t.Fatal("the write succeeded")
			}
			for r, err := range errs {
				if !errors.Is(err, ErrIO) {
					t.Errorf("rank %d: Write: %v, want ErrIO", r, err)
				}
			}
			if wrong != nil {
				t.Error(wrong)
			}
			if moved != 2 {
				t.Errorf("the movers read %d pieces, the layout gives aggregator 1 two", moved)
			}
			if held := bufpool.Stats().Outstanding - base; held != 2 {
				t.Errorf("%d pooled buffers out after the failed write, want the 2 lent arenas", held)
			}
		})
	}
}
