package dstream

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// refillRecords and refillLen shape the files of the refill tests: element g
// of record rec is refillLen(g, rec) bytes, 41 to 153, so that on a store
// striped in 64-byte cells the extent cuts fall inside elements and the
// shares straddle them.
const refillRecords = 3

func refillLen(g, rec int) int { return 41 + (g*37+rec*11)%113 }

// refillStore is a file system striped three ways in 64-byte cells.
func refillStore() *pfs.FileSystem {
	return pfs.NewFileSystem(vtime.Challenge(), pfs.StripedMemFactory(3, 64))
}

// writeRefillFile writes refillRecords records of 7P+3 elements CYCLIC on P
// ranks into "f" on fs.
func writeRefillFile(t *testing.T, fs *pfs.FileSystem, nprocs int) {
	t.Helper()
	run(t, nprocs, fs, func(n *machine.Node) error {
		d, err := distr.New(7*nprocs+3, nprocs, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		s, err := Open(n, d, "f", WithStrategy(StrategyParallel))
		if err != nil {
			return err
		}
		defer s.Close()
		for rec := 0; rec < refillRecords; rec++ {
			err := s.InsertFunc(func(l int, e *Encoder) {
				g := d.GlobalIndex(n.Rank(), l)
				e.Raw(fillBytes(g+rec, refillLen(g, rec)))
			})
			if err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
		}
		return nil
	})
}

// readRefillFile is the body that reads every record of "f" back on P ranks
// in layout mode, sorted, with opts, and puts each element's bytes in got by
// record and global index; it fails on an element whose bytes are not the
// ones written.
func readRefillFile(nprocs int, mode distr.Mode, opts ...Option) func(n *machine.Node, got [][][]byte) error {
	return func(n *machine.Node, got [][][]byte) error {
		d, err := distr.New(7*nprocs+3, nprocs, mode, 0)
		if err != nil {
			return err
		}
		in, err := OpenInput(n, d, "f", opts...)
		if err != nil {
			return err
		}
		for rec := 0; rec < refillRecords; rec++ {
			if err := in.Read(); err != nil {
				return err
			}
			var bad error
			err := in.ExtractFunc(func(l int, dec *Decoder) {
				g := d.GlobalIndex(n.Rank(), l)
				got[rec][g] = bytes.Clone(dec.Raw(dec.Remaining()))
				if !bytes.Equal(got[rec][g], fillBytes(g+rec, refillLen(g, rec))) && bad == nil {
					bad = fmt.Errorf("record %d element %d read back wrong", rec, g)
				}
			})
			if err != nil || bad != nil {
				return errors.Join(err, bad)
			}
		}
		return in.Close()
	}
}

// refillGot is where readRefillFile puts what P ranks read.
func refillGot(nprocs int) [][][]byte {
	got := make([][][]byte, refillRecords)
	for rec := range got {
		got[rec] = make([][]byte, 7*nprocs+3)
	}
	return got
}

// TestTwoPhaseScatterHandsSliversOver: every non-empty message of the
// two-phase scatter is sent owned — the sliver the aggregator read into goes
// to its rank as it is, with no copy in the transport — and when the reading
// machine has closed its stream the pool's count of buffers out is where it
// was before: each sliver was given back once, by the rank it was sent to.
// The reader keeps the writer's CYCLIC layout, so no redistribution shares
// the all-to-all.
func TestTwoPhaseScatterHandsSliversOver(t *testing.T) {
	const nprocs = 4
	fs := refillStore()
	writeRefillFile(t, fs, nprocs)
	for _, k := range []int{2, nprocs} {
		for _, depth := range []int{0, 2} {
			t.Run(fmt.Sprintf("K=%d/depth=%d", k, depth), func(t *testing.T) {
				var scattered int
				var borrowed error
				tap := &sendTap{each: func(m comm.Message) error {
					if m.Tag>>56 != alltoallKind || len(m.Data) == 0 {
						return nil
					}
					scattered++
					if m.Mode != comm.Owned && borrowed == nil {
						borrowed = fmt.Errorf("a %d-byte sliver %d→%d was sent borrowed: the transport copied it", len(m.Data), m.From, m.To)
					}
					return nil
				}}
				read := readRefillFile(nprocs, distr.Cyclic, WithStrategy(StrategyTwoPhase), WithAggregators(k), WithReadAhead(depth))
				got := refillGot(nprocs)
				held := poolHeld(t, machine.Config{NProcs: nprocs, FS: fs,
					WrapTransport: func(tr comm.Transport) comm.Transport { tap.Transport = tr; return tap }},
					func(n *machine.Node) error { return read(n, got) })
				if borrowed != nil {
					t.Error(borrowed)
				}
				if scattered == 0 {
					t.Error("the read scattered nothing")
				}
				if held != 0 {
					t.Errorf("%d pooled buffers out after the stream closed", held)
				}
			})
		}
	}
}

// failNthRead fails, for good, the n-th ReadAt after it is armed, and
// records the offset and length of every one.
type failNthRead struct {
	pfs.Backend
	mu    sync.Mutex
	armed bool
	n     int // 0: fail none
	calls [][2]int64
}

func (f *failNthRead) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	if f.armed {
		f.calls = append(f.calls, [2]int64{off, int64(len(p))})
		if len(f.calls) == f.n {
			f.mu.Unlock()
			return 0, pfs.ErrInjected
		}
	}
	f.mu.Unlock()
	return f.Backend.ReadAt(p, off)
}

func (f *failNthRead) Layout() pfs.Layout { return f.Backend.(pfs.LayoutProvider).Layout() }

func (f *failNthRead) arm() {
	f.mu.Lock()
	f.armed = true
	f.mu.Unlock()
}

// TestTwoPhaseRefillFaultOnSecondPiece: one aggregator reads a record of
// three ranks' shares as three pieces, one backend read each, after node 0's
// two front-matter reads. A clean read shows that layout; then the second
// piece fails. Every rank's Read fails with ErrIO wrapping the store's error,
// and once the stream is closed every sliver is back in the pool — none was
// sent, so the aggregator gives them all back.
func TestTwoPhaseRefillFaultOnSecondPiece(t *testing.T) {
	const nprocs = 3
	src := refillStore()
	writeRefillFile(t, src, nprocs)
	img, err := src.Image("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, failAt := range []int{0, 4} {
		tap := &failNthRead{n: failAt}
		fs := pfs.NewFileSystem(vtime.Challenge(), func(string) (pfs.Backend, error) {
			s, err := pfs.NewStripedMemBackend(3, 64)
			if err == nil {
				_, err = s.WriteAt(img, 0)
			}
			tap.Backend = s
			return tap, err
		})
		errs := make([]error, nprocs)
		held := poolHeld(t, machine.Config{NProcs: nprocs, FS: fs}, func(n *machine.Node) error {
			d, err := distr.New(7*nprocs+3, nprocs, distr.Block, 0)
			if err != nil {
				return err
			}
			in, err := OpenInput(n, d, "f", WithStrategy(StrategyTwoPhase), WithAggregators(1))
			if err != nil {
				return err
			}
			if err := in.f.ControlSync(); err != nil { // nobody reads before the tap is armed
				return err
			}
			if n.Rank() == 0 {
				tap.arm()
			}
			if err := in.f.ControlSync(); err != nil {
				return err
			}
			errs[n.Rank()] = in.Read()
			return in.Close()
		})
		if failAt == 0 {
			// Header, descriptor and size table, then the three pieces: one
			// contiguous extent, cut where the shares meet.
			if len(tap.calls) != 5 {
				t.Fatalf("a clean read made %d backend reads, want 2 of front matter and 3 pieces: %v", len(tap.calls), tap.calls)
			}
			for i := 3; i < 5; i++ {
				if prev := tap.calls[i-1]; tap.calls[i][0] != prev[0]+prev[1] || tap.calls[i][1] == 0 {
					t.Fatalf("the pieces are not one extent in share order: %v", tap.calls[2:])
				}
			}
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: clean read failed: %v", r, err)
				}
			}
		} else {
			for r, err := range errs {
				if !errors.Is(err, ErrIO) || !errors.Is(err, pfs.ErrInjected) {
					t.Errorf("rank %d: %v, want ErrIO wrapping the store's fault", r, err)
				}
			}
		}
		if held != 0 {
			t.Errorf("fail at read %d: %d pooled buffers out after the stream closed", failAt, held)
		}
	}
}
