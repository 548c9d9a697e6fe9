package dstream

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// shuffleFrameMin tells a two-phase shuffle frame from everything else the
// test machines send: size tables, byte counts and clock frames are a few
// dozen bytes, the overlaps below a kilobyte and more.
const shuffleFrameMin = 512

// frameTap records the shuffle frames a transport delivers. At arm — which
// the ranks call where none of them has a send under way — it either starts
// counting the sends that precede the first shuffle frame (an exchange's empty
// messages, which race with it, aside), or, given that count as a budget,
// becomes a comm.FaultyTransport over the same transport: the exchange's
// first send kills the link for good. It also notes the ranks that sent a
// lent piece, delivered or not.
type frameTap struct {
	comm.Transport
	budget  int // -1: count
	mu      sync.Mutex
	frames  [][]byte
	lenders map[int]bool
	before  int // sends since arm and before the first shuffle frame
	armed   bool
	seen    bool
	faulty  *comm.FaultyTransport
}

func (ft *frameTap) Send(m comm.Message) error {
	ft.mu.Lock()
	f := ft.faulty
	if m.Mode == comm.Lent {
		if ft.lenders == nil {
			ft.lenders = map[int]bool{}
		}
		ft.lenders[m.From] = true
	}
	if len(m.Data) >= shuffleFrameMin {
		ft.seen = true
	} else if ft.armed && !ft.seen && len(m.Data) > 0 {
		ft.before++
	}
	ft.mu.Unlock()
	if f != nil {
		return f.Send(m)
	}
	return ft.Transport.Send(m)
}

func (ft *frameTap) Recv(to, from int, tag uint64) (comm.Message, error) {
	ft.mu.Lock()
	f := ft.faulty
	ft.mu.Unlock()
	var m comm.Message
	var err error
	if f != nil {
		m, err = f.Recv(to, from, tag)
	} else {
		m, err = ft.Transport.Recv(to, from, tag)
	}
	if err == nil && len(m.Data) >= shuffleFrameMin {
		ft.mu.Lock()
		ft.frames = append(ft.frames, m.Data)
		ft.mu.Unlock()
	}
	return m, err
}

func (ft *frameTap) arm() {
	ft.mu.Lock()
	if !ft.armed && ft.budget >= 0 {
		ft.faulty = comm.NewFaultyTransport(ft.Transport, ft.budget)
	}
	ft.armed = true
	ft.mu.Unlock()
}

// released reports whether a delivered frame has been given back to the pool,
// which only the pooldebug poison can tell.
func released(frame []byte) bool {
	for _, b := range frame {
		if b != 0xDB {
			return false
		}
	}
	return true
}

// writeTap sees every piece on its way into the store.
type writeTap struct {
	pfs.Backend
	each func(p []byte)
}

func (w *writeTap) WriteAt(p []byte, off int64) (int, error) {
	w.each(p)
	return w.Backend.WriteAt(p, off)
}

func (w *writeTap) Layout() pfs.Layout { return w.Backend.(pfs.LayoutProvider).Layout() }

// tappedStore is a file system over two stripes of 64 bytes — so that the
// extent cuts fall inside the few kilobytes a test record has — with each on
// every piece written.
func tappedStore(each func(p []byte)) *pfs.FileSystem {
	return pfs.NewFileSystem(vtime.Challenge(), func(string) (pfs.Backend, error) {
		s, err := pfs.NewStripedMemBackend(2, 64)
		return &writeTap{Backend: s, each: each}, err
	})
}

// poolHeld runs body on a machine and returns how many pooled buffers the run
// left out of the pool.
func poolHeld(t *testing.T, cfg machine.Config, body func(n *machine.Node) error) int64 {
	t.Helper()
	base := bufpool.Stats().Outstanding
	cfg.Profile = vtime.Challenge()
	if _, err := machine.Run(cfg, body); err != nil {
		t.Fatal(err)
	}
	return bufpool.Stats().Outstanding - base
}

// TestTwoPhaseFramesHeldUntilAppendReturns: an aggregator's extent reaches the
// store as the frames the shuffle delivered and the part of its own arena
// that lies in it — the very buffers, not a copy of them; in process a frame
// is the part of its sender's arena the sender lent — so a frame is read
// until the append that reads it has returned and is given back exactly once
// after it, by the rank whose arena it is, and the own overlap is never given
// back on its own account: not when the record lands, not when the append
// fails, not when the shuffle does, not write-behind. A failed append drops
// each lender's arena to the garbage collector. The account is the pool's
// count of buffers out, against a run of the same shape that funnels (plus
// what the shuffle's one Allgather keeps, measured on its own); under
// pooldebug the poison says whether a frame went back while the append was
// still writing. The refill mirrors it: each sliver of the extent goes
// back once, by the rank it was sent to or, when the scatter failed before
// sending it, by the aggregator, and a two-phase read holds no more than a
// direct one.
func TestTwoPhaseFramesHeldUntilAppendReturns(t *testing.T) {
	// Element sizes by owner make the shares uneven, so that overlaps cross
	// ranks: on three ranks aggregator 0 gets its own share and the head of
	// rank 1's, aggregator 1 the rest of rank 1's — its own — and rank 2's;
	// on two, rank 0 keeps the head of its share, which starts its arena (the
	// one slice of it the pool would take back), and sends aggregator 1 the
	// tail.
	const perRank = 4
	elemLen := func(rank int) int { return []int{900, 1500, 300}[rank] }
	config := func(ft *frameTap, nprocs int) machine.Config {
		cfg := machine.Config{NProcs: nprocs}
		if ft != nil {
			cfg.WrapTransport = func(tr comm.Transport) comm.Transport { ft.Transport = tr; return ft }
		}
		return cfg
	}
	// write is one record through a stream on fs. With a tap, the ranks arm
	// it where everyone is past Open's collectives: behind a rendezvous of the
	// file system, which sends nothing.
	write := func(ft *frameTap, fs *pfs.FileSystem, nprocs int, wantErr bool, opts ...Option) func(n *machine.Node) error {
		return func(n *machine.Node) error {
			d, err := distr.New(perRank*nprocs, nprocs, distr.Block, 0)
			if err != nil {
				return err
			}
			s, err := Open(n, d, "f", append(opts, WithFileSystem(fs), WithAggregators(2))...)
			if err != nil {
				return err
			}
			defer s.Close()
			if err := s.InsertFunc(func(l int, e *Encoder) { e.Raw(fillBytes(d.GlobalIndex(n.Rank(), l), elemLen(n.Rank()))) }); err != nil {
				return err
			}
			if ft != nil {
				if err := s.f.ControlSync(); err != nil {
					return err
				}
				ft.arm()
			}
			if err := s.Write(); errors.Is(err, ErrIO) != wantErr {
				return fmt.Errorf("Write: %v, want ErrIO: %v", err, wantErr)
			}
			return nil
		}
	}
	twoPhase := WithStrategy(StrategyTwoPhase)
	plainStore := func() *pfs.FileSystem { return tappedStore(func([]byte) {}) }

	// The sends between the arming point and the exchange's first.
	count := &frameTap{budget: -1}
	poolHeld(t, config(count, 2), write(count, plainStore(), 2, false, twoPhase))

	for _, tc := range []struct {
		name    string
		nprocs  int
		opts    []Option
		failOp  int // backend operations let through, -1 for all
		budget  int // sends let through once the record is inserted, -1 for all
		wantErr bool
		frames  int // shuffle frames that must reach the store as they are
		// dropped is the arenas a failed Write lent out and dropped to the
		// garbage collector, -1 for one per rank that sent a lent piece.
		dropped int
	}{
		{name: "success", nprocs: 3, failOp: -1, budget: -1, frames: 2},
		{name: "success on two ranks", nprocs: 2, failOp: -1, budget: -1, frames: 1},
		{name: "async", nprocs: 3, opts: []Option{WithAsync()}, failOp: -1, budget: -1, frames: 2},
		// The file header is operation one. The aggregators then write their
		// pieces concurrently — aggregator 0 its front matter first — so
		// failOp 1 fails the front matter wherever it falls, and failOp 3 lets
		// two pieces through, whichever ranks' they are, and fails the rest:
		// every rank fails with them. Ranks 1 and 2 lent part of their arenas
		// to the aggregators, and drop them to the garbage collector.
		{name: "append fails on a frame", nprocs: 3, failOp: 3, budget: -1, wantErr: true, dropped: 2},
		{name: "append fails on the front matter", nprocs: 3, failOp: 1, budget: -1, wantErr: true, dropped: 2},
		// The Allgather goes through and the first send of the exchange
		// kills the link: no frame is ever delivered. The budget counts the
		// ranks' sends together, so whether a rank got as far as lending
		// before the link died is a race; each one that did drops its arena.
		{name: "shuffle fails", nprocs: 2, failOp: -1, budget: count.before, wantErr: true, dropped: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ft := &frameTap{budget: tc.budget}
			var written []*byte
			var early error
			fs := tappedStore(func(p []byte) {
				ft.mu.Lock()
				defer ft.mu.Unlock()
				if len(p) > 0 {
					written = append(written, &p[0])
				}
				for _, f := range ft.frames {
					if bufpool.Debug && released(f) && early == nil {
						early = fmt.Errorf("a %d-byte shuffle frame went back to the pool while the append was still writing", len(f))
					}
				}
			})
			if tc.failOp >= 0 {
				if err := fs.InjectFault("f", tc.failOp); err != nil {
					t.Fatal(err)
				}
			}
			discards := bufpool.Stats().Discards
			held := poolHeld(t, config(ft, tc.nprocs), write(ft, fs, tc.nprocs, tc.wantErr, append(tc.opts, twoPhase)...))
			if early != nil {
				t.Error(early)
			}
			lenders := tc.dropped
			if lenders < 0 {
				lenders = len(ft.lenders)
			}
			if dropped := bufpool.Stats().Discards - discards; held != 0 || dropped != int64(lenders) {
				t.Errorf("%d pooled buffers out after the run and %d dropped, want 0 and the %d lent arenas: a frame or the own overlap was released twice, or not at all", held, dropped, lenders)
			}
			if tc.wantErr {
				return
			}
			if len(ft.frames) != tc.frames {
				t.Fatalf("%d shuffle frames delivered, the layout has %d", len(ft.frames), tc.frames)
			}
			for i, f := range ft.frames {
				found := false
				for _, p := range written {
					found = found || p == &f[0]
				}
				if !found {
					t.Errorf("shuffle frame %d (%d bytes) was copied on its way to the store", i, len(f))
				}
			}
			ref := plainStore()
			run(t, tc.nprocs, ref, write(nil, ref, tc.nprocs, false, WithStrategy(StrategyFunnel)))
			got, err := fs.Image("f")
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Image("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("the two-phase image differs from the funnel's")
			}
		})
	}

	// The refill. One file, written once; read back on the two ranks that
	// wrote it, so that aggregator 0's extent holds the head of rank 1's share.
	src := plainStore()
	run(t, 2, src, write(nil, src, 2, false, WithStrategy(StrategyFunnel)))
	read := func(ft *frameTap, wantErr bool, strat Strategy) func(n *machine.Node) error {
		return func(n *machine.Node) error {
			d, err := distr.New(perRank*2, 2, distr.Block, 0)
			if err != nil {
				return err
			}
			in, err := OpenInput(n, d, "f", WithFileSystem(src), WithStrategy(strat), WithAggregators(2))
			if err != nil {
				return err
			}
			if ft != nil {
				if err := in.f.ControlSync(); err != nil {
					return err
				}
				ft.arm()
			}
			if err := in.UnsortedRead(); errors.Is(err, ErrIO) != wantErr {
				return fmt.Errorf("UnsortedRead: %v, want ErrIO: %v", err, wantErr)
			}
			if !wantErr {
				var bad error
				err := in.ExtractFunc(func(l int, dec *Decoder) {
					g := d.GlobalIndex(n.Rank(), l)
					if !bytes.Equal(dec.Raw(dec.Remaining()), fillBytes(g, elemLen(n.Rank()))) && bad == nil {
						bad = fmt.Errorf("element %d read back wrong", g)
					}
				})
				if err != nil || bad != nil {
					return errors.Join(err, bad)
				}
			}
			return in.Close()
		}
	}
	direct := poolHeld(t, config(nil, 2), read(nil, false, StrategyParallel))
	count = &frameTap{budget: -1}
	poolHeld(t, config(count, 2), read(count, false, StrategyTwoPhase))
	if len(count.frames) != 1 {
		t.Fatalf("%d scatter frames delivered, the layout has 1", len(count.frames))
	}
	for _, tc := range []struct {
		name    string
		budget  int
		wantErr bool
	}{
		{"refill", -1, false},
		// The front matter's broadcasts go through, the scatter's first send
		// kills the link.
		{"scatter fails", count.before, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ft := &frameTap{budget: tc.budget}
			if held := poolHeld(t, config(ft, 2), read(ft, tc.wantErr, StrategyTwoPhase)); held != direct {
				t.Errorf("%d pooled buffers out after a two-phase read, %d after a direct one: a sliver was not released, or twice", held, direct)
			}
		})
	}
}
