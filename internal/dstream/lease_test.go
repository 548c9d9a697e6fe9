package dstream

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// sameArray reports whether a and b are slices of one backing array that
// both run to its end, as every slice of a share taken without a capacity
// limit does: the last element their capacities reach is the same.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// TestRedistLendsInPlace: every non-empty message of the sorted read's
// redistribution goes out lent, and on the in-process transport the receiver
// holds the sender's lease and decodes what it was lent where it stands: the
// first element it takes from a peer is, by pointer, the first byte the peer
// sent it — and when the peer's elements for it are one run of its share,
// that byte lies in the share the peer decodes its own elements from.
// Strided destinations are lent their packed buffer the same way. Over TCP
// the message is the same but the receiver decodes a copy and holds no lease.
func TestRedistLendsInPlace(t *testing.T) {
	const nprocs, nElems = 3, 24
	size := func(g int) int { return 40 + g }
	for _, tc := range []struct {
		name         string
		wmode, rmode distr.Mode
		transport    machine.TransportKind
		runs         bool // every rank's elements for each peer are one run of its share
	}{
		{"runs", distr.Cyclic, distr.Block, machine.TransportChan, true},
		{"packed", distr.Block, distr.Cyclic, machine.TransportChan, false},
		{"tcp", distr.Cyclic, distr.Block, machine.TransportTCP, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lends := tc.transport == machine.TransportChan
			fs := pfs.NewMemFS(vtime.Paragon())
			wd := mustDist(t, nElems, nprocs, tc.wmode, 0)
			rd := mustDist(t, nElems, nprocs, tc.rmode, 0)
			run(t, nprocs, fs, func(n *machine.Node) error { return writeRaw(n, wd, "f", 1, size) })

			sent := map[[2]int][]byte{}
			var bad error
			tap := &sendTap{each: func(m comm.Message) error {
				if m.Tag>>56 != alltoallKind || len(m.Data) == 0 {
					return nil
				}
				if m.Mode != comm.Lent && bad == nil {
					bad = fmt.Errorf("a %d-byte frame %d→%d went out in mode %d, not lent", len(m.Data), m.From, m.To, m.Mode)
				}
				sent[[2]int{m.From, m.To}] = m.Data
				return nil
			}}
			raws := make([][][]byte, nprocs) // every element's Raw bytes, by rank
			leased := make([][]bool, nprocs) // whether the frame from each peer is read under a lease
			_, err := machine.Run(machine.Config{
				NProcs: nprocs, Profile: vtime.Paragon(), FS: fs, Transport: tc.transport,
				WrapTransport: func(tr comm.Transport) comm.Transport { tap.Transport = tr; return tap },
			}, func(n *machine.Node) error {
				me := n.Rank()
				s, err := OpenInput(n, rd, "f", WithStrategy(StrategyParallel))
				if err != nil {
					return err
				}
				defer s.Close()
				if err := s.Read(); err != nil {
					return err
				}
				for r, l := range s.leases {
					leased[me] = append(leased[me], r != me && l != nil)
				}
				var wrong error
				err = s.ExtractFunc(func(l int, d *Decoder) {
					g := rd.GlobalIndex(me, l)
					p := d.Raw(d.Remaining())
					if !bytes.Equal(p, rawElem(0, g, size(g))) && wrong == nil {
						wrong = fmt.Errorf("rank %d: element %d read back wrong", me, g)
					}
					raws[me] = append(raws[me], p)
				})
				if err != nil || wrong != nil {
					return errors.Join(err, wrong)
				}
				return s.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
			if bad != nil {
				t.Fatal(bad)
			}
			if len(sent) != nprocs*(nprocs-1) {
				t.Fatalf("%d non-empty frames, the layouts give every rank something for every peer", len(sent))
			}
			for pair, data := range sent {
				from, to := pair[0], pair[1]
				inPlace, inShare := false, false
				for _, p := range raws[to] {
					inPlace = inPlace || len(p) > 0 && &p[0] == &data[0]
				}
				for _, p := range raws[from] {
					inShare = inShare || sameArray(p, data)
				}
				switch {
				case inPlace != lends:
					t.Errorf("%d→%d: the receiver decodes the sender's bytes in place: %v, want %v", from, to, inPlace, lends)
				case leased[to][from] != lends:
					t.Errorf("%d→%d: the receiver holds a lease: %v, want %v", from, to, leased[to][from], lends)
				case inShare != tc.runs:
					t.Errorf("%d→%d: what was sent lies in the sender's share: %v, want %v", from, to, inShare, tc.runs)
				}
			}
		})
	}
}

// TestLenderMovesOnWhilePeerExtracts: a rank that lent part of its share may
// go on — Read the next record, Skip it or Close the stream — while a peer is
// still extracting what it was lent; the lease keeps the share out of the pool
// until the peer lets go too. Rank 1 keeps the Raw bytes of an element rank 0
// lent it and looks at them again after a pause in which rank 0 has released
// its own hold and gone on into its next call; under pooldebug a share given
// back to the pool early is poisoned there. Only then does rank 1 follow.
func TestLenderMovesOnWhilePeerExtracts(t *testing.T) {
	const nprocs, nElems, records = 2, 16, 3
	size := func(g int) int { return 100 + g }
	fs := pfs.NewMemFS(vtime.Paragon())
	// CYCLIC → BLOCK on two ranks: rank 0 reads the even globals and lends
	// rank 1 the upper half of them as one run of its share.
	wd := mustDist(t, nElems, nprocs, distr.Cyclic, 0)
	rd := mustDist(t, nElems, nprocs, distr.Block, 0)
	run(t, nprocs, fs, func(n *machine.Node) error { return writeRaw(n, wd, "f", records, size) })
	drain := func(s *IStream) error { return s.ExtractFunc(func(int, *Decoder) {}) }
	nexts := map[string]func(s *IStream) error{
		"read":  func(s *IStream) error { return errors.Join(s.Read(), drain(s)) },
		"skip":  func(s *IStream) error { return s.Skip() },
		"close": func(s *IStream) error { return s.Close() },
	}
	for name, next := range nexts {
		for _, rf := range []struct {
			name string
			opts []Option
		}{
			{"sync", []Option{WithStrategy(StrategyParallel)}},
			{"readahead", []Option{WithStrategy(StrategyParallel), WithReadAhead(2)}},
			{"twophase", []Option{WithStrategy(StrategyTwoPhase), WithReadAhead(1)}},
		} {
			t.Run(name+"/"+rf.name, func(t *testing.T) {
				held := poolHeld(t, machine.Config{NProcs: nprocs, FS: fs}, func(n *machine.Node) error {
					me := n.Rank()
					s, err := OpenInput(n, rd, "f", rf.opts...)
					if err != nil {
						return err
					}
					defer s.Close()
					if err := s.Read(); err != nil {
						return err
					}
					var kept []byte
					var keptG int
					err = s.ExtractFunc(func(l int, d *Decoder) {
						p := d.Raw(d.Remaining())
						// The writer's node blocks and the readers' shares
						// coincide here: the writer's owner is the lender.
						if g := rd.GlobalIndex(me, l); wd.Owner(g) != me && kept == nil {
							kept, keptG = p, g
						}
					})
					if err != nil {
						return err
					}
					if me == 1 {
						time.Sleep(50 * time.Millisecond)
						if !bytes.Equal(kept, rawElem(0, keptG, size(keptG))) {
							return fmt.Errorf("element %d, lent by rank 0, changed while rank 1 still read it", keptG)
						}
					}
					if err := next(s); err != nil {
						return err
					}
					return s.Close()
				})
				if held != 0 {
					t.Errorf("%d pooled buffers out after the streams closed", held)
				}
			})
		}
	}
}

// TestRedistFailedExchangeDropsShare: the redistribution's exchange dies
// mid-way — one or more of its frames delivered, then the link is gone for
// good. Every rank's Read fails with ErrIO, and every rank that lent part of
// its share leaves the share to the garbage collector instead of giving it
// back to the pool, since a peer may still be reading it: the pool counts out
// exactly one dropped buffer per lender and none held.
func TestRedistFailedExchangeDropsShare(t *testing.T) {
	const size = 600 // a frame outgrows shuffleFrameMin; the front matter does not
	for _, tc := range []struct {
		nprocs, through int // ranks; frames delivered before the link dies
	}{{2, 1}, {3, 3}} {
		t.Run(fmt.Sprintf("P=%d", tc.nprocs), func(t *testing.T) {
			nElems := 4 * tc.nprocs
			fs := pfs.NewMemFS(vtime.Paragon())
			wd := mustDist(t, nElems, tc.nprocs, distr.Cyclic, 0)
			rd := mustDist(t, nElems, tc.nprocs, distr.Block, 0)
			run(t, tc.nprocs, fs, func(n *machine.Node) error { return writeRaw(n, wd, "f", 1, func(int) int { return size }) })
			read := func(ft *frameTap, wantErr bool) func(n *machine.Node) error {
				return func(n *machine.Node) error {
					s, err := OpenInput(n, rd, "f", WithFileSystem(fs), WithStrategy(StrategyParallel))
					if err != nil {
						return err
					}
					defer s.Close()
					// Arm where no rank has a send under way: behind a
					// rendezvous of the file system, which sends nothing.
					if err := s.f.ControlSync(); err != nil {
						return err
					}
					ft.arm()
					if err := s.Read(); errors.Is(err, ErrIO) != wantErr {
						return fmt.Errorf("rank %d: Read: %v, want ErrIO: %v", n.Rank(), err, wantErr)
					}
					s.Close()
					return nil
				}
			}
			config := func(ft *frameTap) machine.Config {
				return machine.Config{NProcs: tc.nprocs, FS: fs,
					WrapTransport: func(tr comm.Transport) comm.Transport { ft.Transport = tr; return ft }}
			}
			count := &frameTap{budget: -1}
			poolHeld(t, config(count), read(count, false))
			if len(count.frames) != tc.nprocs*(tc.nprocs-1) {
				t.Fatalf("%d frames delivered, the layouts give every rank one for every peer", len(count.frames))
			}
			ft := &frameTap{budget: count.before + tc.through}
			discards := bufpool.Stats().Discards
			held := poolHeld(t, config(ft), read(ft, true))
			if dropped := bufpool.Stats().Discards - discards; held != 0 || dropped != int64(len(ft.lenders)) {
				t.Errorf("%d pooled buffers out and %d dropped after the failed read, want 0 and one share per lender (%d)", held, dropped, len(ft.lenders))
			}
			if len(ft.lenders) == 0 {
				t.Error("no rank lent before the link died")
			}
		})
	}
}
