package dstream

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// fillBytes is a payload of n bytes that depends on its element.
func fillBytes(g, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(g*13 + j)
	}
	return p
}

// roundTrip writes one record per entry of sizes on a P=1 machine — sizes[r](g)
// is element g's payload length in record r — reads everything back, and
// checks, around every primitive, what the stream holds of the buffer pool.
// One rank, so the pool's global counter is this stream's alone.
func roundTrip(t *testing.T, nElems int, sizes ...func(g int) int) {
	t.Helper()
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 1, fs, func(n *machine.Node) error {
		d, err := distr.New(nElems, 1, distr.Block, 0)
		if err != nil {
			return err
		}
		base := bufpool.Stats().Outstanding
		s, err := Open(n, d, "rt")
		if err != nil {
			return err
		}
		for r, size := range sizes {
			if err := s.InsertFunc(func(l int, e *Encoder) { e.Raw(fillBytes(l, size(l))) }); err != nil {
				return err
			}
			if got := bufpool.Stats().Outstanding; got != base+1 {
				return fmt.Errorf("record %d: %d pooled buffers held after the insert, want the arena alone", r, got-base)
			}
			if err := s.Write(); err != nil {
				return err
			}
			if got := bufpool.Stats().Outstanding; got != base {
				return fmt.Errorf("record %d: %d pooled buffers still held after Write", r, got-base)
			}
		}
		if err := s.Close(); err != nil {
			return err
		}
		in, err := OpenInput(n, d, "rt")
		if err != nil {
			return err
		}
		defer in.Close()
		for r, size := range sizes {
			if err := in.Read(); err != nil {
				return err
			}
			var bad error
			err := in.ExtractFunc(func(l int, dec *Decoder) {
				if got, want := dec.Raw(dec.Remaining()), fillBytes(l, size(l)); !bytes.Equal(got, want) && bad == nil {
					bad = fmt.Errorf("record %d element %d: read back %d bytes, wrote %d (or they differ)", r, l, len(got), len(want))
				}
			})
			if err != nil {
				return err
			}
			if bad != nil {
				return bad
			}
		}
		return nil
	})
}

// TestArenaGrowsAcrossClassesOnFirstInsert: a stream's first insert sizes
// its arena from the first element; when that one is tiny and the rest are
// not, the arena climbs several pool classes while elements already encoded
// stay where their offsets say.
func TestArenaGrowsAcrossClassesOnFirstInsert(t *testing.T) {
	roundTrip(t, 64, func(g int) int { return 8 + 512*g }) // 64·8 B estimated, ~1 MB encoded
}

// TestArenaElementCrossesClassAlone: one element larger than everything
// before it together, in the middle of an insert and as its first element;
// then a record that the previous record's size presizes wrongly both ways.
func TestArenaElementCrossesClassAlone(t *testing.T) {
	big := func(at int) func(int) int {
		return func(g int) int {
			if g == at {
				return 100 << 10
			}
			return g % 5 // zero-length elements included
		}
	}
	roundTrip(t, 40, big(17), big(0), func(int) int { return 3 }, big(39))
}

// TestArenaAllEmpty: an insert that encodes nothing at all still makes a
// record.
func TestArenaAllEmpty(t *testing.T) {
	roundTrip(t, 9, func(int) int { return 0 }, func(g int) int { return g })
}

// failingFactory lets okOps backend operations through and fails the rest.
func failingFactory(okOps int) pfs.BackendFactory {
	return func(string) (pfs.Backend, error) {
		return pfs.NewFaultyBackend(pfs.NewMemBackend(), okOps), nil
	}
}

// TestArenaReleasedOnFailedWriteAndClose: whatever happens to a group — its
// Write fails in the file system, under any strategy, or the stream is closed
// with inserts still pending — its arenas, and every pooled buffer the
// strategy took on the way (size tables, gathered parts, the two-phase
// shuffle's frames, the front matter), go back to the pool; only an arena the
// two-phase shuffle lent out before the Write failed stays out, left to the
// garbage collector.
func TestArenaReleasedOnFailedWriteAndClose(t *testing.T) {
	for _, strat := range []Strategy{StrategyAuto, StrategyFunnel, StrategyParallel, StrategyTwoPhase} {
		for _, shape := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/inserts=%d", strat, shape), func(t *testing.T) {
				// The file header is operation one; the record's append fails.
				fs := pfs.NewFileSystem(vtime.Challenge(), failingFactory(1))
				run(t, 1, fs, func(n *machine.Node) error {
					d, err := distr.New(16, 1, distr.Block, 0)
					if err != nil {
						return err
					}
					base := bufpool.Stats().Outstanding
					s, err := Open(n, d, "fail", WithStrategy(strat))
					if err != nil {
						return err
					}
					insert := func() error {
						return s.InsertFunc(func(l int, e *Encoder) { e.Raw(fillBytes(l, 100)) })
					}
					for i := 0; i < shape; i++ {
						if err := insert(); err != nil {
							return err
						}
					}
					if got := bufpool.Stats().Outstanding; got != base+int64(shape) {
						return fmt.Errorf("%d pooled buffers held for %d inserts", got-base, shape)
					}
					if err := s.Write(); !errors.Is(err, ErrIO) {
						return fmt.Errorf("Write on a failing backend: %v, want ErrIO", err)
					}
					if got := bufpool.Stats().Outstanding; got != base {
						return fmt.Errorf("%d pooled buffers still held after the failed Write", got-base)
					}
					s.Close()

					// Close with pending inserts, on a stream that works.
					s, err = Open(n, d, "pending", WithStrategy(strat), WithFileSystem(pfs.NewMemFS(vtime.Challenge())))
					if err != nil {
						return err
					}
					for i := 0; i < shape; i++ {
						if err := insert(); err != nil {
							return err
						}
					}
					if err := s.Close(); !errors.Is(err, ErrOrder) {
						return fmt.Errorf("Close with pending inserts: %v, want ErrOrder", err)
					}
					if got := bufpool.Stats().Outstanding; got != base {
						return fmt.Errorf("%d pooled buffers still held after Close with pending inserts", got-base)
					}
					return nil
				})
			})
		}
		// The same account across ranks, where the strategies differ: three
		// nodes (two of them aggregators under two-phase) gather, shuffle and
		// append, and the append fails on every rank through the rendezvous.
		// The collectives keep a few received frames out of the pool whatever
		// the outcome, so the measure is a run whose Write succeeds: a failed
		// one leaves no more out than that.
		t.Run(fmt.Sprintf("%v/ranks=3", strat), func(t *testing.T) {
			held := func(fs *pfs.FileSystem, wantErr bool) int64 {
				base := bufpool.Stats().Outstanding
				run(t, 3, fs, func(n *machine.Node) error {
					d, err := distr.New(16, 3, distr.Cyclic, 0)
					if err != nil {
						return err
					}
					s, err := Open(n, d, "f", WithStrategy(strat), WithAggregators(2))
					if err != nil {
						return err
					}
					defer s.Close()
					if err := s.InsertFunc(func(l int, e *Encoder) { e.Raw(fillBytes(l, 100)) }); err != nil {
						return err
					}
					if err := s.Write(); errors.Is(err, ErrIO) != wantErr {
						return fmt.Errorf("Write: %v, want ErrIO: %v", err, wantErr)
					}
					return nil
				})
				return bufpool.Stats().Outstanding - base
			}
			ok := held(pfs.NewMemFS(vtime.Challenge()), false)
			// The append fails on node 0's first piece — and, where its block
			// is a list (two-phase on a flat store: the front matter, its own
			// overlap, a frame from each of the others), on each later one,
			// with the pieces before it in the file.
			// Under two-phase, ranks 1 and 2 lend the aggregators the parts
			// of their arenas that lie in another rank's extent; a Write that
			// fails once they have leaves those two arenas to the garbage
			// collector, out of the pool for good.
			okOps, lenders := []int{1}, int64(0)
			if strat == StrategyTwoPhase {
				okOps, lenders = []int{1, 2, 3, 4}, 2
			}
			for _, n := range okOps {
				failed := held(pfs.NewFileSystem(vtime.Challenge(), failingFactory(n)), true)
				if failed != ok+lenders {
					t.Fatalf("%d pooled buffers out after a Write on 3 ranks that failed on backend operation %d, %d after one that succeeds (and %d lent arenas)", failed, n+1, ok, lenders)
				}
			}
		})
	}
}

// TestChannelArenaReleased is the same account for the producer end of a
// channel, whose group's first insert is encoded straight into one frame per
// consumer: the group holds those frames and an arena per later insert; Write
// sends the frames and returns the arenas; Close with inserts pending returns
// them all.
func TestChannelArenaReleased(t *testing.T) {
	const consumers = 2
	for _, shape := range []int{1, 2} {
		t.Run(fmt.Sprintf("inserts=%d", shape), func(t *testing.T) {
			chanRun(t, 1+consumers, nil, func(n *machine.Node) error {
				if n.Rank() != 0 {
					return nil // what reaches a mailbox stays there until the machine stops
				}
				wd, _ := distr.New(16, 1, distr.Block, 0)
				rd, _ := distr.New(16, consumers, distr.Cyclic, 0)
				s, err := OpenChannel(n, wd, rd, "acct")
				if err != nil {
					return err
				}
				base := bufpool.Stats().Outstanding
				group := func() error {
					for i := 0; i < shape; i++ {
						if err := s.InsertFunc(func(l int, e *Encoder) { e.Raw(fillBytes(l, 50)) }); err != nil {
							return err
						}
					}
					return nil
				}
				held := int64(consumers + shape - 1)
				if err := group(); err != nil {
					return err
				}
				if got := bufpool.Stats().Outstanding - base; got != held {
					return fmt.Errorf("%d pooled buffers held by a group of %d inserts, want %d frames and %d arenas",
						got, shape, consumers, shape-1)
				}
				if err := s.Write(); err != nil {
					return err
				}
				// What is out now is the frames in the consumers' mailboxes.
				if got := bufpool.Stats().Outstanding - base; got != consumers {
					return fmt.Errorf("%d pooled buffers held after Write, want the %d frames in flight", got, consumers)
				}
				if err := group(); err != nil {
					return err
				}
				if got := bufpool.Stats().Outstanding - base; got != consumers+held {
					return fmt.Errorf("%d pooled buffers held with a group pending, want %d", got, consumers+held)
				}
				if err := s.Close(); !errors.Is(err, ErrOrder) {
					return fmt.Errorf("Close with pending inserts: %v, want ErrOrder", err)
				}
				// The data frames and the EOF frames are the consumers' to release.
				if got := bufpool.Stats().Outstanding - base; got != 2*consumers {
					return fmt.Errorf("%d pooled buffers held after Close, want the %d frames in flight", got, 2*consumers)
				}
				return nil
			})
		})
	}
}

// TestSizeOverflowIsAnError: an insert whose arena, or a group whose
// interleaved element, would not fit the size table's u32 fails cleanly
// instead of storing a wrapped size, on a file stream and on a channel, whose
// first insert is encoded into its frames. The format's limit is 4 GiB; the
// test lowers the group's copy of it.
func TestSizeOverflowIsAnError(t *testing.T) {
	type end interface {
		InsertFunc(fill func(local int, e *Encoder)) error
		Write() error
		Close() error
	}
	ends := []struct {
		name  string
		ranks int
		open  func(n *machine.Node, name string) (end, *assembler, error)
	}{
		{"file", 1, func(n *machine.Node, name string) (end, *assembler, error) {
			d, err := distr.New(4, 1, distr.Block, 0)
			if err != nil {
				return nil, nil, err
			}
			s, err := Open(n, d, name)
			if err != nil {
				return nil, nil, err
			}
			return s, &s.assembler, nil
		}},
		// One producer, two consumers that never read: two frames a group.
		{"channel", 3, func(n *machine.Node, name string) (end, *assembler, error) {
			wd, _ := distr.New(4, 1, distr.Block, 0)
			rd, _ := distr.New(4, 2, distr.Cyclic, 0)
			s, err := OpenChannel(n, wd, rd, name)
			if err != nil {
				return nil, nil, err
			}
			return s, &s.assembler, nil
		}},
	}
	for _, e := range ends {
		t.Run(e.name, func(t *testing.T) {
			fs := pfs.NewMemFS(vtime.Challenge())
			run(t, e.ranks, fs, func(n *machine.Node) error {
				if n.Rank() != 0 {
					return nil
				}
				base := bufpool.Stats().Outstanding
				insert := func(s end, size int) error {
					return s.InsertFunc(func(l int, e *Encoder) { e.Raw(fillBytes(l, size)) })
				}

				// One insert past the limit: 4 × 300 bytes against 1000.
				s, a, err := e.open(n, "arena")
				if err != nil {
					return err
				}
				a.maxBytes = 1000
				if err := insert(s, 300); !errors.Is(err, ErrOrder) {
					return fmt.Errorf("oversize insert: %v, want ErrOrder", err)
				}
				if got := bufpool.Stats().Outstanding; got != base {
					return fmt.Errorf("%d pooled buffers still held after the rejected insert", got-base)
				}
				if err := s.Write(); !errors.Is(err, ErrOrder) {
					return fmt.Errorf("the failure is not sticky: Write returned %v", err)
				}
				s.Close()

				// Each insert fits, one element across the group does not.
				s, a, err = e.open(n, "elem")
				if err != nil {
					return err
				}
				a.maxBytes = 1000
				for i := 0; i < 5; i++ {
					if err := insert(s, 240); err != nil { // 960 B an insert, 1200 B an element
						return err
					}
				}
				if err := s.Write(); !errors.Is(err, ErrOrder) {
					return fmt.Errorf("oversize element group: Write returned %v, want ErrOrder", err)
				}
				if got := bufpool.Stats().Outstanding; got != base {
					return fmt.Errorf("%d pooled buffers still held after the rejected group", got-base)
				}
				s.Close()
				if got := bufpool.Stats().Outstanding; got != base {
					return fmt.Errorf("%d pooled buffers still held after the rejected groups", got-base)
				}
				return nil
			})
		})
	}
}

// TestChannelDeliversWhatTheFileStores: for each group shape, what a 2→2
// channel's consumers extract, element by element, is what readers of the
// same layout get from the file the same inserts wrote.
func TestChannelDeliversWhatTheFileStores(t *testing.T) {
	for _, shape := range goldenShapes {
		var mu sync.Mutex
		viaChan, viaFile := map[string][]byte{}, map[string][]byte{}
		keep := func(into map[string][]byte, rd *distr.Distribution, rank, rec int) func(int, *Decoder) {
			return func(l int, d *Decoder) {
				mu.Lock()
				defer mu.Unlock()
				key := fmt.Sprintf("r%d/g%d", rec, rd.GlobalIndex(rank, l))
				into[key] = append([]byte(nil), d.Raw(d.Remaining())...)
			}
		}
		insertAll := func(insert func(func(int, *Encoder)) error, write func() error, wd *distr.Distribution, rank int) error {
			for rec := 0; rec < goldenRecs; rec++ {
				for i := 0; i < shape; i++ {
					err := insert(func(l int, e *Encoder) { e.Raw(goldenPayload(rec, i, wd.GlobalIndex(rank, l))) })
					if err != nil {
						return err
					}
				}
				if err := write(); err != nil {
					return err
				}
			}
			return nil
		}
		chanRun(t, 4, nil, func(n *machine.Node) error {
			wd, _ := goldenDist("block", 2)
			rd, _ := goldenDist("cyclic", 2)
			if n.Rank() < 2 {
				s, err := OpenChannel(n, wd, rd, "cmp")
				if err != nil {
					return err
				}
				defer s.Close()
				return insertAll(s.InsertFunc, s.Write, wd, n.Rank())
			}
			r, err := OpenChannelInput(n, rd, wd, "cmp")
			if err != nil {
				return err
			}
			defer r.Close()
			for rec := 0; rec < goldenRecs; rec++ {
				if err := r.Read(); err != nil {
					return err
				}
				if err := r.ExtractFunc(keep(viaChan, rd, n.Rank()-2, rec)); err != nil {
					return err
				}
			}
			return nil
		})
		run(t, 2, pfs.NewMemFS(vtime.Challenge()), func(n *machine.Node) error {
			wd, _ := goldenDist("block", 2)
			rd, _ := goldenDist("cyclic", 2)
			s, err := Open(n, wd, "cmp")
			if err != nil {
				return err
			}
			if err := insertAll(s.InsertFunc, s.Write, wd, n.Rank()); err != nil {
				return err
			}
			if err := s.Close(); err != nil {
				return err
			}
			in, err := OpenInput(n, rd, "cmp")
			if err != nil {
				return err
			}
			defer in.Close()
			for rec := 0; rec < goldenRecs; rec++ {
				if err := in.Read(); err != nil {
					return err
				}
				if err := in.ExtractFunc(keep(viaFile, rd, n.Rank(), rec)); err != nil {
					return err
				}
			}
			return nil
		})
		if len(viaChan) != goldenRecs*goldenElems || len(viaFile) != len(viaChan) {
			t.Fatalf("%d inserts: %d elements via the channel, %d via the file, want %d",
				shape, len(viaChan), len(viaFile), goldenRecs*goldenElems)
		}
		for k, f := range viaFile {
			if !bytes.Equal(viaChan[k], f) {
				t.Errorf("%d inserts, %s: channel delivered %x, file stores %x", shape, k, viaChan[k], f)
			}
		}
	}
}

// TestWriterDistributionReuse: an input stream builds the writer's
// distribution once for a run of records that describe the same one, builds
// a new one when the header fields or only the descriptor bytes change, and
// routes every element to the right place either way — with the prefetch
// pipeline taking the same path.
func TestWriterDistributionReuse(t *testing.T) {
	const nElems, nprocs = 10, 2
	explicit := func(owners ...int) func() (*distr.Distribution, error) {
		return func() (*distr.Distribution, error) { return distr.NewExplicit(owners, nprocs) }
	}
	pattern := func(m distr.Mode) func() (*distr.Distribution, error) {
		return func() (*distr.Distribution, error) { return distr.New(nElems, nprocs, m, 0) }
	}
	// One writer layout per record; same[i] says record i repeats record i-1's.
	writers := []func() (*distr.Distribution, error){
		pattern(distr.Block), pattern(distr.Block),
		pattern(distr.Cyclic), pattern(distr.Cyclic),
		explicit(0, 1, 1, 0, 1, 0, 0, 1, 1, 0), explicit(0, 1, 1, 0, 1, 0, 0, 1, 1, 0),
		explicit(1, 1, 0, 0, 1, 0, 1, 0, 1, 0),
	}
	same := []bool{false, true, false, true, false, true, false}
	for _, depth := range []int{0, 2} {
		fs := pfs.NewMemFS(vtime.Challenge())
		run(t, nprocs, fs, func(n *machine.Node) error {
			for rec, mk := range writers {
				wd, err := mk()
				if err != nil {
					return err
				}
				opts := []Option{}
				if rec > 0 {
					opts = append(opts, WithAppend())
				}
				s, err := Open(n, wd, "mixed", opts...)
				if err != nil {
					return err
				}
				err = s.InsertFunc(func(l int, e *Encoder) { e.Int64(int64(rec*100 + wd.GlobalIndex(n.Rank(), l))) })
				if err != nil {
					return err
				}
				if err := s.Write(); err != nil {
					return err
				}
				if err := s.Close(); err != nil {
					return err
				}
			}
			rd, err := distr.New(nElems, nprocs, distr.Cyclic, 0)
			if err != nil {
				return err
			}
			// A named strategy: left to itself the planner prefetches too.
			in, err := OpenInput(n, rd, "mixed", WithStrategy(StrategyParallel), WithReadAhead(depth))
			if err != nil {
				return err
			}
			defer in.Close()
			var prev *distr.Distribution
			for rec := range writers {
				if err := in.Read(); err != nil {
					return err
				}
				// Without read-ahead the cache holds the record just read.
				if depth == 0 {
					if reused := in.wdist == prev; reused != same[rec] {
						return fmt.Errorf("record %d: writer distribution reused = %v, want %v", rec, reused, same[rec])
					}
					prev = in.wdist
				}
				var bad error
				err := in.ExtractFunc(func(l int, d *Decoder) {
					if got, want := d.Int64(), int64(rec*100+rd.GlobalIndex(n.Rank(), l)); got != want && bad == nil {
						bad = fmt.Errorf("depth %d record %d local %d: got %d, want %d", depth, rec, l, got, want)
					}
				})
				if err != nil {
					return err
				}
				if bad != nil {
					return bad
				}
			}
			return nil
		})
	}
}
