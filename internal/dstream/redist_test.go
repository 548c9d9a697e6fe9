package dstream

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// redistDists are the layouts the sorted-read table crosses, writer side and
// reader side alike.
var redistDists = []struct {
	name string
	mk   func(n, p int) (*distr.Distribution, error)
}{
	{"BLOCK", func(n, p int) (*distr.Distribution, error) { return distr.New(n, p, distr.Block, 0) }},
	{"CYCLIC", func(n, p int) (*distr.Distribution, error) { return distr.New(n, p, distr.Cyclic, 0) }},
	{"BLOCK_CYCLIC(3)", func(n, p int) (*distr.Distribution, error) { return distr.New(n, p, distr.BlockCyclic, 3) }},
	{"EXPLICIT", func(n, p int) (*distr.Distribution, error) {
		owners := make([]int, n)
		for i := range owners {
			owners[i] = (i*i + 3*i + 1) % p // scattered, uneven, some ranks possibly empty
		}
		return distr.NewExplicit(owners, p)
	}},
	{"ALIGNED", func(n, p int) (*distr.Distribution, error) {
		return distr.NewAligned(n, 2*n+5, p, distr.BlockCyclic, 2, distr.Alignment{Offset: 3, Stride: 2})
	}},
}

// redistRefills are the ways a record's share reaches the reader before the
// redistribution: one parallel read, the two-phase scatter, a prefetched
// share of either kind, and whatever the planner picks.
var redistRefills = []struct {
	name string
	opts []Option
}{
	{"sync", []Option{WithStrategy(StrategyParallel)}},
	{"twophase", []Option{WithStrategy(StrategyTwoPhase)}},
	{"readahead", []Option{WithStrategy(StrategyParallel), WithReadAhead(2)}},
	{"readahead-twophase", []Option{WithStrategy(StrategyTwoPhase), WithReadAhead(1)}},
	{"auto", nil},
}

// tableElem is the element (record rec, array arr, global index g) of the
// table test's files: every one distinct, sizes varying with g.
func tableElem(rec, arr, g int) plist { return mkPlist(g + 1000*rec + 100000*arr) }

const tableRecords, tableArrays = 3, 2

// writeTable writes tableRecords records of tableArrays inserts each.
func writeTable(n *machine.Node, d *distr.Distribution, name string) error {
	s, err := Open(n, d, name)
	if err != nil {
		return err
	}
	defer s.Close()
	c, err := collection.New[plist](n, d)
	if err != nil {
		return err
	}
	for rec := 0; rec < tableRecords; rec++ {
		for arr := 0; arr < tableArrays; arr++ {
			c.Apply(func(g int, e *plist) { *e = tableElem(rec, arr, g) })
			if err := Insert[plist](s, c); err != nil {
				return err
			}
		}
		if err := s.Write(); err != nil {
			return err
		}
	}
	return s.Close()
}

// TestRedistPlanBothEndsAgree builds every rank's plan for each layout pair
// and checks what the wire format now rests on: what rank r plans to send
// rank d is, position for position, what d plans to receive from r; every
// position is sent once; every local slot is filled once. It also pins the
// two send shapes the table test relies on covering.
func TestRedistPlanBothEndsAgree(t *testing.T) {
	contiguous := func(pos []int) bool { return len(pos) == 0 || pos[len(pos)-1]-pos[0] == len(pos)-1 }
	for _, wk := range redistDists {
		for _, rk := range redistDists {
			for _, wp := range []int{1, 3, 4} {
				for _, rp := range []int{1, 4, 5} {
					// 32 divides evenly over 4 ranks, so reader shares are
					// writer shares; 37 puts a share boundary inside them.
					nElems := 37
					if wp == rp {
						nElems = 32
					}
					wd, err := wk.mk(nElems, wp)
					if err != nil {
						t.Fatal(err)
					}
					rd, err := rk.mk(nElems, rp)
					if err != nil {
						t.Fatal(err)
					}
					order := fileOrder(wd)
					starts := make([]int, rp+1)
					for r := 0; r < rp; r++ {
						starts[r+1] = starts[r] + rd.LocalCount(r)
					}
					plans := make([]*redistPlan, rp)
					for r := range plans {
						plans[r] = buildRedistPlan(order, starts, rd, r)
						if plans[r].err != nil {
							t.Fatalf("%s/%d→%s/%d rank %d: %v", wk.name, wp, rk.name, rp, r, plans[r].err)
						}
					}
					sent := make([]int, nElems)
					for r, pr := range plans {
						for d, pd := range plans {
							out := pr.send[pr.sendStart[d]:pr.sendStart[d+1]]
							in := pd.recv[pd.recvStart[r]:pd.recvStart[r+1]]
							if !slices.Equal(out, in) {
								t.Fatalf("%s/%d→%s/%d: rank %d sends %d positions %v, which expects %v",
									wk.name, wp, rk.name, rp, r, d, out, in)
							}
							for i, p := range in {
								sent[p]++
								if g := order[p]; rd.Owner(g) != d || rd.LocalIndex(g) != pd.slot[pd.recvStart[r]+i] {
									t.Fatalf("%s/%d→%s/%d: position %d (global %d) planned for rank %d slot %d",
										wk.name, wp, rk.name, rp, p, g, d, pd.slot[pd.recvStart[r]+i])
								}
							}
						}
					}
					for p, c := range sent {
						if c != 1 {
							t.Fatalf("%s/%d→%s/%d: position %d sent %d times", wk.name, wp, rk.name, rp, p, c)
						}
					}
					if wp == 4 && rp == 4 && wk.name == "CYCLIC" && rk.name == "BLOCK" {
						for r, pl := range plans {
							for d := 0; d < rp; d++ {
								if !contiguous(pl.send[pl.sendStart[d]:pl.sendStart[d+1]]) {
									t.Errorf("CYCLIC→BLOCK: rank %d's elements for %d are not one run", r, d)
								}
							}
						}
					}
					if wp == 4 && rp == 4 && wk.name == "BLOCK" && rk.name == "CYCLIC" {
						if pl := plans[0]; contiguous(pl.send[pl.sendStart[1]:pl.sendStart[2]]) {
							t.Error("BLOCK→CYCLIC: rank 0's elements for 1 are one run; the pack path is not covered")
						}
					}
				}
			}
		}
	}
}

// rawElem is the payload the raw-element tests give global index g in
// record rec: size bytes, every one depending on both.
func rawElem(rec, g, size int) []byte {
	return bytes.Repeat([]byte{byte(1 + rec*16 + g%16)}, size)
}

// writeRaw writes records of raw elements; size(g) is element g's length.
func writeRaw(n *machine.Node, d *distr.Distribution, name string, records int, size func(g int) int) error {
	s, err := Open(n, d, name)
	if err != nil {
		return err
	}
	defer s.Close()
	me := n.Rank()
	for rec := 0; rec < records; rec++ {
		err := s.InsertFunc(func(l int, e *Encoder) {
			g := d.GlobalIndex(me, l)
			e.Raw(rawElem(rec, g, size(g)))
		})
		if err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
	}
	return s.Close()
}

// TestSortedReadEmptyElements: zero-length elements — all of them, and every
// other one — are legal payloads wherever they land, including as the whole
// of a frame and as a rank's whole (empty, nil) share.
func TestSortedReadEmptyElements(t *testing.T) {
	const nElems, records = 11, 2
	sizes := map[string]func(g int) int{
		"all-empty": func(int) int { return 0 },
		"alternate": func(g int) int { return (g % 2) * (g + 3) },
	}
	for name, size := range sizes {
		for _, pair := range [][2]int{{1, 0}, {0, 1}, {3, 2}} { // CYCLIC→BLOCK, BLOCK→CYCLIC, EXPLICIT→BLOCK_CYCLIC
			wk, rk := redistDists[pair[0]], redistDists[pair[1]]
			for _, rf := range redistRefills {
				t.Run(fmt.Sprintf("%s/%s→%s/%s", name, wk.name, rk.name, rf.name), func(t *testing.T) {
					fs := pfs.NewFileSystem(vtime.Paragon(), pfs.StripedMemFactory(3, 256))
					wd, _ := wk.mk(nElems, 3)
					rd, _ := rk.mk(nElems, 4)
					run(t, 3, fs, func(n *machine.Node) error { return writeRaw(n, wd, "f", records, size) })
					run(t, 4, fs, func(n *machine.Node) error {
						s, err := OpenInput(n, rd, "f", rf.opts...)
						if err != nil {
							return err
						}
						defer s.Close()
						for rec := 0; rec < records; rec++ {
							if err := s.Read(); err != nil {
								return err
							}
							var bad error
							err := s.ExtractFunc(func(l int, d *Decoder) {
								g := rd.GlobalIndex(n.Rank(), l)
								want := rawElem(rec, g, size(g))
								if got := d.Raw(d.Remaining()); bad == nil && !bytes.Equal(got, want) {
									bad = fmt.Errorf("rank %d record %d element %d: %d bytes %x, want %d bytes", n.Rank(), rec, g, len(got), got, len(want))
								}
							})
							if err != nil {
								return err
							}
							if bad != nil {
								return bad
							}
						}
						return s.Close()
					})
				})
			}
		}
	}
}

// frameBender alters the alltoallv contributions one rank sends another
// while armed — the only alltoallv of a synchronous parallel sorted read is
// the redistribution's.
type frameBender struct {
	comm.Transport
	armed    atomic.Bool
	from, to int
	bend     func([]byte) []byte
}

// alltoallKind is package collective's op kind for alltoallv messages, which
// it keeps in the top byte of the tag.
const alltoallKind = 4

func (b *frameBender) Send(m comm.Message) error {
	if b.armed.Load() && m.Tag>>56 == alltoallKind && m.From == b.from && m.To == b.to {
		m.Data = b.bend(m.Data)
	}
	return b.Transport.Send(m)
}

// TestRedistBadFrame: a frame shorter or longer than the plan says ends the
// Read in ErrIO on the rank that received it — no hang, no element decoded
// from the wrong bytes — and leaves the other ranks' reads intact.
func TestRedistBadFrame(t *testing.T) {
	const nprocs, nElems = 4, 32
	bends := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-1] },
		"over-long": func(b []byte) []byte { return append(append([]byte(nil), b...), 0) },
		"empty":     func([]byte) []byte { return nil },
	}
	for name, bend := range bends {
		for _, pair := range [][2]int{{1, 0}, {0, 1}} { // contiguous-run and packed sends
			wk, rk := redistDists[pair[0]], redistDists[pair[1]]
			t.Run(name+"/"+wk.name+"→"+rk.name, func(t *testing.T) {
				fs := pfs.NewMemFS(vtime.Paragon())
				wd, _ := wk.mk(nElems, nprocs)
				rd, _ := rk.mk(nElems, nprocs)
				run(t, nprocs, fs, func(n *machine.Node) error {
					return writeRaw(n, wd, "f", 1, func(g int) int { return 24 + g })
				})
				fb := &frameBender{from: 1, to: 2, bend: bend}
				readErrs := make([]error, nprocs)
				_, err := machine.Run(machine.Config{
					NProcs: nprocs, Profile: vtime.Paragon(), FS: fs,
					WrapTransport: func(tr comm.Transport) comm.Transport { fb.Transport = tr; return fb },
				}, func(n *machine.Node) error {
					s, err := OpenInput(n, rd, "f", WithStrategy(StrategyParallel))
					if err != nil {
						return err
					}
					if err := n.Comm().Barrier(); err != nil {
						return err
					}
					fb.armed.Store(true)
					readErrs[n.Rank()] = s.Read()
					if readErrs[n.Rank()] == nil {
						err = s.ExtractFunc(func(l int, d *Decoder) {
							g := rd.GlobalIndex(n.Rank(), l)
							if got := d.Raw(d.Remaining()); !bytes.Equal(got, rawElem(0, g, 24+g)) {
								readErrs[n.Rank()] = fmt.Errorf("element %d decoded from the wrong bytes", g)
							}
						})
						if err != nil {
							return err
						}
					}
					s.Close()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for r, err := range readErrs {
					switch {
					case r == fb.to && !errors.Is(err, ErrIO):
						t.Errorf("rank %d got the bent frame and Read returned %v, want ErrIO", r, err)
					case r != fb.to && err != nil:
						t.Errorf("rank %d: %v", r, err)
					}
				}
			})
		}
	}
}

// TestRedistRawAliasDiesWithNextRead: bytes taken with Raw from an element
// that crossed ranks alias the share its sender lent, so the next Read ends
// their life exactly as it does for bytes aliasing the refill buffer: by the
// time it returns every rank has released the lease. With released buffers
// poisoned that is observable: the kept slice no longer holds a byte of the
// element. (Before the plan-driven exchange every received element was a
// private copy and the kept slice stayed intact.)
func TestRedistRawAliasDiesWithNextRead(t *testing.T) {
	if !bufpool.Debug {
		t.Skip("needs -tags pooldebug: released buffers are not poisoned")
	}
	const nprocs, nElems, size = 2, 8, 200
	fs := pfs.NewMemFS(vtime.Paragon())
	wd := mustDist(t, nElems, nprocs, distr.Cyclic, 0)
	rd := mustDist(t, nElems, nprocs, distr.Block, 0)
	run(t, nprocs, fs, func(n *machine.Node) error {
		return writeRaw(n, wd, "f", 2, func(int) int { return size })
	})
	run(t, nprocs, fs, func(n *machine.Node) error {
		s, err := OpenInput(n, rd, "f", WithStrategy(StrategyParallel))
		if err != nil {
			return err
		}
		defer s.Close()
		if err := s.Read(); err != nil {
			return err
		}
		// Under CYCLIC→BLOCK on two ranks, rank 0's odd globals and rank 1's
		// even ones were read by the other rank.
		var kept []byte
		var keptG int
		err = s.ExtractFunc(func(l int, d *Decoder) {
			p := d.Raw(d.Remaining())
			if g := rd.GlobalIndex(n.Rank(), l); wd.Owner(g) != n.Rank() && kept == nil {
				kept, keptG = p, g
			}
		})
		if err != nil {
			return err
		}
		want := rawElem(0, keptG, size)
		if !bytes.Equal(kept, want) {
			return fmt.Errorf("rank %d: element %d wrong before the next Read", n.Rank(), keptG)
		}
		if err := s.Read(); err != nil {
			return err
		}
		// Poison, or the next record's bytes if the buffer was drawn again:
		// either way nothing of record 0.
		if i := bytes.IndexByte(kept, want[0]); i >= 0 {
			return fmt.Errorf("rank %d: byte %d of a Raw slice kept across Read still holds element %d's data", n.Rank(), i, keptG)
		}
		return nil
	})
}
