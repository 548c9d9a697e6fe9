package dstream

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// TestRawTableArithmetic: everything a reader derives from the raw size table
// — the ranks' share offsets, a rank's own element offsets, and each size the
// redistribution reads by position — against the reference arithmetic, all N
// sizes decoded and all N+1 offsets prefix-summed, over random tables
// (zero-size elements among them), machine sizes (more ranks than elements
// among them) and writer/reader layout pairs.
func TestRawTableArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		wk, rk := redistDists[rng.Intn(len(redistDists))], redistDists[rng.Intn(len(redistDists))]
		wp, rp := 1+rng.Intn(6), 1+rng.Intn(6)
		if trial%3 == 0 {
			rk, rp = wk, wp // same layout
		}
		wd, err := wk.mk(n, wp)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := rk.mk(n, rp)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("trial %d: N=%d %s/%d -> %s/%d", trial, n, wk.name, wp, rk.name, rp)

		sizes := make([]uint32, n)
		for i := range sizes {
			if rng.Intn(4) > 0 {
				sizes[i] = uint32(rng.Intn(300))
			}
		}
		table := enc.AppendSizeTable(nil, sizes)
		// The reference: decode all N, prefix-sum all N+1.
		decoded, err := enc.DecodeSizeTable(table, n)
		if err != nil {
			t.Fatal(err)
		}
		full := make([]int64, n+1)
		for i, sz := range decoded {
			full[i+1] = full[i] + int64(sz)
		}

		starts := make([]int, rp+1)
		for r := 0; r < rp; r++ {
			starts[r+1] = starts[r] + rd.LocalCount(r)
		}
		rankOff := make([]int64, rp+1)
		if err := enc.SizeTableOffsets(table, n, starts, rankOff); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		order := fileOrder(wd)
		var scratch []int
		for me := 0; me < rp; me++ {
			lo, hi := starts[me], starts[me+1]
			if rankOff[me] != full[lo] || rankOff[me+1] != full[hi] {
				t.Fatalf("%s: rank %d's share is [%d,%d), want [%d,%d)", name, me, rankOff[me], rankOff[me+1], full[lo], full[hi])
			}
			scratch = shareOffsets(scratch, table, lo, hi)
			if len(scratch) != hi-lo+1 {
				t.Fatalf("%s: rank %d has %d local offsets for %d elements", name, me, len(scratch), hi-lo)
			}
			for p := lo; p <= hi; p++ {
				if int64(scratch[p-lo]) != full[p]-full[lo] {
					t.Fatalf("%s: rank %d position %d starts at %d of its share, want %d", name, me, p, scratch[p-lo], full[p]-full[lo])
				}
			}
			pl := buildRedistPlan(order, starts, rd, me)
			if pl.err != nil {
				t.Fatalf("%s: %v", name, pl.err)
			}
			for _, p := range pl.recv {
				if int64(enc.SizeAt(table, p)) != full[p+1]-full[p] {
					t.Fatalf("%s: rank %d reads %d for position %d, want %d", name, me, enc.SizeAt(table, p), p, full[p+1]-full[p])
				}
			}
		}
		if rankOff[rp] != full[n] {
			t.Fatalf("%s: table sums to %d, want %d", name, rankOff[rp], full[n])
		}
	}
}

// patchFile overwrites bytes of a file in fs.
func patchFile(t *testing.T, fs *pfs.FileSystem, name string, off int64, p []byte) {
	t.Helper()
	run(t, 1, fs, func(n *machine.Node) error {
		f, err := fs.Open(name, 1, 0, n.Clock(), false)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.WriteAt(p, off)
	})
}

func le32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

// Where the fields the corrupt-header test patches sit in a record header.
const (
	hdrModeOff      = 16
	hdrDescBytesOff = 36
	hdrDataBytesOff = 40
)

// TestCorruptHeaderBounded: a record header whose lengths the file cannot
// back — a descriptor of 2 GiB, one the distribution mode does not take, a
// data section running past the end of the file — is refused with a clean
// error by Read, Skip and NextElems alike, before anything is sized by it:
// the stream allocates next to nothing and its cursor stays where it was.
func TestCorruptHeaderBounded(t *testing.T) {
	const nElems, nprocs = 10, 2
	explicit := func(n, p int) (*distr.Distribution, error) {
		owners := make([]int, n)
		for i := range owners {
			owners[i] = (i / 3) % p
		}
		return distr.NewExplicit(owners, p)
	}
	block := func(n, p int) (*distr.Distribution, error) { return distr.New(n, p, distr.Block, 0) }
	for _, c := range []struct {
		name  string
		dist  func(n, p int) (*distr.Distribution, error)
		off   int64 // within the first record's header
		patch []byte
		want  string
	}{
		{"2 GiB descriptor", block, hdrDescBytesOff, le32(0x7ffffff0), "past the end of the file"},
		{"descriptor on a pattern distribution", block, hdrDescBytesOff, le32(8), "descriptor"},
		{"explicit descriptor one owner long", explicit, hdrDescBytesOff, le32(4*nElems + 4), "descriptor"},
		{"explicit descriptor missing", explicit, hdrDescBytesOff, le32(0), "descriptor"},
		{"data section past the end", block, hdrDataBytesOff, le32(1 << 30), "past the end of the file"},
		{"mode past one byte", block, hdrModeOff, le32(0x0100), "mode"},
	} {
		for _, depth := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/readahead=%d", c.name, depth), func(t *testing.T) {
				fs := pfs.NewMemFS(vtime.Challenge())
				d, err := c.dist(nElems, nprocs)
				if err != nil {
					t.Fatal(err)
				}
				run(t, nprocs, fs, func(n *machine.Node) error { return writeTable(n, d, "f") })
				patchFile(t, fs, "f", enc.FileHeaderLen+c.off, c.patch)
				for _, op := range []string{"Read", "UnsortedRead", "Skip", "NextElems"} {
					run(t, nprocs, fs, func(n *machine.Node) error {
						s, err := OpenInput(n, d, "f", WithStrategy(StrategyParallel), WithReadAhead(depth))
						if err != nil {
							return err
						}
						defer s.Close()
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						switch op {
						case "Read":
							err = s.Read()
						case "UnsortedRead":
							err = s.UnsortedRead()
						case "Skip":
							err = s.Skip()
						case "NextElems":
							_, err = s.NextElems()
						}
						runtime.ReadMemStats(&after)
						if err == nil || !strings.Contains(err.Error(), c.want) {
							return fmt.Errorf("%s: err = %v, want one naming %q", op, err, c.want)
						}
						if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
							return fmt.Errorf("%s allocated %d bytes before refusing the header", op, got)
						}
						if s.cursor != enc.FileHeaderLen {
							return fmt.Errorf("%s moved the cursor to %d of a %d-byte file", op, s.cursor, s.f.Size())
						}
						return nil
					})
				}
			})
		}
	}
}

// TestFrontMatterFramesReturn: every record's front matter arrives in one
// pooled frame on every rank, and every frame goes back — the current
// record's at the next Read, Skip or Close, a queued prefetch's when it is
// consumed or dropped, a header-only Skip's or NextElems' at once. A file of
// EXPLICIT and BLOCK records whose layouts alternate is read, skipped and
// peeked at read-ahead depths 0 and 2; the test binary's leak check holds
// every frame to coming back. On two EXPLICIT records in a row the writer-distribution
// cache hits, so the descriptor it keys on cannot alias a released frame
// (under pooldebug a released frame is poisoned).
func TestFrontMatterFramesReturn(t *testing.T) {
	const nElems, nprocs = 20, 3
	explicit := make([]int, nElems)
	for g := range explicit {
		explicit[g] = (g * 7 / 3) % nprocs
	}
	layouts := []string{"EXPLICIT", "EXPLICIT", "BLOCK", "EXPLICIT", "EXPLICIT", "BLOCK"}
	elem := func(rec, g int) plist { return mkPlist(g + 7*rec) }
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, nprocs, fs, func(n *machine.Node) error {
		ed, err := distr.NewExplicit(explicit, nprocs)
		if err != nil {
			return err
		}
		outs := map[string]*OStream{}
		cols := map[string]*collection.Collection[plist]{}
		for name, d := range map[string]*distr.Distribution{"EXPLICIT": ed, "BLOCK": mustDist(t, nElems, nprocs, distr.Block, 0)} {
			if outs[name], err = Open(n, d, "f"); err != nil {
				return err
			}
			if cols[name], err = collection.New[plist](n, d); err != nil {
				return err
			}
		}
		for rec, name := range layouts {
			cols[name].Apply(func(g int, e *plist) { *e = elem(rec, g) })
			if err := Insert[plist](outs[name], cols[name]); err != nil {
				return err
			}
			if err := outs[name].Write(); err != nil {
				return err
			}
		}
		for _, s := range outs {
			if err := s.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	// R reads a record sorted, U unsorted, S skips it, P peeks at it.
	for _, script := range []string{"RRRRRR", "PRUPSPRSR"} {
		for _, depth := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/readahead=%d", script, depth), func(t *testing.T) {
				run(t, nprocs, fs, func(n *machine.Node) error {
					rd := mustDist(t, nElems, nprocs, distr.Block, 0)
					s, err := OpenInput(n, rd, "f", WithStrategy(StrategyParallel), WithReadAhead(depth))
					if err != nil {
						return err
					}
					defer s.Close()
					c, err := collection.New[plist](n, rd)
					if err != nil {
						return err
					}
					rec, lastRead := 0, -1
					for _, op := range script {
						prev := s.wdist
						switch op {
						case 'P':
							if got, err := s.NextElems(); err != nil || got != nElems {
								return fmt.Errorf("record %d: NextElems = %d, %v", rec, got, err)
							}
							continue
						case 'S':
							err = s.Skip()
						case 'R':
							err = s.Read()
						case 'U':
							err = s.UnsortedRead()
						}
						if err == nil && op != 'S' {
							err = Extract[plist](s, c)
						}
						if err != nil {
							return fmt.Errorf("record %d (%c): %w", rec, op, err)
						}
						var bad error
						c.Apply(func(g int, e *plist) {
							if op == 'R' && bad == nil && !plistEqual(*e, elem(rec, g)) {
								bad = fmt.Errorf("rank %d record %d: element %d is %+v", n.Rank(), rec, g, *e)
							}
						})
						if bad != nil {
							return bad
						}
						if op != 'S' {
							if depth == 0 && rec > 0 && lastRead == rec-1 && layouts[rec] == "EXPLICIT" && layouts[rec-1] == "EXPLICIT" && s.wdist != prev {
								return fmt.Errorf("rank %d record %d: the writer distribution was rebuilt for the layout of the record before", n.Rank(), rec)
							}
							lastRead = rec
						}
						rec++
					}
					return s.Close()
				})
			})
		}
	}
}

// TestOneFrontMatterBroadcastPerRecord: a synchronous Read, UnsortedRead,
// Skip or NextElems takes the record's front matter in exactly one broadcast;
// a Read, UnsortedRead or Skip the prefetch queue serves, and a NextElems that
// peeks it, take none.
func TestOneFrontMatterBroadcastPerRecord(t *testing.T) {
	const nprocs, nElems, records = 3, 17, 4
	fs := pfs.NewMemFS(vtime.Challenge())
	writeRecordSeq(t, fs, nprocs, nElems, records, "f")
	// Over the records: peek, read, read unsorted, peek, skip, read.
	const script = "PRUPSR"
	// At depth 0 every op reads synchronously; at depth `records` the open
	// queued every record.
	for _, c := range []struct{ depth, want int }{{0, 1}, {records, 0}} {
		depth, want := c.depth, int64(c.want)
		t.Run(fmt.Sprintf("readahead=%d", depth), func(t *testing.T) {
			mon := dsmon.New()
			bcasts := mon.Registry().Counter("collective_ops_total", "", "op", "bcast")
			_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs, Monitor: mon}, func(n *machine.Node) error {
				d := mustDist(t, nElems, nprocs, distr.Block, 0)
				s, err := OpenInput(n, d, "f", WithStrategy(StrategyParallel), WithReadAhead(depth))
				if err != nil {
					return err
				}
				defer s.Close()
				for i, op := range script {
					// Rank 0 reads the counter with every rank outside the op.
					if err := n.Comm().Barrier(); err != nil {
						return err
					}
					before := bcasts.Value()
					if err := n.Comm().Barrier(); err != nil {
						return err
					}
					switch op {
					case 'P':
						_, err = s.NextElems()
					case 'R':
						err = s.Read()
					case 'U':
						err = s.UnsortedRead()
					case 'S':
						err = s.Skip()
					}
					if err != nil {
						return fmt.Errorf("op %d (%c): %w", i, op, err)
					}
					if err := n.Comm().Barrier(); err != nil {
						return err
					}
					if got := bcasts.Value() - before; n.Rank() == 0 && got != want*nprocs {
						return fmt.Errorf("op %d (%c) broadcast %d times on %d ranks, want %d a rank", i, op, got, nprocs, want)
					}
				}
				return s.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPrefetchedRecordKeepsItsOwnTable: two output streams of different
// layouts alternate records in one file, every record with sizes of its own;
// a reader two records ahead consumes each prefetched record after the
// writer-distribution cache has moved on to a later one's. The queue entry's
// own raw table and share offsets are what it decodes by.
func TestPrefetchedRecordKeepsItsOwnTable(t *testing.T) {
	const nElems, wp, records = 23, 3, 6
	elem := func(rec, g int) plist { return mkPlist(g + 7*rec) }
	fs := pfs.NewFileSystem(vtime.Paragon(), pfs.StripedMemFactory(3, 256))
	run(t, wp, fs, func(n *machine.Node) error {
		var outs [2]*OStream
		var cols [2]*collection.Collection[plist]
		for i, mode := range []distr.Mode{distr.Cyclic, distr.Block} {
			d, err := distr.New(nElems, wp, mode, 0)
			if err != nil {
				return err
			}
			if outs[i], err = Open(n, d, "f"); err != nil {
				return err
			}
			if cols[i], err = collection.New[plist](n, d); err != nil {
				return err
			}
		}
		for rec := 0; rec < records; rec++ {
			s, c := outs[rec%2], cols[rec%2]
			c.Apply(func(g int, e *plist) { *e = elem(rec, g) })
			if err := Insert[plist](s, c); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
		}
		for _, s := range outs {
			if err := s.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	for _, rk := range []struct {
		name string
		p    int
		mode distr.Mode
	}{{"CYCLIC/3 (every other record same-layout)", wp, distr.Cyclic}, {"BLOCK_CYCLIC/4", 4, distr.BlockCyclic}} {
		for _, strat := range []Strategy{StrategyParallel, StrategyTwoPhase} {
			t.Run(rk.name+"/"+strat.String(), func(t *testing.T) {
				run(t, rk.p, fs, func(n *machine.Node) error {
					rd, err := distr.New(nElems, rk.p, rk.mode, 2)
					if err != nil {
						return err
					}
					s, err := OpenInput(n, rd, "f", WithStrategy(strat), WithReadAhead(2))
					if err != nil {
						return err
					}
					defer s.Close()
					c, err := collection.New[plist](n, rd)
					if err != nil {
						return err
					}
					movedOn := 0
					for rec := 0; rec < records; rec++ {
						if len(s.pre) > 0 && s.pre[0].meta.wdist != s.wdist {
							movedOn++
						}
						if err := s.Read(); err != nil {
							return fmt.Errorf("record %d: %w", rec, err)
						}
						if err := Extract[plist](s, c); err != nil {
							return fmt.Errorf("record %d: %w", rec, err)
						}
						var bad error
						c.Apply(func(g int, e *plist) {
							if bad == nil && !plistEqual(*e, elem(rec, g)) {
								bad = fmt.Errorf("rank %d record %d: element %d is %+v", n.Rank(), rec, g, *e)
							}
						})
						if bad != nil {
							return bad
						}
					}
					if movedOn == 0 {
						return fmt.Errorf("no record was consumed after the writer-distribution cache moved past it")
					}
					return s.Close()
				})
			})
		}
	}
}
