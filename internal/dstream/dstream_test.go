package dstream

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// particle-list element mirroring Figure 3 of the paper.
type plist struct {
	N    int64
	Mass []float64
	X    []float64
}

func (p *plist) StreamInsert(e *Encoder) {
	e.Int64(p.N)
	e.Float64Slice(p.Mass)
	e.Float64Slice(p.X)
}

func (p *plist) StreamExtract(d *Decoder) {
	p.N = d.Int64()
	p.Mass = d.Float64Slice()
	p.X = d.Float64Slice()
}

// mkPlist builds a deterministic, variable-sized element for global index g.
func mkPlist(g int) plist {
	n := g%5 + 1 // 1..5 particles: sizes vary across the array
	p := plist{N: int64(n)}
	for i := 0; i < n; i++ {
		p.Mass = append(p.Mass, float64(g)+float64(i)/10)
		p.X = append(p.X, float64(g*100+i))
	}
	return p
}

func plistEqual(a, b plist) bool {
	if a.N != b.N || len(a.Mass) != len(b.Mass) || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.Mass {
		if a.Mass[i] != b.Mass[i] {
			return false
		}
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			return false
		}
	}
	return true
}

func run(t *testing.T, nprocs int, fs *pfs.FileSystem, body func(n *machine.Node) error) machine.Result {
	t.Helper()
	res, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs}, body)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustDist(t *testing.T, n, p int, m distr.Mode, b int) *distr.Distribution {
	t.Helper()
	d, err := distr.New(n, p, m, b)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// writePlists writes one record of plist elements under dist d.
func writePlists(n *machine.Node, d *distr.Distribution, name string, opts Options) error {
	c, err := collection.New[plist](n, d)
	if err != nil {
		return err
	}
	c.Apply(func(g int, e *plist) { *e = mkPlist(g) })
	s, err := Open(n, d, name, WithOptions(opts))
	if err != nil {
		return err
	}
	defer s.Close()
	if err := Insert[plist](s, c); err != nil {
		return err
	}
	return s.Write()
}

// readPlists reads one record into a collection under dist d.
func readPlists(n *machine.Node, d *distr.Distribution, name string, sorted bool) (*collection.Collection[plist], error) {
	c, err := collection.New[plist](n, d)
	if err != nil {
		return nil, err
	}
	s, err := OpenInput(n, d, name)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if sorted {
		err = s.Read()
	} else {
		err = s.UnsortedRead()
	}
	if err != nil {
		return nil, err
	}
	if err := Extract[plist](s, c); err != nil {
		return nil, err
	}
	return c, nil
}

// TestRoundTripSameLayout: write and read with identical distributions; the
// sorted read must restore every element exactly.
func TestRoundTripSameLayout(t *testing.T) {
	for _, mode := range []distr.Mode{distr.Block, distr.Cyclic, distr.BlockCyclic} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			fs := pfs.NewMemFS(vtime.Challenge())
			run(t, 4, fs, func(n *machine.Node) error {
				d := mustLocal(t, 23, 4, mode, 3)
				if err := writePlists(n, d, "f", Options{}); err != nil {
					return err
				}
				c, err := readPlists(n, d, "f", true)
				if err != nil {
					return err
				}
				ok := true
				c.Apply(func(g int, e *plist) {
					if !plistEqual(*e, mkPlist(g)) {
						ok = false
					}
				})
				if !ok {
					return fmt.Errorf("rank %d: element mismatch", n.Rank())
				}
				return nil
			})
		})
	}
}

func mustLocal(t *testing.T, n, p int, m distr.Mode, b int) *distr.Distribution {
	t.Helper()
	d, err := distr.New(n, p, m, b)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRoundTripChangedDistribution: write CYCLIC, read BLOCK — the sorted
// read must redistribute every element to its new owner.
func TestRoundTripChangedDistribution(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 4, fs, func(n *machine.Node) error {
		wd := mustLocal(t, 30, 4, distr.Cyclic, 0)
		if err := writePlists(n, wd, "f", Options{}); err != nil {
			return err
		}
		rd := mustLocal(t, 30, 4, distr.Block, 0)
		c, err := readPlists(n, rd, "f", true)
		if err != nil {
			return err
		}
		var bad error
		c.Apply(func(g int, e *plist) {
			if !plistEqual(*e, mkPlist(g)) {
				bad = fmt.Errorf("rank %d global %d mismatch: %+v", n.Rank(), g, *e)
			}
		})
		return bad
	})
}

// TestRoundTripChangedProcs: checkpoint under 4 procs, restart under 3 and
// under 6 — the signature capability of §4.1's read.
func TestRoundTripChangedProcs(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 4, fs, func(n *machine.Node) error {
		d := mustLocal(t, 25, 4, distr.BlockCyclic, 2)
		return writePlists(n, d, "ck", Options{})
	})
	for _, readerProcs := range []int{1, 3, 6} {
		readerProcs := readerProcs
		t.Run(fmt.Sprintf("readers=%d", readerProcs), func(t *testing.T) {
			run(t, readerProcs, fs, func(n *machine.Node) error {
				rd := mustLocal(t, 25, readerProcs, distr.Cyclic, 0)
				c, err := readPlists(n, rd, "ck", true)
				if err != nil {
					return err
				}
				var bad error
				c.Apply(func(g int, e *plist) {
					if !plistEqual(*e, mkPlist(g)) {
						bad = fmt.Errorf("global %d mismatch", g)
					}
				})
				return bad
			})
		})
	}
}

// TestUnsortedReadPreservesMultiset: the payload multiset survives even
// though order is arbitrary.
func TestUnsortedReadPreservesMultiset(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	var got []plist
	run(t, 3, fs, func(n *machine.Node) error {
		wd := mustLocal(t, 17, 3, distr.Cyclic, 0)
		if err := writePlists(n, wd, "f", Options{}); err != nil {
			return err
		}
		rd := mustLocal(t, 17, 3, distr.Block, 0)
		c, err := readPlists(n, rd, "f", false)
		if err != nil {
			return err
		}
		<-mu
		got = append(got, c.Local()...)
		mu <- struct{}{}
		return nil
	})
	if len(got) != 17 {
		t.Fatalf("extracted %d elements, want 17", len(got))
	}
	// Compare sorted-by-fingerprint multisets.
	var want []plist
	for g := 0; g < 17; g++ {
		want = append(want, mkPlist(g))
	}
	fp := func(p plist) string { return fmt.Sprintf("%v|%v|%v", p.N, p.Mass, p.X) }
	var a, b []string
	for _, p := range got {
		a = append(a, fp(p))
	}
	for _, p := range want {
		b = append(b, fp(p))
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range b {
		if a[i] != b[i] {
			t.Fatalf("multiset differs at %d:\n got %s\nwant %s", i, a[i], b[i])
		}
	}
}

// TestInterleaving: two field inserts before one write produce
// element-contiguous interleaved payloads in the file, verified against a
// scalar reference encoding.
func TestInterleaving(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	const N = 6
	run(t, 2, fs, func(n *machine.Node) error {
		d := mustLocal(t, N, 2, distr.Block, 0)
		type seg struct {
			count int64
			dens  float64
		}
		c, err := collection.New[seg](n, d)
		if err != nil {
			return err
		}
		c.Apply(func(g int, e *seg) { e.count = int64(g); e.dens = float64(g) / 2 })
		s, err := Open(n, d, "f")
		if err != nil {
			return err
		}
		defer s.Close()
		if err := InsertField(s, c, func(e *seg) int64 { return e.count }); err != nil {
			return err
		}
		if err := InsertField(s, c, func(e *seg) float64 { return e.dens }); err != nil {
			return err
		}
		return s.Write()
	})

	// Reference: for BLOCK over 2 procs of 6 elements, file element order is
	// global order; each element's payload must be count (8B) then dens (8B).
	img, err := fs.Image("f")
	if err != nil {
		t.Fatal(err)
	}
	var ref Encoder
	for g := 0; g < N; g++ {
		ref.Int64(int64(g))
		ref.Float64(float64(g) / 2)
	}
	data := img[len(img)-ref.Len():]
	if !bytes.Equal(data, ref.Bytes()) {
		t.Fatalf("interleaved data section:\n got % x\nwant % x", data, ref.Bytes())
	}

	// Read the fields back independently.
	run(t, 2, fs, func(n *machine.Node) error {
		d := mustLocal(t, N, 2, distr.Block, 0)
		type seg struct {
			count int64
			dens  float64
		}
		c, err := collection.New[seg](n, d)
		if err != nil {
			return err
		}
		s, err := OpenInput(n, d, "f")
		if err != nil {
			return err
		}
		defer s.Close()
		if err := s.Read(); err != nil {
			return err
		}
		if got := s.Arrays(); got != 2 {
			return fmt.Errorf("Arrays = %d, want 2", got)
		}
		if err := ExtractField(s, c, func(e *seg) *int64 { return &e.count }); err != nil {
			return err
		}
		if err := ExtractField(s, c, func(e *seg) *float64 { return &e.dens }); err != nil {
			return err
		}
		var bad error
		c.Apply(func(g int, e *seg) {
			if e.count != int64(g) || e.dens != float64(g)/2 {
				bad = fmt.Errorf("global %d: %+v", g, *e)
			}
		})
		return bad
	})
}

// TestFunnelAndParallelMetaIdenticalFiles: both metadata paths must produce
// byte-identical file images (§4.1 step 1 is a performance choice only).
func TestFunnelAndParallelMetaIdenticalFiles(t *testing.T) {
	images := map[Strategy][]byte{}
	for _, strat := range []Strategy{StrategyFunnel, StrategyParallel} {
		fs := pfs.NewMemFS(vtime.Challenge())
		run(t, 3, fs, func(n *machine.Node) error {
			d := mustLocal(t, 11, 3, distr.Cyclic, 0)
			return writePlists(n, d, "f", Options{Strategy: strat})
		})
		img, err := fs.Image("f")
		if err != nil {
			t.Fatal(err)
		}
		images[strat] = img
	}
	if !bytes.Equal(images[StrategyFunnel], images[StrategyParallel]) {
		t.Fatal("funnel and parallel metadata paths produced different file images")
	}
}

// TestMultipleRecords: several writes, read back in order; reader stops at
// More() == false.
func TestMultipleRecords(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	const rounds = 4
	run(t, 2, fs, func(n *machine.Node) error {
		d := mustLocal(t, 8, 2, distr.Cyclic, 0)
		type cell struct{ v int64 }
		c, err := collection.New[cell](n, d)
		if err != nil {
			return err
		}
		s, err := Open(n, d, "multi")
		if err != nil {
			return err
		}
		defer s.Close()
		for round := 0; round < rounds; round++ {
			c.Apply(func(g int, e *cell) { e.v = int64(g + 1000*round) })
			if err := InsertField(s, c, func(e *cell) int64 { return e.v }); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
		}
		if s.Records() != rounds {
			return fmt.Errorf("Records = %d", s.Records())
		}
		return nil
	})
	run(t, 2, fs, func(n *machine.Node) error {
		d := mustLocal(t, 8, 2, distr.Cyclic, 0)
		type cell struct{ v int64 }
		c, err := collection.New[cell](n, d)
		if err != nil {
			return err
		}
		s, err := OpenInput(n, d, "multi")
		if err != nil {
			return err
		}
		defer s.Close()
		round := 0
		for s.More() {
			if err := s.Read(); err != nil {
				return err
			}
			if err := ExtractField(s, c, func(e *cell) *int64 { return &e.v }); err != nil {
				return err
			}
			var bad error
			c.Apply(func(g int, e *cell) {
				if e.v != int64(g+1000*round) {
					bad = fmt.Errorf("round %d global %d: %d", round, g, e.v)
				}
			})
			if bad != nil {
				return bad
			}
			round++
		}
		if round != rounds {
			return fmt.Errorf("read %d records, want %d", round, rounds)
		}
		return nil
	})
}

// The Figure 2 state machine enforcement — write with nothing inserted,
// extract before read, one extract too many, read past the end, close with
// unwritten inserts, use after close, sticky errors — is TestFigure2Table's,
// which drives it over the file ends and the channel ends alike.

// --- open-time validation ---

func TestInputRejectsNonStreamFile(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 2, fs, func(n *machine.Node) error {
		f, err := n.Open("junk", true)
		if err != nil {
			return err
		}
		if _, err := f.ParallelAppend([]byte("this is not a d/stream file at all")); err != nil {
			return err
		}
		f.Close()
		d := mustLocal(t, 4, 2, distr.Block, 0)
		if _, err := OpenInput(n, d, "junk"); err == nil {
			return fmt.Errorf("non-stream file accepted")
		}
		return nil
	})
}

func TestInputRejectsMissingFile(t *testing.T) {
	// Opening a missing file creates an empty backend; header check fails.
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 1, fs, func(n *machine.Node) error {
		d := mustLocal(t, 4, 1, distr.Block, 0)
		if _, err := OpenInput(n, d, "absent"); err == nil {
			return fmt.Errorf("missing file accepted")
		}
		return nil
	})
}

func TestElementCountMismatchRejected(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 2, fs, func(n *machine.Node) error {
		wd := mustLocal(t, 10, 2, distr.Block, 0)
		if err := writePlists(n, wd, "f", Options{}); err != nil {
			return err
		}
		rd := mustLocal(t, 12, 2, distr.Block, 0) // wrong N
		s, err := OpenInput(n, rd, "f")
		if err != nil {
			return err
		}
		defer s.Close()
		if err := s.Read(); err == nil {
			return fmt.Errorf("mismatched element count accepted")
		}
		return nil
	})
}

func TestMisalignedCollectionRejected(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 2, fs, func(n *machine.Node) error {
		sd := mustLocal(t, 10, 2, distr.Block, 0)
		cd := mustLocal(t, 10, 2, distr.Cyclic, 0)
		c, err := collection.New[plist](n, cd)
		if err != nil {
			return err
		}
		s, err := Open(n, sd, "f")
		if err != nil {
			return err
		}
		defer s.Close()
		if err := Insert[plist](s, c); !errors.Is(err, ErrNotAligned) {
			return fmt.Errorf("misaligned insert: %v, want ErrNotAligned", err)
		}
		return nil
	})
}

// TestVirtualTimeDeterministic: the full write+read pipeline yields
// identical virtual times across runs.
func TestVirtualTimeDeterministic(t *testing.T) {
	runOnce := func() []float64 {
		fs := pfs.NewMemFS(vtime.Paragon())
		res, err := machine.Run(machine.Config{NProcs: 4, Profile: vtime.Paragon(), FS: fs},
			func(n *machine.Node) error {
				d, _ := distr.New(40, 4, distr.Cyclic, 0)
				if err := writePlists(n, d, "f", Options{}); err != nil {
					return err
				}
				rd, _ := distr.New(40, 4, distr.Block, 0)
				_, err := readPlists(n, rd, "f", true)
				return err
			})
		if err != nil {
			t.Fatal(err)
		}
		return res.NodeTimes
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestUnsortedFasterThanSorted: with a changed distribution, unsortedRead
// must beat sorted read (it skips the all-to-all), the §3 performance claim.
func TestUnsortedFasterThanSorted(t *testing.T) {
	elapsed := func(sorted bool) float64 {
		fs := pfs.NewMemFS(vtime.Paragon())
		res, err := machine.Run(machine.Config{NProcs: 4, Profile: vtime.Paragon(), FS: fs},
			func(n *machine.Node) error {
				wd, _ := distr.New(2000, 4, distr.Cyclic, 0)
				if err := writePlists(n, wd, "f", Options{}); err != nil {
					return err
				}
				n.Clock().Reset()
				rd, _ := distr.New(2000, 4, distr.Block, 0)
				_, err := readPlists(n, rd, "f", sorted)
				return err
			})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	sortedT, unsortedT := elapsed(true), elapsed(false)
	if unsortedT >= sortedT {
		t.Fatalf("unsortedRead (%v) not faster than read (%v)", unsortedT, sortedT)
	}
}

// TestRoundTripRandomized: property-style sweep over random shapes,
// distributions, writer/reader proc counts and element sizes.
func TestRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 12; iter++ {
		n := rng.Intn(40) + 1
		wp := rng.Intn(5) + 1
		rp := rng.Intn(5) + 1
		wm := distr.Mode(rng.Intn(3))
		rm := distr.Mode(rng.Intn(3))
		wb := rng.Intn(4) + 1
		rb := rng.Intn(4) + 1
		sorted := rng.Intn(2) == 0
		name := fmt.Sprintf("rt-%d", iter)

		fs := pfs.NewMemFS(vtime.Challenge())
		if _, err := machine.Run(machine.Config{NProcs: wp, Profile: vtime.Challenge(), FS: fs},
			func(nd *machine.Node) error {
				d, err := distr.New(n, wp, wm, wb)
				if err != nil {
					return err
				}
				return writePlists(nd, d, name, Options{})
			}); err != nil {
			t.Fatalf("iter %d write: %v", iter, err)
		}

		collected := make(chan plist, n)
		if _, err := machine.Run(machine.Config{NProcs: rp, Profile: vtime.Challenge(), FS: fs},
			func(nd *machine.Node) error {
				d, err := distr.New(n, rp, rm, rb)
				if err != nil {
					return err
				}
				c, err := readPlists(nd, d, name, sorted)
				if err != nil {
					return err
				}
				var bad error
				c.Apply(func(g int, e *plist) {
					if sorted && !plistEqual(*e, mkPlist(g)) {
						bad = fmt.Errorf("global %d mismatch", g)
					}
					collected <- *e
				})
				return bad
			}); err != nil {
			t.Fatalf("iter %d read (n=%d wp=%d rp=%d wm=%v rm=%v sorted=%v): %v",
				iter, n, wp, rp, wm, rm, sorted, err)
		}
		close(collected)
		// For unsorted reads check the multiset.
		counts := map[string]int{}
		for p := range collected {
			counts[fmt.Sprintf("%v%v%v", p.N, p.Mass, p.X)]++
		}
		for g := 0; g < n; g++ {
			p := mkPlist(g)
			counts[fmt.Sprintf("%v%v%v", p.N, p.Mass, p.X)]--
		}
		for k, v := range counts {
			if v != 0 {
				t.Fatalf("iter %d: multiset mismatch for %s (%+d)", iter, k, v)
			}
		}
	}
}

// TestIOFaultSurfacesEverywhere: an injected backend fault must turn into
// an error on every node, not a hang.
func TestIOFaultSurfacesEverywhere(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	if err := fs.InjectFault("f", 2); err != nil {
		t.Fatal(err)
	}
	_, err := machine.Run(machine.Config{NProcs: 2, Profile: vtime.Challenge(), FS: fs},
		func(n *machine.Node) error {
			d, _ := distr.New(8, 2, distr.Block, 0)
			return writePlists(n, d, "f", Options{})
		})
	if err == nil {
		t.Fatal("write with injected fault succeeded")
	}
	if !errors.Is(err, pfs.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

// TestZeroSizeElements: elements may legally encode nothing.
func TestZeroSizeElements(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 2, fs, func(n *machine.Node) error {
		d := mustLocal(t, 6, 2, distr.Cyclic, 0)
		s, err := Open(n, d, "f")
		if err != nil {
			return err
		}
		if err := s.InsertFunc(func(l int, e *Encoder) {
			// Odd global elements encode nothing at all.
			if s.Dist().GlobalIndex(n.Rank(), l)%2 == 0 {
				e.Int64(42)
			}
		}); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}
		in, err := OpenInput(n, d, "f")
		if err != nil {
			return err
		}
		defer in.Close()
		if err := in.Read(); err != nil {
			return err
		}
		return in.ExtractFunc(func(l int, dec *Decoder) {
			if in.Dist().GlobalIndex(n.Rank(), l)%2 == 0 {
				if got := dec.Int64(); got != 42 {
					panic(fmt.Sprintf("got %d", got))
				}
			}
		})
	})
}

// TestMoreProcsThanElements: empty nodes participate in all collectives.
func TestMoreProcsThanElements(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 6, fs, func(n *machine.Node) error {
		d := mustLocal(t, 3, 6, distr.Block, 0)
		if err := writePlists(n, d, "f", Options{}); err != nil {
			return err
		}
		c, err := readPlists(n, d, "f", true)
		if err != nil {
			return err
		}
		var bad error
		c.Apply(func(g int, e *plist) {
			if !plistEqual(*e, mkPlist(g)) {
				bad = fmt.Errorf("global %d mismatch", g)
			}
		})
		return bad
	})
}

func TestOutputValidation(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 2, fs, func(n *machine.Node) error {
		wrong := mustDist(t, 8, 3, distr.Block, 0) // 3 procs on 2-node machine
		if _, err := Open(n, wrong, "f"); err == nil {
			return fmt.Errorf("wrong-procs output accepted")
		}
		if _, err := OpenInput(n, wrong, "f"); err == nil {
			return fmt.Errorf("wrong-procs input accepted")
		}
		return nil
	})
}
