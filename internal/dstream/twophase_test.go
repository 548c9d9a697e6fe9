package dstream

import (
	"bytes"
	"fmt"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

func TestStripeCuts(t *testing.T) {
	// Interior cuts land on stripe boundaries of the file offsets.
	cuts := stripeCuts(100, 1000, 4, 256)
	if cuts[0] != 0 || cuts[4] != 1000 {
		t.Fatalf("cuts endpoints: %v", cuts)
	}
	for j := 1; j < 4; j++ {
		if cuts[j] != 0 && cuts[j] != 1000 && (100+cuts[j])%256 != 0 {
			t.Errorf("cut %d = %d: file offset %d not stripe aligned", j, cuts[j], 100+cuts[j])
		}
		if cuts[j] < cuts[j-1] {
			t.Errorf("cuts not monotone: %v", cuts)
		}
	}
	// A record smaller than one stripe cell degenerates to one extent.
	cuts = stripeCuts(0, 10, 4, 4096)
	want := []int64{0, 10, 10, 10, 10}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("tiny record cuts = %v, want %v", cuts, want)
		}
	}
	// Zero unit: plain even division, still monotone and exhaustive.
	cuts = stripeCuts(0, 100, 3, 0)
	if cuts[0] != 0 || cuts[1] != 33 || cuts[2] != 66 || cuts[3] != 100 {
		t.Fatalf("unit-free cuts = %v", cuts)
	}
}

func TestParseStrategy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Strategy
	}{{"auto", StrategyAuto}, {"", StrategyAuto}, {"funnel", StrategyFunnel},
		{"parallel", StrategyParallel}, {"twophase", StrategyTwoPhase}, {"two-phase", StrategyTwoPhase}} {
		got, err := ParseStrategy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseStrategy(%q) = %v, %v", c.in, got, err)
		}
		if c.in != "" && c.in != "two-phase" && got.String() != c.in {
			t.Errorf("Strategy(%v).String() = %q, want %q", got, got.String(), c.in)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted bogus name")
	}
}

// strategyImage writes two records (one interleaved group of two arrays,
// then a single-array group with some zero-length elements) under the given
// options onto a striped store and returns the resulting file image.
func strategyImage(t *testing.T, nprocs, nElems int, mode distr.Mode, bsize int, opts ...Option) []byte {
	t.Helper()
	fs := strategyStore()
	run(t, nprocs, fs, strategyRecords(nElems, mode, bsize, opts...))
	img, err := fs.Image("f")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// strategyStore is the striped store strategyImage writes on.
func strategyStore() *pfs.FileSystem {
	return pfs.NewFileSystem(vtime.Paragon(), pfs.StripedMemFactory(3, 256))
}

// strategyRecords is the body that writes strategyImage's two records.
func strategyRecords(nElems int, mode distr.Mode, bsize int, opts ...Option) func(n *machine.Node) error {
	return func(n *machine.Node) error {
		nprocs := n.Size()
		d, err := distr.New(nElems, nprocs, mode, bsize)
		if err != nil {
			return err
		}
		s, err := Open(n, d, "f", opts...)
		if err != nil {
			return err
		}
		defer s.Close()
		c, err := collection.New[plist](n, d)
		if err != nil {
			return err
		}
		c.Apply(func(g int, e *plist) { *e = mkPlist(g) })
		if err := Insert[plist](s, c); err != nil {
			return err
		}
		if err := Insert[plist](s, c); err != nil { // interleaved second array
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		// Second record: every third element encodes nothing at all.
		err = s.InsertFunc(func(l int, e *Encoder) {
			g := d.GlobalIndex(n.Rank(), l)
			if g%3 == 0 {
				return
			}
			e.Int64(int64(g))
		})
		if err != nil {
			return err
		}
		return s.Write()
	}
}

// TestCrossStrategyByteIdentity: funnel × parallel × two-phase × async must
// produce identical file images for every distribution mode, uneven element
// counts, and zero-length elements. The strategies may move bytes through
// different ranks, but the record format is one.
func TestCrossStrategyByteIdentity(t *testing.T) {
	configs := []struct {
		nprocs, nElems int
		mode           distr.Mode
		bsize          int
	}{
		{4, 23, distr.Block, 0},       // uneven block split
		{4, 23, distr.Cyclic, 0},      // cyclic: file order ≠ global order
		{4, 23, distr.BlockCyclic, 3}, // block-cyclic with remainder
		{3, 7, distr.Block, 0},        // fewer elements than some stripes
	}
	strategies := []struct {
		name string
		opts []Option
	}{
		{"funnel", []Option{WithStrategy(StrategyFunnel)}},
		{"parallel", []Option{WithStrategy(StrategyParallel)}},
		{"twophase", []Option{WithStrategy(StrategyTwoPhase)}},
		{"twophase-async", []Option{WithStrategy(StrategyTwoPhase), WithAsync()}},
		{"twophase-k2", []Option{WithStrategy(StrategyTwoPhase), WithAggregators(2)}},
		{"funnel-async", []Option{WithStrategy(StrategyFunnel), WithAsync()}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-n%d-p%d", cfg.mode, cfg.nElems, cfg.nprocs), func(t *testing.T) {
			ref := strategyImage(t, cfg.nprocs, cfg.nElems, cfg.mode, cfg.bsize, strategies[0].opts...)
			if len(ref) == 0 {
				t.Fatal("reference image empty")
			}
			for _, s := range strategies[1:] {
				img := strategyImage(t, cfg.nprocs, cfg.nElems, cfg.mode, cfg.bsize, s.opts...)
				if !bytes.Equal(img, ref) {
					t.Errorf("%s image differs from funnel reference (%d vs %d bytes)", s.name, len(img), len(ref))
				}
			}
		})
	}
}

// TestTwoPhaseRoundTrip: a record written two-phase reads back exactly —
// through the two-phase refill path and the direct path, sorted and
// unsorted, including a reader with a different distribution (so phase two
// composes with the element redistribution).
func TestTwoPhaseRoundTrip(t *testing.T) {
	fs := pfs.NewFileSystem(vtime.Paragon(), pfs.StripedMemFactory(4, 512))
	const nElems = 23
	run(t, 4, fs, func(n *machine.Node) error {
		d := mustDist(t, nElems, 4, distr.Block, 0)
		return writePlists(n, d, "f", Options{Strategy: StrategyTwoPhase})
	})
	for _, rd := range []struct {
		name   string
		mode   distr.Mode
		opts   []Option
		sorted bool
	}{
		{"same-layout-twophase", distr.Block, []Option{WithStrategy(StrategyTwoPhase)}, true},
		{"cyclic-reader-twophase", distr.Cyclic, []Option{WithStrategy(StrategyTwoPhase)}, true},
		{"cyclic-reader-direct", distr.Cyclic, nil, true},
		{"unsorted-twophase", distr.Block, []Option{WithStrategy(StrategyTwoPhase)}, false},
	} {
		rd := rd
		t.Run(rd.name, func(t *testing.T) {
			run(t, 4, fs, func(n *machine.Node) error {
				d := mustDist(t, nElems, 4, rd.mode, 0)
				s, err := OpenInput(n, d, "f", rd.opts...)
				if err != nil {
					return err
				}
				defer s.Close()
				if rd.sorted {
					err = s.Read()
				} else {
					err = s.UnsortedRead()
				}
				if err != nil {
					return err
				}
				c, err := collection.New[plist](n, d)
				if err != nil {
					return err
				}
				if err := Extract[plist](s, c); err != nil {
					return err
				}
				if !rd.sorted {
					return nil // counts checked by Extract; order unspecified
				}
				var bad error
				c.Apply(func(g int, e *plist) {
					if want := mkPlist(g); bad == nil && !plistEqual(*e, want) {
						bad = fmt.Errorf("element %d mismatch after round trip", g)
					}
				})
				return bad
			})
		})
	}
}

// TestTwoPhaseFlatBackend: without stripe geometry the strategy degrades to
// K = profile I/O channels and still round-trips.
func TestTwoPhaseFlatBackend(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge()) // 4 I/O channels → K = 4
	run(t, 6, fs, func(n *machine.Node) error {
		d := mustDist(t, 17, 6, distr.Block, 0)
		if err := writePlists(n, d, "f", Options{Strategy: StrategyTwoPhase}); err != nil {
			return err
		}
		c, err := readPlists(n, d, "f", true)
		if err != nil {
			return err
		}
		var bad error
		c.Apply(func(g int, e *plist) {
			if want := mkPlist(g); bad == nil && !plistEqual(*e, want) {
				bad = fmt.Errorf("element %d mismatch", g)
			}
		})
		return bad
	})
}

// TestOpenMatchesLegacyConstructors: a pre-built Options value applied with
// WithOptions and the same settings given as functional options configure
// identical streams.
func TestOpenMatchesLegacyConstructors(t *testing.T) {
	fs1 := pfs.NewMemFS(vtime.Challenge())
	fs2 := pfs.NewMemFS(vtime.Challenge())
	run(t, 4, fs1, func(n *machine.Node) error {
		d := mustDist(t, 23, 4, distr.Block, 0)
		return writePlists(n, d, "f", Options{Strategy: StrategyParallel, Async: true})
	})
	run(t, 4, fs2, func(n *machine.Node) error {
		d := mustDist(t, 23, 4, distr.Block, 0)
		s, err := Open(n, d, "f", WithStrategy(StrategyParallel), WithAsync())
		if err != nil {
			return err
		}
		defer s.Close()
		c, err := collection.New[plist](n, d)
		if err != nil {
			return err
		}
		c.Apply(func(g int, e *plist) { *e = mkPlist(g) })
		if err := Insert[plist](s, c); err != nil {
			return err
		}
		return s.Write()
	})
	img1, err := fs1.Image("f")
	if err != nil {
		t.Fatal(err)
	}
	img2, err := fs2.Image("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img1, img2) {
		t.Fatal("Open(WithOptions(o)) and Open(With…) produced different images")
	}
}
