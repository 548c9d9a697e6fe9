package dstream

import (
	"bytes"
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
