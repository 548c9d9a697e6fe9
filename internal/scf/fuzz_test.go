package scf_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/vtime"
)

// segmentSeeds are FuzzSegmentExtract's seed images: two records of seven
// Segments from three writers — particle counts 0 to 3, shifted by one in
// the second record — by each write strategy, in each layout kind.
func segmentSeeds(t testing.TB) map[string][]byte {
	const nprocs, n = 3, 7
	layouts := []struct {
		name string
		mk   func() (*distr.Distribution, error)
	}{
		{"block", func() (*distr.Distribution, error) { return distr.New(n, nprocs, distr.Block, 0) }},
		{"cyclic", func() (*distr.Distribution, error) { return distr.New(n, nprocs, distr.Cyclic, 0) }},
		{"explicit", func() (*distr.Distribution, error) { return distr.NewExplicit([]int{2, 0, 0, 1, 2, 1, 0}, nprocs) }},
	}
	strategies := []struct {
		name  string
		strat dstream.Strategy
	}{{"funnel", dstream.StrategyFunnel}, {"parallel", dstream.StrategyParallel}, {"twophase", dstream.StrategyTwoPhase}}
	seeds := map[string][]byte{}
	for _, st := range strategies {
		for _, lay := range layouts {
			fs := pfs.NewMemFS(vtime.Challenge())
			_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs}, func(nd *machine.Node) error {
				d, err := lay.mk()
				if err != nil {
					return err
				}
				c, err := collection.New[scf.Segment](nd, d)
				if err != nil {
					return err
				}
				s, err := dstream.Open(nd, d, "f", dstream.WithStrategy(st.strat))
				if err != nil {
					return err
				}
				defer s.Close()
				for rec := range 2 {
					c.Apply(func(g int, seg *scf.Segment) { seg.Fill(g+100*rec, (g+rec)%4) })
					if err := dstream.Insert[scf.Segment](s, c); err != nil {
						return err
					}
					if err := s.Write(); err != nil {
						return err
					}
				}
				return s.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
			img, err := fs.Image("f")
			if err != nil {
				t.Fatal(err)
			}
			seeds[st.name+"_"+lay.name] = img
		}
	}
	return seeds
}

// FuzzSegmentExtract: Segment's extractor refills the element it is given,
// and what it leaves there must not depend on what the element held. Every
// record of a mutated image is read into a fresh collection and, on a second
// input stream in step, into one pre-filled with segments of other lengths
// (so some slices refill in place and some outgrow theirs): both reads end
// with the same error, or with bit-equal elements after every record. No
// image may panic either read, or make them allocate out of proportion to
// it.
func FuzzSegmentExtract(f *testing.F) {
	for name, img := range segmentSeeds(f) {
		if err := readBoth(img, func(int, []scf.Segment, []scf.Segment) error { return nil }); err != nil {
			f.Fatalf("seed %s does not read back: %v", name, err)
		}
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readBoth(img, func(rec int, fresh, refilled []scf.Segment) error {
			for l := range fresh {
				if !sameBits(&fresh[l], &refilled[l]) {
					return fmt.Errorf("record %d element %d: %+v read fresh, %+v refilled", rec, l, fresh[l], refilled[l])
				}
			}
			return nil
		})
		runtime.ReadMemStats(&after)
		if b := (broken{}); errors.As(err, &b) {
			t.Fatal(err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+512*len(img)); got > limit {
			t.Fatalf("reading a %d-byte image allocated %d bytes (limit %d)", len(img), got, limit)
		}
	})
}

// broken is readBoth's verdict when the two reads differ, or a read panics.
type broken struct{ error }

// readBoth reads img on one rank, as many elements a record as its first
// record holds, on two input streams in step: one into a fresh collection,
// one into a collection of segments of other lengths. After each record both
// extracted it returns what check says of the two; when a step fails on one
// stream it must fail alike on the other, and that error is returned. A
// disagreement between the streams, or a panic, is returned as broken.
func readBoth(img []byte, check func(rec int, fresh, refilled []scf.Segment) error) error {
	fs := pfs.NewMemFS(vtime.Challenge())
	_, err := machine.Run(machine.Config{NProcs: 1, Profile: vtime.Challenge(), FS: fs}, func(nd *machine.Node) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = broken{fmt.Errorf("panic: %v\n%s", p, debug.Stack())}
			}
		}()
		f, err := nd.Open("f", true)
		if err != nil {
			return err
		}
		if err := f.WriteAt(img, 0); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		open := func(n int) (*dstream.IStream, *collection.Collection[scf.Segment], error) {
			d, err := distr.New(n, 1, distr.Block, 0)
			if err != nil {
				return nil, nil, err
			}
			c, err := collection.New[scf.Segment](nd, d)
			if err != nil {
				return nil, nil, err
			}
			s, err := dstream.OpenInput(nd, d, "f")
			return s, c, err
		}
		peek, _, err := open(0)
		if err != nil {
			return err
		}
		n, err := peek.NextElems()
		peek.Close()
		if err != nil {
			return err
		}
		a, fresh, err := open(n)
		if err != nil {
			return err
		}
		defer a.Close()
		b, refilled, err := open(n)
		if err != nil {
			return err
		}
		defer b.Close()
		refilled.Apply(func(g int, s *scf.Segment) { s.Fill(g+7, (3*g+1)%6) })
		step := func(what string, on func(s *dstream.IStream, c *collection.Collection[scf.Segment]) error) error {
			ea, eb := on(a, fresh), on(b, refilled)
			if (ea == nil) != (eb == nil) || ea != nil && ea.Error() != eb.Error() {
				return broken{fmt.Errorf("%s: %v into a fresh collection, %v into a filled one", what, ea, eb)}
			}
			return ea
		}
		for rec := 0; a.More(); rec++ {
			if err := step("read", func(s *dstream.IStream, _ *collection.Collection[scf.Segment]) error { return s.Read() }); err != nil {
				return err
			}
			if err := step("extract", dstream.Extract[scf.Segment]); err != nil {
				return err
			}
			if err := check(rec, fresh.Local(), refilled.Local()); err != nil {
				return broken{err}
			}
		}
		return nil
	})
	return err
}

// sameBits compares two segments word for word, NaN payloads included.
func sameBits(a, b *scf.Segment) bool {
	if a.NumberOfParticles != b.NumberOfParticles {
		return false
	}
	fa, fb := [][]float64{a.X, a.Y, a.Z, a.VX, a.VY, a.VZ, a.Mass}, [][]float64{b.X, b.Y, b.Z, b.VX, b.VY, b.VZ, b.Mass}
	for i := range fa {
		if len(fa[i]) != len(fb[i]) {
			return false
		}
		for j := range fa[i] {
			if math.Float64bits(fa[i][j]) != math.Float64bits(fb[i][j]) {
				return false
			}
		}
	}
	return true
}
