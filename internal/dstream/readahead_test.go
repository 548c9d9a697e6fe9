package dstream

import (
	"fmt"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// writeRecordSeq writes `records` records of plist elements to name, each
// record's values keyed by (global index, record number) so cross-record
// mixups are detectable.
func writeRecordSeq(t *testing.T, fs *pfs.FileSystem, nprocs, nElems, records int, name string) {
	t.Helper()
	run(t, nprocs, fs, func(n *machine.Node) error {
		d := mustDist(t, nElems, nprocs, distr.Block, 0)
		s, err := Open(n, d, name)
		if err != nil {
			return err
		}
		defer s.Close()
		c, err := collection.New[plist](n, d)
		if err != nil {
			return err
		}
		for r := 0; r < records; r++ {
			r := r
			c.Apply(func(g int, e *plist) { *e = mkPlist(g + r*37) })
			if err := Insert[plist](s, c); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
		}
		return nil
	})
}

// readRecordSeq reads `records` records under the given options and, for
// sorted reads, verifies every element against the writeRecordSeq values.
func readRecordSeq(n *machine.Node, d *distr.Distribution, name string, records int, sorted bool, opts ...Option) error {
	s, err := OpenInput(n, d, name, opts...)
	if err != nil {
		return err
	}
	defer s.Close()
	c, err := collection.New[plist](n, d)
	if err != nil {
		return err
	}
	for r := 0; r < records; r++ {
		if sorted {
			err = s.Read()
		} else {
			err = s.UnsortedRead()
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", r, err)
		}
		if err := Extract[plist](s, c); err != nil {
			return fmt.Errorf("record %d: %w", r, err)
		}
		if !sorted {
			continue
		}
		var bad error
		c.Apply(func(g int, e *plist) {
			if want := mkPlist(g + r*37); bad == nil && !plistEqual(*e, want) {
				bad = fmt.Errorf("record %d element %d mismatch", r, g)
			}
		})
		if bad != nil {
			return bad
		}
	}
	if s.More() {
		return fmt.Errorf("More() true after %d records", records)
	}
	return s.Close()
}

// TestReadAheadHitMetrics: with the pipeline primed at open, every read of
// a steady-state consumer is a hit, and the overlap histogram records one
// observation per hit.
func TestReadAheadHitMetrics(t *testing.T) {
	const nprocs, nElems, records = 4, 23, 4
	fs := pfs.NewFileSystem(vtime.Paragon(), pfs.StripedMemFactory(3, 256))
	writeRecordSeq(t, fs, nprocs, nElems, records, "f")
	mon := dsmon.New()
	_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs, Monitor: mon},
		func(n *machine.Node) error {
			d := mustDist(t, nElems, nprocs, distr.Block, 0)
			return readRecordSeq(n, d, "f", records, true, WithReadAhead(2))
		})
	if err != nil {
		t.Fatal(err)
	}
	reg := mon.Registry()
	hits := reg.Counter("dstream_prefetch_hits_total", "").Value()
	if want := int64(nprocs * records); hits != want {
		t.Errorf("prefetch hits = %d, want %d", hits, want)
	}
	if wasted := reg.Counter("dstream_prefetch_wasted_bytes_total", "").Value(); wasted != 0 {
		t.Errorf("wasted bytes = %d on a fully consumed stream", wasted)
	}
	if c := reg.Histogram("dstream_prefetch_overlap_seconds", "", dsmon.LatencyBuckets).Count(); c != hits {
		t.Errorf("overlap observations = %d, want %d", c, hits)
	}
}

// TestReadAheadSkipAndPeek: Skip consumes a queued prefetch without I/O
// (counting its data as wasted), NextElems peeks the queue, and the records
// around the skipped one still read back correctly.
func TestReadAheadSkipAndPeek(t *testing.T) {
	const nprocs, nElems, records = 4, 23, 4
	fs := pfs.NewFileSystem(vtime.Paragon(), pfs.StripedMemFactory(3, 256))
	writeRecordSeq(t, fs, nprocs, nElems, records, "f")
	mon := dsmon.New()
	_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs, Monitor: mon},
		func(n *machine.Node) error {
			d := mustDist(t, nElems, nprocs, distr.Block, 0)
			s, err := OpenInput(n, d, "f", WithReadAhead(2))
			if err != nil {
				return err
			}
			defer s.Close()
			c, err := collection.New[plist](n, d)
			if err != nil {
				return err
			}
			for r := 0; r < records; r++ {
				if ne, err := s.NextElems(); err != nil || ne != nElems {
					return fmt.Errorf("NextElems before record %d = %d, %v", r, ne, err)
				}
				if r%2 == 1 {
					if err := s.Skip(); err != nil {
						return fmt.Errorf("skip record %d: %w", r, err)
					}
					continue
				}
				if err := s.Read(); err != nil {
					return fmt.Errorf("read record %d: %w", r, err)
				}
				if err := Extract[plist](s, c); err != nil {
					return err
				}
				var bad error
				c.Apply(func(g int, e *plist) {
					if want := mkPlist(g + r*37); bad == nil && !plistEqual(*e, want) {
						bad = fmt.Errorf("record %d element %d mismatch after skip interleave", r, g)
					}
				})
				if bad != nil {
					return bad
				}
			}
			return s.Close()
		})
	if err != nil {
		t.Fatal(err)
	}
	if wasted := mon.Registry().Counter("dstream_prefetch_wasted_bytes_total", "").Value(); wasted == 0 {
		t.Error("skipping prefetched records counted no wasted bytes")
	}
}

// TestReadAheadStallsLower: the point of the pipeline — with computation
// between reads, the refill stall of a read-ahead consumer is strictly
// below the synchronous consumer's on the same file.
func TestReadAheadStallsLower(t *testing.T) {
	const nprocs, nElems, records = 4, 23, 5
	stall := func(depth int, strat Strategy) float64 {
		fs := pfs.NewFileSystem(vtime.Paragon(), pfs.StripedMemFactory(3, 256))
		writeRecordSeq(t, fs, nprocs, nElems, records, "f")
		mon := dsmon.New()
		_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs, Monitor: mon},
			func(n *machine.Node) error {
				d := mustDist(t, nElems, nprocs, distr.Block, 0)
				var opts []Option
				opts = append(opts, WithStrategy(strat))
				if depth > 0 {
					opts = append(opts, WithReadAhead(depth))
				}
				s, err := OpenInput(n, d, "f", opts...)
				if err != nil {
					return err
				}
				defer s.Close()
				c, err := collection.New[plist](n, d)
				if err != nil {
					return err
				}
				for r := 0; r < records; r++ {
					if err := s.Read(); err != nil {
						return err
					}
					if err := Extract[plist](s, c); err != nil {
						return err
					}
					n.Compute(0.005) // computation the transfer can hide under
				}
				return s.Close()
			})
		if err != nil {
			t.Fatal(err)
		}
		return mon.Registry().Histogram("dstream_refill_stall_seconds", "", dsmon.LatencyBuckets).Sum()
	}
	for _, strat := range []Strategy{StrategyParallel, StrategyTwoPhase} {
		sync, ahead := stall(0, strat), stall(2, strat)
		if ahead >= sync {
			t.Errorf("%s: read-ahead stall %.6fs not below sync stall %.6fs", strat, ahead, sync)
		}
	}
}
