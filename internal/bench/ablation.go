package bench

import (
	"fmt"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/vtime"
)

// This file implements the ablation experiments DESIGN.md derives from the
// paper's design choices: each returns virtual seconds for the two (or
// more) sides of one design decision, so the benches can report the margin
// the choice buys.

// AblationSortedVsUnsorted measures read vs unsortedRead on a file whose
// distribution changed between write and read (§3: unsortedRead avoids the
// interprocessor communication).
func AblationSortedVsUnsorted(prof vtime.Profile, nprocs, segments int) (sorted, unsorted float64, err error) {
	measure := func(v Variant) (float64, error) {
		fs := pfs.NewMemFS(prof)
		res, err := machine.Run(machine.Config{NProcs: nprocs, Profile: prof, FS: fs},
			func(n *machine.Node) error {
				wd, err := distr.New(segments, nprocs, distr.Cyclic, 0)
				if err != nil {
					return err
				}
				c, err := collection.New[scf.Segment](n, wd)
				if err != nil {
					return err
				}
				c.Apply(func(g int, s *scf.Segment) { s.Fill(g, scf.DefaultParticles) })
				if err := streamsWrite(n, wd, c, "ab", dstream.Options{}); err != nil {
					return err
				}
				// Read under a different distribution so sorting must route.
				rd, err := distr.New(segments, nprocs, distr.Block, 0)
				if err != nil {
					return err
				}
				back, err := collection.New[scf.Segment](n, rd)
				if err != nil {
					return err
				}
				if err := n.Comm().Barrier(); err != nil {
					return err
				}
				n.Clock().Reset()
				return streamsRead(n, rd, back, "ab", v == StreamsSorted, dstream.Options{})
			})
		if err != nil {
			return 0, err
		}
		return res.Elapsed, nil
	}
	if sorted, err = measure(StreamsSorted); err != nil {
		return 0, 0, err
	}
	if unsorted, err = measure(Streams); err != nil {
		return 0, 0, err
	}
	return sorted, unsorted, nil
}

// AblationMetadataPath measures the funnel-through-node-0 metadata path
// against the parallel metadata write for a given collection size (§4.1
// step 1: the right choice depends on the element count).
func AblationMetadataPath(prof vtime.Profile, nprocs, segments int) (funnel, parallel float64, err error) {
	measure := func(strat dstream.Strategy) (float64, error) {
		return Seconds(Run{
			Profile: prof, NProcs: nprocs, Segments: segments,
			Variant: Streams, StreamOpts: dstream.Options{Strategy: strat},
		})
	}
	if funnel, err = measure(dstream.StrategyFunnel); err != nil {
		return 0, 0, err
	}
	if parallel, err = measure(dstream.StrategyParallel); err != nil {
		return 0, 0, err
	}
	return funnel, parallel, nil
}

// AblationInterleave measures inserting k field arrays into one record
// (interleaved, one parallel write) against writing k separate records
// (one per field), quantifying what the interleaving feature saves.
func AblationInterleave(prof vtime.Profile, nprocs, segments int) (interleaved, separate float64, err error) {
	measure := func(oneRecord bool) (float64, error) {
		fs := pfs.NewMemFS(prof)
		res, err := machine.Run(machine.Config{NProcs: nprocs, Profile: prof, FS: fs},
			func(n *machine.Node) error {
				d, err := distr.New(segments, nprocs, distr.Cyclic, 0)
				if err != nil {
					return err
				}
				c, err := collection.New[scf.Segment](n, d)
				if err != nil {
					return err
				}
				c.Apply(func(g int, s *scf.Segment) { s.Fill(g, scf.DefaultParticles) })
				if err := n.Comm().Barrier(); err != nil {
					return err
				}
				n.Clock().Reset()
				s, err := dstream.Open(n, d, "il")
				if err != nil {
					return err
				}
				defer s.Close()
				inserts := []func() error{
					func() error {
						return dstream.InsertField(s, c, func(e *scf.Segment) int64 { return e.NumberOfParticles })
					},
					func() error {
						return dstream.InsertFloat64Slice(s, c, func(e *scf.Segment) []float64 { return e.X })
					},
					func() error {
						return dstream.InsertFloat64Slice(s, c, func(e *scf.Segment) []float64 { return e.Y })
					},
					func() error {
						return dstream.InsertFloat64Slice(s, c, func(e *scf.Segment) []float64 { return e.Z })
					},
					func() error {
						return dstream.InsertFloat64Slice(s, c, func(e *scf.Segment) []float64 { return e.Mass })
					},
				}
				for _, ins := range inserts {
					if err := ins(); err != nil {
						return err
					}
					if !oneRecord {
						if err := s.Write(); err != nil {
							return err
						}
					}
				}
				if oneRecord {
					return s.Write()
				}
				return nil
			})
		if err != nil {
			return 0, err
		}
		return res.Elapsed, nil
	}
	if interleaved, err = measure(true); err != nil {
		return 0, 0, err
	}
	if separate, err = measure(false); err != nil {
		return 0, 0, err
	}
	return interleaved, separate, nil
}

// AblationFlushGranularity measures the cost of flushing the same data in
// `records` separate write() calls — the buffering-reduces-latency claim of
// §4.3 ("buffering reduces total I/O latency time").
func AblationFlushGranularity(prof vtime.Profile, nprocs, segments int, records int) (float64, error) {
	if records <= 0 || segments%records != 0 {
		return 0, fmt.Errorf("bench: segments (%d) must divide into records (%d)", segments, records)
	}
	fs := pfs.NewMemFS(prof)
	res, err := machine.Run(machine.Config{NProcs: nprocs, Profile: prof, FS: fs},
		func(n *machine.Node) error {
			// Each record covers segments/records segments: model a program
			// that flushes its buffer `records` times.
			per := segments / records
			d, err := distr.New(per, nprocs, distr.Cyclic, 0)
			if err != nil {
				return err
			}
			c, err := collection.New[scf.Segment](n, d)
			if err != nil {
				return err
			}
			c.Apply(func(g int, s *scf.Segment) { s.Fill(g, scf.DefaultParticles) })
			if err := n.Comm().Barrier(); err != nil {
				return err
			}
			n.Clock().Reset()
			s, err := dstream.Open(n, d, "fg")
			if err != nil {
				return err
			}
			defer s.Close()
			for rec := 0; rec < records; rec++ {
				if err := dstream.Insert[scf.Segment](s, c); err != nil {
					return err
				}
				if err := s.Write(); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

// AblationRedistribute measures a checkpoint/restart where the reader keeps
// the writer's layout against one where both the processor count and the
// distribution changed — the price of §4.1's two-phase read, paid only when
// needed.
func AblationRedistribute(prof vtime.Profile, segments int) (same, changed float64, err error) {
	writeCk := func(fs *pfs.FileSystem) error {
		_, err := machine.Run(machine.Config{NProcs: 4, Profile: prof, FS: fs},
			func(n *machine.Node) error {
				d, err := distr.New(segments, 4, distr.Cyclic, 0)
				if err != nil {
					return err
				}
				c, err := collection.New[scf.Segment](n, d)
				if err != nil {
					return err
				}
				c.Apply(func(g int, s *scf.Segment) { s.Fill(g, scf.DefaultParticles) })
				return streamsWrite(n, d, c, "ck", dstream.Options{})
			})
		return err
	}
	restart := func(fs *pfs.FileSystem, nprocs int, mode distr.Mode) (float64, error) {
		res, err := machine.Run(machine.Config{NProcs: nprocs, Profile: prof, FS: fs},
			func(n *machine.Node) error {
				d, err := distr.New(segments, nprocs, mode, 0)
				if err != nil {
					return err
				}
				back, err := collection.New[scf.Segment](n, d)
				if err != nil {
					return err
				}
				return streamsRead(n, d, back, "ck", true, dstream.Options{})
			})
		if err != nil {
			return 0, err
		}
		return res.Elapsed, nil
	}

	fs1 := pfs.NewMemFS(prof)
	if err = writeCk(fs1); err != nil {
		return 0, 0, err
	}
	if same, err = restart(fs1, 4, distr.Cyclic); err != nil {
		return 0, 0, err
	}
	fs2 := pfs.NewMemFS(prof)
	if err = writeCk(fs2); err != nil {
		return 0, 0, err
	}
	if changed, err = restart(fs2, 6, distr.Block); err != nil {
		return 0, 0, err
	}
	return same, changed, nil
}

// AblationAsyncOverlap measures the write-behind extension: a program that
// alternates computation with checkpoint writes, once with synchronous
// writes (compute and I/O serialize) and once with Options.Async (they
// overlap). computeSecs is the per-round computation time.
func AblationAsyncOverlap(prof vtime.Profile, nprocs, segments, rounds int, computeSecs float64) (sync, async float64, err error) {
	measure := func(asyncMode bool) (float64, error) {
		fs := pfs.NewMemFS(prof)
		res, err := machine.Run(machine.Config{NProcs: nprocs, Profile: prof, FS: fs},
			func(n *machine.Node) error {
				d, err := distr.New(segments, nprocs, distr.Cyclic, 0)
				if err != nil {
					return err
				}
				c, err := collection.New[scf.Segment](n, d)
				if err != nil {
					return err
				}
				c.Apply(func(g int, s *scf.Segment) { s.Fill(g, scf.DefaultParticles) })
				if err := n.Comm().Barrier(); err != nil {
					return err
				}
				n.Clock().Reset()
				s, err := dstream.Open(n, d, "ck", dstream.WithOptions(dstream.Options{Async: asyncMode}))
				if err != nil {
					return err
				}
				defer s.Close()
				for r := 0; r < rounds; r++ {
					n.Compute(computeSecs)
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
			return 0, err
		}
		return res.Elapsed, nil
	}
	if sync, err = measure(false); err != nil {
		return 0, 0, err
	}
	if async, err = measure(true); err != nil {
		return 0, 0, err
	}
	return sync, async, nil
}

// AblationTransport runs the same streams measurement over the in-process
// channel transport and the TCP socket transport; identical virtual times
// validate the transport substitution (DESIGN.md).
func AblationTransport(prof vtime.Profile, nprocs, segments int) (chanSecs, tcpSecs float64, err error) {
	if chanSecs, err = Seconds(Run{
		Profile: prof, NProcs: nprocs, Segments: segments,
		Variant: Streams, Transport: machine.TransportChan,
	}); err != nil {
		return 0, 0, err
	}
	if tcpSecs, err = Seconds(Run{
		Profile: prof, NProcs: nprocs, Segments: segments,
		Variant: Streams, Transport: machine.TransportTCP,
	}); err != nil {
		return 0, 0, err
	}
	return chanSecs, tcpSecs, nil
}
