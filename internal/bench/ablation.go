package bench

import (
	"fmt"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/vtime"
)

// Ablation is one row of the table behind `dstream-bench -ablations` and the
// root BenchmarkAblation: one design decision DESIGN.md derives from the
// paper, the cell it is measured at, and a run that returns the virtual
// seconds of each side of the decision, so the drivers can report the margin
// the choice buys.
type Ablation struct {
	Name string
	Cell Run
	// Labels names what Measure returns, value for value.
	Labels  []string
	Measure func(Run) ([]float64, error)
	// Report renders the values as the -ablations listing prints them.
	Report func(r Run, v []float64) string
}

// flushCounts are the sides of the flush-granularity ablation.
var flushCounts = []int{1, 4, 16}

// Ablations is the table.
func Ablations() []Ablation {
	paragon := vtime.Paragon()
	// §4.1 step 1: whether the metadata is funnelled through node 0 or
	// written in parallel should depend on the element count — funnel wins
	// the small collection, parallel the large one.
	metadata := func(name string, segments int, tail string) Ablation {
		return Ablation{
			Name: name, Cell: Run{Profile: paragon, NProcs: 8, Segments: segments},
			Labels: []string{"funnel", "parallel"}, Measure: metadataPath,
			Report: func(r Run, v []float64) string {
				return fmt.Sprintf("metadata path (%d segments, %d procs): funnel %.3f s, parallel %.3f s → %s wins\n"+tail,
					r.Segments, r.NProcs, v[0], v[1], map[bool]string{true: "funnel", false: "parallel"}[v[0] <= v[1]])
			},
		}
	}
	return []Ablation{
		{
			// §3: unsortedRead avoids the interprocessor communication of read.
			Name: "sorted-vs-unsorted", Cell: Run{Profile: paragon, NProcs: 4, Segments: 512},
			Labels: []string{"sorted", "unsorted"}, Measure: sortedVsUnsorted,
			Report: func(r Run, v []float64) string {
				return fmt.Sprintf("read vs unsortedRead (%d segs, changed distribution):\n  sorted read  %8.3f s\n  unsortedRead %8.3f s   (%.1f%% of sorted — §3's communication saving)\n\n",
					r.Segments, v[0], v[1], 100*v[1]/v[0])
			},
		},
		metadata("metadata-path-small", 64, ""),
		metadata("metadata-path-large", 8192, "\n"),
		{
			// What the interleaving feature saves: k field arrays in one record
			// (one parallel write) against k records.
			Name: "interleave", Cell: Run{Profile: paragon, NProcs: 4, Segments: 256},
			Labels: []string{"interleaved", "separate"}, Measure: interleave,
			Report: func(r Run, v []float64) string {
				return fmt.Sprintf("interleaving (5 field arrays, %d segs): one record %.3f s, five records %.3f s\n\n", r.Segments, v[0], v[1])
			},
		},
		{
			// §4.3 "buffering reduces total I/O latency time": the same data
			// flushed in more and more write() calls.
			Name: "flush-granularity", Cell: Run{Profile: paragon, NProcs: 4, Segments: 512},
			Labels:  []string{"flushes-1", "flushes-4", "flushes-16"},
			Measure: func(r Run) ([]float64, error) { return each(r, flushCounts, flushSeconds) },
			Report: func(r Run, v []float64) string {
				s := fmt.Sprintf("flush granularity (%d segs total):\n", r.Segments)
				for i, n := range flushCounts {
					s += fmt.Sprintf("  %2d flush(es): %8.3f s\n", n, v[i])
				}
				return s + "\n"
			},
		},
		{
			// The price of §4.1's two-phase read, paid only when needed: a
			// restart in the writer's layout against one where both the
			// processor count and the distribution changed.
			Name: "redistribute", Cell: Run{Profile: paragon, NProcs: 4, Segments: 512},
			Labels: []string{"same-layout", "redistributed"}, Measure: redistribute,
			Report: func(r Run, v []float64) string {
				return fmt.Sprintf("restart (%d segs): same layout %.3f s, changed procs+distribution %.3f s (two-phase read cost)\n\n", r.Segments, v[0], v[1])
			},
		},
		{
			// The write-behind extension: a program alternating computation with
			// checkpoint writes, synchronous (they serialize) and with
			// Options.Async (they overlap).
			Name: "async-overlap", Cell: Run{Profile: paragon, NProcs: 4, Segments: 512, Records: 4, Compute: 0.5},
			Labels: []string{"sync", "async"}, Measure: asyncOverlap,
			Report: func(r Run, v []float64) string {
				return fmt.Sprintf("async write-behind (%d rounds of %.1f s compute + checkpoint): sync %.3f s, async %.3f s (overlap saves %.3f s)\n\n",
					r.Records, r.Compute, v[0], v[1], v[0]-v[1])
			},
		},
		{
			// The transport substitution (DESIGN.md): identical virtual times
			// over in-process queues and over TCP sockets.
			Name: "transport", Cell: Run{Profile: vtime.Challenge(), NProcs: 4, Segments: 128},
			Labels: []string{"chan", "tcp"}, Measure: transports,
			Report: func(r Run, v []float64) string {
				return fmt.Sprintf("transport (%s profile): chan %.6f vs tcp %.6f virtual s — identical=%v\n", r.Profile.Name, v[0], v[1], v[0] == v[1])
			},
		},
	}
}

// each measures the cell once per side of the decision.
func each[T any](r Run, sides []T, seconds func(Run, T) (float64, error)) ([]float64, error) {
	out := make([]float64, len(sides))
	for i, side := range sides {
		var err error
		if out[i], err = seconds(r, side); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// restartSeconds writes the cell's collection as a checkpoint and times, on
// a second machine of procs nodes over the same store, reading it back into
// a mode layout: with read, or with unsortedRead when the variant is Streams.
func restartSeconds(r Run, procs int, mode distr.Mode) (float64, error) {
	fs := r.fs()
	if _, err := r.timed(fs, func(c *collection.Collection[scf.Segment]) error {
		return streamsWrite(c, "ck", r.StreamOpts)
	}); err != nil {
		return 0, err
	}
	r.NProcs = procs
	res, err := r.on(fs, func(n *machine.Node) error {
		d, err := distr.New(r.Segments, procs, mode, 0)
		if err != nil {
			return err
		}
		back, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		return streamsRead(back, "ck", r.Variant == StreamsSorted, r.StreamOpts)
	})
	return res.Elapsed, err
}

// sortedVsUnsorted reads under a different distribution than the file was
// written with, so sorting must route.
func sortedVsUnsorted(r Run) ([]float64, error) {
	return each(r, []Variant{StreamsSorted, Streams}, func(r Run, v Variant) (float64, error) {
		r.Variant = v
		return restartSeconds(r, r.NProcs, distr.Block)
	})
}

func redistribute(r Run) ([]float64, error) {
	r.Variant = StreamsSorted
	type layout struct {
		procs int
		mode  distr.Mode
	}
	return each(r, []layout{{r.NProcs, distr.Cyclic}, {r.NProcs + 2, distr.Block}}, func(r Run, l layout) (float64, error) {
		return restartSeconds(r, l.procs, l.mode)
	})
}

func metadataPath(r Run) ([]float64, error) {
	r.Variant = Streams
	return each(r, []dstream.Strategy{dstream.StrategyFunnel, dstream.StrategyParallel}, func(r Run, s dstream.Strategy) (float64, error) {
		r.StreamOpts.Strategy = s
		return Seconds(r)
	})
}

func transports(r Run) ([]float64, error) {
	r.Variant = Streams
	return each(r, []machine.TransportKind{machine.TransportChan, machine.TransportTCP}, func(r Run, t machine.TransportKind) (float64, error) {
		r.Transport = t
		return Seconds(r)
	})
}

// interleave inserts the five field arrays of a segment into one record or
// writes each as a record of its own.
func interleave(r Run) ([]float64, error) {
	return each(r, []bool{true, false}, func(r Run, oneRecord bool) (float64, error) {
		res, err := r.timed(r.fs(), func(c *collection.Collection[scf.Segment]) error {
			s, err := dstream.Open(c.Node(), c.Dist(), "il")
			if err != nil {
				return err
			}
			defer s.Close()
			flush := s.Write
			if oneRecord {
				flush = func() error { return nil }
			}
			if err := dstream.InsertField(s, c, func(e *scf.Segment) int64 { return e.NumberOfParticles }); err != nil {
				return err
			}
			if err := flush(); err != nil {
				return err
			}
			for _, field := range []func(*scf.Segment) []float64{
				func(e *scf.Segment) []float64 { return e.X },
				func(e *scf.Segment) []float64 { return e.Y },
				func(e *scf.Segment) []float64 { return e.Z },
				func(e *scf.Segment) []float64 { return e.Mass },
			} {
				if err := dstream.InsertFloat64Slice(s, c, field); err != nil {
					return err
				}
				if err := flush(); err != nil {
					return err
				}
			}
			if oneRecord {
				return s.Write()
			}
			return nil
		})
		return res.Elapsed, err
	})
}

// checkpointSeconds times a program that, Records times over, computes for
// Compute seconds and writes the cell's collection as one record of one
// open stream, the close included.
func checkpointSeconds(r Run) (float64, error) {
	res, err := r.timed(r.fs(), func(c *collection.Collection[scf.Segment]) error {
		n := c.Node()
		s, err := dstream.Open(n, c.Dist(), "ck", dstream.WithOptions(r.StreamOpts))
		if err != nil {
			return err
		}
		defer s.Close()
		for rec := 0; rec < r.Records; rec++ {
			n.Compute(r.Compute)
			if err := dstream.Insert[scf.Segment](s, c); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
		}
		return s.Close()
	})
	return res.Elapsed, err
}

// flushSeconds models a program that flushes its buffer `flushes` times:
// each record covers Segments/flushes of the cell's segments.
func flushSeconds(r Run, flushes int) (float64, error) {
	if flushes <= 0 || r.Segments%flushes != 0 {
		return 0, fmt.Errorf("bench: segments (%d) must divide into records (%d)", r.Segments, flushes)
	}
	r.Segments, r.Records = r.Segments/flushes, flushes
	return checkpointSeconds(r)
}

func asyncOverlap(r Run) ([]float64, error) {
	return each(r, []bool{false, true}, func(r Run, async bool) (float64, error) {
		r.StreamOpts.Async = async
		return checkpointSeconds(r)
	})
}
