// Package bench is the harness that regenerates every table of the paper's
// evaluation (§4.3, Figure 5): the SCF I/O skeleton coded three ways —
// unbuffered OS primitives, manual buffering, and pC++/streams — measured as
// "an output operation followed by an input operation on a distributed data
// structure", with the d/stream unsortedRead primitive used for input.
//
// Times are deterministic virtual seconds from the platform cost models, so
// the tables reproduce the paper's shape (who wins, by what factor, where
// the cliffs fall) on any host.
package bench

import (
	"fmt"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/manualbuf"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/unbuffered"
	"pcxxstreams/internal/vtime"
)

// Variant selects which of the paper's three I/O codings to run.
type Variant uint8

const (
	// Unbuffered uses one OS call per field per segment.
	Unbuffered Variant = iota
	// ManualBuf packs per-node buffers by hand; no metadata in the file.
	ManualBuf
	// Streams uses the pC++/streams library (output, then unsortedRead).
	Streams
	// StreamsSorted uses the sorted read primitive instead of unsortedRead
	// (ablation only; the paper's tables use unsortedRead).
	StreamsSorted
)

func (v Variant) String() string {
	switch v {
	case Unbuffered:
		return "Unbuffered I/O"
	case ManualBuf:
		return "Manual Buffering"
	case Streams:
		return "pC++/streams"
	case StreamsSorted:
		return "pC++/streams (sorted read)"
	}
	return fmt.Sprintf("Variant(%d)", uint8(v))
}

// Run is one cell: the geometry of one measurement, and the one argument
// every Measure… and cycle function of the package takes. A sweep is a loop
// that builds Runs; what a cell's function varies on top of its Run (a
// strategy, a depth, a reader's layout) is what the cell compares.
type Run struct {
	Profile   vtime.Profile
	NProcs    int
	Segments  int
	Particles int // 0 means scf.DefaultParticles
	// Records is how many records a multi-record cell writes and reads back,
	// and Compute the virtual seconds of work a rank does per record (after
	// each read of the SCF cycle, before each write of the write-behind
	// ablation). The paper's tables are one record and no computation: both
	// zero.
	Records   int
	Compute   float64
	Variant   Variant
	Transport machine.TransportKind
	// StreamOpts tunes the Streams variants (strategy and metadata-policy
	// ablations); it is applied to both the output and the input stream.
	StreamOpts dstream.Options
	// StripeFactor, when positive, backs the run's file system with a
	// striped store of that many devices (StripeUnit bytes per cell,
	// pfs.DefaultStripeUnit when zero) instead of a flat one — the geometry
	// the two-phase strategy aggregates against.
	StripeFactor int
	StripeUnit   int64
	// FS, when non-nil, overrides the run's file system entirely (the
	// stripe fields are ignored). The planner ablation uses it to keep
	// the written image inspectable after the run, for byte-identity
	// comparison across strategies.
	FS *pfs.FileSystem
	// Verify re-checks every element after the input phase (on by default
	// in tests; adds no virtual time).
	Verify bool
	// Monitor, when non-nil, collects dsmon metrics (and, if the monitor
	// traces, spans) for the whole run.
	Monitor *dsmon.Monitor
}

func (r Run) particles() int {
	if r.Particles == 0 {
		return scf.DefaultParticles
	}
	return r.Particles
}

// fs is the file system the cell runs on: the one given, else a striped
// store of the cell's geometry, else a flat one.
func (r Run) fs() *pfs.FileSystem {
	switch {
	case r.FS != nil:
		return r.FS
	case r.StripeFactor > 0:
		unit := r.StripeUnit
		if unit <= 0 {
			unit = pfs.DefaultStripeUnit
		}
		return pfs.NewFileSystem(r.Profile, pfs.StripedMemFactory(r.StripeFactor, unit))
	}
	return pfs.NewMemFS(r.Profile)
}

// on runs body on every node of the cell's machine, mounted on fs.
func (r Run) on(fs *pfs.FileSystem, body func(*machine.Node) error) (machine.Result, error) {
	return machine.Run(machine.Config{
		NProcs:    r.NProcs,
		Profile:   r.Profile,
		Transport: r.Transport,
		FS:        fs,
		Monitor:   r.Monitor,
	}, body)
}

// timed is the segment fixture: body runs on the cell's machine with the
// benchmark collection in place — Figure 3 declares it CYCLIC — every
// segment filled, and every clock reset behind a barrier, so the run's
// Elapsed is body's alone.
func (r Run) timed(fs *pfs.FileSystem, body func(c *collection.Collection[scf.Segment]) error) (machine.Result, error) {
	return r.on(fs, func(n *machine.Node) error {
		d, err := distr.New(r.Segments, r.NProcs, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		c, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		c.Apply(func(g int, s *scf.Segment) { s.Fill(g, r.particles()) })
		if err := n.Comm().Barrier(); err != nil {
			return err
		}
		n.Clock().Reset()
		return body(c)
	})
}

// Measurement is one benchmark run's outcome: the paper's metric (virtual
// seconds) plus the operation profile that explains it.
type Measurement struct {
	Seconds      float64
	IO           pfs.IOStats
	MessagesSent int
	BytesSent    int64
	// Fanout is the shape the run's collectives had (machine.Result.Fanout).
	Fanout int
}

// Seconds executes the measurement and returns the virtual makespan of the
// output-then-input sequence, excluding data-set construction.
func Seconds(r Run) (float64, error) {
	m, err := Measure(r)
	return m.Seconds, err
}

// Measure executes the measurement and returns the full profile.
func Measure(r Run) (Measurement, error) {
	particles := r.particles()
	mres, err := r.timed(r.fs(), func(c *collection.Collection[scf.Segment]) error {
		n := c.Node()
		back, err := collection.New[scf.Segment](n, c.Dist())
		if err != nil {
			return err
		}
		const file = "scf-particles"
		switch r.Variant {
		case Unbuffered:
			if err := unbuffered.WriteSegments(n, c, file, particles); err != nil {
				return err
			}
			if err := unbuffered.ReadSegments(n, back, file, particles); err != nil {
				return err
			}
		case ManualBuf:
			if err := manualbuf.WriteSegments(n, c, file, particles); err != nil {
				return err
			}
			if err := manualbuf.ReadSegments(n, back, file, particles); err != nil {
				return err
			}
		case Streams, StreamsSorted:
			if err := streamsWrite(c, file, r.StreamOpts); err != nil {
				return err
			}
			if err := streamsRead(back, file, r.Variant == StreamsSorted, r.StreamOpts); err != nil {
				return err
			}
		default:
			return fmt.Errorf("bench: unknown variant %d", r.Variant)
		}

		if r.Verify {
			return scf.Records{Particles: particles}.Verify(back.Local(), back.Dist(), n.Rank(), 0)
		}
		return nil
	})
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Seconds:      mres.Elapsed,
		IO:           mres.IO,
		MessagesSent: mres.MessagesSent,
		BytesSent:    mres.BytesSent,
		Fanout:       mres.Fanout,
	}, nil
}

func streamsWrite(c *collection.Collection[scf.Segment], file string, opts dstream.Options) error {
	s, err := dstream.Open(c.Node(), c.Dist(), file, dstream.WithOptions(opts))
	if err != nil {
		return err
	}
	if err := dstream.Insert[scf.Segment](s, c); err != nil {
		return err
	}
	if err := s.Write(); err != nil {
		return err
	}
	return s.Close()
}

func streamsRead(c *collection.Collection[scf.Segment], file string, sorted bool, opts dstream.Options) error {
	s, err := dstream.OpenInput(c.Node(), c.Dist(), file, dstream.WithOptions(opts))
	if err != nil {
		return err
	}
	if sorted {
		err = s.Read()
	} else {
		err = s.UnsortedRead()
	}
	if err != nil {
		return err
	}
	if err := dstream.Extract[scf.Segment](s, c); err != nil {
		return err
	}
	return s.Close()
}
