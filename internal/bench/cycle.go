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

// scfFile is the file the multi-record SCF cycle writes and reads back.
const scfFile = "scf"

// scfCell is the cell the read-ahead, critical-path and planner-read grids
// are built from: a striped store under a multi-record input pipeline, with
// computation between records for the prefetched transfers to hide under.
func scfCell(prof vtime.Profile) Run {
	return Run{
		Profile: prof, NProcs: 4, Segments: 16, Particles: 64,
		Records: 6, Compute: 0.02, StripeFactor: 4, StripeUnit: 16 << 10,
	}
}

func (r Run) records() scf.Records { return scf.Records{N: r.Records, Particles: r.particles()} }

// writeSCF is the output half of the cycle: a cyclic collection written as
// the cell's records with the given strategy.
func writeSCF(n *machine.Node, r Run, strat dstream.Strategy) error {
	d, err := distr.New(r.Segments, n.Size(), distr.Cyclic, 0)
	if err != nil {
		return err
	}
	s, err := dstream.Open(n, d, scfFile, dstream.WithStrategy(strat))
	if err != nil {
		return err
	}
	c, err := collection.New[scf.Segment](n, d)
	if err != nil {
		return err
	}
	if err := r.records().Write(s, c); err != nil {
		return err
	}
	return s.Close()
}

// readSCF is the input half: the records read back under a block layout
// (forcing the sorted-read redistribution) with the cell's computation after
// each record, every segment verified against the generator. The zero opts
// is a full-auto stream.
func readSCF(n *machine.Node, r Run, opts dstream.Options) error {
	d, err := distr.New(r.Segments, n.Size(), distr.Block, 0)
	if err != nil {
		return err
	}
	s, err := dstream.OpenInput(n, d, scfFile, dstream.WithOptions(opts))
	if err != nil {
		return err
	}
	c, err := collection.New[scf.Segment](n, d)
	if err != nil {
		return err
	}
	if err := r.records().Read(s, c, func(int) error { n.Compute(r.Compute); return nil }); err != nil {
		return err
	}
	return s.Close()
}

// scfCycle is the write-then-read cycle under the read-ahead, planner-read
// and critical-path grids: writeSCF with the strategy write, then readSCF
// under read. The halves run on two machines over one store, the second
// carrying the cell's monitor, so the seconds returned and the metrics
// collected are the input side's alone — unless oneRun is set: then both run
// inside one monitored machine run, and the write-side shuffle stalls and the
// read-side refill stalls land on one causal timeline.
func scfCycle(r Run, write dstream.Strategy, read dstream.Options, oneRun bool) (float64, error) {
	fs := r.fs()
	out := func(n *machine.Node) error { return writeSCF(n, r, write) }
	in := func(n *machine.Node) error { return readSCF(n, r, read) }
	if oneRun {
		res, err := r.on(fs, func(n *machine.Node) error {
			if err := out(n); err != nil {
				return err
			}
			return in(n)
		})
		return res.Elapsed, err
	}
	writer := r
	writer.Monitor = nil
	if _, err := writer.on(fs, out); err != nil {
		return 0, fmt.Errorf("bench: scf cycle write phase: %w", err)
	}
	res, err := r.on(fs, in)
	if err != nil {
		return 0, fmt.Errorf("bench: scf cycle input phase: %w", err)
	}
	return res.Elapsed, nil
}
