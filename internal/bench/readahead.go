package bench

import (
	"fmt"
	"io"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/vtime"
)

// ReadAheadPoint is one cell of the read-ahead ablation grid: the same
// multi-record SCF input pipeline timed with prefetching off and on, on one
// (platform, strategy, depth) configuration. StallSync and StallAhead are
// the run-wide sums of dstream_refill_stall_seconds — the virtual time
// Read kept the consumers from computing — and the gate for the ablation
// is StallAhead < StallSync. Identical confirms both runs delivered every
// segment byte-for-byte equal to the generator (the prefetch pipeline is
// only allowed to move the stall, never the data).
type ReadAheadPoint struct {
	Platform         string  `json:"platform"`
	Strategy         string  `json:"strategy"`
	Depth            int     `json:"depth"`
	NProcs           int     `json:"nprocs"`
	Segments         int     `json:"segments"`
	Particles        int     `json:"particles"`
	Records          int     `json:"records"`
	StripeFactor     int     `json:"stripe_factor"`
	ComputePerRecord float64 `json:"compute_per_record_seconds"`
	StallSync        float64 `json:"refill_stall_sync_seconds"`
	StallAhead       float64 `json:"refill_stall_ahead_seconds"`
	PrefetchHits     int64   `json:"prefetch_hits"`
	Identical        bool    `json:"identical"`
}

// scfFile is the file the multi-record SCF grids write and read back.
const scfFile = "scf"

// writeSCF is the output half of the multi-record SCF grids: a cyclic
// collection written as recs.N records with the given strategy.
func writeSCF(n *machine.Node, segments int, recs scf.Records, strat dstream.Strategy) error {
	d, err := distr.New(segments, n.Size(), distr.Cyclic, 0)
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
	if err := recs.Write(s, c); err != nil {
		return err
	}
	return s.Close()
}

// readSCF is the input half: the records read back under a block layout
// (forcing the sorted-read redistribution) with `compute` virtual seconds
// of work after each record, every segment verified against the generator.
// No opts is a full-auto stream.
func readSCF(n *machine.Node, segments int, recs scf.Records, compute float64, opts ...dstream.Option) error {
	d, err := distr.New(segments, n.Size(), distr.Block, 0)
	if err != nil {
		return err
	}
	s, err := dstream.OpenInput(n, d, scfFile, opts...)
	if err != nil {
		return err
	}
	c, err := collection.New[scf.Segment](n, d)
	if err != nil {
		return err
	}
	if err := recs.Read(s, c, func(int) error { n.Compute(compute); return nil }); err != nil {
		return err
	}
	return s.Close()
}

// readAheadStall runs writeSCF and then, on a second machine over the same
// store, readSCF at the given depth. It returns the input side's summed
// refill stall and prefetch hit count.
func readAheadStall(prof vtime.Profile, nprocs, segments, particles, records int,
	strat dstream.Strategy, depth int, compute float64, stripeFactor int, unit int64) (float64, int64, error) {
	fs := pfs.NewFileSystem(prof, pfs.StripedMemFactory(stripeFactor, unit))
	recs := scf.Records{N: records, Particles: particles}
	_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: prof, FS: fs}, func(n *machine.Node) error {
		return writeSCF(n, segments, recs, strat)
	})
	if err != nil {
		return 0, 0, fmt.Errorf("bench: read-ahead write phase: %w", err)
	}

	mon := dsmon.New()
	_, err = machine.Run(machine.Config{NProcs: nprocs, Profile: prof, FS: fs, Monitor: mon}, func(n *machine.Node) error {
		return readSCF(n, segments, recs, compute, dstream.WithStrategy(strat), dstream.WithReadAhead(depth))
	})
	if err != nil {
		return 0, 0, fmt.Errorf("bench: read-ahead input phase (depth %d): %w", depth, err)
	}
	reg := mon.Registry()
	stall := reg.Histogram("dstream_refill_stall_seconds", "", dsmon.LatencyBuckets).Sum()
	hits := reg.Counter("dstream_prefetch_hits_total", "").Value()
	return stall, hits, nil
}

// MeasureReadAhead times one grid cell with prefetching off and at the
// given depth. Verification stays on in both runs: a depth that wins by
// delivering wrong bytes is not a win, and Identical records that both
// runs passed it.
func MeasureReadAhead(prof vtime.Profile, nprocs, segments, particles, records int,
	strat dstream.Strategy, depth int, compute float64, stripeFactor int, unit int64) (ReadAheadPoint, error) {
	pt := ReadAheadPoint{
		Platform:         prof.Name,
		Strategy:         strat.String(),
		Depth:            depth,
		NProcs:           nprocs,
		Segments:         segments,
		Particles:        particles,
		Records:          records,
		StripeFactor:     stripeFactor,
		ComputePerRecord: compute,
	}
	var err error
	if pt.StallSync, _, err = readAheadStall(prof, nprocs, segments, particles, records,
		strat, 0, compute, stripeFactor, unit); err != nil {
		return pt, err
	}
	if pt.StallAhead, pt.PrefetchHits, err = readAheadStall(prof, nprocs, segments, particles, records,
		strat, depth, compute, stripeFactor, unit); err != nil {
		return pt, err
	}
	pt.Identical = true // both phases verified every segment against the generator
	return pt, nil
}

// ReadAheadSweep runs the default read-ahead ablation grid: platform ×
// strategy × prefetch depth, on a striped store with computation between
// records for the prefetched transfers to hide under. Every cell measures
// the synchronous baseline alongside, so the JSON is self-contained.
func ReadAheadSweep() ([]ReadAheadPoint, error) {
	var out []ReadAheadPoint
	for _, prof := range []vtime.Profile{vtime.Paragon(), vtime.CM5()} {
		for _, strat := range []dstream.Strategy{dstream.StrategyParallel, dstream.StrategyTwoPhase} {
			for _, depth := range []int{1, 2} {
				pt, err := MeasureReadAhead(prof, 4, 16, 64, 6, strat, depth, 0.02, 4, 16<<10)
				if err != nil {
					return nil, err
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// CheckReadAhead is the acceptance gate for the prefetch pipeline: both runs
// of every cell delivered the generator's bytes, and read-ahead lowers the
// refill stall on at least half the grid.
func CheckReadAhead(pts []ReadAheadPoint) (string, error) {
	wins := 0
	for _, p := range pts {
		if !p.Identical {
			return "", fmt.Errorf("bench: read-ahead cell %s/%s depth %d delivered wrong bytes", p.Platform, p.Strategy, p.Depth)
		}
		if p.StallAhead < p.StallSync {
			wins++
		}
	}
	if 2*wins < len(pts) {
		return "", fmt.Errorf("bench: read-ahead lowered the refill stall on only %d of %d grid cells — the prefetch is not overlapping", wins, len(pts))
	}
	return fmt.Sprintf("read-ahead lowers the refill stall on %d of %d grid cells", wins, len(pts)), nil
}

func formatReadAhead(w io.Writer, pts []ReadAheadPoint) {
	fmt.Fprintln(w, "Read-ahead prefetch ablation (summed refill stall, virtual seconds, SCF input)")
	fmt.Fprintln(w, "------------------------------------------------------------------------------")
	fmt.Fprintf(w, "%-10s %-9s %5s %6s %8s %8s %12s %12s %6s\n",
		"platform", "strategy", "depth", "procs", "records", "stripe", "stall(sync)", "stall(ahead)", "hits")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %-9s %5d %6d %8d %8d %12.4f %12.4f %6d\n",
			p.Platform, p.Strategy, p.Depth, p.NProcs, p.Records, p.StripeFactor,
			p.StallSync, p.StallAhead, p.PrefetchHits)
	}
	fmt.Fprintln(w)
}
