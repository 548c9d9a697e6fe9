package bench

import (
	"fmt"
	"io"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
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

// MeasureReadAhead times one grid cell with prefetching off and at the
// given depth, and returns each input side's summed refill stall (and the
// prefetching side's hit count). Verification stays on in both runs: a depth
// that wins by delivering wrong bytes is not a win, and Identical records
// that both runs passed it.
func MeasureReadAhead(r Run, strat dstream.Strategy, depth int) (ReadAheadPoint, error) {
	pt := ReadAheadPoint{
		Platform:         r.Profile.Name,
		Strategy:         strat.String(),
		Depth:            depth,
		NProcs:           r.NProcs,
		Segments:         r.Segments,
		Particles:        r.Particles,
		Records:          r.Records,
		StripeFactor:     r.StripeFactor,
		ComputePerRecord: r.Compute,
	}
	stall := func(depth int) (float64, int64, error) {
		r.Monitor = dsmon.New()
		if _, err := scfCycle(r, strat, dstream.Options{Strategy: strat, ReadAhead: depth}, false); err != nil {
			return 0, 0, fmt.Errorf("bench: read-ahead cell (depth %d): %w", depth, err)
		}
		reg := r.Monitor.Registry()
		return reg.Histogram("dstream_refill_stall_seconds", "", dsmon.LatencyBuckets).Sum(),
			reg.Counter("dstream_prefetch_hits_total", "").Value(), nil
	}
	var err error
	if pt.StallSync, _, err = stall(0); err != nil {
		return pt, err
	}
	if pt.StallAhead, pt.PrefetchHits, err = stall(depth); err != nil {
		return pt, err
	}
	pt.Identical = true // both phases verified every segment against the generator
	return pt, nil
}

// ReadAheadSweep runs the default read-ahead ablation grid: platform ×
// strategy × prefetch depth over scfCell. Every cell measures the
// synchronous baseline alongside, so the JSON is self-contained.
func ReadAheadSweep() ([]ReadAheadPoint, error) {
	var out []ReadAheadPoint
	for _, prof := range []vtime.Profile{vtime.Paragon(), vtime.CM5()} {
		for _, strat := range []dstream.Strategy{dstream.StrategyParallel, dstream.StrategyTwoPhase} {
			for _, depth := range []int{1, 2} {
				pt, err := MeasureReadAhead(scfCell(prof), strat, depth)
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
