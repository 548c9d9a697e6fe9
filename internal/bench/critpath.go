package bench

import (
	"fmt"
	"io"
	"math"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dsmon/critpath"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/vtime"
)

// CritPathPoint is one cell of the critical-path attribution sweep: the
// read-ahead pipeline (write phase + verified read-back) run under a tracing
// monitor, with the span-graph attribution cross-checked against the
// independently-observed dstream stall histograms. The gates:
//
//   - NamedFractionMin ≥ 0.9: every rank's wall time decomposes into named
//     categories (the decomposition is exhaustive by construction — gaps are
//     compute — so this checks the analyzer stayed total).
//   - RefillSpan within 5% of RefillMetric, and (two-phase only) ShuffleSpan
//     within 5% of ShuffleMetric: the span graph and the metric histograms
//     observe the same intervals, so their sums must agree.
type CritPathPoint struct {
	Platform         string             `json:"platform"`
	Strategy         string             `json:"strategy"`
	Depth            int                `json:"depth"`
	NProcs           int                `json:"nprocs"`
	Records          int                `json:"records"`
	Makespan         float64            `json:"makespan_seconds"`
	Spans            int                `json:"spans"`
	Flows            int                `json:"flows"`
	NamedFractionMin float64            `json:"named_fraction_min"`
	RefillSpan       float64            `json:"refill_span_seconds"`
	RefillMetric     float64            `json:"refill_metric_seconds"`
	ShuffleSpan      float64            `json:"shuffle_span_seconds"`
	ShuffleMetric    float64            `json:"shuffle_metric_seconds"`
	Categories       map[string]float64 `json:"category_seconds"`
}

const (
	// CritPathMinNamed is the least fraction of any rank's wall time the
	// analyzer must attribute to named categories.
	CritPathMinNamed = 0.9
	// CritPathAgreement is how far a span-graph stall sum may sit from the
	// stall histogram observing the same intervals, relative to the larger.
	CritPathAgreement = 0.05
)

// agrees reports |a-b| ≤ CritPathAgreement of max(|a|,|b|).
func agrees(a, b float64) bool {
	return math.Abs(a-b) <= CritPathAgreement*math.Max(math.Abs(a), math.Abs(b))
}

// MeasureCritPath runs one traced write+read pipeline cell — the whole cycle
// inside a single machine run — and analyzes its span graph.
func MeasureCritPath(r Run, strat dstream.Strategy, depth int) (CritPathPoint, error) {
	pt := CritPathPoint{
		Platform: r.Profile.Name,
		Strategy: strat.String(),
		Depth:    depth,
		NProcs:   r.NProcs,
		Records:  r.Records,
	}
	mon := dsmon.NewTracing()
	r.Monitor = mon
	if _, err := scfCycle(r, strat, dstream.Options{Strategy: strat, ReadAhead: depth}, true); err != nil {
		return pt, fmt.Errorf("bench: critpath cell: %w", err)
	}

	rep := critpath.Analyze(mon.Recorder())
	rep.Publish(mon.Registry())
	pt.Makespan = rep.Makespan
	pt.Spans = rep.Spans
	pt.Flows = rep.Flows
	pt.NamedFractionMin = 1
	pt.Categories = map[string]float64{}
	for _, b := range rep.Ranks {
		if f := b.Named(); f < pt.NamedFractionMin {
			pt.NamedFractionMin = f
		}
		for c, v := range b.Seconds {
			pt.Categories[c] += v
		}
	}
	pt.RefillSpan = rep.Stalls[critpath.CatRefill]
	pt.ShuffleSpan = rep.Stalls[critpath.CatShuffle]
	reg := mon.Registry()
	pt.RefillMetric = reg.Histogram("dstream_refill_stall_seconds", "", dsmon.LatencyBuckets).Sum()
	pt.ShuffleMetric = reg.Histogram("dstream_twophase_shuffle_stall_seconds", "", dsmon.LatencyBuckets).Sum()
	return pt, nil
}

// CritPathSweep runs the attribution sweep over the read-ahead grid's
// platforms and strategies, at prefetch depth 0 and 2, so the cells show the
// stall attribution shifting as read-ahead hides the pfs wait.
func CritPathSweep() ([]CritPathPoint, error) {
	var out []CritPathPoint
	for _, prof := range []vtime.Profile{vtime.Paragon(), vtime.CM5()} {
		for _, strat := range []dstream.Strategy{dstream.StrategyParallel, dstream.StrategyTwoPhase} {
			for _, depth := range []int{0, 2} {
				pt, err := MeasureCritPath(scfCell(prof), strat, depth)
				if err != nil {
					return nil, err
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// CheckCritPath is the acceptance gate for the analyzer: every rank's wall
// time is attributed to named categories, and the span-graph stall sums
// agree with the independently-observed stall histograms.
func CheckCritPath(pts []CritPathPoint) (string, error) {
	for _, p := range pts {
		if p.NamedFractionMin < CritPathMinNamed {
			return "", fmt.Errorf("bench: critpath cell %s/%s depth %d attributes only %.1f%% of a rank's wall time",
				p.Platform, p.Strategy, p.Depth, 100*p.NamedFractionMin)
		}
		if !agrees(p.RefillSpan, p.RefillMetric) || !agrees(p.ShuffleSpan, p.ShuffleMetric) {
			return "", fmt.Errorf("bench: critpath cell %s/%s depth %d: span stalls (refill %.4f, shuffle %.4f) disagree with metric sums (refill %.4f, shuffle %.4f) by >%.0f%%",
				p.Platform, p.Strategy, p.Depth, p.RefillSpan, p.ShuffleSpan, p.RefillMetric, p.ShuffleMetric, 100*CritPathAgreement)
		}
	}
	return fmt.Sprintf("critpath attribution complete and metric-consistent on all %d grid cells", len(pts)), nil
}

func formatCritPath(w io.Writer, pts []CritPathPoint) {
	fmt.Fprintln(w, "Critical-path attribution sweep (virtual seconds, SCF write+read pipeline)")
	fmt.Fprintln(w, "--------------------------------------------------------------------------")
	fmt.Fprintf(w, "%-10s %-9s %5s %9s %6s %6s %8s %12s %12s %12s\n",
		"platform", "strategy", "depth", "makespan", "spans", "flows", "named%", "refill", "shuffle", "pfs wait")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %-9s %5d %9.4f %6d %6d %7.1f%% %12.4f %12.4f %12.4f\n",
			p.Platform, p.Strategy, p.Depth, p.Makespan, p.Spans, p.Flows,
			100*p.NamedFractionMin, p.RefillSpan, p.ShuffleSpan, p.Categories["pfs wait"])
	}
	fmt.Fprintln(w)
}
