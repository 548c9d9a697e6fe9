package bench

import (
	"bytes"
	"fmt"
	"io"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/vtime"
)

// The planner-vs-oracle grid: every cell of a write-side strategy grid and
// of a read-side workload grid is replayed once per static choice and
// once under full-auto (the cost-model planner), and the planner's cycle
// time is compared against the best static choice the oracle found. The
// gate — planner within PlannerTolerance of the oracle on at least
// PlannerMinFraction of all cells, byte identity in every cell — is what
// makes StrategyAuto's new meaning safe to ship: the model may mis-rank
// near-ties, but it must never buy its choices with wrong bytes and must
// never be left badly behind by a static configuration someone could have
// written by hand.

const (
	// PlannerTolerance is how far above the best static cycle time a
	// cell's auto run may land and still count as matched.
	PlannerTolerance = 0.10
	// PlannerMinFraction is the fraction of grid cells that must match.
	PlannerMinFraction = 0.90
)

// PlannerWritePoint is one write-grid cell: the full SCF write+read cycle
// timed under each static strategy and under the planner, on one
// (platform, nodes, element size, stripe geometry) configuration.
type PlannerWritePoint struct {
	Platform     string  `json:"platform"`
	NProcs       int     `json:"nprocs"`
	Segments     int     `json:"segments"`
	Particles    int     `json:"particles"`
	StripeFactor int     `json:"stripe_factor"`
	StripeUnit   int64   `json:"stripe_unit"`
	Funnel       float64 `json:"funnel_seconds"`
	Parallel     float64 `json:"parallel_seconds"`
	TwoPhase     float64 `json:"twophase_seconds"`
	Auto         float64 `json:"auto_seconds"`
	// Best is the oracle: the cheapest static strategy's cycle time.
	Best         float64 `json:"best_static_seconds"`
	BestStrategy string  `json:"best_static_strategy"`
	// AutoOverBest is Auto/Best — ≤ 1+PlannerTolerance counts as matched.
	AutoOverBest float64 `json:"auto_over_best"`
	Matched      bool    `json:"matched"`
	// Identical reports the auto run's file image was byte-identical to
	// the best static run's.
	Identical bool `json:"identical"`
	// The planner's own account of the cell: which strategy it settled
	// on, its summed cost estimates, and the summed observed costs — the
	// model-vs-measured comparison EXPERIMENTS.md tabulates.
	AutoPick      string  `json:"auto_pick"`
	ModelEstimate float64 `json:"model_estimate_seconds"`
	ModelObserved float64 `json:"model_observed_seconds"`
}

// PlannerReadPoint is one read-grid cell: a multi-record input pipeline
// timed under every static (strategy × depth) pair and under the planner,
// on one (platform, element size, compute gap) workload.
type PlannerReadPoint struct {
	Platform         string  `json:"platform"`
	NProcs           int     `json:"nprocs"`
	Segments         int     `json:"segments"`
	Particles        int     `json:"particles"`
	Records          int     `json:"records"`
	StripeFactor     int     `json:"stripe_factor"`
	ComputePerRecord float64 `json:"compute_per_record_seconds"`
	// Static candidates: strategy × prefetch depth {0, 2}.
	ParallelSync  float64 `json:"parallel_sync_seconds"`
	ParallelAhead float64 `json:"parallel_ahead_seconds"`
	TwoPhaseSync  float64 `json:"twophase_sync_seconds"`
	TwoPhaseAhead float64 `json:"twophase_ahead_seconds"`
	Auto          float64 `json:"auto_seconds"`
	Best          float64 `json:"best_static_seconds"`
	BestChoice    string  `json:"best_static_choice"`
	AutoOverBest  float64 `json:"auto_over_best"`
	Matched       bool    `json:"matched"`
	// Identical reports every auto-read segment matched the generator
	// byte-for-byte (checked in-loop; a planner that wins with wrong
	// bytes fails the cell, not the tolerance).
	Identical     bool    `json:"identical"`
	ModelEstimate float64 `json:"model_estimate_seconds"`
	ModelObserved float64 `json:"model_observed_seconds"`
}

// PlannerGrid is the committed artifact (BENCH_planner.json).
type PlannerGrid struct {
	Write []PlannerWritePoint `json:"write"`
	Read  []PlannerReadPoint  `json:"read"`
}

// planScrape pulls the planner's self-accounting out of a run's monitor.
func planScrape(mon *dsmon.Monitor) (pick string, est, obs float64) {
	reg := mon.Registry()
	var most int64
	for _, s := range []string{"funnel", "parallel", "twophase"} {
		if v := reg.Counter("dstream_plan_records_total", "", "strategy", s).Value(); v > most {
			most, pick = v, s
		}
	}
	est = reg.Histogram("dstream_plan_estimate_seconds", "", dsmon.LatencyBuckets).Sum()
	obs = reg.Histogram("dstream_plan_observed_seconds", "", dsmon.LatencyBuckets).Sum()
	return pick, est, obs
}

// cycleWithImage runs one verified streams cycle of the cell and returns its
// virtual seconds plus the file image it wrote.
func cycleWithImage(r Run) (float64, []byte, error) {
	r.Variant, r.Verify, r.FS = Streams, true, r.fs()
	sec, err := Seconds(r)
	if err != nil {
		return 0, nil, err
	}
	img, err := r.FS.Image("scf-particles")
	if err != nil {
		return 0, nil, fmt.Errorf("bench: snapshot image: %w", err)
	}
	return sec, img, nil
}

// candidate is one static choice of a cell: the stream options that pin it,
// and where in the cell's point its seconds go.
type candidate struct {
	name string
	opts dstream.Options
	sec  *float64
}

// oracle times the cell's cycle under every static candidate and returns the
// index of the cheapest, the earlier one on a tie.
func oracle(platform string, cands []candidate, cycle func(i int, opts dstream.Options) (float64, error)) (best int, err error) {
	for i, c := range cands {
		if *c.sec, err = cycle(i, c.opts); err != nil {
			return 0, fmt.Errorf("bench: planner cell %s/%s: %w", platform, c.name, err)
		}
		if *c.sec < *cands[best].sec {
			best = i
		}
	}
	return best, nil
}

// MeasurePlannerWrite times one write-grid cell: three static strategies
// plus full auto, byte identity enforced against the best static image.
// Verify stays on: a strategy that wins by writing wrong bytes is not a
// winner.
func MeasurePlannerWrite(r Run) (PlannerWritePoint, error) {
	pt := PlannerWritePoint{
		Platform:     r.Profile.Name,
		NProcs:       r.NProcs,
		Segments:     r.Segments,
		Particles:    r.Particles,
		StripeFactor: r.StripeFactor,
		StripeUnit:   r.StripeUnit,
	}
	cands := []candidate{
		{"funnel", dstream.Options{Strategy: dstream.StrategyFunnel}, &pt.Funnel},
		{"parallel", dstream.Options{Strategy: dstream.StrategyParallel}, &pt.Parallel},
		{"twophase", dstream.Options{Strategy: dstream.StrategyTwoPhase}, &pt.TwoPhase},
	}
	images := make([][]byte, len(cands))
	best, err := oracle(pt.Platform, cands, func(i int, opts dstream.Options) (sec float64, err error) {
		r.StreamOpts = opts
		sec, images[i], err = cycleWithImage(r)
		return sec, err
	})
	if err != nil {
		return pt, err
	}
	pt.Best, pt.BestStrategy = *cands[best].sec, cands[best].name
	r.StreamOpts, r.Monitor = dstream.Options{}, dsmon.New()
	autoSec, autoImg, err := cycleWithImage(r)
	if err != nil {
		return pt, fmt.Errorf("bench: planner cell %s/auto: %w", pt.Platform, err)
	}
	pt.Auto = autoSec
	pt.AutoPick, pt.ModelEstimate, pt.ModelObserved = planScrape(r.Monitor)
	pt.AutoOverBest = pt.Auto / pt.Best
	pt.Matched = pt.Auto <= pt.Best*(1+PlannerTolerance)
	pt.Identical = bytes.Equal(autoImg, images[best])
	return pt, nil
}

// MeasurePlannerRead times one read-grid cell: four static (strategy ×
// depth) pairs plus full auto. The write side is held at the explicit
// parallel strategy, so only the read plan varies.
func MeasurePlannerRead(r Run) (PlannerReadPoint, error) {
	pt := PlannerReadPoint{
		Platform:         r.Profile.Name,
		NProcs:           r.NProcs,
		Segments:         r.Segments,
		Particles:        r.Particles,
		Records:          r.Records,
		StripeFactor:     r.StripeFactor,
		ComputePerRecord: r.Compute,
	}
	cands := []candidate{
		{"parallel/sync", dstream.Options{Strategy: dstream.StrategyParallel}, &pt.ParallelSync},
		{"parallel/ahead2", dstream.Options{Strategy: dstream.StrategyParallel, ReadAhead: 2}, &pt.ParallelAhead},
		{"twophase/sync", dstream.Options{Strategy: dstream.StrategyTwoPhase}, &pt.TwoPhaseSync},
		{"twophase/ahead2", dstream.Options{Strategy: dstream.StrategyTwoPhase, ReadAhead: 2}, &pt.TwoPhaseAhead},
	}
	best, err := oracle(pt.Platform, cands, func(_ int, opts dstream.Options) (float64, error) {
		return scfCycle(r, dstream.StrategyParallel, opts, false)
	})
	if err != nil {
		return pt, err
	}
	pt.Best, pt.BestChoice = *cands[best].sec, cands[best].name
	r.Monitor = dsmon.New()
	if pt.Auto, err = scfCycle(r, dstream.StrategyParallel, dstream.Options{}, false); err != nil {
		return pt, fmt.Errorf("bench: planner read cell %s/auto: %w", pt.Platform, err)
	}
	_, pt.ModelEstimate, pt.ModelObserved = planScrape(r.Monitor)
	pt.AutoOverBest = pt.Auto / pt.Best
	pt.Matched = pt.Auto <= pt.Best*(1+PlannerTolerance)
	pt.Identical = true // the read loop verified every segment in every run
	return pt, nil
}

// PlannerSweep replays the full grid: 16 write cells (platform × node count
// × element size × stripe factor) plus 8 read workload cells (platform ×
// element size × compute gap), each scored against its static oracle. The
// write grid is chosen so the answer is not one-sided — small collections on
// one I/O channel favor the funnel, many small blocks from many nodes favor
// aggregation, and large elements amortize the per-operation latency that
// two-phase exists to dodge — and doubles as the two-phase strategy's
// evidence (CheckTwoPhase).
func PlannerSweep() (PlannerGrid, error) {
	var g PlannerGrid
	for _, prof := range []vtime.Profile{vtime.Paragon(), vtime.CM5()} {
		for _, nprocs := range []int{4, 16} {
			for _, particles := range []int{8, 128} {
				for _, stripe := range []int{1, 4} {
					pt, err := MeasurePlannerWrite(Run{
						Profile: prof, NProcs: nprocs, Segments: 16 * nprocs, Particles: particles,
						StripeFactor: stripe, StripeUnit: 64 << 10,
					})
					if err != nil {
						return g, err
					}
					g.Write = append(g.Write, pt)
				}
			}
		}
		for _, particles := range []int{8, 64} {
			for _, compute := range []float64{0, 0.02} {
				cell := scfCell(prof)
				cell.Particles, cell.Compute = particles, compute
				pt, err := MeasurePlannerRead(cell)
				if err != nil {
					return g, err
				}
				g.Read = append(g.Read, pt)
			}
		}
	}
	return g, nil
}

// CheckPlanner is the regression gate over a planner grid: byte identity
// in every cell, and the matched fraction at or above min (the ≥90%
// within-10% acceptance bar when called with the package constants).
func CheckPlanner(g PlannerGrid, tol, min float64) (string, error) {
	cells, matched := 0, 0
	for _, pt := range g.Write {
		if !pt.Identical {
			return "", fmt.Errorf("bench: planner write cell %s/%dp/%dB/sf%d: auto image differs from %s image",
				pt.Platform, pt.NProcs, pt.Particles, pt.StripeFactor, pt.BestStrategy)
		}
		cells++
		if pt.Auto <= pt.Best*(1+tol) {
			matched++
		}
	}
	for _, pt := range g.Read {
		if !pt.Identical {
			return "", fmt.Errorf("bench: planner read cell %s/%dB/%.3fs: segments differ from generator",
				pt.Platform, pt.Particles, pt.ComputePerRecord)
		}
		cells++
		if pt.Auto <= pt.Best*(1+tol) {
			matched++
		}
	}
	if cells == 0 {
		return "", fmt.Errorf("bench: planner grid is empty")
	}
	if frac := float64(matched) / float64(cells); frac < min {
		return "", fmt.Errorf("bench: planner matched the static oracle on %d/%d cells (%.0f%%), need ≥%.0f%%",
			matched, cells, 100*frac, 100*min)
	}
	return fmt.Sprintf("planner matched the static oracle on %d of %d grid cells, all byte-identical", matched, cells), nil
}

// TwoPhaseMinWins is the acceptance bar for the two-phase strategy: at least
// this many write cells where aggregation beats both classic paths outright.
const TwoPhaseMinWins = 1

// CheckTwoPhase is the regression gate for the strategy over the planner
// grid's write cells, which time each static strategy on its own.
func CheckTwoPhase(pts []PlannerWritePoint) (string, error) {
	wins := 0
	for _, p := range pts {
		if p.TwoPhase < p.Funnel && p.TwoPhase < p.Parallel {
			wins++
		}
	}
	if wins < TwoPhaseMinWins {
		return "", fmt.Errorf("bench: two-phase beat both funnel and parallel on %d of %d grid cells, need ≥%d — aggregation is not paying for its shuffle",
			wins, len(pts), TwoPhaseMinWins)
	}
	return fmt.Sprintf("two-phase wins %d of %d grid cells outright", wins, len(pts)), nil
}

func formatPlanner(w io.Writer, g PlannerGrid) {
	fmt.Fprintln(w, "Planner-vs-oracle grid: StrategyAuto against the best static choice per cell")
	fmt.Fprintln(w, "-----------------------------------------------------------------------------")
	fmt.Fprintf(w, "%-10s %6s %9s %7s %10s %10s %-9s %-9s %7s %5s\n",
		"platform", "procs", "particles", "stripe", "auto", "best", "oracle", "pick", "ratio", "ok")
	for _, p := range g.Write {
		fmt.Fprintf(w, "%-10s %6d %9d %7d %10.4f %10.4f %-9s %-9s %7.3f %5v\n",
			p.Platform, p.NProcs, p.Particles, p.StripeFactor,
			p.Auto, p.Best, p.BestStrategy, p.AutoPick, p.AutoOverBest, p.Matched)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %9s %9s %10s %10s %-15s %7s %5s\n",
		"platform", "particles", "compute", "auto", "best", "oracle", "ratio", "ok")
	for _, p := range g.Read {
		fmt.Fprintf(w, "%-10s %9d %9.3f %10.4f %10.4f %-15s %7.3f %5v\n",
			p.Platform, p.Particles, p.ComputePerRecord,
			p.Auto, p.Best, p.BestChoice, p.AutoOverBest, p.Matched)
	}
	fmt.Fprintln(w)
}
