package bench

import (
	"fmt"
	"io"

	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/vtime"
)

// StrategyPoint is one cell of the two-phase ablation grid: the SCF
// write+read pipeline timed under each write strategy on one (platform,
// nodes, element size, stripe geometry) configuration.
type StrategyPoint struct {
	Platform     string  `json:"platform"`
	NProcs       int     `json:"nprocs"`
	Segments     int     `json:"segments"`
	Particles    int     `json:"particles"`
	StripeFactor int     `json:"stripe_factor"`
	StripeUnit   int64   `json:"stripe_unit"`
	Funnel       float64 `json:"funnel_seconds"`
	Parallel     float64 `json:"parallel_seconds"`
	TwoPhase     float64 `json:"twophase_seconds"`
	// Winner names the fastest strategy of the cell.
	Winner string `json:"winner"`
}

// MeasureStrategies times one grid cell under all three strategies. Verify
// stays on: a strategy that wins by writing wrong bytes is not a winner.
func MeasureStrategies(prof vtime.Profile, nprocs, segments, particles, stripeFactor int, unit int64) (StrategyPoint, error) {
	pt := StrategyPoint{
		Platform:     prof.Name,
		NProcs:       nprocs,
		Segments:     segments,
		Particles:    particles,
		StripeFactor: stripeFactor,
		StripeUnit:   unit,
	}
	for _, s := range []dstream.Strategy{dstream.StrategyFunnel, dstream.StrategyParallel, dstream.StrategyTwoPhase} {
		sec, err := Seconds(Run{
			Profile:      prof,
			NProcs:       nprocs,
			Segments:     segments,
			Particles:    particles,
			Variant:      Streams,
			StreamOpts:   dstream.Options{Strategy: s},
			StripeFactor: stripeFactor,
			StripeUnit:   unit,
			Verify:       true,
		})
		if err != nil {
			return pt, fmt.Errorf("bench: %s %v: %w", prof.Name, s, err)
		}
		switch s {
		case dstream.StrategyFunnel:
			pt.Funnel = sec
		case dstream.StrategyParallel:
			pt.Parallel = sec
		case dstream.StrategyTwoPhase:
			pt.TwoPhase = sec
		}
	}
	pt.Winner = dstream.StrategyFunnel.String()
	best := pt.Funnel
	if pt.Parallel < best {
		pt.Winner, best = dstream.StrategyParallel.String(), pt.Parallel
	}
	if pt.TwoPhase < best {
		pt.Winner = dstream.StrategyTwoPhase.String()
	}
	return pt, nil
}

// TwoPhaseSweep runs the default ablation grid: platform × node count ×
// element size × stripe factor. The grid is chosen so the answer is not
// one-sided — small collections on one I/O channel favor the funnel, many
// small blocks from many nodes favor aggregation, and large elements
// amortize the per-operation latency that two-phase exists to dodge.
func TwoPhaseSweep() ([]StrategyPoint, error) {
	var out []StrategyPoint
	for _, prof := range []vtime.Profile{vtime.Paragon(), vtime.CM5()} {
		for _, nprocs := range []int{4, 16} {
			for _, particles := range []int{8, 128} {
				for _, stripe := range []int{1, 4} {
					pt, err := MeasureStrategies(prof, nprocs, 16*nprocs, particles, stripe, 64<<10)
					if err != nil {
						return nil, err
					}
					out = append(out, pt)
				}
			}
		}
	}
	return out, nil
}

// TwoPhaseMinWins is the acceptance bar for the strategy: at least this many
// configurations where aggregation beats both classic paths outright.
const TwoPhaseMinWins = 1

// CheckTwoPhase is the regression gate over the two-phase ablation grid.
func CheckTwoPhase(pts []StrategyPoint) (string, error) {
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

func formatTwoPhase(w io.Writer, pts []StrategyPoint) {
	fmt.Fprintln(w, "Two-phase collective buffering ablation (virtual seconds, SCF write+read)")
	fmt.Fprintln(w, "--------------------------------------------------------------------------")
	fmt.Fprintf(w, "%-10s %6s %8s %9s %7s %10s %10s %10s   %s\n",
		"platform", "procs", "segments", "particles", "stripe", "funnel", "parallel", "twophase", "winner")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %6d %8d %9d %7d %10.4f %10.4f %10.4f   %s\n",
			p.Platform, p.NProcs, p.Segments, p.Particles, p.StripeFactor,
			p.Funnel, p.Parallel, p.TwoPhase, p.Winner)
	}
	fmt.Fprintln(w)
}
