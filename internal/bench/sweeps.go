package bench

import (
	"fmt"
	"io"
	"strings"
)

// Sweep is one row of the table behind `dstream-bench -sweep <name>`: a grid
// of measurements, how to print it, and the gate it must pass. What varies
// between sweeps is a value here; the run → format → JSON → check sequence
// that drives a row exists once, in cmd/dstream-bench. Run's result is what
// `-json` encodes (the committed BENCH_<name>.json).
type Sweep struct {
	Name  string
	About string
	Run   func() (any, error)
	// Format prints Run's result human-readably.
	Format func(w io.Writer, result any)
	// Check gates Run's result; summary is the one-line verdict of a passing
	// grid (empty when the row has nothing to gate).
	Check func(result any) (summary string, err error)
}

// row types one sweep's three functions on its own grid type.
func row[T any](name, about string, run func() (T, error), format func(io.Writer, T), check func(T) (string, error)) Sweep {
	return Sweep{
		Name:   name,
		About:  about,
		Run:    func() (any, error) { return run() },
		Format: func(w io.Writer, r any) { format(w, r.(T)) },
		Check:  func(r any) (string, error) { return check(r.(T)) },
	}
}

// Sweeps is the table. Two rows take a setting, each because two callers
// need different values: scaleMax is the scale curve's largest rank count
// (CI smokes 128, the committed curve is 1024), and allocBaseline, when
// non-empty, is the committed table the alloc row is gated against (empty
// just measures).
func Sweeps(scaleMax int, allocBaseline string) []Sweep {
	return []Sweep{
		// The acceptance bar for the cost model: byte identity in every
		// cell, and Auto within 10% of the best static choice on ≥90% of the
		// grid — a planner may mis-rank near-ties, never lose big. The write
		// cells time every static strategy too, so the row also carries the
		// two-phase strategy's bar: it beats funnel and parallel outright
		// somewhere.
		row("planner", "StrategyAuto's planner against the best static choice per cell, and two-phase against funnel and parallel",
			PlannerSweep, formatPlanner, func(g PlannerGrid) (string, error) {
				planner, err := CheckPlanner(g, PlannerTolerance, PlannerMinFraction)
				if err != nil {
					return "", err
				}
				twoPhase, err := CheckTwoPhase(g.Write)
				return planner + "; " + twoPhase, err
			}),
		row("readahead", "read-ahead prefetch ablation",
			ReadAheadSweep, formatReadAhead, CheckReadAhead),
		row("critpath", "critical-path attribution over the read-ahead grid",
			CritPathSweep, formatCritPath, CheckCritPath),
		row("pipeline", "stream-to-stream channels against write-then-read",
			PipelineSweep, formatPipeline, CheckPipeline),
		// The acceptance bar for the mailbox rings: the per-message wall
		// cost must not climb past 1.5x its 8-rank value anywhere on the
		// curve — the signature of a lock convoy or root funnel at scale.
		row("scale", "runtime scale curve: wall-clock per-message cost as the machine doubles from 4 ranks",
			func() ([]ScalePoint, error) { return ScaleSweep(scaleMax) }, formatScale,
			func(pts []ScalePoint) (string, error) { return CheckScaleCurve(pts, 1.5) }),
		row("alloc", "real allocs/op on the pooled hot paths",
			AllocTable, WriteAllocTable, func(cells []AllocCell) (string, error) {
				if allocBaseline == "" {
					return "", nil
				}
				baseline, err := ReadAllocJSON(allocBaseline)
				if err != nil {
					return "", err
				}
				if err := CheckAllocRegression(cells, baseline); err != nil {
					return "", err
				}
				return fmt.Sprintf("allocation table within 10%% of %s", allocBaseline), nil
			}),
	}
}

// SweepByName looks a row up; an unknown name is rejected with the valid
// ones.
func SweepByName(sweeps []Sweep, name string) (Sweep, error) {
	names := make([]string, len(sweeps))
	for i, s := range sweeps {
		if s.Name == name {
			return s, nil
		}
		names[i] = s.Name
	}
	return Sweep{}, fmt.Errorf("unknown sweep %q (want %s)", name, strings.Join(names, "|"))
}
