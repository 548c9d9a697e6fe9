package bench

import (
	"testing"

	"pcxxstreams/internal/vtime"
)

// TestPlannerGrid is the planner-vs-oracle acceptance test: the full 16-cell
// write grid (the two-phase strategy's evidence too) and the 8-cell read workload
// grid, each cell replayed under every static choice and under full-auto.
// StrategyAuto must land within PlannerTolerance of the best static choice
// on at least PlannerMinFraction of the cells, and its file image (write
// side) and extracted segments (read side) must be byte-identical in every
// cell — a planner that wins with wrong bytes fails outright.
func TestPlannerGrid(t *testing.T) {
	g, err := PlannerSweep()
	if err != nil {
		t.Fatal(err)
	}
	wm, rm := 0, 0
	for _, pt := range g.Write {
		if pt.Matched {
			wm++
		} else {
			t.Logf("write cell %s/%dp/%dB/sf%d: auto %.4fs vs best %s %.4fs (%.3fx, pick=%s)",
				pt.Platform, pt.NProcs, pt.Particles, pt.StripeFactor,
				pt.Auto, pt.BestStrategy, pt.Best, pt.AutoOverBest, pt.AutoPick)
		}
	}
	for _, pt := range g.Read {
		if pt.Matched {
			rm++
		} else {
			t.Logf("read cell %s/%dB/compute %.3fs: auto %.4fs vs best %s %.4fs (%.3fx)",
				pt.Platform, pt.Particles, pt.ComputePerRecord,
				pt.Auto, pt.BestChoice, pt.Best, pt.AutoOverBest)
		}
	}
	t.Logf("planner matched the oracle on %d/%d write and %d/%d read cells",
		wm, len(g.Write), rm, len(g.Read))
	if _, err := CheckPlanner(g, PlannerTolerance, PlannerMinFraction); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerModelTracksObserved: on every grid cell where the planner ran,
// its own summed cost estimates and the observed costs it was calibrated
// with must both be positive and finite — the model-vs-measured columns of
// the committed artifact are real measurements, not zero-filled fields.
func TestPlannerModelTracksObserved(t *testing.T) {
	pt, err := MeasurePlannerWrite(Run{
		Profile: vtime.Paragon(), NProcs: 4, Segments: 64, Particles: 8, StripeFactor: 4, StripeUnit: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.ModelEstimate <= 0 || pt.ModelObserved <= 0 {
		t.Fatalf("planner self-accounting empty: estimate %g, observed %g", pt.ModelEstimate, pt.ModelObserved)
	}
	if pt.AutoPick == "" {
		t.Fatal("planner recorded no strategy pick")
	}
	// The closed-form model replicates the pfs cost laws, so on a cell this
	// regular the summed estimates should be the same order of magnitude as
	// the observations (calibration then absorbs the residual).
	if ratio := pt.ModelObserved / pt.ModelEstimate; ratio < 0.1 || ratio > 10 {
		t.Errorf("model estimate %.4fs vs observed %.4fs — off by more than 10x", pt.ModelEstimate, pt.ModelObserved)
	}
}

// TestCheckPlannerGate pins the gate's own semantics on synthetic grids:
// byte mismatch fails regardless of timing, a sub-threshold matched
// fraction fails, an empty grid fails, and a healthy grid passes.
func TestCheckPlannerGate(t *testing.T) {
	ok := PlannerWritePoint{Platform: "p", Auto: 1.0, Best: 1.0, Identical: true}
	slow := PlannerWritePoint{Platform: "p", Auto: 2.0, Best: 1.0, Identical: true}
	bad := PlannerWritePoint{Platform: "p", Auto: 1.0, Best: 1.0, Identical: false}

	if _, err := CheckPlanner(PlannerGrid{Write: []PlannerWritePoint{ok, ok}}, 0.10, 0.90); err != nil {
		t.Errorf("healthy grid failed: %v", err)
	}
	if _, err := CheckPlanner(PlannerGrid{Write: []PlannerWritePoint{ok, bad}}, 0.10, 0.0); err == nil {
		t.Error("byte mismatch passed the gate")
	}
	if _, err := CheckPlanner(PlannerGrid{Write: []PlannerWritePoint{ok, slow, slow, slow}}, 0.10, 0.90); err == nil {
		t.Error("25% matched fraction passed a 90% gate")
	}
	if _, err := CheckPlanner(PlannerGrid{}, 0.10, 0.90); err == nil {
		t.Error("empty grid passed the gate")
	}
}
