package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSweepTable pins the table's shape: unique non-empty names, every row
// complete, and a row for every committed BENCH_<name>.json artifact — so an
// artifact cannot outlive the sweep that regenerates it.
func TestSweepTable(t *testing.T) {
	sweeps := Sweeps(128, "")
	seen := map[string]bool{}
	for _, sw := range sweeps {
		if sw.Name == "" || sw.About == "" {
			t.Errorf("row %+v lacks a name or a description", sw)
		}
		if seen[sw.Name] {
			t.Errorf("sweep name %q appears twice", sw.Name)
		}
		seen[sw.Name] = true
		if sw.Run == nil || sw.Format == nil || sw.Check == nil {
			t.Errorf("sweep %q lacks Run, Format or Check", sw.Name)
		}
		if got, err := SweepByName(sweeps, sw.Name); err != nil || got.Name != sw.Name {
			t.Errorf("SweepByName(%q) = %q, %v", sw.Name, got.Name, err)
		}
	}
	if len(sweeps) != 6 {
		t.Errorf("%d rows, want 6", len(sweeps))
	}
	// The twophase row was a projection of the planner row's write cells and
	// is gone; its name is refused like any other, with the valid ones.
	if _, err := SweepByName(sweeps, "twophase"); err == nil || !strings.Contains(err.Error(), "planner|readahead|critpath|pipeline|scale|alloc") {
		t.Errorf("-sweep twophase: err = %v, want a refusal listing the valid names", err)
	}

	artifacts, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(artifacts) == 0 {
		t.Fatalf("no committed BENCH_*.json found from %s: %v", "../..", err)
	}
	for _, path := range artifacts {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		if name == "alloc_baseline" {
			continue // the alloc row's gate input, not a sweep's output
		}
		if !seen[name] {
			t.Errorf("%s has no sweep named %q to regenerate it", filepath.Base(path), name)
		}
	}
}

// TestCheckTwoPhaseGate: aggregation must win at least TwoPhaseMinWins cells
// outright — beating one classic path is not a win — and the committed
// planner grid's write cells, the strategy's evidence, clear the bar.
func TestCheckTwoPhaseGate(t *testing.T) {
	win := PlannerWritePoint{Funnel: 3, Parallel: 2, TwoPhase: 1}
	half := PlannerWritePoint{Funnel: 3, Parallel: 1, TwoPhase: 2}
	tie := PlannerWritePoint{Funnel: 1, Parallel: 1, TwoPhase: 1}

	if sum, err := CheckTwoPhase([]PlannerWritePoint{half, win, tie}); err != nil || !strings.Contains(sum, "1 of 3") {
		t.Errorf("grid with one outright win: %q, %v", sum, err)
	}
	if _, err := CheckTwoPhase([]PlannerWritePoint{half, tie}); err == nil {
		t.Errorf("grid with %d outright wins passed the gate", TwoPhaseMinWins-1)
	}
	if _, err := CheckTwoPhase(nil); err == nil {
		t.Error("empty grid passed the gate")
	}

	raw, err := os.ReadFile("../../BENCH_planner.json")
	if err != nil {
		t.Fatal(err)
	}
	var g PlannerGrid
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if sum, err := CheckTwoPhase(g.Write); err != nil || len(g.Write) != 16 {
		t.Errorf("committed BENCH_planner.json write grid (%d cells): %q, %v", len(g.Write), sum, err)
	}
}

// TestCheckReadAheadGate: wrong bytes fail regardless of stall, and the
// prefetch must lower the stall on at least half the cells.
func TestCheckReadAheadGate(t *testing.T) {
	faster := ReadAheadPoint{StallSync: 2, StallAhead: 1, Identical: true}
	slower := ReadAheadPoint{StallSync: 1, StallAhead: 1, Identical: true}
	wrong := ReadAheadPoint{StallSync: 2, StallAhead: 1, Identical: false}

	if sum, err := CheckReadAhead([]ReadAheadPoint{faster, slower}); err != nil || !strings.Contains(sum, "1 of 2") {
		t.Errorf("half the grid faster: %q, %v", sum, err)
	}
	if _, err := CheckReadAhead([]ReadAheadPoint{faster, slower, slower}); err == nil {
		t.Error("a third of the grid faster passed a one-half gate")
	}
	if _, err := CheckReadAhead([]ReadAheadPoint{faster, wrong}); err == nil {
		t.Error("a cell with wrong bytes passed the gate")
	}
}

// TestCheckCritPathGate: a rank attributed below CritPathMinNamed fails, and
// so does a stall sum further than CritPathAgreement from its histogram.
func TestCheckCritPathGate(t *testing.T) {
	good := CritPathPoint{NamedFractionMin: 1, RefillSpan: 1.00, RefillMetric: 1.04, ShuffleSpan: 0.5, ShuffleMetric: 0.5}
	unnamed := good
	unnamed.NamedFractionMin = CritPathMinNamed - 0.01
	refillOff := good
	refillOff.RefillMetric = 1.10
	shuffleOff := good
	shuffleOff.ShuffleMetric = 0

	if sum, err := CheckCritPath([]CritPathPoint{good, good}); err != nil || !strings.Contains(sum, "all 2") {
		t.Errorf("healthy grid: %q, %v", sum, err)
	}
	for name, pt := range map[string]CritPathPoint{
		"under-attributed rank": unnamed, "refill sums disagree": refillOff, "shuffle sums disagree": shuffleOff,
	} {
		if _, err := CheckCritPath([]CritPathPoint{good, pt}); err == nil {
			t.Errorf("%s passed the gate", name)
		}
	}
}
