package chaos

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/scf"
)

// fakeScenario returns canned per-part errors, so the runner's verdicts —
// including the Corrupt and Hang branches a green campaign never reaches —
// are exercised directly.
type fakeScenario struct {
	errs     []error
	flips    int64         // silent faults each run injects
	block    chan struct{} // when non-nil, Run blocks on it (a hang)
	watchdog time.Duration
	refErr   error
	runs     atomic.Int32 // Run is on the runner's goroutine, and a hung one never hands back
}

func (f *fakeScenario) Reference() error        { return f.refErr }
func (f *fakeScenario) Parts() int              { return len(f.errs) }
func (f *fakeScenario) Watchdog() time.Duration { return f.watchdog }

func (f *fakeScenario) Run(seed int64, mon *dsmon.Monitor) []error {
	f.runs.Add(1)
	commPlane.counter(mon, "drop").Add(2)
	connPlane.counter(mon, "cut").Inc()
	silentRead.counter(mon, "flip_read").Add(f.flips)
	if f.block != nil {
		<-f.block
	}
	return f.errs
}

// TestRunnerVerdicts pins the one verdict switch, the one report and the one
// seed loop over fake scenarios.
func TestRunnerVerdicts(t *testing.T) {
	clean := errors.New("retry budget exhausted")
	corrupt := fmt.Errorf("%w: tenant 2 image differs", errCorrupt)
	block := make(chan struct{})
	defer close(block)

	cases := []struct {
		name     string
		sc       *fakeScenario
		seeds    int
		wantRuns int
		worst    Outcome
		// per-part tallies and all-OK seeds over the whole campaign
		ok, cleanErrs, silent, corruptions, hangs, allOK int
	}{
		{name: "all nil is OK", sc: &fakeScenario{errs: []error{nil}},
			seeds: 3, wantRuns: 3, worst: OutcomeOK, ok: 3, allOK: 3},
		{name: "plain error is a clean error", sc: &fakeScenario{errs: []error{clean}},
			seeds: 2, wantRuns: 2, worst: OutcomeCleanError, cleanErrs: 2},
		{name: "errCorrupt-wrapped error is corruption", sc: &fakeScenario{errs: []error{corrupt}},
			seeds: 1, wantRuns: 1, worst: OutcomeCorrupt, corruptions: 1},
		{name: "a segment mismatch found in-band is corruption",
			sc:    &fakeScenario{errs: []error{fmt.Errorf("%w: record 1 global 3 on rank 0", scf.ErrMismatch)}},
			seeds: 1, wantRuns: 1, worst: OutcomeCorrupt, corruptions: 1},
		{name: "three parts tally separately, worst wins", sc: &fakeScenario{errs: []error{nil, clean, corrupt}},
			seeds: 1, wantRuns: 1, worst: OutcomeCorrupt, ok: 1, cleanErrs: 1, corruptions: 1},
		{name: "wrong bytes in a seed with a silent fault were silently accepted",
			sc:    &fakeScenario{errs: []error{corrupt, nil, clean}, flips: 1},
			seeds: 2, wantRuns: 2, worst: OutcomeSilent, ok: 2, cleanErrs: 2, silent: 2},
		{name: "outliving the watchdog hangs every part and stops the campaign",
			sc:    &fakeScenario{errs: []error{nil, nil}, block: block, watchdog: 50 * time.Millisecond},
			seeds: 5, wantRuns: 1, worst: OutcomeHang, hangs: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.sc.watchdog == 0 {
				tc.sc.watchdog = 10 * time.Second
			}
			rep, err := RunSeeds(tc.sc, 7, tc.seeds)
			if err != nil {
				t.Fatal(err)
			}
			if int(tc.sc.runs.Load()) != tc.wantRuns || len(rep.Results) != tc.wantRuns {
				t.Fatalf("ran %d seeds, reported %d, want %d", tc.sc.runs.Load(), len(rep.Results), tc.wantRuns)
			}
			last := rep.Results[len(rep.Results)-1]
			if last.Worst != tc.worst {
				t.Errorf("worst = %v, want %v (outcomes %v)", last.Worst, tc.worst, last.Outcomes)
			}
			if last.Seed != 7+int64(tc.wantRuns)-1 {
				t.Errorf("last seed = %d, want %d", last.Seed, 7+tc.wantRuns-1)
			}
			if rep.OK != tc.ok || rep.CleanErrors != tc.cleanErrs || rep.Silent != tc.silent ||
				rep.Corruptions != tc.corruptions || rep.Hangs != tc.hangs || rep.SeedsAllOK != tc.allOK {
				t.Errorf("tallies ok/clean/silent/corrupt/hang/allOK = %d/%d/%d/%d/%d/%d, want %d/%d/%d/%d/%d/%d",
					rep.OK, rep.CleanErrors, rep.Silent, rep.Corruptions, rep.Hangs, rep.SeedsAllOK,
					tc.ok, tc.cleanErrs, tc.silent, tc.corruptions, tc.hangs, tc.allOK)
			}
			for i, o := range last.Outcomes {
				if (o == OutcomeOK) != (last.Errs[i] == nil) {
					t.Errorf("part %d: outcome %v with error %v", i, o, last.Errs[i])
				}
			}
			// Injections are summed across seeds, on every plane.
			if got, want := rep.Injects["comm:drop"], int64(2*tc.wantRuns); got != want {
				t.Errorf("comm:drop summed to %d, want %d", got, want)
			}
			if got, want := rep.Injects["conn:cut"], int64(tc.wantRuns); got != want {
				t.Errorf("conn:cut summed to %d, want %d", got, want)
			}
		})
	}

	// A scenario whose fault-free reference fails never runs a seed.
	sc := &fakeScenario{errs: []error{nil}, refErr: clean, watchdog: time.Second}
	if _, err := RunSeeds(sc, 1, 3); !errors.Is(err, clean) || sc.runs.Load() != 0 {
		t.Errorf("broken reference: err %v after %d runs, want the reference error and no runs", err, sc.runs.Load())
	}
}
