package plan

import (
	"math"
	"testing"

	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// profiles under test: the real platforms plus the zero profile (every
// constant absent) — the model must be total over all of them.
func testProfiles() []vtime.Profile {
	return []vtime.Profile{vtime.Paragon(), vtime.CM5(), vtime.Challenge(), {}}
}

func testGeometries() []Geometry {
	return []Geometry{
		{},
		{NProcs: 1, NElems: 1, DataBytes: 1, MetaBytes: 1},
		{NProcs: 4, NElems: 64, DataBytes: 1 << 20, MetaBytes: 300},
		{NProcs: 16, NElems: 256, DataBytes: 64 << 20, MetaBytes: 1100},
		{NProcs: 1024, NElems: 1 << 16, DataBytes: 1 << 34, MetaBytes: 1 << 18},
		// Degenerate shapes the sanitizers must absorb.
		{NProcs: -3, NElems: -1, DataBytes: -1 << 20, MetaBytes: -5},
		{NProcs: 0, NElems: 1 << 20, DataBytes: math.MaxInt64 / 4, MetaBytes: math.MaxInt64 / 4},
	}
}

// TestCostFiniteNonNegative: every estimate over profiles × geometries ×
// strategies × aggregator counts (including nonsense ones) is a finite,
// non-negative number. NaN anywhere here would silently disable the
// planner's ranking.
func TestCostFiniteNonNegative(t *testing.T) {
	for _, prof := range testProfiles() {
		for _, layout := range []pfs.Layout{{}, {StripeUnit: 64 << 10, StripeFactor: 4}, {StripeUnit: -1, StripeFactor: -7}} {
			m := Model{Prof: prof, Layout: layout}
			for _, g := range testGeometries() {
				for _, s := range []Strategy{Funnel, Parallel, TwoPhase} {
					for _, k := range []int{-1, 0, 1, 4, 16, 1 << 20} {
						for name, c := range map[string]float64{
							"write": m.WriteCost(g, s, k),
							"read":  m.ReadCost(g, s, k),
						} {
							if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
								t.Fatalf("%s/%s cost(%+v, %v, k=%d) = %g — not finite non-negative",
									prof.Name, name, g, s, k, c)
							}
						}
					}
				}
			}
		}
	}
}

// TestCostMonotoneInDataBytes: growing a record never makes any strategy's
// estimate cheaper. A non-monotone model could flap the controller between
// strategies on byte-count noise alone.
func TestCostMonotoneInDataBytes(t *testing.T) {
	sizes := []int64{0, 1, 1 << 10, 1 << 16, 1 << 20, 1 << 24, 1 << 30}
	for _, prof := range testProfiles() {
		m := Model{Prof: prof, Layout: pfs.Layout{StripeUnit: 64 << 10, StripeFactor: 4}}
		for _, nprocs := range []int{1, 4, 16} {
			for _, s := range []Strategy{Funnel, Parallel, TwoPhase} {
				prevW, prevR := -1.0, -1.0
				for _, n := range sizes {
					g := Geometry{NProcs: nprocs, NElems: 64, DataBytes: n, MetaBytes: 300}
					if w := m.WriteCost(g, s, 4); w < prevW {
						t.Fatalf("%s: WriteCost(%v, %d procs) fell from %g to %g at %d bytes",
							prof.Name, s, nprocs, prevW, w, n)
					} else {
						prevW = w
					}
					if r := m.ReadCost(g, s, 4); r < prevR {
						t.Fatalf("%s: ReadCost(%v, %d procs) fell from %g to %g at %d bytes",
							prof.Name, s, nprocs, prevR, r, n)
					} else {
						prevR = r
					}
				}
			}
		}
	}
}

// TestBestAggregatorsRange: the fan-in scan always lands in [1, NProcs]
// (and within the scan bound), even for degenerate geometries.
func TestBestAggregatorsRange(t *testing.T) {
	for _, prof := range testProfiles() {
		m := Model{Prof: prof, Layout: pfs.Layout{StripeUnit: 16 << 10, StripeFactor: 4}}
		for _, g := range testGeometries() {
			limit := g.NProcs
			if limit < 1 {
				limit = 1
			}
			for name, k := range map[string]int{
				"write": m.BestWriteAggregators(g),
				"read":  m.BestReadAggregators(g),
			} {
				if k < 1 || k > limit {
					t.Fatalf("%s/%s: Best…Aggregators(%+v) = %d outside [1, %d]", prof.Name, name, g, k, limit)
				}
			}
		}
	}
}

// TestPlannerDeterministicChain: two planners fed the identical call
// sequence produce identical decisions and signatures (the rank-identity
// contract), and a sequence that diverges at one Observe produces a
// different chain only through its decisions — never through a crash.
func TestPlannerDeterministicChain(t *testing.T) {
	m := Model{Prof: vtime.Paragon(), Layout: pfs.Layout{StripeUnit: 64 << 10, StripeFactor: 4}}
	drive := func(skew float64) (uint64, []Decision) {
		p := New(m)
		var ds []Decision
		for i := 0; i < 8; i++ {
			g := Geometry{NProcs: 4, NElems: 64, DataBytes: int64(1<<16) << uint(i%3), MetaBytes: 300}
			d := p.PlanWrite(g, 0)
			p.Observe(d.Strategy, d.RawEstimate, d.RawEstimate*skew)
			ds = append(ds, d)
		}
		return p.Signature(), ds
	}
	sigA, dsA := drive(1.0)
	sigB, dsB := drive(1.0)
	if sigA != sigB {
		t.Fatalf("identical call sequences signed %016x vs %016x", sigA, sigB)
	}
	for i := range dsA {
		if dsA[i] != dsB[i] {
			t.Fatalf("decision %d diverged between identical sequences: %+v vs %+v", i, dsA[i], dsB[i])
		}
	}
	if sigC, _ := drive(3.9); sigC == sigA {
		t.Log("skewed observations happened not to change any decision — signature legitimately equal")
	}
}

// TestPlannerReplansOnDivergence: when the incumbent's observed cost drifts
// far above its estimate, the calibration EWMA shifts the ranking and the
// controller switches strategy — and the switch respects the hold-down
// (no second switch within holdDown records).
func TestPlannerReplansOnDivergence(t *testing.T) {
	m := Model{Prof: vtime.Paragon(), Layout: pfs.Layout{StripeUnit: 64 << 10, StripeFactor: 4}}
	// Find a geometry whose two cheapest write strategies are within 2x of
	// each other, so a ratioMax (4x) calibration skew must flip the ranking
	// past the hysteresis band.
	var g Geometry
	found := false
	for _, particles := range []int{8, 32, 128, 512} {
		cand := Geometry{NProcs: 4, NElems: 64, DataBytes: int64(particles) * 64 * 8 * 4, MetaBytes: 300}
		costs := []float64{
			m.WriteCost(cand, Funnel, 4),
			m.WriteCost(cand, Parallel, 4),
			m.WriteCost(cand, TwoPhase, 4),
		}
		best, second := math.Inf(1), math.Inf(1)
		for _, c := range costs {
			if c < best {
				best, second = c, best
			} else if c < second {
				second = c
			}
		}
		if second < 2*best {
			g, found = cand, true
			break
		}
	}
	if !found {
		t.Skip("no near-tied geometry on this profile — hysteresis unexercisable here")
	}

	p := New(m)
	first := p.PlanWrite(g, 0)
	if first.Switched {
		t.Fatal("first plan reported a switch — there was no incumbent")
	}
	// Drive the incumbent's calibration to the clamp: observed 10x the
	// estimate, repeatedly (the clamp caps each step at ratioMax).
	switched := false
	for i := 0; i < 12 && !switched; i++ {
		d := p.PlanWrite(g, 0)
		switched = d.Switched
		if !switched && d.Strategy != first.Strategy {
			t.Fatalf("strategy changed from %v to %v without reporting Switched", first.Strategy, d.Strategy)
		}
		p.Observe(d.Strategy, d.RawEstimate, d.RawEstimate*10)
	}
	if !switched {
		t.Fatalf("calibration at the %gx clamp never forced a re-plan off %v", ratioMax, first.Strategy)
	}
	if p.Switches() != 1 {
		t.Fatalf("Switches() = %d after exactly one re-plan", p.Switches())
	}
	// Hold-down: the freshly chosen strategy is pinned for holdDown records
	// even if its own observations immediately look terrible.
	cur := p.PlanWrite(g, 0)
	if cur.Switched {
		t.Fatal("re-planned on the record immediately after a switch — hold-down not applied")
	}
	p.Observe(cur.Strategy, cur.RawEstimate, cur.RawEstimate*10)
	d := p.PlanWrite(g, 0)
	if d.Switched {
		t.Fatal("re-planned within the hold-down window")
	}
}

// TestObserveIgnoresGarbage: non-finite and non-positive feedback leaves
// the calibration untouched, and legitimate feedback is clamped to
// [ratioMin, ratioMax].
func TestObserveIgnoresGarbage(t *testing.T) {
	p := New(Model{Prof: vtime.Paragon()})
	for _, bad := range [][2]float64{
		{math.NaN(), 1}, {1, math.NaN()}, {math.Inf(1), 1}, {1, math.Inf(1)},
		{0, 1}, {-1, 1}, {1, -1},
	} {
		p.Observe(Funnel, bad[0], bad[1])
		if c := p.factor(Funnel); c != 1 {
			t.Fatalf("Observe(%g, %g) moved calibration to %g", bad[0], bad[1], c)
		}
	}
	p.Observe(Funnel, 1, 1e9)
	if c := p.factor(Funnel); c > ratioMax {
		t.Fatalf("calibration %g exceeds the %g clamp", c, ratioMax)
	}
	p.Observe(Parallel, 1e9, 1e-9)
	if c := p.factor(Parallel); c < ratioMin {
		t.Fatalf("calibration %g undercuts the %g clamp", c, ratioMin)
	}
	p.Observe(numStrategies, 1, 1) // out-of-range strategy: must not panic
}

// TestWasteGovernor: the read planner asks for the default depth while
// prefetched bytes are being consumed, and falls back to synchronous reads
// once more bytes were prefetched-then-skipped than consumed (and for
// empty records).
func TestWasteGovernor(t *testing.T) {
	m := Model{Prof: vtime.Paragon()}
	g := Geometry{NProcs: 4, NElems: 64, DataBytes: 1 << 20, MetaBytes: 300}

	p := New(m)
	if d := p.PlanRead(g, 0, 0); d.ReadAhead != DefaultReadAhead {
		t.Fatalf("fresh planner asked depth %d, want %d", d.ReadAhead, DefaultReadAhead)
	}
	if d := p.PlanRead(Geometry{NProcs: 4, NElems: 64}, 0, 0); d.ReadAhead != 0 {
		t.Fatalf("empty record asked depth %d, want 0", d.ReadAhead)
	}
	for i := 0; i < 8; i++ {
		p.ObserveWasted(1 << 20)
	}
	if d := p.PlanRead(g, 0, 0); d.ReadAhead != 0 {
		t.Fatalf("wasted-dominated planner asked depth %d, want 0", d.ReadAhead)
	}
	for i := 0; i < 32; i++ {
		p.ObserveConsumed(4 << 20)
	}
	if d := p.PlanRead(g, 0, 0); d.ReadAhead != DefaultReadAhead {
		t.Fatalf("recovered planner asked depth %d, want %d", d.ReadAhead, DefaultReadAhead)
	}
	if d := p.PlanRead(g, 0, 5); d.ReadAhead != 5 {
		t.Fatalf("explicit depth override returned %d, want 5", d.ReadAhead)
	}
}

// TestAggregatorOverride: a pinned fan-in is honored (clamped to the
// machine size), and the unpinned scan is used otherwise.
func TestAggregatorOverride(t *testing.T) {
	m := Model{Prof: vtime.Paragon(), Layout: pfs.Layout{StripeUnit: 64 << 10, StripeFactor: 4}}
	g := Geometry{NProcs: 4, NElems: 64, DataBytes: 1 << 20, MetaBytes: 300}
	p := New(m)
	if d := p.PlanWrite(g, 3); d.Aggregators != 3 {
		t.Fatalf("kOverride=3 planned %d aggregators", d.Aggregators)
	}
	if d := p.PlanWrite(g, 99); d.Aggregators != 4 {
		t.Fatalf("kOverride=99 on 4 procs planned %d aggregators, want clamp to 4", d.Aggregators)
	}
	if d := p.PlanWrite(g, 0); d.Aggregators < 1 || d.Aggregators > 4 {
		t.Fatalf("unpinned scan planned %d aggregators, outside [1,4]", d.Aggregators)
	}
}
