package plan

import "math"

// Controller tuning. The hysteresis band and hold-down keep the planner
// from flapping between near-tied strategies: a challenger must beat the
// incumbent's calibrated cost by switchMargin, and after any switch the
// incumbent is locked in for holdDown records.
const (
	// ewmaAlpha is the weight of the newest observed/estimate ratio in
	// the per-strategy calibration factor.
	ewmaAlpha = 0.3
	// switchMargin is the hysteresis band: re-plan only when the best
	// challenger is at least this fraction cheaper than the incumbent.
	switchMargin = 0.15
	// holdDown is how many records a fresh choice is pinned before the
	// controller may switch again.
	holdDown = 2
	// ratioMin/ratioMax clamp one observation's influence on the
	// calibration, so a single skewed measurement (chaos faults, cold
	// caches) cannot invert the ranking by itself.
	ratioMin = 0.25
	ratioMax = 4.0
	// DefaultReadAhead is the prefetch depth the planner asks for when a
	// record is worth pipelining: depth 2 hid 86–96% of the refill stall
	// on the read-ahead ablation grid, and deeper queues only add waste.
	DefaultReadAhead = 2
)

// Decision is one record's plan.
type Decision struct {
	// Strategy is the chosen data path.
	Strategy Strategy
	// Aggregators is the two-phase fan-in (meaningful when Strategy is
	// TwoPhase; still populated otherwise so a later switch needs no
	// re-scan).
	Aggregators int
	// ReadAhead is the prefetch queue depth the planner wants (read
	// side; 0 on write plans).
	ReadAhead int
	// Estimate is the calibrated cost estimate, in virtual seconds.
	Estimate float64
	// RawEstimate is the uncalibrated model cost of the chosen strategy —
	// the value to hand back to Observe with the observed cost.
	RawEstimate float64
	// Switched reports that this plan changed strategy from the
	// previous record — the re-planning event harnesses and traces key on.
	Switched bool
}

// Planner is the per-stream online controller. It is not safe for
// concurrent use; each stream endpoint (one rank's view) owns one.
// Determinism contract: given the same sequence of Plan/Observe calls with
// rank-identical arguments, every rank's planner makes the identical
// decision chain — Signature lets a harness check exactly that.
type Planner struct {
	m Model

	calib     [numStrategies]float64
	haveCalib [numStrategies]bool

	current     Strategy
	haveCurrent bool
	cool        int

	records  int64
	switches int64
	sig      uint64

	// Read-ahead governor: exponentially decayed byte accounts of
	// consumed vs prefetched-then-skipped records.
	consumedEWMA float64
	wastedEWMA   float64
}

// New returns a planner over the given model.
func New(m Model) *Planner {
	return &Planner{m: m, sig: fnvOffset}
}

// FNV-1a, folded by hand so signing a decision allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnv64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// sign folds one decision into the plan signature.
func (p *Planner) sign(s Strategy, k, depth int) {
	h := fnv64(p.sig, uint64(p.records))
	h = fnvByte(h, byte(s))
	h = fnv64(h, uint64(int64(k)))
	h = fnv64(h, uint64(int64(depth)))
	p.sig = h
}

// factor returns the calibration multiplier for a strategy (1 until the
// first observation lands).
func (p *Planner) factor(s Strategy) float64 {
	if s < numStrategies && p.haveCalib[s] {
		return p.calib[s]
	}
	return 1
}

// choose runs the strategy scan + hysteresis and commits the decision.
// cost must return the raw model estimate for a strategy; candidates are
// scanned in order, so earlier entries win ties (funnel first — the
// paper's default and the cheapest to be wrong about).
func (p *Planner) choose(cost func(Strategy) float64, candidates []Strategy) (Strategy, float64, bool) {
	best := candidates[0]
	bestCost := cost(best) * p.factor(best)
	for _, s := range candidates[1:] {
		if c := cost(s) * p.factor(s); c < bestCost {
			best, bestCost = s, c
		}
	}
	chosen, chosenCost := best, bestCost
	if p.haveCurrent && best != p.current {
		incumbent := cost(p.current) * p.factor(p.current)
		if p.cool > 0 || bestCost > incumbent*(1-switchMargin) {
			chosen, chosenCost = p.current, incumbent
		}
	}
	switched := p.haveCurrent && chosen != p.current
	if switched {
		p.switches++
		p.cool = holdDown
	} else if p.cool > 0 {
		p.cool--
	}
	p.current, p.haveCurrent = chosen, true
	return chosen, chosenCost, switched
}

var writeCandidates = [...]Strategy{Funnel, Parallel, TwoPhase}
var readCandidates = [...]Strategy{Parallel, TwoPhase}

// PlanWrite plans one output record. kOverride pins the two-phase
// aggregator count (≤0 lets the model scan for the best fan-in).
func (p *Planner) PlanWrite(g Geometry, kOverride int) Decision {
	k := kOverride
	if k <= 0 {
		k = p.m.BestWriteAggregators(g)
	}
	k = clampK(k, max(g.NProcs, 1))
	cost := func(s Strategy) float64 { return p.m.WriteCost(g, s, k) }
	s, c, switched := p.choose(cost, writeCandidates[:])
	p.records++
	p.sign(s, k, 0)
	return Decision{Strategy: s, Aggregators: k, Estimate: c, RawEstimate: cost(s), Switched: switched}
}

// PlanRead plans one input record. kOverride pins the two-phase
// aggregator count; depthOverride pins the read-ahead depth (≤0 lets the
// waste governor decide).
func (p *Planner) PlanRead(g Geometry, kOverride, depthOverride int) Decision {
	k := kOverride
	if k <= 0 {
		k = p.m.BestReadAggregators(g)
	}
	k = clampK(k, max(g.NProcs, 1))
	cost := func(s Strategy) float64 { return p.m.ReadCost(g, s, k) }
	s, c, switched := p.choose(cost, readCandidates[:])
	depth := depthOverride
	if depth <= 0 {
		depth = p.readAheadDepth(g)
	}
	p.records++
	p.sign(s, k, depth)
	return Decision{Strategy: s, Aggregators: k, ReadAhead: depth, Estimate: c, RawEstimate: cost(s), Switched: switched}
}

// readAheadDepth is the waste governor: prefetch at the default depth
// while the consumer actually uses what the pipeline fetches, and fall
// back to synchronous reads when more bytes have been prefetched-then-
// skipped than consumed.
func (p *Planner) readAheadDepth(g Geometry) int {
	if g.DataBytes <= 0 {
		return 0
	}
	if p.wastedEWMA > p.consumedEWMA {
		return 0
	}
	return DefaultReadAhead
}

// Observe feeds back one record's observed virtual cost against the raw
// (uncalibrated) estimate, updating the strategy's calibration EWMA.
// Non-finite or non-positive inputs are ignored. The calibration shift is
// how divergence triggers re-planning: once a strategy's observed/estimate
// ratio drifts past the hysteresis band, the next Plan call switches away
// from it.
func (p *Planner) Observe(s Strategy, estimate, observed float64) {
	if s >= numStrategies {
		return
	}
	if !(estimate > 0) || !(observed >= 0) || math.IsInf(estimate, 1) || math.IsInf(observed, 1) {
		return
	}
	r := observed / estimate
	if r < ratioMin {
		r = ratioMin
	} else if r > ratioMax {
		r = ratioMax
	}
	if !p.haveCalib[s] {
		p.calib[s], p.haveCalib[s] = r, true
		return
	}
	p.calib[s] = (1-ewmaAlpha)*p.calib[s] + ewmaAlpha*r
}

// ObserveConsumed credits the waste governor with a record the consumer
// actually read.
func (p *Planner) ObserveConsumed(bytes int64) { p.account(&p.consumedEWMA, bytes) }

// ObserveWasted debits the waste governor with a prefetched record the
// consumer skipped.
func (p *Planner) ObserveWasted(bytes int64) { p.account(&p.wastedEWMA, bytes) }

func (p *Planner) account(acc *float64, bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	*acc = (1-ewmaAlpha)**acc + ewmaAlpha*float64(bytes)
}

// Switches returns how many plans changed strategy mid-stream.
func (p *Planner) Switches() int64 { return p.switches }

// Signature returns the FNV-1a hash of the full decision chain (record
// ordinal, strategy, fan-in, depth per record). Ranks of one stream must
// agree on it; a mismatch means a plan switch broke collective
// consistency.
func (p *Planner) Signature() uint64 { return p.sig }
