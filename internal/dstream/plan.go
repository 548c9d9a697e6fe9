package dstream

import (
	"fmt"
	"strconv"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/plan"
)

// Planner integration. A stream opened with StrategyAuto carries a
// plan.Planner: a closed-form cost model over the node's platform profile
// and the file's stripe layout that picks strategy, aggregator fan-in, and
// read-ahead depth per record, re-planning online when observed cost
// diverges from the estimate.
//
// Collective-consistency contract: every planner input is rank-identical —
// the record geometry comes from an Allreduce (writes) or node 0's
// front-matter broadcast (reads), and the observed costs are virtual-clock
// deltas between rank-identical instants: from the Allreduce's release
// (writes) or the node-0 instant that broadcast carries (reads), to the
// closing rendezvous or the asynchronous transfer's completion. Every rank
// therefore computes the identical plan chain with no extra agreement round,
// in whatever order the ranks arrive; PlanSignature exposes the chain's hash
// so harnesses can verify no switch ever split the group.

// plannerEnabled reports whether the cost-model planner owns the strategy
// choice: it does under StrategyAuto, and an explicit Strategy is used as
// given, so a pinned configuration keeps its exact cost profile.
func (o Options) plannerEnabled() bool { return o.Strategy == StrategyAuto }

// streamDir names the open primitive an Options value is validated for, so
// direction-inapplicable settings fail loudly instead of passing silently.
type streamDir uint8

const (
	dirOutput streamDir = iota
	dirInput
	dirChanSend
	dirChanRecv
)

func (d streamDir) String() string {
	switch d {
	case dirOutput:
		return "Open"
	case dirInput:
		return "OpenInput"
	case dirChanSend:
		return "OpenChannel"
	case dirChanRecv:
		return "OpenChannelInput"
	}
	return fmt.Sprintf("streamDir(%d)", uint8(d))
}

// validateFor rejects option values the named open primitive would
// otherwise misread silently: negative values indistinguishable from the
// zero value (a negative aggregator count used to fall back to the stripe
// factor, a negative read-ahead to synchronous reads), and options that
// belong to the other direction
// entirely (read-ahead on an output stream, append or write-behind on an
// input stream, any file-path setting on an interconnect-only channel).
func (o Options) validateFor(dir streamDir) error {
	if o.Aggregators < 0 {
		return fmt.Errorf("dstream: negative aggregator count %d", o.Aggregators)
	}
	if o.ReadAhead < 0 {
		return fmt.Errorf("dstream: negative read-ahead depth %d", o.ReadAhead)
	}
	if o.ChannelWindow < 0 {
		return fmt.Errorf("dstream: negative channel window %d", o.ChannelWindow)
	}
	reject := func(opt string) error {
		return fmt.Errorf("dstream: option %s does not apply to %s", opt, dir)
	}
	switch dir {
	case dirOutput:
		if o.ReadAhead > 0 {
			return reject("WithReadAhead")
		}
		if o.Strict {
			return reject("WithStrict")
		}
		if o.ChannelWindow > 0 {
			return reject("WithChannelWindow")
		}
	case dirInput:
		if o.Append {
			return reject("WithAppend")
		}
		if o.Async {
			return reject("WithAsync")
		}
		if o.ChannelWindow > 0 {
			return reject("WithChannelWindow")
		}
	case dirChanSend, dirChanRecv:
		// Channels live on the interconnect: no file, no collective data
		// path, no prefetch pipeline, no storage override.
		if o.Append {
			return reject("WithAppend")
		}
		if o.Async {
			return reject("WithAsync")
		}
		if o.ReadAhead > 0 {
			return reject("WithReadAhead")
		}
		if o.Strategy != StrategyAuto {
			return reject("WithStrategy")
		}
		if o.Aggregators > 0 {
			return reject("WithAggregators")
		}
		if o.FS != nil {
			return reject("WithFileSystem")
		}
		if dir == dirChanSend && o.Strict {
			return reject("WithStrict")
		}
	}
	return nil
}

// fromPlanStrategy maps the planner's strategy space onto the stream's.
func fromPlanStrategy(s plan.Strategy) Strategy {
	switch s {
	case plan.Funnel:
		return StrategyFunnel
	case plan.TwoPhase:
		return StrategyTwoPhase
	}
	return StrategyParallel
}

// planMetrics is the dstream_plan_* handle set, created once at open so
// the per-record bookkeeping allocates nothing.
type planMetrics struct {
	records  [3]*dsmon.Counter // indexed by plan.Strategy
	switches *dsmon.Counter
	estimate *dsmon.Histogram
	observed *dsmon.Histogram
	sig      *dsmon.Gauge
	depth    *dsmon.Gauge
}

func newPlanMetrics(met *streamMetrics, rank int) *planMetrics {
	reg := met.mon.Registry()
	pm := &planMetrics{
		switches: reg.Counter("dstream_plan_switches_total",
			"records where the planner changed strategy mid-stream"),
		estimate: reg.Histogram("dstream_plan_estimate_seconds",
			"planner cost estimate per planned record (calibrated, virtual seconds)", dsmon.LatencyBuckets),
		observed: reg.Histogram("dstream_plan_observed_seconds",
			"observed virtual cost per planned record", dsmon.LatencyBuckets),
		sig: reg.Gauge("dstream_plan_sig",
			"low 32 bits of the rank's plan-chain signature (full value via PlanSignature)",
			"rank", strconv.Itoa(rank)),
		depth: reg.Gauge("dstream_plan_readahead_depth",
			"read-ahead depth the planner currently asks for"),
	}
	for s := plan.Strategy(0); s < 3; s++ {
		pm.records[s] = reg.Counter("dstream_plan_records_total",
			"records planned, by chosen strategy", "strategy", s.String())
	}
	return pm
}

// planState is the planner half of a file end, the same on both: the
// planner and its metric handles, and the latest decision, kept until the
// record it was made for has moved and its cost is observed. The zero value
// (nil planner) is a stream opened with an explicit strategy.
type planState struct {
	planner   *plan.Planner
	planMet   *planMetrics
	planK     int
	planStrat plan.Strategy
	planEst   float64
	planStart float64
}

// newPlanState builds what a StrategyAuto stream carries: the cost model is
// the node's platform profile crossed with the stream file's stripe layout.
func (s *stream) newPlanState() planState {
	return planState{
		planner: plan.New(plan.Model{Prof: s.node.Profile(), Layout: s.f.Layout()}),
		planMet: newPlanMetrics(s.met, s.node.Rank()),
	}
}

// decided books one decision. The caller has just come out of the
// collective that supplied the planner's rank-identical inputs, and start,
// the origin for the observation that follows the data movement, is the same
// instant on every rank. A writer passes its clock: every rank left the
// Allreduce at the release instant its root sent along (collective's
// releaseTime, on either shape), so the clocks are equal to the bit. A reader
// passes node 0's instant carried in the front matter: a broadcast leaves a
// rank that arrived late on its own clock, so it cannot pass that. A switch
// leaves a zero-length marker span, so critical-path attribution sees the
// re-planning event.
func (p *planState) decided(s *stream, d plan.Decision, start float64) {
	p.planK, p.planStrat, p.planEst = d.Aggregators, d.Strategy, d.RawEstimate
	p.planStart = start
	p.planMet.records[d.Strategy].Inc()
	p.planMet.estimate.Observe(d.Estimate)
	p.planMet.sig.Set(float64(uint32(p.planner.Signature())))
	if !d.Switched {
		return
	}
	p.planMet.switches.Inc()
	if rec := s.met.mon.Recorder(); rec != nil {
		rec.AddSpan(s.node.Rank(), "dstream", "plan.switch "+s.name+" -> "+d.Strategy.String(), p.planStart, p.planStart)
	}
}

// observe feeds the planned record's observed virtual cost back to the
// planner. end must be a rank-identical instant: a strategy's closing
// rendezvous, or an asynchronous transfer's completion. A no-op on a stream
// that is not planned.
func (p *planState) observe(end float64) {
	if p.planner == nil {
		return
	}
	obs := end - p.planStart
	p.planner.Observe(p.planStrat, p.planEst, obs)
	p.planMet.observed.Observe(obs)
}

// aggregators returns the two-phase fan-in K on a file laid out as l: the
// planner's choice on a planned stream (rank-identical, like every planner
// output), else override (Options.Aggregators), else the file's stripe
// factor, clamped to [1, nprocs]. Aggregators are ranks 0..K-1. K changes
// the rank→extent assignment but not a byte of the record, so re-planning
// it is always safe.
func (p *planState) aggregators(override int, l pfs.Layout, nprocs int) int {
	k := override
	if p.planK > 0 {
		k = p.planK
	}
	if k <= 0 {
		k = l.StripeFactor
	}
	return max(1, min(k, nprocs))
}

// PlanSignature returns the FNV-1a hash of the planner's decision chain on
// this rank (0 when the planner is off). All ranks of one stream must
// agree on it at any record boundary; a mismatch means a plan switch broke
// collective consistency.
func (p *planState) PlanSignature() uint64 {
	if p.planner == nil {
		return 0
	}
	return p.planner.Signature()
}

// PlanSwitches returns how many records re-planned onto a different
// strategy (0 when the planner is off).
func (p *planState) PlanSwitches() int64 {
	if p.planner == nil {
		return 0
	}
	return p.planner.Switches()
}
