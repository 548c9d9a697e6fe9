package chaos

import (
	"bytes"
	"flag"
	"testing"
	"time"

	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
)

var (
	chaosSeed = flag.Int64("chaos.seed", 1, "first seed of the chaos oracle campaign")
	chaosN    = flag.Int("chaos.n", 200, "number of seeded schedules the chaos oracle runs")
)

// reportFailures logs every non-OK part of every seed and fails the test on
// any forbidden outcome (hang or corruption — for the daemon campaign
// corruption includes reading another tenant's bytes, which cannot reproduce
// the tenant's seeded fill). Clean errors are permitted — retry and
// reconnect budgets are finite — but logged so a noisy schedule is visible.
func reportFailures(t *testing.T, rep Report) {
	t.Helper()
	for _, sr := range rep.Results {
		for i, o := range sr.Outcomes {
			if o != OutcomeOK {
				t.Logf("seed %d part %d: %s: %v", sr.Seed, i, o, sr.Errs[i])
			}
		}
	}
	t.Logf("campaign: %d ok, %d clean errors, %d silently accepted, %d corruptions, %d hangs over %d seeds (%d all-OK); injections: %v",
		rep.OK, rep.CleanErrors, rep.Silent, rep.Corruptions, rep.Hangs, len(rep.Results), rep.SeedsAllOK, rep.Injects)
	if rep.Hangs != 0 {
		t.Fatalf("%d part(s) hung — the stack lost progress under faults", rep.Hangs)
	}
	if rep.Corruptions != 0 {
		t.Fatalf("%d part(s) silently corrupted data", rep.Corruptions)
	}
}

// requireInjected asserts the campaign provably exercised every fault kind
// of one plane, via the dsmon injection counters the chaos layers bump.
func requireInjected(t *testing.T, rep Report, plane faultPlane) {
	t.Helper()
	for _, k := range plane.kinds {
		if rep.Injects[plane.name+":"+k] == 0 {
			t.Errorf("no seed injected %s fault %q — campaign does not cover the fault space", plane.name, k)
		}
	}
}

// campaign runs n seeds of sc from -chaos.seed and applies the verdict every
// campaign shares: no hang, no corruption.
func campaign(t *testing.T, sc Scenario, n int) Report {
	t.Helper()
	rep, err := RunSeeds(sc, *chaosSeed, n)
	if err != nil {
		t.Fatal(err)
	}
	reportFailures(t, rep)
	return rep
}

// TestChaosOracle is the tentpole acceptance test: the full SCF write→read
// pipeline across NProcs simulated ranks, run under -chaos.n seeded fault
// schedules starting at -chaos.seed. Every run must finish with bytes
// identical to the fault-free reference or a clean error on every rank;
// hangs and silent corruption fail the suite, and the campaign as a whole
// must have injected every fault kind at least once.
func TestChaosOracle(t *testing.T) {
	rep := campaign(t, Config{}.Scenario(), *chaosN)
	requireInjected(t, rep, commPlane)
	requireInjected(t, rep, pfsPlane)
	if rep.OK == 0 {
		t.Error("no seed completed successfully — default rates should mostly be survivable")
	}
}

// silentFlipsAccepted is what TestChaosSilentFlipRead's campaign counts at
// seed 1 × 200 on DSTRM1, the format in the tree: seeds whose read-back was
// wrong after a silent bit flip and that the stack accepted without an
// error. EXPERIMENTS.md has the campaign; a checksummed format is what
// brings this to 0, and a change to it is a change to what the stack
// notices, to be stated.
const silentFlipsAccepted = 32

// TestChaosSilentFlipRead is the reporting campaign of the first silent
// fault kind: the flat SCF pipeline under the default schedule plus a bit
// flip on one successful storage read in fifty (chaos.Rates.FlipRead).
// Hangs, and wrong bytes in a seed that flipped nothing, still fail it; a
// seed that flipped a bit and ended with wrong bytes is silently accepted —
// counted, and at seed 1 × 200 asserted as it stands.
func TestChaosSilentFlipRead(t *testing.T) {
	rates := DefaultRates()
	rates.FlipRead = 0.02
	rep := campaign(t, Config{Budget: Budget{Rates: rates}}.Scenario(), *chaosN)
	requireInjected(t, rep, silentRead)
	t.Logf("DSTRM1: %d of %d seeds silently accepted a flipped read (%d flips injected)",
		rep.Silent, len(rep.Results), rep.Injects["pfs:flip_read"])
	if *chaosSeed == 1 && *chaosN == 200 && rep.Silent != silentFlipsAccepted {
		t.Errorf("%d seeds silently accepted, %d committed: what the stack notices changed", rep.Silent, silentFlipsAccepted)
	}
}

// silentSendsAccepted is what TestChaosSilentFlipSend's campaign counts at
// seed 1 × 200 on DSTRM1: seeds whose read-back was wrong after a bit flipped
// in flight and that the stack accepted without an error. EXPERIMENTS.md has
// the campaign; checksummed frames and records are what bring it to 0.
const silentSendsAccepted = 64

// TestChaosSilentFlipSend is the reporting campaign of the second silent
// fault kind: the flat SCF pipeline under the default schedule plus a bit
// flip on one delivered message in fifty (chaos.Rates.FlipSend). Its verdict
// is TestChaosSilentFlipRead's, and it must inject every transport fault kind
// as well as the flip.
func TestChaosSilentFlipSend(t *testing.T) {
	rates := DefaultRates()
	rates.FlipSend = 0.02
	rep := campaign(t, Config{Budget: Budget{Rates: rates}}.Scenario(), *chaosN)
	requireInjected(t, rep, commPlane)
	requireInjected(t, rep, silentSend)
	t.Logf("DSTRM1: %d of %d seeds silently accepted a message flipped in flight (%d flips injected)",
		rep.Silent, len(rep.Results), rep.Injects["comm:flip_send"])
	if *chaosSeed == 1 && *chaosN == 200 && rep.Silent != silentSendsAccepted {
		t.Errorf("%d seeds silently accepted, %d committed: what the stack notices changed", rep.Silent, silentSendsAccepted)
	}
}

// TestChaosOracleTwoPhase reruns the full campaign with the two-phase
// collective strategy on both stream directions, so the aggregation
// shuffle, the extents and the scatter traffic face the same fault
// schedules as the classic paths — with the same trichotomy verdict. The
// striped row puts three aggregators over three fault-injected stripe
// devices with cells a fraction of an extent: an aggregator's extent reaches
// the store as several pieces (the frames the shuffle delivered, its own
// overlap), each fanned out over the stripes, so a short write lands inside
// one piece of an extent and must be resumed there — the campaign must have
// injected some.
func TestChaosOracleTwoPhase(t *testing.T) {
	for _, row := range []struct {
		name     string
		pipeline Pipeline
	}{
		{"flat", Pipeline{Strategy: dstream.StrategyTwoPhase}},
		{"striped", Pipeline{Strategy: dstream.StrategyTwoPhase, Records: 3, StripeFactor: 3, StripeUnit: 512}},
	} {
		t.Run(row.name, func(t *testing.T) {
			rep := campaign(t, Config{Pipeline: row.pipeline}.Scenario(), *chaosN)
			if rep.OK == 0 {
				t.Error("no two-phase seed completed successfully — default rates should mostly be survivable")
			}
			if row.pipeline.StripeFactor > 0 {
				requireInjected(t, rep, pfsPlane)
			}
		})
	}
}

// TestChaosOracleParallel completes the per-strategy coverage: the all-ranks
// parallel append/read paths — now drawing every frame and refill buffer
// from the shared pool — face the full seeded fault campaign. A pooling bug
// that resurfaced a recycled buffer would show up here as a corruption
// verdict (and, under -tags pooldebug, as a poison panic at the exact Get).
func TestChaosOracleParallel(t *testing.T) {
	rep := campaign(t, Config{Pipeline: Pipeline{Strategy: dstream.StrategyParallel}}.Scenario(), *chaosN)
	if rep.OK == 0 {
		t.Error("no parallel-strategy seed completed successfully — default rates should mostly be survivable")
	}
}

// TestChaosOracleReadAhead runs the campaign with the input stream's
// prefetch pipeline on over a striped, fault-injected store: every stripe
// leg of the concurrent fan-out fails on its own schedule while the reader
// holds in-flight background refills. The trichotomy verdict is unchanged —
// byte-identity or a clean error on every rank; a prefetch that outlives
// its stream, leaks a pooled buffer into a wedged rendezvous, or applies a
// stale speculative refill shows up here as a hang or a corruption.
func TestChaosOracleReadAhead(t *testing.T) {
	rep := campaign(t, Config{
		Pipeline:  Pipeline{Records: 3, StripeFactor: 3, StripeUnit: 1 << 12},
		ReadAhead: 2,
	}.Scenario(), *chaosN)
	if rep.OK == 0 {
		t.Error("no read-ahead seed completed successfully — default rates should mostly be survivable")
	}
	// The striped factory must actually have put faults under the fan-out.
	requireInjected(t, rep, pfsPlane)
}

// TestChaosOraclePlanner runs the campaign with the cost-model planner
// active on both stream directions — full-auto streams (no explicit
// strategy, no explicit read-ahead) over a striped, fault-injected store.
// The injected faults (delays, drops, retries) skew the virtual-time cost
// observations the planner calibrates against mid-stream, which is exactly
// the condition under which a re-plan could split the group: if any rank
// saw a different cost than its peers, it would switch strategies on a
// different record boundary and the collective protocol would deadlock or
// interleave wrong bytes. The oracle therefore asserts, on top of the usual
// trichotomy, that every successful seed's per-rank plan-decision chains
// (FNV-1a over every record's strategy, aggregator count, and depth) are
// bit-identical across ranks on both the write and read side.
func TestChaosOraclePlanner(t *testing.T) {
	rep := campaign(t, Config{
		Pipeline:   Pipeline{Records: 3, StripeFactor: 3, StripeUnit: 1 << 12},
		CheckPlans: true,
	}.Scenario(), *chaosN)
	if rep.OK == 0 {
		t.Error("no planner seed completed successfully — default rates should mostly be survivable")
	}
	// A divergent chain on a completed seed is a corruption verdict, which
	// campaign has already failed on.
	t.Logf("plan-decision chains rank-identical on all %d successful seeds", rep.OK)
}

// TestReferenceStrategyIdentity: the fault-free pipeline writes the same
// bytes whichever strategy moves them — funnel, parallel, and two-phase are
// rank-to-block assignments, not formats. This pins the cross-strategy
// byte-identity acceptance criterion on the SCF pipeline itself.
func TestReferenceStrategyIdentity(t *testing.T) {
	ref, err := Reference(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []dstream.Strategy{dstream.StrategyFunnel, dstream.StrategyParallel, dstream.StrategyTwoPhase} {
		img, err := Reference(Config{Pipeline: Pipeline{Strategy: s}})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !bytes.Equal(img, ref) {
			t.Errorf("strategy %v image differs from auto reference (%d vs %d bytes)", s, len(img), len(ref))
		}
	}
}

// TestChaosOracleTCP repeats a slice of the campaign over real loopback
// sockets, so the framing, write-deadline, and broken-connection paths are
// also exposed to the fault schedule. Smaller seed count: each run pays for
// real dial/accept work.
func TestChaosOracleTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP oracle skipped in -short mode")
	}
	n := *chaosN / 10
	if n < 10 {
		n = 10
	}
	campaign(t, Config{Transport: machine.TransportTCP}.Scenario(), n)
}

// TestChaosOracleScale is the scale cell of the campaign: the full
// pipeline across 64 simulated ranks, where the collectives take the tree
// shape — the configuration the runtime scale curve runs — under seeded
// fault schedules. This is where a mailbox-ring bug that only shows under many
// concurrent producers (a missed wakeup on a contended gate, a stale
// overflow count, a close racing hundreds of enqueues) graduates from
// torture-suite theory to a hang or corruption verdict. Fewer seeds: one
// 64-rank pipeline costs ~16x a 4-rank one.
func TestChaosOracleScale(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rank oracle skipped in -short mode")
	}
	n := *chaosN / 20
	if n < 8 {
		n = 8
	}
	rep := campaign(t, Config{Pipeline: Pipeline{NProcs: 64, Records: 1}}.Scenario(), n)
	if rep.OK == 0 {
		t.Error("no 64-rank seed completed successfully — default rates should mostly be survivable")
	}
}

// TestChaosBrutalRatesFailCleanly cranks the drop rate far past what the
// retry budget absorbs: most seeds must now fail, but every failure must
// still be clean — retry exhaustion may abort a run, never hang or corrupt
// it.
func TestChaosBrutalRatesFailCleanly(t *testing.T) {
	rates := DefaultRates()
	rates.Drop = 0.45
	rep := campaign(t, Config{Budget: Budget{Rates: rates, Watchdog: 2 * time.Minute}}.Scenario(), 25)
	if rep.CleanErrors == 0 {
		t.Error("a 45% drop rate never exhausted a retry budget — exhaustion path untested")
	}
}

// TestReferenceDeterministic: the fault-free pipeline is a fixed point — two
// reference runs produce byte-identical images. Without this the oracle's
// byte-comparison verdict would be meaningless.
func TestReferenceDeterministic(t *testing.T) {
	a, err := Reference(Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reference(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two fault-free runs differ (%d vs %d bytes)", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("reference image is empty")
	}
}

// TestPlanSignaturesAgree pins the planner scenario's extra verdict: equal
// nonzero chains on both directions agree; a diverging rank or a rank that
// recorded nothing does not.
func TestPlanSignaturesAgree(t *testing.T) {
	same := &planSignatures{Write: []uint64{7, 7, 7}, Read: []uint64{9, 9, 9}}
	if err := same.agree(); err != nil {
		t.Errorf("identical chains disagree: %v", err)
	}
	for name, ps := range map[string]*planSignatures{
		"write side diverged": {Write: []uint64{7, 8, 7}, Read: []uint64{9, 9, 9}},
		"read side diverged":  {Write: []uint64{7, 7, 7}, Read: []uint64{9, 9, 1}},
		"rank recorded none":  {Write: []uint64{7, 7, 7}, Read: []uint64{9, 0, 9}},
	} {
		if ps.agree() == nil {
			t.Errorf("%s: chains agree", name)
		}
	}
}
