package chaos

import (
	"errors"
	"fmt"
	"time"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/scf"
)

// Scenario is what varies between campaigns: the program that runs under
// the fault schedule and what its bytes are compared with. Everything else
// — the watchdog, the verdict, the report, the seed loop — is the runner's.
type Scenario interface {
	// Reference runs the scenario fault-free and keeps what Run compares
	// against. It fails when the fault-free run itself fails (a broken
	// stack, not a chaos finding).
	Reference() error
	// Parts is how many verdicts one run yields: one for a single pipeline,
	// one per tenant for the daemon.
	Parts() int
	// Watchdog bounds one run in real time.
	Watchdog() time.Duration
	// Run executes the scenario once under seed's fault schedule, counting
	// injections on mon, and returns one error per part: nil when the part
	// completed byte-identical to the reference, an error wrapping
	// errCorrupt or scf.ErrMismatch when it completed with (or read back)
	// wrong bytes, anything else when it failed cleanly.
	Run(seed int64, mon *dsmon.Monitor) []error
}

// Outcome classifies one part of one seeded run against the resilience
// trichotomy.
type Outcome int

const (
	// OutcomeOK: the part completed and every byte — the stored image and
	// every extracted segment — matched the fault-free reference.
	OutcomeOK Outcome = iota
	// OutcomeCleanError: the part failed, but with an error on every rank
	// (nobody hung) and no corruption was observed. Permitted: retry and
	// reconnect budgets are finite.
	OutcomeCleanError
	// OutcomeSilent: the part completed with wrong bytes in a seed that
	// injected a silent fault (silentPlanes) — the stack accepted corrupted
	// data without noticing. Counted, not forbidden: no format in the tree
	// can see a flipped bit yet, and a campaign with silent faults reports
	// how many seeds got through.
	OutcomeSilent
	// OutcomeCorrupt: the part "succeeded" but produced wrong bytes — the
	// failure mode the d/stream transparency guarantee forbids.
	OutcomeCorrupt
	// OutcomeHang: the run outlived the watchdog — the other forbidden
	// failure mode.
	OutcomeHang
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeCleanError:
		return "clean-error"
	case OutcomeSilent:
		return "silently-accepted"
	case OutcomeCorrupt:
		return "CORRUPT"
	case OutcomeHang:
		return "HANG"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// errCorrupt marks a completed run whose image, digest or plan chain differs
// from the fault-free reference's. The other way a run ends Corrupt is
// in-band: scf.ErrMismatch, a segment the read-back verification found
// different from its generator.
var errCorrupt = errors.New("chaos: completed run differs from the fault-free reference")

// SeedResult is one seeded schedule's verdict.
type SeedResult struct {
	Seed int64
	// Outcomes and Errs are per part (Errs[i] is nil for OutcomeOK).
	Outcomes []Outcome
	Errs     []error
	// Worst is the most severe per-part outcome (OK < CleanError < Silent
	// < Corrupt < Hang).
	Worst Outcome
	// Injects maps "comm:<kind>", "pfs:<kind>" and "conn:<kind>" to the
	// number of faults the schedule actually injected, and
	// "dstreamd:chunk_transfers" to the transfers a daemon in the run moved
	// in shared chunks.
	Injects map[string]int64
}

// faultPlane is one family of injection counters: the layer a fault is
// injected at and the kinds the chaos layer can inject there.
type faultPlane struct {
	name, help string
	kinds      []string
}

var (
	commPlane = faultPlane{"comm", "transport faults injected by the chaos layer",
		[]string{"drop", "send_err", "duplicate", "delay", "reorder", "recv_err"}}
	pfsPlane = faultPlane{"pfs", "storage faults injected by the chaos layer",
		[]string{"read_err", "write_err", "short_read", "short_write"}}
	// The silent planes are the faults that report success — a bit flipped
	// on a storage read, or on a message in flight: the stack cannot retry
	// them, only notice them or not. Each is kept apart from its layer's
	// plane, whose every kind each campaign at that layer must inject.
	silentRead   = faultPlane{"pfs", pfsPlane.help, []string{"flip_read"}}
	silentSend   = faultPlane{"comm", commPlane.help, []string{"flip_send"}}
	silentPlanes = []faultPlane{silentRead, silentSend}
	// A cut_held is a cut at a moment the daemon held a shared chunk: a
	// connection severed mid-transfer, whose chunks the daemon may unmap
	// only once its I/O ranks are done with them.
	connPlane = faultPlane{"conn", "client connections severed by the chaos layer",
		[]string{"cut", "cut_held"}}
)

// counter is the plane's chaos_<plane>_inject_total{kind} counter in a
// run's registry (get-or-create: injectors and injectCounts share handles).
func (p faultPlane) counter(mon *dsmon.Monitor, kind string) *dsmon.Counter {
	return mon.Registry().Counter("chaos_"+p.name+"_inject_total", p.help, "kind", kind)
}

// injectCounts reads the chaos injection counters back out of the run's
// registry.
func injectCounts(mon *dsmon.Monitor) map[string]int64 {
	out := make(map[string]int64)
	for _, p := range append([]faultPlane{commPlane, pfsPlane, connPlane}, silentPlanes...) {
		for _, k := range p.kinds {
			out[p.name+":"+k] = p.counter(mon, k).Value()
		}
	}
	// A daemon monitored on the run's registry (the tenant campaign's): the
	// transfers that crossed in shared chunks. The help is the daemon's; the
	// registry keys on the name alone.
	out["dstreamd:chunk_transfers"] = mon.Registry().Counter("dstreamd_chunk_transfers_total", "").Value()
	return out
}

// silentInjects is how many silent faults a seed injected.
func silentInjects(injects map[string]int64) int64 {
	var n int64
	for _, p := range silentPlanes {
		for _, k := range p.kinds {
			n += injects[p.name+":"+k]
		}
	}
	return n
}

// RunSeed executes sc under one seeded fault schedule and classifies every
// part. On OutcomeHang the run's goroutines are abandoned — callers should
// treat a hang as fatal, not continue a long campaign around leaked
// machinery. The scenario hands its errors over a channel only on
// completion, so goroutines leaked by a hang cannot race the caller's reads.
func RunSeed(sc Scenario, seed int64) SeedResult {
	mon := dsmon.New()
	res := SeedResult{Seed: seed, Outcomes: make([]Outcome, sc.Parts()), Errs: make([]error, sc.Parts())}
	done := make(chan []error, 1)
	go func() { done <- sc.Run(seed, mon) }()

	hung := false
	select {
	case errs := <-done:
		copy(res.Errs, errs)
	case <-time.After(sc.Watchdog()):
		hung = true
	}
	res.Injects = injectCounts(mon)

	for i, err := range res.Errs {
		switch {
		case hung:
			res.Outcomes[i] = OutcomeHang
			res.Errs[i] = fmt.Errorf("chaos: seed %d outlived the %v watchdog", seed, sc.Watchdog())
		case err == nil:
			res.Outcomes[i] = OutcomeOK
		case errors.Is(err, errCorrupt), errors.Is(err, scf.ErrMismatch):
			res.Outcomes[i] = OutcomeCorrupt
			if silentInjects(res.Injects) > 0 {
				res.Outcomes[i] = OutcomeSilent
			}
		default:
			res.Outcomes[i] = OutcomeCleanError
		}
		res.Worst = max(res.Worst, res.Outcomes[i])
	}
	return res
}

// Report aggregates a seed campaign.
type Report struct {
	Results []SeedResult
	// Per-part tallies over every seed.
	OK, CleanErrors, Silent, Corruptions, Hangs int
	// SeedsAllOK counts the seeds whose every part ended OK.
	SeedsAllOK int
	// Injects sums each fault kind's injections over the whole campaign.
	Injects map[string]int64
}

// Add folds one seed's result into the report.
func (r *Report) Add(sr SeedResult) {
	r.Results = append(r.Results, sr)
	for _, o := range sr.Outcomes {
		switch o {
		case OutcomeOK:
			r.OK++
		case OutcomeCleanError:
			r.CleanErrors++
		case OutcomeSilent:
			r.Silent++
		case OutcomeCorrupt:
			r.Corruptions++
		case OutcomeHang:
			r.Hangs++
		}
	}
	if sr.Worst == OutcomeOK {
		r.SeedsAllOK++
	}
	if r.Injects == nil {
		r.Injects = make(map[string]int64)
	}
	for k, v := range sr.Injects {
		r.Injects[k] += v
	}
}

// RunSeeds builds sc's reference, runs seeds [first, first+n) and
// aggregates the verdicts. It stops early on the first hang (the machinery
// behind a hang is leaked, so continuing would stack leaks).
func RunSeeds(sc Scenario, first int64, n int) (Report, error) {
	if err := sc.Reference(); err != nil {
		return Report{}, err
	}
	var rep Report
	for i := 0; i < n; i++ {
		sr := RunSeed(sc, first+int64(i))
		rep.Add(sr)
		if sr.Worst == OutcomeHang {
			break
		}
	}
	return rep, nil
}
