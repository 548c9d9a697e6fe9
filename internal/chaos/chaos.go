// Package chaos is the deterministic fault-injection layer of the d/stream
// stack: seeded per-message transport faults (chaos.Transport) and
// per-operation storage faults (chaos.Backend), plus an end-to-end oracle:
// one campaign runner (runner.go) that drives a Scenario — the flat SCF
// write→read pipeline (harness.go), the M→N channel (channel.go), the
// multi-tenant daemon (tenants.go) — under hundreds of seeded fault
// schedules and asserts the stack's resilience contract: every run either
// produces bytes identical to a fault-free run, or fails with a clean error
// on every rank; it never hangs and never silently corrupts data.
//
// The injected faults are *transient*: every one of them wraps
// comm.ErrTransient or pfs.ErrTransient, so the retry machinery in the
// endpoints and the file system absorbs them. That makes chaos the
// complement of the permanent-kill injectors (comm.FaultyTransport,
// pfs.FaultyBackend), which model a crashed node or disk and whose errors
// are deliberately fatal.
//
// Every injection is counted in the run's dsmon registry under
// chaos_comm_inject_total{kind=…} and chaos_pfs_inject_total{kind=…}, so a
// chaos run is as observable as a healthy one and tests can assert that a
// schedule really exercised each fault kind.
package chaos

import "time"

// Rates sets the per-operation probability of each fault kind (each in
// [0, 1]; the kinds are evaluated as disjoint slices of one uniform draw,
// so their sum per layer must stay ≤ 1).
type Rates struct {
	// Transport faults, evaluated per Send on the sending rank's stream:
	//
	// Drop discards the message and reports a transient error to the
	// sender — a detected loss (NACK/timeout), which the endpoint retries.
	Drop float64
	// SendErr delivers the message but still reports a transient error, so
	// the endpoint's retry produces a duplicate the receiver must suppress.
	SendErr float64
	// Duplicate delivers the message twice.
	Duplicate float64
	// Delay delivers the message late, from a background goroutine after a
	// real-time pause in (0, MaxDelay].
	Delay float64
	// Reorder holds the message back until the sender's next message has
	// been delivered (or until ReorderFuse elapses), swapping wire order.
	Reorder float64
	// RecvErr fails a receive attempt with a transient error before it
	// looks at the mailbox.
	RecvErr float64
	// FlipSend delivers a copy of a non-empty message with one bit
	// inverted and reports success: a silent fault in flight, which no
	// retry sees. It is the last slice of the send draw, so DefaultRates,
	// which leaves it at zero, draws every other kind as before it existed.
	FlipSend float64

	// Storage faults, evaluated per backend ReadAt/WriteAt:
	//
	// ReadErr / WriteErr fail the operation outright with pfs.ErrTransient.
	ReadErr  float64
	WriteErr float64
	// ShortRead / ShortWrite transfer only a prefix of the request and
	// report pfs.ErrTransient, forcing the retry helpers to resume.
	ShortRead  float64
	ShortWrite float64
	// FlipRead flips one bit of a read that succeeded and reports success:
	// a silent fault, which no retry sees. DefaultRates leaves it at zero; a
	// campaign that sets it counts the seeds the stack silently accepted.
	FlipRead float64

	// MaxDelay bounds the real-time delivery delay of a Delay fault.
	MaxDelay time.Duration
	// ReorderFuse bounds how long a reordered message is held when no
	// follow-up send arrives to release it.
	ReorderFuse time.Duration
}

// DefaultRates is an aggressive-but-survivable schedule: every fault kind
// fires often enough that a few-hundred-message run exercises all of them,
// while the per-operation transient rate stays far below what six retry
// attempts absorb (exhaustion probability per op ≈ rate^attempts).
func DefaultRates() Rates {
	return Rates{
		Drop: 0.02, SendErr: 0.02, Duplicate: 0.03, Delay: 0.03, Reorder: 0.03, RecvErr: 0.02,
		ReadErr: 0.03, WriteErr: 0.03, ShortRead: 0.05, ShortWrite: 0.05,
		MaxDelay:    2 * time.Millisecond,
		ReorderFuse: 2 * time.Millisecond,
	}
}

// Budget is what every campaign configuration shares: the fault schedule
// and the two real-time bounds that turn a lost rank into a verdict.
type Budget struct {
	// Rates is the fault schedule (DefaultRates() when zero — detected by
	// an all-zero struct).
	Rates Rates
	// Watchdog bounds one seed's real run time; exceeding it is the
	// forbidden outcome, OutcomeHang (default 60s; 120s for the daemon
	// campaign, whose seeds pay for a TCP server and three machines).
	Watchdog time.Duration
	// RecvDeadline bounds each blocking receive in real time (default 5s);
	// with the endpoint retry budget it is the in-stack hang backstop, one
	// level below the watchdog.
	RecvDeadline time.Duration
}

func (b Budget) withDefaults(watchdog time.Duration) Budget {
	if b.Rates == (Rates{}) {
		b.Rates = DefaultRates()
	}
	if b.Watchdog <= 0 {
		b.Watchdog = watchdog
	}
	if b.RecvDeadline <= 0 {
		b.RecvDeadline = 5 * time.Second
	}
	return b
}

// mix is splitmix64: it turns (seed, salt) into an independent PRNG seed,
// so every rank / file / direction gets its own deterministic stream from
// one schedule seed.
func mix(seed uint64, salt uint64) uint64 {
	z := seed + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
