package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/session"
	"pcxxstreams/internal/vtime"
)

// Pipeline is the shape the flat and the daemon campaigns share: an SCF
// collection written through a d/stream under chaos and read back with a
// different distribution, so the read side's redistribution traffic is also
// exposed to the fault schedule.
type Pipeline struct {
	// NProcs is the machine size (default 4; 2 per tenant machine).
	NProcs int
	// Segments is the SCF collection length (default 2·NProcs+1, so block
	// and cyclic layouts disagree and at least one rank is uneven).
	Segments int
	// Particles per segment (default 16; 8 per tenant).
	Particles int
	// Records is how many insert+write rounds the writer performs
	// (default 2).
	Records int
	// Strategy selects the d/stream collective data path for both the write
	// and read sides of the pipeline (StrategyAuto by default), so the
	// two-phase shuffle/scatter traffic is exposed to the fault schedule
	// like every other path.
	Strategy dstream.Strategy
	// StripeFactor stripes the chaotic store over this many fault-injected
	// child backends, so the concurrent fan-out faces faults on every leg
	// (0 = one flat backend; the daemon's store is always striped, default
	// 2). StripeUnit is the cell size (default 4096 when striped).
	StripeFactor int
	StripeUnit   int64
}

func (p Pipeline) withDefaults(nprocs, particles int) Pipeline {
	if p.NProcs <= 0 {
		p.NProcs = nprocs
	}
	if p.Segments <= 0 {
		p.Segments = 2*p.NProcs + 1
	}
	if p.Particles <= 0 {
		p.Particles = particles
	}
	if p.Records <= 0 {
		p.Records = 2
	}
	if p.StripeFactor > 0 && p.StripeUnit <= 0 {
		p.StripeUnit = 4096
	}
	return p
}

// Config describes the flat oracle campaign: one Pipeline on one machine
// over a fault-injected store and transport.
type Config struct {
	Pipeline
	Budget
	// Transport selects the underlying transport (chan by default).
	Transport machine.TransportKind
	// ReadAhead enables the input stream's prefetch pipeline at the given
	// depth (0 = synchronous reads), exposing the background refills and
	// their abandon-on-failure paths to the fault schedule.
	ReadAhead int
	// CheckPlans makes rank-identical plan-decision chains part of the
	// verdict: a seed that completes with the ranks' chains differing on
	// either stream direction is OutcomeCorrupt (it succeeded wrongly — a
	// divergent plan is a hang or wrong bytes waiting to happen). Only
	// meaningful when the cost-model planner is active (full-auto streams).
	CheckPlans bool
}

func (c Config) withDefaults() Config {
	c.Pipeline = c.Pipeline.withDefaults(4, 16)
	c.Budget = c.Budget.withDefaults(60 * time.Second)
	return c
}

// planSignatures collects per-rank planner decision-chain hashes from one
// pipeline run. Slices are indexed by rank and each rank writes only its own
// slot, so the SPMD body needs no locking; read them only after machine.Run
// returns.
type planSignatures struct {
	Write []uint64
	Read  []uint64
}

// newPlanSignatures sizes a collector for an nprocs-rank pipeline.
func newPlanSignatures(nprocs int) *planSignatures {
	return &planSignatures{Write: make([]uint64, nprocs), Read: make([]uint64, nprocs)}
}

// agree returns nil when every rank recorded the same nonzero signature on
// both stream directions — the planner made byte-for-byte identical decision
// chains everywhere, so every re-plan happened on the same record boundary
// on every rank. Call it only for runs that completed successfully; a run
// that failed mid-record legitimately leaves ranks at different points.
func (ps *planSignatures) agree() error {
	check := func(side string, sigs []uint64) error {
		for r, s := range sigs {
			if s == 0 {
				return fmt.Errorf("chaos: rank %d recorded no %s-side plan signature — planner inactive?", r, side)
			}
			if s != sigs[0] {
				return fmt.Errorf("chaos: %s-side plan chains diverged: rank 0 %016x, rank %d %016x",
					side, sigs[0], r, s)
			}
		}
		return nil
	}
	if err := check("write", ps.Write); err != nil {
		return err
	}
	return check("read", ps.Read)
}

const harnessFile = "chaos-scf"

// body is the SPMD body of one pipeline run: write Records records of an
// SCF collection (cyclic layout, generator offset base) to file through
// sess, read them back on a block layout (forcing redistribution), and
// verify every extracted segment against the generator. sigs, when non-nil,
// receives each rank's plan-decision-chain signatures; wrote, when non-nil,
// is set for each rank whose output stream closed without an error.
func (p Pipeline) body(sess *session.Session, file string, base, readAhead int, sigs *planSignatures, wrote []bool) func(*machine.Node) error {
	recs := scf.Records{N: p.Records, Particles: p.Particles, Base: base}
	return func(n *machine.Node) error {
		dw, err := distr.New(p.Segments, p.NProcs, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		src, err := collection.New[scf.Segment](n, dw)
		if err != nil {
			return err
		}
		out, err := sess.Open(n, dw, file, dstream.WithStrategy(p.Strategy))
		if err != nil {
			return err
		}
		if err := recs.Write(out, src); err != nil {
			return err
		}
		if sigs != nil {
			sigs.Write[n.Rank()] = out.PlanSignature()
		}
		if err := out.Close(); err != nil {
			return err
		}
		if wrote != nil {
			wrote[n.Rank()] = true
		}

		dr, err := distr.New(p.Segments, p.NProcs, distr.Block, 0)
		if err != nil {
			return err
		}
		back, err := collection.New[scf.Segment](n, dr)
		if err != nil {
			return err
		}
		in, err := sess.OpenInput(n, dr, file, dstream.WithStrategy(p.Strategy), dstream.WithReadAhead(readAhead))
		if err != nil {
			return err
		}
		// A read that failed leaves its refill share and frames with the
		// stream until Close.
		defer in.Close()
		if err := recs.Read(in, back, nil); err != nil {
			return err
		}
		if sigs != nil {
			sigs.Read[n.Rank()] = in.PlanSignature()
		}
		return in.Close()
	}
}

// readBack reads img, a stored image of file, back fault-free on one rank and
// verifies every record as body does, stopping at the first error. One rank
// has no peer whose failure can tear a read down before it has verified what
// it read, so how it ends depends on the image alone: scf.ErrMismatch when a
// record reads back without an error but wrong.
func (p Pipeline) readBack(img []byte, file string) error {
	fs := pfs.NewFileSystem(vtime.Paragon(), func(string) (pfs.Backend, error) {
		b := pfs.NewMemBackend()
		_, err := b.WriteAt(img, 0)
		return b, err
	})
	recs := scf.Records{N: p.Records, Particles: p.Particles}
	_, err := machine.Run(machine.Config{NProcs: 1, Profile: vtime.Paragon(), FS: fs}, func(n *machine.Node) error {
		d, err := distr.New(p.Segments, 1, distr.Block, 0)
		if err != nil {
			return err
		}
		c, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		in, err := session.Local().OpenInput(n, d, file)
		if err != nil {
			return err
		}
		defer in.Close()
		return recs.Read(in, c, nil)
	})
	return err
}

// referenceImage runs body fault-free on mc over an in-memory store and
// returns the image of file — the byte-identity baseline of a campaign.
func referenceImage(mc machine.Config, body func(*machine.Node) error, file string) ([]byte, error) {
	fs := pfs.NewMemFS(vtime.Paragon())
	mc.Profile, mc.FS = vtime.Paragon(), fs
	if _, err := machine.Run(mc, body); err != nil {
		return nil, fmt.Errorf("chaos: fault-free reference run failed: %w", err)
	}
	return fs.Image(file)
}

// checkImage compares a completed run's stored image with the reference: a
// difference is corruption, an unreadable image a clean error.
func checkImage(fs *pfs.FileSystem, file string, ref []byte) error {
	img, err := fs.Image(file)
	if err != nil {
		return err
	}
	if !bytes.Equal(img, ref) {
		return fmt.Errorf("%w: %s image differs from fault-free reference (%d vs %d bytes)",
			errCorrupt, file, len(img), len(ref))
	}
	return nil
}

// Reference runs the pipeline fault-free and returns the resulting file
// image.
func Reference(cfg Config) ([]byte, error) {
	cfg = cfg.withDefaults()
	return referenceImage(machine.Config{NProcs: cfg.NProcs, Transport: cfg.Transport},
		cfg.body(session.Local(), harnessFile, 0, cfg.ReadAhead, nil, nil), harnessFile)
}

// flatScenario is Config as a Scenario: one part.
type flatScenario struct {
	cfg Config
	ref []byte
}

// Scenario returns the flat campaign over cfg.
func (c Config) Scenario() Scenario { return &flatScenario{cfg: c.withDefaults()} }

func (s *flatScenario) Parts() int              { return 1 }
func (s *flatScenario) Watchdog() time.Duration { return s.cfg.Watchdog }

func (s *flatScenario) Reference() (err error) {
	s.ref, err = Reference(s.cfg)
	return err
}

func (s *flatScenario) Run(seed int64, mon *dsmon.Monitor) []error {
	cfg := s.cfg
	factory := WrapFactory(pfs.MemFactory(), seed, cfg.Rates, mon)
	if cfg.StripeFactor > 0 {
		factory = StripedChaosFactory(cfg.StripeFactor, cfg.StripeUnit, seed, cfg.Rates, mon)
	}
	fs := pfs.NewFileSystem(vtime.Paragon(), factory)
	var sigs *planSignatures
	if cfg.CheckPlans {
		sigs = newPlanSignatures(cfg.NProcs)
	}
	errs, wrote := make([]error, cfg.NProcs), make([]bool, cfg.NProcs)
	body := cfg.body(session.Local(), harnessFile, 0, cfg.ReadAhead, sigs, wrote)
	// A schedule of storage faults alone runs on the bare transport: the
	// chaos wrapper copies every payload, so only without it do the write
	// shuffle and the sorted read's redistribution lend under faults.
	var wrap func(comm.Transport) comm.Transport
	if cfg.Rates.onTransport() {
		wrap = func(tr comm.Transport) comm.Transport {
			return NewTransport(tr, cfg.NProcs, seed, cfg.Rates, mon)
		}
	}
	_, err := machine.Run(machine.Config{
		NProcs:        cfg.NProcs,
		Profile:       vtime.Paragon(),
		Transport:     cfg.Transport,
		FS:            fs,
		Monitor:       mon,
		WrapTransport: wrap,
		RecvDeadline:  cfg.RecvDeadline,
	}, func(n *machine.Node) error {
		errs[n.Rank()] = body(n)
		return errs[n.Rank()]
	})
	// Wrong bytes decide the verdict, whichever rank failed first in time: a
	// silent fault can leave one rank with wrong bytes and make another fail
	// cleanly, in either order. So a rank that read back wrong bytes, or a
	// write that every rank finished and whose image is wrong, outranks the
	// first error. Only a bit flipped in flight can have made such a write
	// wrong (a flipped read leaves the store as written, and reading the
	// image back through a store that flips reads would count the oracle's
	// own reads), so a failed run's image is checked only when one was.
	for _, e := range errs {
		if errors.Is(e, scf.ErrMismatch) {
			err = e
			break
		}
	}
	flipped := silentSend.counter(mon, "flip_send").Value() > 0
	if err == nil || (flipped && !errors.Is(err, scf.ErrMismatch) && !slices.Contains(wrote, false)) {
		if ierr := checkImage(fs, harnessFile, s.ref); ierr != nil || err == nil {
			err = ierr
		}
	}
	// A torn write leaves wrong bytes in the store, and which rank gets to
	// read them before another rank's failure tears the machine down is a
	// race: when a failed run saw none, the stored image, read back, is the
	// verdict.
	torn := silentWrite.counter(mon, "torn_write").Value() > 0
	if err != nil && torn && !errors.Is(err, scf.ErrMismatch) && !slices.Contains(wrote, false) {
		if img, ierr := fs.Image(harnessFile); ierr == nil {
			if rerr := cfg.readBack(img, harnessFile); errors.Is(rerr, scf.ErrMismatch) {
				err = rerr
			}
		}
	}
	// Only completed runs have every rank's chain; a clean error
	// legitimately leaves ranks at different records.
	if err == nil && sigs != nil {
		if perr := sigs.agree(); perr != nil {
			err = fmt.Errorf("%w: %v", errCorrupt, perr)
		}
	}
	return []error{err}
}
