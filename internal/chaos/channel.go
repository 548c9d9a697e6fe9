package chaos

import (
	"fmt"
	"hash/fnv"
	"time"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/vtime"
)

// ChannelConfig describes one channel-oracle pipeline: M producer ranks
// streaming SCF records through a persistent stream-to-stream channel to N
// consumer ranks (block → cyclic, so every record is redistributed in
// flight), under seeded transport faults plus a seeded mid-stream consumer
// stall that drives the producers into their credit windows.
type ChannelConfig struct {
	// Producers and Consumers are the channel group sizes; the machine has
	// Producers+Consumers ranks (defaults 2 and 2).
	Producers int
	Consumers int
	// Segments is the element count (default 2·max(M,N)+1, so the groups'
	// layouts disagree and at least one rank is uneven).
	Segments int
	// Particles per segment (default 8).
	Particles int
	// Records is how many insert+write rounds the producers perform
	// (default 3).
	Records int
	// Window is the channel's per-consumer credit window in bytes (default
	// 4096 — small, so the stalled consumer visibly back-pressures the
	// producers through the credit machinery).
	Window int
	// Stall is the real-time length of the seeded mid-stream consumer stall
	// (default 20ms). The stalled rank and record are derived from the seed.
	Stall time.Duration
	// Budget's Rates are transport faults only: a channel never touches
	// storage.
	Budget
}

func (c ChannelConfig) withDefaults() ChannelConfig {
	if c.Producers <= 0 {
		c.Producers = 2
	}
	if c.Consumers <= 0 {
		c.Consumers = 2
	}
	if c.Segments <= 0 {
		m := c.Producers
		if c.Consumers > m {
			m = c.Consumers
		}
		c.Segments = 2*m + 1
	}
	if c.Particles <= 0 {
		c.Particles = 8
	}
	if c.Records <= 0 {
		c.Records = 3
	}
	if c.Window <= 0 {
		c.Window = 4096
	}
	if c.Stall <= 0 {
		c.Stall = 20 * time.Millisecond
	}
	c.Budget = c.Budget.withDefaults(60 * time.Second)
	return c
}

// records is the generator both paths fill from and verify against.
func (c ChannelConfig) records() scf.Records {
	return scf.Records{N: c.Records, Particles: c.Particles}
}

func (c ChannelConfig) dists() (dProd, dCons *distr.Distribution, err error) {
	if dProd, err = distr.New(c.Segments, c.Producers, distr.Block, 0); err != nil {
		return nil, nil, err
	}
	if dCons, err = distr.New(c.Segments, c.Consumers, distr.Cyclic, 0); err != nil {
		return nil, nil, err
	}
	return dProd, dCons, nil
}

// foldSegments digests one consumed record — the rank's local segments in
// global order, each re-encoded with the element codec — into sum, so the
// digest is a pure function of the consumed bytes on either path.
func foldSegments(sum uint64, rec int, d *distr.Distribution, slot int, local []scf.Segment, scratch *dstream.Encoder) uint64 {
	f := fnv.New64a()
	var hdr [8]byte
	for l := range local {
		g := d.GlobalIndex(slot, l)
		hdr[0], hdr[1], hdr[2], hdr[3] = byte(rec), byte(rec>>8), byte(rec>>16), byte(rec>>24)
		hdr[4], hdr[5], hdr[6], hdr[7] = byte(g), byte(g>>8), byte(g>>16), byte(g>>24)
		f.Write(hdr[:])
		scratch.Reset()
		local[l].StreamInsert(scratch)
		f.Write(scratch.Bytes())
	}
	return sum*1099511628211 ^ f.Sum64()
}

// ChannelReference runs the write-then-read file path fault-free on the same
// machine shape and returns each consumer slot's consumed-bytes digest — the
// oracle every chaotic channel run is compared to: the pipeline must deliver
// exactly the bytes the file system would have.
func ChannelReference(cfg ChannelConfig) ([]uint64, error) {
	cfg = cfg.withDefaults()
	p := cfg.Producers + cfg.Consumers
	dProd, dCons, err := cfg.dists()
	if err != nil {
		return nil, err
	}
	wOwners := make([]int, cfg.Segments)
	rOwners := make([]int, cfg.Segments)
	for g := 0; g < cfg.Segments; g++ {
		wOwners[g] = dProd.Owner(g)
		rOwners[g] = p - cfg.Consumers + dCons.Owner(g)
	}
	dW, err := distr.NewExplicit(wOwners, p)
	if err != nil {
		return nil, err
	}
	dR, err := distr.NewExplicit(rOwners, p)
	if err != nil {
		return nil, err
	}
	digests := make([]uint64, cfg.Consumers)
	_, err = machine.Run(machine.Config{
		NProcs:  p,
		Profile: vtime.Paragon(),
		FS:      pfs.NewMemFS(vtime.Paragon()),
	}, func(n *machine.Node) error {
		s, err := dstream.Open(n, dW, "chan-spool")
		if err != nil {
			return err
		}
		c, err := collection.New[scf.Segment](n, dW)
		if err != nil {
			return err
		}
		if err := cfg.records().Write(s, c); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}

		r, err := dstream.OpenInput(n, dR, "chan-spool")
		if err != nil {
			return err
		}
		back, err := collection.New[scf.Segment](n, dR)
		if err != nil {
			return err
		}
		// dR gives consumer slot k (machine rank p-Consumers+k) exactly
		// dCons's elements of slot k, in the same local order.
		slot := n.Rank() - (p - cfg.Consumers)
		var sum uint64
		var scratch dstream.Encoder
		if err := cfg.records().Read(r, back, func(rec int) error {
			if slot >= 0 {
				sum = foldSegments(sum, rec, dCons, slot, back.Local(), &scratch)
			}
			return nil
		}); err != nil {
			return err
		}
		if slot >= 0 {
			digests[slot] = sum
		}
		return r.Close()
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: fault-free file reference run failed: %w", err)
	}
	return digests, nil
}

// channelPipeline is the SPMD body of one channel-oracle run. The stalled
// consumer slot and record are seed-derived, so the campaign sweeps the
// stall across the group and the stream.
func channelPipeline(cfg ChannelConfig, seed int64, digests []uint64) func(*machine.Node) error {
	p := cfg.Producers + cfg.Consumers
	stallSlot := int(uint64(seed) % uint64(cfg.Consumers))
	stallRec := int((uint64(seed) >> 3) % uint64(cfg.Records))
	recs := cfg.records()
	return func(n *machine.Node) error {
		dProd, dCons, err := cfg.dists()
		if err != nil {
			return err
		}
		rank := n.Rank()
		if rank < cfg.Producers {
			s, err := dstream.OpenChannel(n, dProd, dCons, "chan-chaos",
				dstream.WithChannelWindow(cfg.Window))
			if err != nil {
				return err
			}
			local := make([]scf.Segment, s.LocalLen())
			for rec := 0; rec < cfg.Records; rec++ {
				recs.Fill(local, dProd, rank, rec)
				if err := dstream.InsertElems[scf.Segment](s, local); err != nil {
					return err
				}
				if err := s.Write(); err != nil {
					return err
				}
			}
			return s.Close()
		}

		r, err := dstream.OpenChannelInput(n, dCons, dProd, "chan-chaos",
			dstream.WithChannelWindow(cfg.Window))
		if err != nil {
			return err
		}
		slot := rank - (p - cfg.Consumers)
		local := make([]scf.Segment, r.LocalLen())
		var sum uint64
		var scratch dstream.Encoder
		for rec := 0; rec < cfg.Records; rec++ {
			if err := r.Read(); err != nil {
				return err
			}
			if err := dstream.ExtractElems[scf.Segment](r, local); err != nil {
				return err
			}
			if err := recs.Verify(local, dCons, slot, rec); err != nil {
				return err
			}
			sum = foldSegments(sum, rec, dCons, slot, local, &scratch)
			if slot == stallSlot && rec == stallRec {
				// The seeded mid-stream stall: this consumer stops reading in
				// real time while the producers run on until the credit
				// window closes over them.
				time.Sleep(cfg.Stall)
			}
		}
		digests[slot] = sum
		return r.Close()
	}
}

// channelScenario is ChannelConfig as a Scenario: one part, compared by
// consumed-bytes digest.
type channelScenario struct {
	cfg ChannelConfig
	ref []uint64
}

// Scenario returns the channel campaign over cfg: the consumed bytes must be
// exactly what the write-then-read file path delivers, or the run must fail
// cleanly on every rank — never hang, never corrupt.
func (c ChannelConfig) Scenario() Scenario { return &channelScenario{cfg: c.withDefaults()} }

func (s *channelScenario) Parts() int              { return 1 }
func (s *channelScenario) Watchdog() time.Duration { return s.cfg.Watchdog }

func (s *channelScenario) Reference() (err error) {
	s.ref, err = ChannelReference(s.cfg)
	return err
}

func (s *channelScenario) Run(seed int64, mon *dsmon.Monitor) []error {
	cfg := s.cfg
	p := cfg.Producers + cfg.Consumers
	digests := make([]uint64, cfg.Consumers)
	_, err := machine.Run(machine.Config{
		NProcs:  p,
		Profile: vtime.Paragon(),
		FS:      pfs.NewMemFS(vtime.Paragon()),
		Monitor: mon,
		WrapTransport: func(tr comm.Transport) comm.Transport {
			return NewTransport(tr, p, seed, cfg.Rates, mon)
		},
		RecvDeadline: cfg.RecvDeadline,
	}, channelPipeline(cfg, seed, digests))
	for slot, d := range digests {
		if err == nil && d != s.ref[slot] {
			err = fmt.Errorf("%w: consumer %d consumed %016x, file path delivers %016x",
				errCorrupt, slot, d, s.ref[slot])
		}
	}
	return []error{err}
}
