package scf

import (
	"errors"
	"fmt"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dstream"
)

// ErrMismatch reports a segment that differs from what its generator
// produces: every harness that reads records back classifies wrong bytes
// with errors.Is against it.
var ErrMismatch = errors.New("scf: segment differs from its generator")

// Records is the round trip every harness runs (§4.3, Figure 3): N records
// of a Segment collection written through a d/stream and read back, element
// g of record r filled from generator index Base + g + 1000·r, so any rank
// of any run can check what it reads without communication. The streams
// arrive open and stay open: opening, options and closing are the caller's.
type Records struct {
	N         int
	Particles int
	Base      int
}

// Fill regenerates one rank's local segments (under d) for record rec.
func (rs Records) Fill(local []Segment, d *distr.Distribution, rank, rec int) {
	for l := range local {
		local[l].Fill(rs.Base+d.GlobalIndex(rank, l)+1000*rec, rs.Particles)
	}
}

// Verify checks one rank's local segments of record rec against the
// generator; a difference is an ErrMismatch naming the record, the global
// index and the rank.
func (rs Records) Verify(local []Segment, d *distr.Distribution, rank, rec int) error {
	var want Segment
	for l := range local {
		g := d.GlobalIndex(rank, l)
		want.Fill(rs.Base+g+1000*rec, rs.Particles)
		if !local[l].Equal(&want) {
			return fmt.Errorf("%w: record %d global %d on rank %d", ErrMismatch, rec, g, rank)
		}
	}
	return nil
}

// Write fills c and writes it as one record, N times.
func (rs Records) Write(out *dstream.OStream, c *collection.Collection[Segment]) error {
	for rec := 0; rec < rs.N; rec++ {
		rs.Fill(c.Local(), c.Dist(), c.Node().Rank(), rec)
		if err := dstream.Insert[Segment](out, c); err != nil {
			return err
		}
		if err := out.Write(); err != nil {
			return err
		}
	}
	return nil
}

// Read reads N records into c, verifying each against the generator and
// then calling each (when non-nil) — the consumer's per-record work.
func (rs Records) Read(in *dstream.IStream, c *collection.Collection[Segment], each func(rec int) error) error {
	for rec := 0; rec < rs.N; rec++ {
		if err := in.Read(); err != nil {
			return err
		}
		if err := dstream.Extract[Segment](in, c); err != nil {
			return err
		}
		if err := rs.Verify(c.Local(), c.Dist(), c.Node().Rank(), rec); err != nil {
			return err
		}
		if each != nil {
			if err := each(rec); err != nil {
				return err
			}
		}
	}
	return nil
}
