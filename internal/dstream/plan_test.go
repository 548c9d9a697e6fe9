package dstream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"pcxxstreams/internal/collective"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// planChainRun writes one record per entry of records — its total data
// bytes, spread evenly over nElems BLOCK-distributed elements, element 0
// taking the remainder — on nprocs StrategyAuto ranks, reads them back sorted
// into a CYCLIC layout, and returns the file image with every rank's plan
// signature for both directions. With late set, a rank first computes for
// late(rank) virtual seconds before each read, and after it the ranks check
// that they planned from one origin, bit for bit, before reading on: plans
// made from different origins may pick different strategies for the next
// record, and a group split that way hangs in it.
func planChainRun(t *testing.T, prof vtime.Profile, nprocs, nElems int, records []int, late func(rank int) float64) (img []byte, wsig, rsig []uint64) {
	t.Helper()
	// Payloads are windows of one pattern, a different one for every element
	// of a record: the largest records are tens of megabytes.
	pattern := fillBytes(0, slices.Max(records)/nElems+2*nElems)
	payload := func(rec, g int) []byte {
		size := records[rec] / nElems
		if g == 0 {
			size += records[rec] % nElems
		}
		return pattern[(g+rec)%nElems:][:size]
	}
	fs := pfs.NewFileSystem(prof, pfs.StripedMemFactory(4, 64<<10))
	wsig, rsig = make([]uint64, nprocs), make([]uint64, nprocs)
	cfg := machine.Config{NProcs: nprocs, Profile: prof, FS: fs}
	if late != nil {
		cfg.RecvDeadline = 5 * time.Second // a split group fails instead of hanging
	}
	_, err := machine.Run(cfg, func(n *machine.Node) error {
		wd, err := distr.New(nElems, nprocs, distr.Block, 0)
		if err != nil {
			return err
		}
		s, err := Open(n, wd, "chain")
		if err != nil {
			return err
		}
		for rec := range records {
			err := s.InsertFunc(func(l int, e *Encoder) { e.Raw(payload(rec, wd.GlobalIndex(n.Rank(), l))) })
			if err == nil {
				err = s.Write()
			}
			if err != nil {
				return err
			}
		}
		wsig[n.Rank()] = s.PlanSignature()
		if err := s.Close(); err != nil {
			return err
		}

		rd, err := distr.New(nElems, nprocs, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		in, err := OpenInput(n, rd, "chain")
		if err != nil {
			return err
		}
		defer in.Close()
		for rec := range records {
			if late != nil {
				n.Compute(late(n.Rank()))
			}
			if err := in.Read(); err != nil {
				return err
			}
			if late != nil {
				lo, err := n.Comm().Allreduce(in.planStart, collective.OpMin)
				if err != nil {
					return err
				}
				hi, err := n.Comm().Allreduce(in.planStart, collective.OpMax)
				if err != nil {
					return err
				}
				if lo != hi {
					return fmt.Errorf("record %d: the ranks plan from origins %v to %v", rec, lo, hi)
				}
			}
			var bad error
			err := in.ExtractFunc(func(l int, d *Decoder) {
				g := rd.GlobalIndex(n.Rank(), l)
				if !bytes.Equal(d.Raw(d.Remaining()), payload(rec, g)) {
					bad = fmt.Errorf("rank %d record %d global %d: wrong bytes", n.Rank(), rec, g)
				}
			})
			if err == nil {
				err = bad
			}
			if err != nil {
				return err
			}
		}
		rsig[n.Rank()] = in.PlanSignature()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if img, err = fs.Image("chain"); err != nil {
		t.Fatal(err)
	}
	return img, wsig, rsig
}

// TestPlanChainsRankIdenticalOnTheTree: the planner's observed costs are
// clock deltas from the instant a collective released the group, so its
// decisions are rank-identical only while that instant is. Past 16 ranks the
// collectives take the tree shape; on every profile, all 64 ranks of a
// stream of 16 records that step from under a KiB to a MiB or two and back —
// across the sizes where a fresh 16-rank planner picks two-phase and where it
// picks the funnel — end with one plan signature per direction, and the file
// they wrote is, byte for byte, the one 16 ranks on the flat shape write
// (BLOCK keeps file order global order at any node count; the record header's
// node count is the one field that differs, and is masked). The last run is
// the witness that this is not idle: on a tree that lets each rank leave when its own copy of the release
// arrives, as the k-ary tree did while it was an option, one 8 KiB record
// leaves the 64 CM5 ranks' two-phase calibrations far enough apart that they
// give the strategy up for the funnel anywhere from 34 222 449 to 34 224 497
// data bytes; the second record sits in the middle, where 27 of them have
// and 37 have not, and the write fails.
func TestPlanChainsRankIdenticalOnTheTree(t *testing.T) {
	const nElems = 256
	agree := func(name string, wsig, rsig []uint64) {
		t.Helper()
		for r := range wsig {
			if wsig[r] != wsig[0] || rsig[r] != rsig[0] {
				t.Errorf("%s: rank %d plan chains %#x/%#x, rank 0 %#x/%#x", name, r, wsig[r], rsig[r], wsig[0], rsig[0])
			}
		}
	}
	ramp := func(unit int) []int {
		return []int{unit, unit << 4, unit << 8, unit << 11, unit << 12, unit<<12 + unit<<5, unit << 8, unit << 4, unit,
			unit, unit << 4, unit << 8, unit << 4, unit, unit, unit}
	}
	for _, c := range []struct {
		prof    vtime.Profile
		records []int
	}{{vtime.Paragon(), ramp(512)}, {vtime.CM5(), ramp(512)}, {vtime.Challenge(), ramp(128)}} {
		ref, _, _ := planChainRun(t, c.prof, 16, nElems, c.records, nil)
		img, wsig, rsig := planChainRun(t, c.prof, 64, nElems, c.records, nil)
		agree(c.prof.Name, wsig, rsig)
		if !bytes.Equal(maskWriterProcs(t, img), maskWriterProcs(t, ref)) {
			t.Errorf("%s: 64-rank file differs from the 16-rank flat reference beyond the node count", c.prof.Name)
		}
	}
	_, wsig, rsig := planChainRun(t, vtime.CM5(), 64, nElems, []int{8 << 10, 34223713}, nil)
	agree("witness", wsig, rsig)
}

// TestReadPlanOriginWhenRankZeroArrivesFirst: a reader's plan origin is the
// node-0 instant its front matter carries, so it is one instant on every rank
// in whatever order the ranks reach the broadcast. Here every rank but 0
// arrives late at every read, each by its own amount and by more than node
// 0's reads take, so rank 0 is first in and the others leave the broadcast on
// their own clocks — on the flat shape (4 ranks) and on the tree (64). After
// every record the origin is bit-equal on every rank (planChainRun checks),
// and so are the plan chains.
func TestReadPlanOriginWhenRankZeroArrivesFirst(t *testing.T) {
	records := []int{1 << 9, 1 << 13, 1 << 17, 1 << 20, 1 << 13, 1 << 9, 1 << 9, 1 << 17}
	for _, nprocs := range []int{4, 64} {
		_, wsig, rsig := planChainRun(t, vtime.CM5(), nprocs, 256, records, func(r int) float64 { return float64(r) * 10e-3 })
		for r := range wsig {
			if wsig[r] != wsig[0] || rsig[r] != rsig[0] {
				t.Errorf("%d ranks: rank %d plan chains %#x/%#x, rank 0 %#x/%#x", nprocs, r, wsig[r], rsig[r], wsig[0], rsig[0])
			}
		}
	}
}

// maskWriterProcs returns img with the writer node count of every record
// header zeroed.
func maskWriterProcs(t *testing.T, img []byte) []byte {
	t.Helper()
	out := bytes.Clone(img)
	for off := int64(enc.FileHeaderLen); off < int64(len(out)); {
		h, err := enc.DecodeRecordHeader(out[off:])
		if err != nil {
			t.Fatalf("record at %d: %v", off, err)
		}
		binary.LittleEndian.PutUint32(out[off+12:], 0) // magic, NArrays, NElems, then NProcs
		off += h.TotalBytes()
	}
	return out
}
