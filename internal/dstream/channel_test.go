package dstream

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// chanRun runs an SPMD body on a file-system-less machine config (channels
// never touch storage, but the harness still wants an FS for abort wiring).
func chanRun(t *testing.T, nprocs int, mon *dsmon.Monitor, body func(n *machine.Node) error) {
	t.Helper()
	fs := pfs.NewMemFS(vtime.Challenge())
	_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs, Monitor: mon}, body)
	if err != nil {
		t.Fatal(err)
	}
}

// pipeOnce pushes records through an M→N channel and verifies every
// extracted element on the consumer side. Each record carries two
// interleaved arrays (mkPlist(g) and mkPlist(g+offset)) so the element-major
// interleave is exercised like the file streams' group inserts.
func pipeOnce(t *testing.T, m, n, nElems, records int, wmode, rmode distr.Mode, opts ...Option) {
	t.Helper()
	p := m + n
	chanRun(t, p, nil, func(node *machine.Node) error {
		wd, err := distr.New(nElems, m, wmode, 0)
		if err != nil {
			return err
		}
		rd, err := distr.New(nElems, n, rmode, 0)
		if err != nil {
			return err
		}
		var perr, cerr error
		if node.Rank() < m {
			perr = chanProduce(node, wd, rd, records, opts...)
		}
		if node.Rank() >= p-n {
			cerr = chanConsume(node, rd, wd, records, opts...)
		}
		if perr != nil {
			return perr
		}
		return cerr
	})
}

func chanProduce(node *machine.Node, wd, rd *distr.Distribution, records int, opts ...Option) error {
	s, err := OpenChannel(node, wd, rd, "pipe", opts...)
	if err != nil {
		return err
	}
	defer s.Close()
	a := make([]plist, s.LocalLen())
	b := make([]plist, s.LocalLen())
	for rec := 0; rec < records; rec++ {
		for l := range a {
			g := wd.GlobalIndex(node.Rank(), l)
			a[l] = mkPlist(g + rec*7)
			b[l] = mkPlist(g + rec*7 + 1000)
		}
		if err := InsertElems[plist](s, a); err != nil {
			return err
		}
		if err := InsertElems[plist](s, b); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
	}
	return s.Close()
}

func chanConsume(node *machine.Node, rd, wd *distr.Distribution, records int, opts ...Option) error {
	r, err := OpenChannelInput(node, rd, wd, "pipe", opts...)
	if err != nil {
		return err
	}
	defer r.Close()
	grpRank := node.Rank() - (node.Size() - rd.NProcs)
	a := make([]plist, r.LocalLen())
	b := make([]plist, r.LocalLen())
	got := 0
	for {
		err := r.Read()
		if errors.Is(err, ErrEOS) {
			break
		}
		if err != nil {
			return err
		}
		if r.Arrays() != 2 {
			return fmt.Errorf("record %d has %d arrays, want 2", got, r.Arrays())
		}
		if err := ExtractElems[plist](r, a); err != nil {
			return err
		}
		if err := ExtractElems[plist](r, b); err != nil {
			return err
		}
		for l := range a {
			g := rd.GlobalIndex(grpRank, l)
			if want := mkPlist(g + got*7); !plistEqual(a[l], want) {
				return fmt.Errorf("record %d array 0 element %d mismatch", got, g)
			}
			if want := mkPlist(g + got*7 + 1000); !plistEqual(b[l], want) {
				return fmt.Errorf("record %d array 1 element %d mismatch", got, g)
			}
		}
		got++
	}
	if got != records {
		return fmt.Errorf("consumed %d records, want %d", got, records)
	}
	if !r.EOF() {
		return fmt.Errorf("EOF() false after ErrEOS")
	}
	return r.Close()
}

// TestChannelGrid: the M→N matrix with differing layouts on the two ends —
// every cell redistributes on the fly, and every element arrives at its
// consumer-side local index intact.
func TestChannelGrid(t *testing.T) {
	cells := []struct{ m, n int }{{1, 1}, {2, 2}, {4, 2}, {2, 4}, {1, 3}, {3, 1}}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%dto%d", c.m, c.n), func(t *testing.T) {
			pipeOnce(t, c.m, c.n, 23, 3, distr.Block, distr.Cyclic)
		})
	}
}

// TestChannelSameLayout: M = N with identical layouts — the degenerate
// pair-wise pipe — still frames and routes correctly.
func TestChannelSameLayout(t *testing.T) {
	pipeOnce(t, 2, 2, 16, 3, distr.Block, distr.Block)
}

// TestChannelSmallWindow: a credit window far below the per-record frame
// size forces the oversize-frame path (outstanding == 0 always sends) and
// a credit wait on every subsequent write; the pipeline must still drain
// completely and observe credit stalls.
func TestChannelSmallWindow(t *testing.T) {
	mon := dsmon.New()
	const m, n, nElems, records = 2, 2, 23, 4
	chanRun(t, m+n, mon, func(node *machine.Node) error {
		wd, _ := distr.New(nElems, m, distr.Block, 0)
		rd, _ := distr.New(nElems, n, distr.Cyclic, 0)
		var perr, cerr error
		if node.Rank() < m {
			perr = chanProduce(node, wd, rd, records, WithChannelWindow(64))
		}
		if node.Rank() >= 2 {
			cerr = chanConsume(node, rd, wd, records)
		}
		if perr != nil {
			return perr
		}
		return cerr
	})
	reg := mon.Registry()
	if c := reg.Histogram("dstream_chan_stall_seconds", "", dsmon.LatencyBuckets, "phase", "credit").Count(); c == 0 {
		t.Error("no credit-stall observations with a 64-byte window")
	}
	if v := reg.Gauge("dstream_chan_credits", "").Value(); v != 0 {
		t.Errorf("credits gauge = %v after a fully drained run, want 0", v)
	}
}

// TestChannelEarlyConsumerClose: a consumer that stops after one record
// must drain (and credit) the rest of the stream on Close, so producers
// blocked on the window finish cleanly instead of hanging.
func TestChannelEarlyConsumerClose(t *testing.T) {
	mon := dsmon.New()
	const m, n, nElems, records = 2, 2, 23, 6
	chanRun(t, m+n, mon, func(node *machine.Node) error {
		wd, _ := distr.New(nElems, m, distr.Block, 0)
		rd, _ := distr.New(nElems, n, distr.Block, 0)
		if node.Rank() < m {
			return chanProduce(node, wd, rd, records, WithChannelWindow(64))
		}
		r, err := OpenChannelInput(node, rd, wd, "pipe")
		if err != nil {
			return err
		}
		if err := r.Read(); err != nil {
			return err
		}
		return r.Close()
	})
	if v := mon.Registry().Counter("dstream_chan_drained_bytes_total", "").Value(); v == 0 {
		t.Error("early close drained no bytes")
	}
}

// TestChannelConsumerWithoutElements: a consumer owning zero elements still
// paces through empty marker frames from producer rank 0 and sees EOF.
func TestChannelConsumerWithoutElements(t *testing.T) {
	const m, n, nElems, records = 2, 2, 8, 3
	owners := make([]int, nElems) // every element on consumer group rank 0
	chanRun(t, m+n, nil, func(node *machine.Node) error {
		wd, err := distr.New(nElems, m, distr.Block, 0)
		if err != nil {
			return err
		}
		rd, err := distr.NewExplicit(owners, n)
		if err != nil {
			return err
		}
		var perr, cerr error
		if node.Rank() < m {
			perr = chanProduce(node, wd, rd, records)
		}
		if node.Rank() >= m {
			cerr = chanConsume(node, rd, wd, records)
		}
		if perr != nil {
			return perr
		}
		return cerr
	})
}

// TestChannelLoopback: overlapping groups (M = N = P), each rank both
// producing and consuming, writes-then-reads record by record so its own
// in-flight bytes stay below the window.
func TestChannelLoopback(t *testing.T) {
	const p, nElems, records = 2, 12, 3
	chanRun(t, p, nil, func(node *machine.Node) error {
		wd, _ := distr.New(nElems, p, distr.Block, 0)
		rd, _ := distr.New(nElems, p, distr.Cyclic, 0)
		s, err := OpenChannel(node, wd, rd, "loop")
		if err != nil {
			return err
		}
		defer s.Close()
		r, err := OpenChannelInput(node, rd, wd, "loop")
		if err != nil {
			return err
		}
		defer r.Close()
		in := make([]plist, s.LocalLen())
		out := make([]plist, r.LocalLen())
		for rec := 0; rec < records; rec++ {
			for l := range in {
				in[l] = mkPlist(wd.GlobalIndex(node.Rank(), l) + rec*7)
			}
			if err := InsertElems[plist](s, in); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
			if err := r.Read(); err != nil {
				return err
			}
			if err := ExtractElems[plist](r, out); err != nil {
				return err
			}
			for l := range out {
				g := rd.GlobalIndex(node.Rank(), l)
				if want := mkPlist(g + rec*7); !plistEqual(out[l], want) {
					return fmt.Errorf("record %d element %d mismatch", rec, g)
				}
			}
		}
		if err := s.Close(); err != nil {
			return err
		}
		if err := r.Read(); !errors.Is(err, ErrEOS) {
			return fmt.Errorf("read after close = %v, want ErrEOS", err)
		}
		return r.Close()
	})
}

// TestChannelInsertElemsLength: InsertElems takes exactly the producer's
// share. (The order errors a channel shares with the file streams — and
// Strict, and use after close — are rows of TestFigure2Table.)
func TestChannelInsertElemsLength(t *testing.T) {
	chanRun(t, 2, nil, func(node *machine.Node) error {
		if node.Rank() != 0 {
			return nil
		}
		d, _ := distr.New(8, 1, distr.Block, 0)
		// No consumer attaches: the failed insert never reaches the wire.
		s, err := OpenChannel(node, d, d, "solo")
		if err != nil {
			return err
		}
		if err := InsertElems[plist](s, make([]plist, 1)); !errors.Is(err, ErrNotAligned) {
			return fmt.Errorf("short InsertElems = %v, want ErrNotAligned", err)
		}
		return nil
	})
}

// TestChannelOpenErrors: group membership and layout agreement are checked
// at open, before any communication.
func TestChannelOpenErrors(t *testing.T) {
	chanRun(t, 2, nil, func(node *machine.Node) error {
		wd, _ := distr.New(8, 1, distr.Block, 0)
		rd, _ := distr.New(8, 1, distr.Block, 0)
		rdBad, _ := distr.New(9, 1, distr.Block, 0)
		big, _ := distr.New(8, 3, distr.Block, 0)
		if _, err := OpenChannel(node, wd, rdBad, "x"); err == nil {
			return fmt.Errorf("mismatched element counts accepted")
		}
		if _, err := OpenChannel(node, big, rd, "x"); err == nil {
			return fmt.Errorf("oversized group accepted")
		}
		if node.Rank() == 1 {
			if _, err := OpenChannel(node, wd, rd, "x"); err == nil ||
				!strings.Contains(err.Error(), "outside the channel's producer group") {
				return fmt.Errorf("rank outside producer group: err = %v", err)
			}
		}
		if node.Rank() == 0 {
			if _, err := OpenChannelInput(node, rd, wd, "x"); err == nil ||
				!strings.Contains(err.Error(), "outside the channel's consumer group") {
				return fmt.Errorf("rank outside consumer group: err = %v", err)
			}
		}
		return nil
	})
}

// TestChannelNameReuse: a name can carry one channel after another inside
// one machine run. The consumer acknowledges a record's frames when its next
// Read or its Close retires them, so the last credits of every channel reach
// a producer that has already closed and stay in its mailbox; the next
// channel of the name runs on tags of its own generation and never sees
// them. (Before generations it took them for its own and failed
// "over-credited" at its first credit wait.)
func TestChannelNameReuse(t *testing.T) {
	const rounds, records = 4, 6
	chanRun(t, 2, nil, func(n *machine.Node) error {
		d, err := distr.New(8, 1, distr.Block, 0)
		if err != nil {
			return err
		}
		for round := 0; round < rounds; round++ {
			if n.Rank() == 0 {
				// A window below one frame: every Write after the first
				// waits for the previous record's credit.
				s, err := OpenChannel(n, d, d, "again", WithChannelWindow(64))
				if err != nil {
					return err
				}
				for rec := 0; rec < records; rec++ {
					// Frames grow with the record, so the credit a channel
					// leaves behind is larger than the first frame of the next.
					err := s.InsertFunc(func(l int, e *Encoder) {
						for i := 0; i <= rec; i++ {
							e.Int64(int64(round*1000 + rec*10 + l))
						}
					})
					if err != nil {
						return err
					}
					if err := s.Write(); err != nil {
						return fmt.Errorf("round %d record %d: %w", round, rec, err)
					}
				}
				if err := s.Close(); err != nil {
					return err
				}
				continue
			}
			r, err := OpenChannelInput(n, d, d, "again")
			if err != nil {
				return err
			}
			for rec := 0; rec < records; rec++ {
				if err := r.Read(); err != nil {
					return fmt.Errorf("round %d record %d: %w", round, rec, err)
				}
				var bad error
				err := r.ExtractFunc(func(l int, dec *Decoder) {
					for i := 0; i <= rec; i++ {
						if got, want := dec.Int64(), int64(round*1000+rec*10+l); got != want && bad == nil {
							bad = fmt.Errorf("round %d record %d element %d: got %d, want %d", round, rec, l, got, want)
						}
					}
				})
				if err != nil {
					return err
				}
				if bad != nil {
					return bad
				}
			}
			if err := r.Read(); !errors.Is(err, ErrEOS) {
				return fmt.Errorf("round %d: read past the last record: %v, want ErrEOS", round, err)
			}
			if err := r.Close(); err != nil {
				return err
			}
		}
		return nil
	})
}
