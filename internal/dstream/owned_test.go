package dstream

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// sendTap sees every message on its way to the wire. each runs under the
// tap's lock and may return an error to fail the send in the transport's
// place.
type sendTap struct {
	comm.Transport
	mu   sync.Mutex
	each func(m comm.Message) error
}

func (s *sendTap) Send(m comm.Message) error {
	s.mu.Lock()
	err := s.each(m)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.Transport.Send(m)
}

func tappedRun(t *testing.T, nprocs int, tap *sendTap, body func(n *machine.Node) error) {
	t.Helper()
	_, err := machine.Run(machine.Config{
		NProcs: nprocs, Profile: vtime.Challenge(), FS: pfs.NewMemFS(vtime.Challenge()),
		WrapTransport: func(tr comm.Transport) comm.Transport { tap.Transport = tr; return tap },
	}, body)
	if err != nil {
		t.Fatal(err)
	}
}

// isDataFrame tells a channel data frame from a credit, which is shorter than
// a frame header, and from an EOF marker, which is flagged.
func isDataFrame(m comm.Message) bool {
	return len(m.Data) >= chanFrameHeaderLen && m.Data[0]&chanFlagEOF == 0
}

// TestChannelFrameIsHandedOver: on a loopback channel (M = N = P, so every
// rank sends a frame to its peer and one to itself) the buffer a producer
// built a frame in is the buffer the consumer's record view decodes from —
// nobody copied it — and when both ends have closed every frame is back in
// the pool.
func TestChannelFrameIsHandedOver(t *testing.T) {
	const p, nElems, records = 2, 12, 3
	sent := map[[2]int][]*byte{} // (from, to) → first byte of each data frame, in order
	tap := &sendTap{each: func(m comm.Message) error {
		if isDataFrame(m) {
			if m.Mode != comm.Owned {
				return fmt.Errorf("data frame %d→%d sent borrowed", m.From, m.To)
			}
			k := [2]int{m.From, m.To}
			sent[k] = append(sent[k], &m.Data[0])
		}
		return nil
	}}
	base := bufpool.Stats().Outstanding
	tappedRun(t, p, tap, func(node *machine.Node) error {
		wd, _ := distr.New(nElems, p, distr.Block, 0)
		rd, _ := distr.New(nElems, p, distr.Cyclic, 0)
		s, err := OpenChannel(node, wd, rd, "own")
		if err != nil {
			return err
		}
		r, err := OpenChannelInput(node, rd, wd, "own")
		if err != nil {
			return err
		}
		in := make([]plist, s.LocalLen())
		out := make([]plist, r.LocalLen())
		for rec := 0; rec < records; rec++ {
			for l := range in {
				in[l] = mkPlist(wd.GlobalIndex(node.Rank(), l) + rec*5)
			}
			if err := InsertElems[plist](s, in); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
			for i := range s.dests {
				if s.dests[i].frame != nil {
					return fmt.Errorf("record %d: the producer still holds the frame it sent consumer %d", rec, s.dests[i].cons)
				}
			}
			if err := r.Read(); err != nil {
				return err
			}
			tap.mu.Lock()
			for i, src := range r.srcs {
				if got, want := &r.frames[i][0], sent[[2]int{src.rank, node.Rank()}][rec]; got != want {
					tap.mu.Unlock()
					return fmt.Errorf("record %d: the frame from producer %d was copied on its way here", rec, src.prod)
				}
			}
			tap.mu.Unlock()
			if err := ExtractElems[plist](r, out); err != nil {
				return err
			}
			for l := range out {
				g := rd.GlobalIndex(node.Rank(), l)
				if !plistEqual(out[l], mkPlist(g+rec*5)) {
					return fmt.Errorf("record %d element %d mismatch", rec, g)
				}
			}
		}
		if err := s.Close(); err != nil {
			return err
		}
		return r.Close()
	})
	if got := bufpool.Stats().Outstanding; got != base {
		t.Errorf("%d pooled buffers out after the pipeline closed", got-base)
	}
}

// TestChannelFailedWriteReturnsFrames: a Write holds one frame per
// destination before it sends any — the ones a lone insert was encoded into,
// or the ones a group of two was interleaved into. When the send to the k-th
// fails, the frames before it are their consumers', and the k-th and every
// later one go back to the pool there and then — the failed send left its
// buffer with the producer — so what is out is exactly the k−1 frames in
// flight. Close on the failed stream finds nothing left to release.
func TestChannelFailedWriteReturnsFrames(t *testing.T) {
	const consumers, nElems = 3, 12
	linkDown := errors.New("link down")
	for failAt := 1; failAt <= consumers; failAt++ {
		t.Run(fmt.Sprintf("send %d of %d fails", failAt, consumers), func(t *testing.T) {
			for _, shape := range []int{1, 2} {
				t.Run(fmt.Sprintf("inserts=%d", shape), func(t *testing.T) {
					failedWriteReturnsFrames(t, consumers, nElems, shape, failAt, linkDown)
				})
			}
		})
	}
}

func failedWriteReturnsFrames(t *testing.T, consumers, nElems, shape, failAt int, linkDown error) {
	t.Helper()
	frames := 0
	tap := &sendTap{each: func(m comm.Message) error {
		if isDataFrame(m) {
			if frames++; frames == failAt {
				return linkDown
			}
		}
		return nil
	}}
	tappedRun(t, 1+consumers, tap, func(node *machine.Node) error {
		if node.Rank() != 0 {
			return nil // what reaches a mailbox stays there until the machine stops
		}
		wd, _ := distr.New(nElems, 1, distr.Block, 0)
		rd, _ := distr.New(nElems, consumers, distr.Cyclic, 0)
		s, err := OpenChannel(node, wd, rd, "fail")
		if err != nil {
			return err
		}
		base := bufpool.Stats().Outstanding
		for i := 0; i < shape; i++ {
			if err := s.InsertFunc(func(l int, e *Encoder) { e.Raw(fillBytes(l, 40)) }); err != nil {
				return err
			}
		}
		if err := s.Write(); !errors.Is(err, ErrIO) || !errors.Is(err, linkDown) {
			return fmt.Errorf("Write over a dead link: %v, want ErrIO wrapping the link's error", err)
		}
		if got := bufpool.Stats().Outstanding - base; got != int64(failAt-1) {
			return fmt.Errorf("%d pooled buffers out after the failed Write, want the %d frames in flight", got, failAt-1)
		}
		for i := range s.dests {
			if s.dests[i].frame != nil {
				return fmt.Errorf("the failed Write left consumer %d's frame on the stream", s.dests[i].cons)
			}
		}
		if err := s.Write(); !errors.Is(err, ErrIO) {
			return fmt.Errorf("Write on the failed stream: %v, want the sticky ErrIO", err)
		}
		if err := s.Close(); err != nil {
			return fmt.Errorf("Close on the failed stream: %v", err)
		}
		if got := bufpool.Stats().Outstanding - base; got != int64(failAt-1) {
			return fmt.Errorf("Close moved the pool's account to %d, want %d: a frame was released twice", got, failAt-1)
		}
		return nil
	})
}

// TestChannelElementsEncodedInPlace: a channel's first insert is encoded
// straight into the frame of the consumer that owns each element, so the
// buffer the transport is handed holds every element where the encoder wrote
// it — there is no routing copy between them. It is checked on the records
// after the first, whose frames are sized by the record before and so never
// move while they fill.
func TestChannelElementsEncodedInPlace(t *testing.T) {
	const prods, cons, nElems, records = 2, 2, 24, 3
	var mu sync.Mutex
	wrote := map[[2]int]*byte{} // (record, global) → where its payload was encoded
	sent := map[[2]int]int{}    // (from, to) → data frames seen
	checked := 0
	tap := &sendTap{each: func(m comm.Message) error {
		if m.From >= prods || !isDataFrame(m) {
			return nil
		}
		k := [2]int{m.From, m.To}
		rec := sent[k]
		sent[k]++
		if rec == 0 {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		var d enc.Reader
		d.Reset(m.Data[chanFrameHeaderLen:])
		for d.Remaining() > 0 {
			g := int(d.Uint32())
			p := d.Raw(int(d.Uint32()))
			if d.Err() != nil {
				return d.Err()
			}
			if &p[0] != wrote[[2]int{rec, g}] {
				return fmt.Errorf("record %d: element %d was copied between the encoder and the frame to rank %d", rec, g, m.To)
			}
			checked++
		}
		return nil
	}}
	tappedRun(t, prods+cons, tap, func(node *machine.Node) error {
		wd, _ := distr.New(nElems, prods, distr.Cyclic, 0)
		rd, _ := distr.New(nElems, cons, distr.Block, 0)
		if node.Rank() >= prods {
			r, err := OpenChannelInput(node, rd, wd, "inplace")
			if err != nil {
				return err
			}
			for rec := 0; rec < records; rec++ {
				if err := r.Read(); err != nil {
					return err
				}
				if err := r.ExtractFunc(func(int, *Decoder) {}); err != nil {
					return err
				}
			}
			return r.Close()
		}
		s, err := OpenChannel(node, wd, rd, "inplace")
		if err != nil {
			return err
		}
		for rec := 0; rec < records; rec++ {
			err := s.InsertFunc(func(l int, e *Encoder) {
				g := wd.GlobalIndex(node.Rank(), l)
				e.Raw(fillBytes(g+rec, 40))
				mu.Lock()
				wrote[[2]int{rec, g}] = &e.Bytes()[0]
				mu.Unlock()
			})
			if err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
		}
		return s.Close()
	})
	if want := nElems * (records - 1); checked != want {
		t.Fatalf("checked %d elements in place, want %d", checked, want)
	}
}
