package dstream

import (
	"fmt"
	"slices"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/enc"
)

// redistPlan is phase two of the sorted read (§4.1) worked out before a data
// byte moves: for one writer distribution read into this stream's
// distribution, which of the file positions this rank reads go to which
// rank, and which local slot every position this rank receives lands in.
// The descriptor and the size table sit ahead of the data so that every node
// can know this; both ends of each exchange derive the same plan from them,
// and the wire carries bare payloads in ascending file position — no
// per-element header.
type redistPlan struct {
	// Send side: rank d is sent positions send[sendStart[d]:sendStart[d+1]]
	// of this rank's share, ascending.
	sendStart []int
	send      []int
	// Receive side: rank r sends this rank positions
	// recv[recvStart[r]:recvStart[r+1]], ascending; recv[i] lands in local
	// slot slot[i]. Rank me's own entries are placed straight from its share.
	recvStart []int
	recv      []int
	slot      []int
	// err is set when the plan does not place every local slot exactly once.
	// Two valid distributions cannot produce that; it is reported after the
	// exchange so that a rank that sees it leaves no peer waiting.
	err error
}

// buildRedistPlan derives rank me's plan. order is the writer's file order
// (position → global index) and starts the reader split of positions.
func buildRedistPlan(order, starts []int, rd *distr.Distribution, me int) *redistPlan {
	nprocs := rd.NProcs
	lo, hi := starts[me], starts[me+1]
	pl := &redistPlan{
		sendStart: make([]int, nprocs+1),
		send:      make([]int, hi-lo),
		recvStart: make([]int, nprocs+1),
		recv:      make([]int, 0, hi-lo),
		slot:      make([]int, 0, hi-lo),
	}
	for _, g := range order[lo:hi] {
		pl.sendStart[rd.Owner(g)+1]++
	}
	for d := 0; d < nprocs; d++ {
		pl.sendStart[d+1] += pl.sendStart[d]
	}
	next := append([]int(nil), pl.sendStart[:nprocs]...)
	for p := lo; p < hi; p++ {
		d := rd.Owner(order[p])
		pl.send[next[d]] = p
		next[d]++
	}

	seen := make([]bool, hi-lo)
	for r := 0; r < nprocs; r++ {
		for p := starts[r]; p < starts[r+1]; p++ {
			g := order[p]
			if rd.Owner(g) != me {
				continue
			}
			l := rd.LocalIndex(g)
			if l >= len(seen) || seen[l] {
				pl.err = fmt.Errorf("dstream: local slot %d (global %d) placed twice", l, g)
				return pl
			}
			seen[l] = true
			pl.recv = append(pl.recv, p)
			pl.slot = append(pl.slot, l)
		}
		pl.recvStart[r+1] = len(pl.recv)
	}
	for l, ok := range seen {
		if !ok {
			pl.err = fmt.Errorf("dstream: local slot %d (global %d) never placed", l, rd.GlobalIndex(me, l))
			return pl
		}
	}
	return pl
}

// planFor returns the redistribution plan for records written under wdist,
// kept for as long as wdist is the cached writer distribution (like wOrder;
// a prefetched record may carry one the cache has moved past).
func (s *IStream) planFor(wdist *distr.Distribution) *redistPlan {
	if wdist == s.wdist && s.wPlan != nil {
		return s.wPlan
	}
	pl := buildRedistPlan(s.orderOf(wdist), s.rankStarts(), s.dist, s.node.Rank())
	if wdist == s.wdist {
		s.wPlan = pl
	}
	return pl
}

// redistribute is phase two of the sorted read: every element of chunk — this
// rank's share, file positions [lo, hi), sized by the record's raw size table
// — is routed to the rank that owns it under the reader's distribution, and
// s.decs[l] is pointed at local slot l's payload. Payloads from this rank
// stay in chunk; the others alias the received frames, which the stream holds
// until releaseFrames.
func (s *IStream) redistribute(pl *redistPlan, chunk []byte, table []byte, lo, hi int) error {
	me := s.node.Rank()
	nprocs := s.dist.NProcs
	// The share is sent from in any order, so its positions need offsets.
	s.offs = shareOffsets(s.offs, table, lo, hi)
	offs := s.offs
	payload := func(from, to int) []byte { // positions [from, to] of the share
		return chunk[offs[from-lo]:offs[to+1-lo]]
	}

	bufs := sendBufs(&s.sendBufs, nprocs)
	packed := s.packed[:0]
	var sendBytes int64
	for d := range bufs {
		pos := pl.send[pl.sendStart[d]:pl.sendStart[d+1]]
		if d == me || len(pos) == 0 {
			continue
		}
		first, last := pos[0], pos[len(pos)-1]
		if last-first == len(pos)-1 {
			// One contiguous run: the wire's copy is the only copy.
			bufs[d] = payload(first, last)
			sendBytes += int64(len(bufs[d]))
			continue
		}
		n := 0
		for _, p := range pos {
			n += offs[p+1-lo] - offs[p-lo]
		}
		b := bufpool.GetCap(n)
		for i := 0; i < len(pos); {
			j := i + 1
			for j < len(pos) && pos[j] == pos[j-1]+1 {
				j++
			}
			b = append(b, payload(pos[i], pos[j-1])...)
			i = j
		}
		bufs[d] = b
		packed = append(packed, b)
		sendBytes += int64(n)
	}
	s.node.CopyCost(sendBytes)

	// The stream keeps the frames list from record to record; every received
	// frame is the stream's, error or not, until releaseFrames.
	recv := sendBufs(&s.frames, nprocs)
	err := s.node.Comm().AlltoallvInto(bufs, recv)
	for i, b := range packed {
		bufpool.Put(b)
		packed[i] = nil
	}
	s.packed = packed[:0]
	if err != nil {
		return fmt.Errorf("dstream: redistribute: %w", err)
	}
	if pl.err != nil {
		return pl.err
	}
	for r, frame := range recv {
		pos := pl.recv[pl.recvStart[r]:pl.recvStart[r+1]]
		slots := pl.slot[pl.recvStart[r]:pl.recvStart[r+1]]
		if r == me {
			for i, p := range pos {
				s.decs[slots[i]].Reset(payload(p, p))
			}
			continue
		}
		// The plan fixes the frame's length: the sizes of pos, summed. They
		// are another rank's positions, read from the table where they stand.
		off := 0
		for i, p := range pos {
			n := enc.SizeAt(table, p)
			if n > len(frame)-off {
				return fmt.Errorf("dstream: frame from rank %d is %d bytes, short of the plan's at position %d", r, len(frame), p)
			}
			s.decs[slots[i]].Reset(frame[off : off+n : off+n])
			off += n
		}
		if off != len(frame) {
			return fmt.Errorf("dstream: frame from rank %d is %d bytes, the plan's elements total %d", r, len(frame), off)
		}
	}
	return nil
}

// shareOffsets is the prefix sum of one rank's part of a raw size table and no
// more: offs[i] is where file position lo+i starts in the share [lo, hi),
// offs[hi-lo] the share's length. The result reuses scratch when it is large
// enough.
func shareOffsets(scratch []int, table []byte, lo, hi int) []int {
	offs := slices.Grow(scratch[:0], hi-lo+1)[:hi-lo+1]
	offs[0] = 0
	for p := lo; p < hi; p++ {
		offs[p-lo+1] = offs[p-lo] + enc.SizeAt(table, p)
	}
	return offs
}

// releaseFrames returns the frames the current record's redistributed
// elements alias, and the one its front matter arrived in. Called wherever
// the refill buffer's contents die: the next Read, UnsortedRead or Skip, and
// Close.
func (s *IStream) releaseFrames() {
	for i, b := range s.frames {
		bufpool.Put(b)
		s.frames[i] = nil
	}
	bufpool.Put(s.metaFrame)
	s.metaFrame = nil
}
