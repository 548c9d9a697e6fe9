package dstream

import (
	"fmt"
	"slices"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
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
// s.decs[l] is pointed at local slot l's payload.
//
// Nothing is copied to cross ranks but what must be gathered: a destination
// whose positions are one run of the share is lent that run as it stands, and
// the strided destinations are packed, each into its part of one pooled
// buffer, which is lent too. Both go out under one of the stream's leases
// (comm.Lease): on the in-process transport the receivers' decoders read them
// where they are, and the share and the pack go back to the pool when the
// last reader — this rank included — releases the lease in releaseFrames.
// chunk is the stream's refill share, so once any of it is lent it is the
// lease's and s.refill lets go of it; payloads this rank keeps stay in it.
// The other ranks' payloads alias what they lent, or the copies a copying
// transport delivered, which the stream holds until releaseFrames.
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
	var pack []byte
	var sendBytes int
	lendShare := false
	for d := range bufs {
		pos := pl.send[pl.sendStart[d]:pl.sendStart[d+1]]
		if d == me || len(pos) == 0 {
			continue
		}
		first, last := pos[0], pos[len(pos)-1]
		if last-first == len(pos)-1 {
			bufs[d] = payload(first, last)
			sendBytes += len(bufs[d])
			lendShare = lendShare || len(bufs[d]) > 0
			continue
		}
		if pack == nil {
			pack = bufpool.GetCap(len(chunk)) // what is packed is part of the share
		}
		at := len(pack)
		for i := 0; i < len(pos); {
			j := i + 1
			for j < len(pos) && pos[j] == pos[j-1]+1 {
				j++
			}
			pack = append(pack, payload(pos[i], pos[j-1])...)
			i = j
		}
		bufs[d] = pack[at:] // to pack's end, where its lease finds it
		sendBytes += len(pack) - at
	}
	s.node.CopyCost(int64(sendBytes))

	var lease *comm.Lease
	if lendShare || pack != nil {
		var share []byte
		if lendShare {
			share, s.refill = chunk, nil // the lease's now
		}
		lease = s.idleLease()
		lease.Arm(share, pack)
	}
	// The stream keeps the frames and lease lists from record to record;
	// every received frame is the stream's to release, error or not, until
	// releaseFrames.
	recv := sendBufs(&s.frames, nprocs)
	if len(s.leases) != nprocs {
		s.leases = make([]*comm.Lease, nprocs)
	}
	err := s.node.Comm().AlltoallvLeased(bufs, recv, s.leases)
	clear(bufs)
	if err != nil {
		// A peer may still be reading what it was lent.
		if lease != nil {
			lease.Abandon()
		}
		return fmt.Errorf("dstream: redistribute: %w", err)
	}
	s.leases[me] = lease
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

// idleLease returns a lease for this record's share to go out under: one of
// the stream's two, or a new one when neither is idle. The lease lent for
// record k is idle by record k+2 whenever record k+1 was redistributed too,
// because that exchange cannot close before every rank has entered its Read
// and released its hold on record k; a record between them that was skipped
// or read without an exchange can leave both held.
func (s *IStream) idleLease() *comm.Lease {
	for i := range s.lends {
		if s.lends[i].Idle() {
			return &s.lends[i]
		}
	}
	return new(comm.Lease)
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

// releaseFrames ends the current record's hold on the frames its
// redistributed elements alias — releasing each lease a frame was lent
// under, this rank's own share's included, and returning each frame that is
// the stream's own copy — and returns the frame its front matter arrived in.
// Called wherever the refill buffer's contents die: the next Read,
// UnsortedRead or Skip, and Close.
func (s *IStream) releaseFrames() {
	for r, b := range s.frames {
		if l := s.leases[r]; l != nil {
			l.Release()
			s.leases[r] = nil
		} else {
			bufpool.Put(b)
		}
		s.frames[r] = nil
	}
	bufpool.Put(s.metaFrame)
	s.metaFrame = nil
}
