package dstream

import (
	"encoding/binary"
	"fmt"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/dsmon"
)

// Two-phase collective buffering: instead of every rank hitting the PFS
// with its own (often small) block, the ranks shuffle their encoded element
// payloads over the interconnect to K aggregator ranks, each of which moves
// one large stripe-aligned contiguous extent in a single parallel
// operation. K follows the file's stripe factor, so one aggregator feeds
// one stripe device — the server-side data reorganization of the
// ViPIOS/MPI-IO collective-I/O line of work, grafted onto the paper's
// d/stream record format without changing a byte of it.

// stripeCuts partitions the [0, total) byte span of a data section that
// will occupy file offsets [base, base+total) into k contiguous extents.
// Interior boundaries are pulled up to the nearest stripe-cell boundary of
// the file, so each aggregator's extent covers whole cells (except at the
// ragged ends of the record). The k+1 cut points are monotone, with
// cuts[0] = 0 and cuts[k] = total; an extent may be empty when the record
// is smaller than the stripe geometry.
func stripeCuts(base, total int64, k int, unit int64) []int64 {
	cuts := make([]int64, k+1)
	cuts[k] = total
	for j := 1; j < k; j++ {
		ideal := base + total*int64(j)/int64(k)
		aligned := ideal
		if unit > 0 {
			aligned = (ideal + unit - 1) / unit * unit
		}
		cut := aligned - base
		if cut < cuts[j-1] {
			cut = cuts[j-1]
		}
		if cut > total {
			cut = total
		}
		cuts[j] = cut
	}
	return cuts
}

// sendBufs returns *scratch as one exchange's send or receive list: n
// entries, none set. A stream keeps the list from record to record.
func sendBufs(scratch *[][]byte, n int) [][]byte {
	if len(*scratch) != n {
		*scratch = make([][]byte, n)
	}
	clear(*scratch)
	return *scratch
}

// putAll gives every buffer in bufs back to the pool and clears its entry.
func putAll(bufs [][]byte) {
	for i, b := range bufs {
		bufpool.Put(b)
		bufs[i] = nil
	}
}

// writeTwoPhase is the two-phase record flush: a shuffle in front of the
// funnel. The record's bytes are identical to writeFunnel's — metadata
// funnels through node 0 and rides the same single parallel append as the
// data — and only the rank→block assignment of the data section changes,
// from "every rank appends its own elements" to "K aggregators append
// stripe-aligned extents". So this function owns the shuffle and nothing
// else: it trades each rank's data for that rank's extent (empty off the
// aggregators) — as the pieces the shuffle delivered, never as one assembled
// buffer — and hands those pieces to writeFunnel.
//
// The shuffle lends: an aggregator's pieces are, on the in-process
// transport, sub-slices of the contributors' arenas, which its move step of
// the closing append reads straight into the store. That append is the
// fence: no rank leaves it with a nil error before every rank's move has
// settled, so data is the caller's to release again when writeTwoPhase
// returns nil. lent reports that some of data went out lent; on an error a
// peer may then still be reading it, and the caller must leave data to the
// garbage collector rather than give it back to the pool.
func (s *OStream) writeTwoPhase(nArrays int, localSizes []uint32, data []byte) (lent bool, err error) {
	comm := s.node.Comm()
	me := s.node.Rank()
	nprocs := s.node.Size()
	shuffleStart := s.node.Clock().Now()

	// Every rank learns every rank's data byte count, so the aggregation
	// plan is computed locally — and identically — everywhere.
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(data)))
	lenParts, lenFrame, err := comm.Allgather(lenBuf[:])
	if err != nil {
		return false, fmt.Errorf("dstream: allgather data sizes: %w", err)
	}
	rankOff := make([]int64, nprocs+1)
	for r, p := range lenParts {
		if len(p) != 8 {
			bufpool.Put(lenFrame)
			return false, fmt.Errorf("dstream: bad size contribution from rank %d", r)
		}
		rankOff[r+1] = rankOff[r] + int64(binary.LittleEndian.Uint64(p))
	}
	bufpool.Put(lenFrame)

	// Aggregation plan: the data section will start metaLen bytes past the
	// current end of file; cut it into K extents at stripe boundaries.
	layout := s.f.Layout()
	k := s.aggregators(s.opts.Aggregators, layout, nprocs)
	cuts := stripeCuts(s.f.Size()+s.metaLen, rankOff[nprocs], k, layout.StripeUnit)

	// Shuffle: each rank slices its contiguous payload [lo, hi) of the data
	// section by the extent cuts and lends each aggregator its overlap,
	// itself included. Within an extent, ascending sender rank is ascending
	// file offset, so the received pieces in rank order are the extent.
	bufs := sendBufs(&s.sendBufs, nprocs)
	var sent int64
	lo, hi := rankOff[me], rankOff[me+1]
	for j := 0; j < k; j++ {
		a, b := max(lo, cuts[j]), min(hi, cuts[j+1])
		if a >= b {
			continue
		}
		bufs[j] = data[a-lo : b-lo]
		if j != me {
			sent += b - a
		}
	}
	pieces := sendBufs(&s.recvBufs, nprocs)
	if len(s.lent) != nprocs {
		s.lent = make([]bool, nprocs)
	}
	err = comm.AlltoallvLent(bufs, pieces, s.lent)
	clear(bufs)
	lent = sent > 0
	if err != nil {
		return lent, fmt.Errorf("dstream: two-phase shuffle: %w", err)
	}
	// A lent piece is its lender's, read here until the closing append
	// returns; a copied one (a wire transport's) is this rank's, held as
	// long. A rank off the aggregators received nothing and contributes an
	// empty block to the closing append.
	defer func() {
		for j, p := range pieces {
			if !s.lent[j] {
				bufpool.Put(p)
			}
			pieces[j] = nil
		}
	}()
	var got, want int64
	for _, p := range pieces {
		got += int64(len(p))
	}
	if me < k {
		want = cuts[me+1] - cuts[me]
	}
	if got != want {
		return lent, fmt.Errorf("dstream: extent %d holds %d of %d bytes", me, got, want)
	}
	if me < k {
		s.node.CopyCost(want)
		s.met.extentBytes.Observe(float64(want))
	}
	shuffleEnd := s.node.Clock().Now()
	s.met.shuffleBytes.Observe(float64(sent))
	s.met.shuffleStall.Observe(shuffleEnd - shuffleStart)
	if rec := s.met.mon.Recorder(); rec != nil {
		// The shuffle span covers exactly the interval shuffleStall observes,
		// so critical-path attribution and the metric agree by construction.
		sid := rec.AddSpan(me, "dstream", "twophase.shuffle "+s.name, shuffleStart, shuffleEnd)
		// Cross-rank edges, contributor shuffle → aggregator stripe write:
		// both sides derive who overlaps whom from the identical aggregation
		// plan (rankOff × cuts), so the keys rendezvous without extra
		// communication. The aggregator's stripe write is part of its record
		// flush span (reserved when Write began, before the strategy ran).
		seq := uint64(s.wrote)
		for j := 0; j < k; j++ {
			if max(lo, cuts[j]) < min(hi, cuts[j+1]) {
				rec.FlowOut(dsmon.FlowKey{Kind: "shuffle", A: me, B: j, Tag: s.tag, Seq: seq}, sid)
			}
		}
		if me < k {
			for r := 0; r < nprocs; r++ {
				if max(rankOff[r], cuts[me]) < min(rankOff[r+1], cuts[me+1]) {
					rec.FlowIn(dsmon.FlowKey{Kind: "shuffle", A: r, B: me, Tag: s.tag, Seq: seq}, s.writeSpan)
				}
			}
		}
	}
	return lent, s.writeFunnel(nArrays, localSizes, pieces...)
}

// refillTwoPhase is the read-side mirror: K aggregators refill
// stripe-aligned extents of the record's data section with one parallel read
// each, then scatter to every rank the overlap with its contiguous share
// [rankOff[me], rankOff[me+1]) of the data section. Each byte is read straight
// to where it is decoded or sent from: dst (grown through the pool when the
// record outgrows it) is sized to the share first, and an aggregator reads its
// extent as pieces — its own overlap into its share, every other rank's into a
// pooled sliver that the scatter hands over as it is, so that the only copy
// left is the receiver's, of each sliver to its place in the share. The share
// is byte-identical to what the direct ParallelRead path yields.
//
// A sliver is the aggregator's from bufpool.Get until the scatter has sent it,
// and then its receiver's, which copies it into its share and Puts it; a
// sliver the read or the scatter failed before sending goes back to the pool
// on the aggregator.
//
// In async mode (the read-ahead pipeline) the extent read is issued
// write-behind-style: its bytes are valid immediately in real time, the
// returned completion is the virtual instant the disk transfer lands, and
// the scatter's interconnect cost is charged at issue time — the mirror of
// the write side's shuffle accounting. Sync mode returns completion 0 and
// leaves the clock fully advanced. On error the returned buffer is
// whatever the caller now owns (possibly dst itself); transport failures
// carry the commError tag.
func (s *IStream) refillTwoPhase(dataStart int64, rankOff []int64, dst []byte, async bool) ([]byte, float64, error) {
	comm := s.node.Comm()
	me := s.node.Rank()
	nprocs := s.node.Size()
	total := rankOff[nprocs]
	shuffleStart := s.node.Clock().Now()

	layout := s.f.Layout()
	k := s.aggregators(s.opts.Aggregators, layout, nprocs)
	cuts := stripeCuts(dataStart, total, k, layout.StripeUnit)

	// This node's share, sized before anything lands in it; when dst is the
	// stream's refill scratch, the previous record's decoders are invalid from
	// here on, per the Read contract.
	myLo, myHi := rankOff[me], rankOff[me+1]
	chunk := dst[:0]
	if int64(cap(chunk)) < myHi-myLo {
		bufpool.Put(dst)
		chunk = bufpool.GetCap(int(myHi - myLo))
	}
	chunk = chunk[:myHi-myLo]

	// Phase one: an aggregator reads its extent [elo, ehi) as one piece per
	// rank whose share it overlaps, in rank order, which is file order; other
	// ranks contribute no pieces to the rendezvous.
	bufs := sendBufs(&s.sendBufs, nprocs)
	pieces := s.extent[:0]
	off := dataStart
	var sent int64
	if me < k {
		elo, ehi := cuts[me], cuts[me+1]
		off += elo
		for r := 0; r < nprocs; r++ {
			a, b := max(elo, rankOff[r]), min(ehi, rankOff[r+1])
			if a >= b {
				continue
			}
			if r == me {
				pieces = append(pieces, chunk[a-myLo:b-myLo])
				continue
			}
			bufs[r] = bufpool.Get(int(b - a))
			pieces = append(pieces, bufs[r])
			sent += b - a
		}
	}
	var (
		completion float64
		err        error
	)
	if async {
		completion, err = s.f.ParallelReadPiecesAsync(off, pieces...)
	} else {
		err = s.f.ParallelReadPieces(off, pieces...)
	}
	clear(pieces)
	s.extent = pieces[:0]
	if err != nil {
		putAll(bufs)
		return chunk, 0, fmt.Errorf("dstream: two-phase refill: %w", err)
	}
	if me < k {
		s.met.extentBytes.Observe(float64(cuts[me+1] - cuts[me]))
	}

	// Phase two: the scatter, every sliver handed over without a copy.
	// Aggregator j's overlap with this rank's share lands at its place in it.
	recv, err := comm.AlltoallvOwned(bufs)
	putAll(bufs) // the slivers a failed scatter did not send
	if err != nil {
		return chunk, 0, &commError{fmt.Errorf("dstream: two-phase scatter: %w", err)}
	}
	for j, frame := range recv {
		var at, want int64 // nothing from a rank off the aggregators, nor from this one
		if j != me && j < k {
			at = max(cuts[j], myLo)
			want = max(min(cuts[j+1], myHi)-at, 0)
		}
		if int64(len(frame)) != want {
			if err == nil {
				err = fmt.Errorf("dstream: two-phase refill: rank %d sent %d bytes of this share, the plan says %d", j, len(frame), want)
			}
		} else if want > 0 {
			copy(chunk[at-myLo:], frame)
		}
		bufpool.Put(frame)
	}
	if err != nil {
		return chunk, 0, err
	}
	shuffleEnd := s.node.Clock().Now()
	s.met.shuffleBytes.Observe(float64(sent))
	s.met.shuffleStall.Observe(shuffleEnd - shuffleStart)
	if rec := s.met.mon.Recorder(); rec != nil {
		// Read-side mirror of the write shuffle's edges: aggregator extent
		// scatter → consumer reassembly, keyed by the record's data offset
		// (unique per record in the file).
		sid := rec.AddSpan(me, "dstream", "twophase.shuffle "+s.name, shuffleStart, shuffleEnd)
		seq := uint64(dataStart)
		if me < k {
			elo, ehi := cuts[me], cuts[me+1]
			for r := 0; r < nprocs; r++ {
				// r == me would be a self-loop on sid; skip it.
				if r != me && max(elo, rankOff[r]) < min(ehi, rankOff[r+1]) {
					rec.FlowOut(dsmon.FlowKey{Kind: "scatter", A: me, B: r, Tag: s.tag, Seq: seq}, sid)
				}
			}
		}
		for j := 0; j < k; j++ {
			if j != me && max(cuts[j], rankOff[me]) < min(cuts[j+1], rankOff[me+1]) {
				rec.FlowIn(dsmon.FlowKey{Kind: "scatter", A: j, B: me, Tag: s.tag, Seq: seq}, sid)
			}
		}
	}
	return chunk, completion, nil
}
