package dstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/collective"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/plan"
)

// IStream is an input d/stream. Records are consumed in the order they were
// written; each Read (or UnsortedRead) loads one record into the per-node
// buffers, after which Extract calls drain it array by array.
//
// Element decoders alias buffers the stream recycles: the refill buffer
// holding this node's share of the record — pooled, or memory the file's
// backend supplied (dstreamd's same-host chunks) — and, after a sorted Read
// across layouts, what the other nodes lent of theirs. Bytes obtained with
// Decoder.Raw are therefore valid only until the next Read, UnsortedRead,
// Skip or Close, wherever the element came from; copy them out to keep them.
// Everything else a Decoder returns — scalars, strings, Bytes32, and the
// slices of Int64Slice and Float64Slice, carved from the record view's word
// slab — is the program's to keep for as long as it likes. The append forms,
// AppendInt64Slice and AppendFloat64Slice, refill the slice they are handed
// when it has room, so the next extract into the same element overwrites it.
//
// In the record pipeline (DESIGN.md) it is the file source — prefetch queue,
// two-phase refill or direct read, then same-layout placement or the planned
// redistribution — in front of the record view.
type IStream struct {
	recordView
	planState
	opts   Options
	cursor int64 // file offset of the next record

	// Steady-state scratch, reused across records: refill holds the node's
	// share of the current record's data section (element decoders alias it,
	// so bytes extracted with Raw are invalidated by the next Read, Skip, or
	// Close) — unless the redistribution lent part of it, when it is the
	// lease's and refill is nil. sourced reports that refill is memory the
	// file's backend supplied (pfs.BufferSource), which goes back through the
	// file, never to the pool or a lease.
	refill  []byte
	sourced bool
	// metaFrame is the pooled frame the current record's front matter
	// arrived in, held with refill's lifetime.
	metaFrame []byte

	// Read-ahead state (Options.ReadAhead > 0): pre is the queue of
	// prefetched records, oldest first and file-contiguous from cursor;
	// preFree recycles retired share buffers as future prefetch
	// destinations; starts caches the per-rank element split of the
	// reader's distribution (identical for every record the stream
	// accepts).
	pre     []prefetched
	preFree [][]byte
	starts  []int

	// The writer's distribution as the latest record's header described it,
	// with the header fields and descriptor bytes it was built from: records
	// of one file nearly always repeat them, and building a distribution
	// walks all N elements. wOrder is its fileOrder and wPlan the plan for
	// redistributing it into dist, each built on first need.
	wdist    *distr.Distribution
	wdistHdr enc.RecordHeader
	wdistRaw []byte
	wOrder   []int
	wPlan    *redistPlan

	// Sorted-read redistribution state: frames holds what the other ranks
	// sent for the current record (element decoders alias them, with
	// refill's lifetime) and leases[r] the lease frames[r] is read under —
	// nil for a copy the stream owns — with leases[rank] the stream's own
	// hold on the lease its share went out under. lends are those leases,
	// two because one is still held while the next record lends (see
	// idleLease). sendBufs and offs (where each position of this rank's
	// share starts in it) are per-record scratch, and so is extent, the
	// pieces a two-phase aggregator reads its extent into.
	frames   [][]byte
	leases   []*comm.Lease
	lends    [2]comm.Lease
	sendBufs [][]byte
	offs     []int
	extent   [][]byte

	// planDepth is a planned stream's effective read-ahead depth — the
	// planner's choice, or Options.ReadAhead when that is set explicitly.
	planDepth int
}

// recordMeta is the front matter of one record as a reader needs it: the
// header, the writer's distribution it describes, the size table as it was
// broadcast — raw, one u32 per file position, read in place in frame, the
// pooled buffer it arrived in — and the byte offsets within the data section
// at which the ranks' shares begin under the reader's split (rankOff[r] is
// where position rankStarts()[r] starts, len NProcs+1, the last the data
// section's length). origin is node 0's clock when it had read the front
// matter: the same instant on every rank, whenever each arrived.
type recordMeta struct {
	h       enc.RecordHeader
	wdist   *distr.Distribution
	table   []byte
	frame   []byte
	rankOff []int64
	origin  float64
}

// prefetched is one read-ahead record: decoded metadata plus this rank's
// contiguous share of the data section, whose bytes are valid (in virtual
// time) from completion on. The share was moved by an asynchronous
// collective, so a consumer arriving before completion stalls only for the
// remainder.
type prefetched struct {
	cursor     int64 // file offset of the record's header
	next       int64 // file offset of the record after it
	meta       recordMeta
	chunk      []byte  // this rank's share (pooled; nil for an empty share)
	issued     float64 // virtual time the prefetch was issued
	completion float64 // virtual time the data transfer lands
	// span is the background disk transfer's span ID (0 when not tracing):
	// a prefetch hit links its read span to it, closing the issue→
	// completion→consumption chain in the causal graph.
	span dsmon.SpanID
}

// commError tags an error whose occurrence may differ across ranks — a
// transport failure seen by this rank only. The prefetch pipeline must
// treat these as fatal: a rank that silently abandoned a prefetch while its
// peers queued one would desynchronize the group's collective schedules.
// Deterministic failures (decode errors, node 0's broadcast read verdict)
// carry no tag and may be abandoned benignly — every rank abandons them
// together, and the consumer's own synchronous Read or Skip surfaces
// whatever is really there. The wrapper is transparent in rendered
// messages.
type commError struct{ err error }

func (e *commError) Error() string { return e.err.Error() }
func (e *commError) Unwrap() error { return e.err }

func isCommErr(err error) bool {
	var ce *commError
	return errors.As(err, &ce)
}

// openInput is the collective open every input constructor funnels into.
// Note that d describes the *reader's* layout; the writer's layout is
// discovered from the file itself (§4.1: "no information about the
// distribution or size of the data to be read needs to be passed to the
// library by the programmer").
func openInput(node *machine.Node, d *distr.Distribution, name string, opts Options) (*IStream, error) {
	if d.NProcs != node.Size() {
		return nil, fmt.Errorf("dstream: distribution over %d procs on a %d-node machine", d.NProcs, node.Size())
	}
	if err := opts.validateFor(dirInput); err != nil {
		return nil, err
	}
	f, err := openFile(node, opts, name, false, false)
	if err != nil {
		return nil, fmt.Errorf("dstream: open input %q: %w", name, err)
	}
	s := &IStream{
		recordView: recordView{stream: newStream(node, d, node.Rank(), f, name), strict: opts.Strict},
		opts:       opts,
	}
	// Node 0 validates the file header; a bad file fails every node together.
	_, frame, err := node.Comm().Rooted(0, func() ([]byte, error) { return nil, checkFileHeader(f) })
	bufpool.Put(frame)
	if err != nil {
		f.Close()
		return nil, s.fail(fmt.Errorf("dstream: open input %q: %w", name, err))
	}
	// The PFS open synchronization (gopen-style control call), as on the
	// output side.
	if err := f.ControlSync(); err != nil {
		f.Close()
		return nil, s.fail(fmt.Errorf("dstream: open sync: %w", err))
	}
	if opts.plannerEnabled() {
		s.planState = s.newPlanState()
		// Depth starts at the explicit override (0 under full auto — the
		// first record is read synchronously, its broadcast geometry seeds
		// the planner, and the pipeline starts from the second record).
		s.planDepth = opts.ReadAhead
	}
	s.cursor = enc.FileHeaderLen
	// With read-ahead enabled, start the pipeline now so the first Read
	// already overlaps with whatever the consumer does before it.
	s.topUpPrefetch()
	return s, nil
}

// aheadDepth is the effective prefetch depth: the planner's current
// choice on a planned stream, the static option otherwise.
func (s *IStream) aheadDepth() int {
	if s.planner != nil {
		return s.planDepth
	}
	return s.opts.ReadAhead
}

// planRead plans the record described by m and reports whether the
// two-phase refill should serve it. All inputs come from the broadcast
// metadata, so every rank plans identically.
func (s *IStream) planRead(m recordMeta) bool {
	if s.planner == nil {
		return s.opts.Strategy == StrategyTwoPhase
	}
	d := s.planner.PlanRead(plan.Geometry{
		NProcs:    s.dist.NProcs,
		NElems:    int(m.h.NElems),
		DataBytes: int64(m.h.DataBytes),
		MetaBytes: enc.RecordHeaderLen + int64(m.h.DescBytes) + m.h.SizeTableBytes(),
	}, s.opts.Aggregators, s.opts.ReadAhead)
	s.decided(&s.stream, d, m.origin)
	s.planDepth = d.ReadAhead
	s.planMet.depth.Set(float64(d.ReadAhead))
	return d.Strategy == plan.TwoPhase
}

// More reports whether another record remains in the file.
func (s *IStream) More() bool {
	if s.checkOpen() != nil {
		return false
	}
	return s.cursor < s.f.Size()
}

// Read loads the next record with full element-order fidelity: every
// element lands on the node that owns it under the reader's distribution,
// in local order — even when the number of processors or the distribution
// changed since the file was written. This is the two-phase strategy of
// §4.1: a read conforming to the layout on disk, then a redistribution
// among the processors.
func (s *IStream) Read() error { return s.read(true) }

// UnsortedRead loads the next record without ordering guarantees: each node
// receives the right number of element payloads (per the reader's
// distribution) straight from the file, with no interprocessor
// communication — the higher-performance path for data whose element
// indices carry no meaning (§3).
func (s *IStream) UnsortedRead() error { return s.read(false) }

func (s *IStream) read(sorted bool) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if err := s.checkFullyExtracted("read"); err != nil {
		return err
	}
	if !s.More() {
		return s.fail(fmt.Errorf("%w: read past last record", ErrOrder))
	}
	start := s.node.Clock().Now()
	s.releaseFrames()

	// Steps 1–3: the record's front matter and this node's contiguous share
	// of its data section — from the prefetch queue when the pipeline has
	// them (planned when the fetch was issued, the share already in memory),
	// read synchronously otherwise (node 0 reads the front matter and
	// broadcasts it; fetch plans the record and moves the share).
	e, hit := s.takePrefetched()
	m := e.meta
	s.metaFrame = m.frame
	var chunk []byte
	if hit {
		// The data transfer was issued in the background; stall only for
		// its un-overlapped remainder.
		s.node.Clock().SyncTo(e.completion)
		overlap := max(0, min(start, e.completion)-e.issued)
		s.met.prefetchHits.Inc()
		s.met.prefetchOverlap.Observe(overlap)
		if e.chunk != nil {
			s.releaseSourced()
			s.retireBuf(s.refill)
			s.refill = e.chunk
		}
		chunk = e.chunk
	} else {
		var err error
		if m, err = s.frontMatter(s.cursor, false); err != nil {
			return s.fail(err)
		}
		s.metaFrame = m.frame
		inPlace := !sorted || s.dist.SameLayout(m.wdist)
		chunk, _, err = s.fetch(s.cursor, m, s.refill, false, inPlace)
		s.refill = chunk
		if err != nil {
			return s.fail(fmt.Errorf("%w: parallel read: %w", ErrIO, err))
		}
		s.observe(s.node.Clock().Now())
	}
	s.node.CopyCost(int64(len(chunk)))
	if s.planner != nil {
		// Credit the waste governor: this record's bytes were wanted.
		s.planner.ObserveConsumed(int64(m.h.DataBytes))
	}

	// Point one decoder per local element at its payload.
	starts := s.rankStarts()
	lo, hi := starts[s.rank], starts[s.rank+1]
	decs := s.decoders(hi - lo)
	if !sorted || s.dist.SameLayout(m.wdist) {
		// unsortedRead, or the layouts agree: the contiguous chunk already
		// holds exactly this node's elements (in writer order for the
		// matched case; in arbitrary-but-counted order otherwise), each as
		// long as the table says.
		off := 0
		for p := lo; p < hi; p++ {
			n := enc.SizeAt(m.table, p)
			decs[p-lo].Reset(chunk[off : off+n])
			off += n
		}
	} else if err := s.redistribute(s.planFor(m.wdist), chunk, m.table, lo, hi); err != nil {
		return s.fail(fmt.Errorf("%w: redistribute: %w", ErrIO, err))
	}
	s.cursor += m.h.TotalBytes()
	end := s.loaded(int(m.h.NArrays), int64(len(chunk)), start)
	// Top up the pipeline after the stall metric is cut, so issuing the
	// next prefetches never counts against this read's stall.
	s.topUpPrefetch()
	if rec := s.met.mon.Recorder(); rec != nil {
		op := "istream.Read "
		if !sorted {
			op = "istream.UnsortedRead "
		}
		rid := rec.AddSpan(s.node.Rank(), "dstream", op+s.name, start, end)
		if hit {
			// Close the pipeline chain: issue → background disk transfer →
			// the read that consumed (and possibly stalled on) it.
			rec.AddFlow(e.span, rid, "prefetch")
		}
	}
	return nil
}

// fetch moves this node's contiguous share of the record m at cursor out of
// the file, into dst when that is large enough: the record is planned, and
// then either aggregators refill stripe-aligned extents once and scatter
// slices to the consumers (two-phase), or every node reads its own share with
// one direct parallel read, conforming to the layout on disk. async issues
// the transfer in the background and returns the virtual instant it lands.
// A synchronous fetch is into the refill buffer (dst is s.refill), and a
// direct one of a share decoded where it lands (inPlace: not redistributed)
// may land in memory the file's backend supplies, so that the store reads
// straight into what the decoders read; s.sourced then says so. Such a
// buffer serves one record: it goes back before the next synchronous fetch,
// which draws again, so each record lands in what the backend hands out now
// (a dstreamd reconnect retires the chunks of the connection before).
// Whatever happens, the returned buffer is the one the caller owns afterwards
// in place of dst — dst itself on a failed or empty direct read.
func (s *IStream) fetch(cursor int64, m recordMeta, dst []byte, async, inPlace bool) (chunk []byte, completion float64, err error) {
	dataStart := cursor + enc.RecordHeaderLen + int64(m.h.DescBytes) + m.h.SizeTableBytes()
	if !async && s.sourced {
		s.releaseSourced()
		dst = nil
	}
	if s.planRead(m) {
		return s.refillTwoPhase(dataStart, m.rankOff, dst, async)
	}
	lo, hi := m.rankOff[s.rank], m.rankOff[s.rank+1]
	rg := pfs.Range{Off: dataStart + lo, Len: int(hi - lo)}
	switch {
	case async:
		chunk, completion, err = s.f.ParallelReadIntoAsync(rg, dst[:0])
	case inPlace:
		chunk, s.sourced, err = s.f.ParallelReadSourced(rg, dst[:0])
	default:
		chunk, err = s.f.ParallelReadInto(rg, dst[:0])
	}
	if err != nil || rg.Len == 0 {
		return dst[:0], completion, err
	}
	if cap(dst) < rg.Len {
		// Outgrown: the read came back in a fresh buffer, and dst was pooled.
		bufpool.Put(dst)
	}
	return chunk, completion, nil
}

// releaseSourced gives the refill buffer back to the file when the file's
// backend supplied it; a pooled one stays the refill buffer.
func (s *IStream) releaseSourced() {
	if s.sourced {
		s.f.Release(s.refill)
		s.refill, s.sourced = nil, false
	}
}

// frontMatter reads the front matter of the record at cursor in one act of
// node 0's, broadcast once (collective.Rooted): node 0 reads the header,
// holds it to the file (enc.ReadRecordHeader) and to the reader's element
// count, and then reads descriptor and size table — "which appear ahead of
// the actual data", contiguously — with one ReadAt. Every rank receives
// [node 0's instant | header | descriptor | table], or node 0's verdict in its
// words. Of the table a rank keeps the bytes and one pass over them: the
// length, the sum against the header's DataBytes, and the offsets of the
// ranks' shares; an element's own offset is worked out by the rank that
// decodes it, when it does. The returned meta holds the frame they live in
// until its record is done with. headerOnly (Skip, NextElems) reads just the
// header, of a record of any element count, and holds no frame. Collective;
// the caller surfaces the error through s.fail where that is warranted.
func (s *IStream) frontMatter(cursor int64, headerOnly bool) (recordMeta, error) {
	const at = 8 + enc.RecordHeaderLen // where the descriptor starts in a payload
	var buf []byte                     // node 0's read buffer
	payload, frame, err := s.node.Comm().Rooted(0, func() ([]byte, error) {
		buf = bufpool.Get(at)
		if err := s.f.ReadAt(buf[8:], cursor); err != nil {
			return nil, err
		}
		h, err := enc.ReadRecordHeader(buf[8:], cursor, s.f.Size())
		if err == nil && !headerOnly {
			if int(h.NElems) != s.dist.N {
				return nil, fmt.Errorf("dstream: record has %d elements, reader expects %d", h.NElems, s.dist.N)
			}
			n := at + int(h.DescBytes) + int(h.SizeTableBytes())
			full := append(bufpool.GetCap(n), buf...)[:n]
			bufpool.Put(buf)
			buf = full
			err = s.f.ReadAt(buf[at:], cursor+enc.RecordHeaderLen)
		}
		binary.LittleEndian.PutUint64(buf, math.Float64bits(s.node.Clock().Now()))
		return buf, err
	})
	bufpool.Put(buf)
	if re, ok := err.(collective.RootError); ok {
		return recordMeta{}, fmt.Errorf("%w: read front matter: node 0 read failed: %w", ErrIO, re)
	}
	if err != nil {
		// Transport failure: possibly rank-asymmetric, so the prefetch
		// pipeline must not abandon on it silently (see commError).
		return recordMeta{}, &commError{err}
	}
	m := recordMeta{origin: math.Float64frombits(binary.LittleEndian.Uint64(payload)), frame: frame}
	m.h, err = enc.DecodeRecordHeader(payload[8:])
	if err == nil && !headerOnly {
		desc := payload[at:][:m.h.DescBytes]
		m.table, m.rankOff = payload[at+len(desc):], make([]int64, s.dist.NProcs+1)
		if err = m.h.TableOffsets(m.table, s.rankStarts(), m.rankOff); err == nil {
			m.wdist, err = s.writerDist(m.h, desc)
		}
	}
	if err != nil || headerOnly {
		bufpool.Put(frame)
		m.frame = nil
	}
	return m, err
}

// writerDist returns the distribution a record's header and descriptor
// describe: the previous record's when they describe the same one, a newly
// built one otherwise. desc lives in a pooled frame, so the cache keeps a
// copy.
func (s *IStream) writerDist(h enc.RecordHeader, desc []byte) (*distr.Distribution, error) {
	h.NArrays, h.DataBytes = 0, 0 // a distribution depends on neither
	if s.wdist != nil && h == s.wdistHdr && bytes.Equal(desc, s.wdistRaw) {
		return s.wdist, nil
	}
	d, err := h.Distribution(desc)
	if err != nil {
		return nil, err
	}
	s.wdist, s.wdistHdr, s.wdistRaw, s.wOrder, s.wPlan = d, h, bytes.Clone(desc), nil, nil
	return d, nil
}

// orderOf returns fileOrder(wdist), kept for as long as wdist is the cached
// distribution (a prefetched record may carry one the cache has moved past).
func (s *IStream) orderOf(wdist *distr.Distribution) []int {
	if wdist != s.wdist {
		return fileOrder(wdist)
	}
	if s.wOrder == nil {
		s.wOrder = fileOrder(wdist)
	}
	return s.wOrder
}

// rankStarts returns (caching across records — the reader's distribution
// never changes) the prefix sums of per-rank element counts: starts[r] is
// the first file position owned by rank r, starts[nprocs] the total.
func (s *IStream) rankStarts() []int {
	if s.starts == nil {
		s.starts = make([]int, s.dist.NProcs+1)
		for r := 0; r < s.dist.NProcs; r++ {
			s.starts[r+1] = s.starts[r] + s.dist.LocalCount(r)
		}
	}
	return s.starts
}

// topUpPrefetch issues background fetches until the queue holds ReadAhead
// upcoming records or the file runs out. Every input to the loop — cursor,
// queue contents, file size, record headers — is identical on all ranks,
// so the ranks extend their collective schedules in lockstep. A failed
// prefetch stops the top-up: deterministic failures are abandoned by every
// rank at once and re-surface through the consumer's own synchronous read;
// transport failures fail the stream (see commError).
func (s *IStream) topUpPrefetch() {
	if s.aheadDepth() <= 0 || s.checkOpen() != nil {
		return
	}
	next := s.cursor
	if n := len(s.pre); n > 0 {
		next = s.pre[n-1].next
	}
	for len(s.pre) < s.aheadDepth() && next < s.f.Size() {
		e, ok := s.prefetchOne(next)
		if !ok {
			return
		}
		s.pre = append(s.pre, e)
		next = e.next
	}
}

// prefetchOne fetches the record at cursor in the background: front matter
// synchronously (it is small and needed to plan the data transfer), the
// data share with an asynchronous collective whose completion is settled
// only when the record is consumed. ok=false abandons the prefetch.
func (s *IStream) prefetchOne(cursor int64) (prefetched, bool) {
	e := prefetched{cursor: cursor, issued: s.node.Clock().Now()}
	m, err := s.frontMatter(cursor, false)
	if err != nil {
		if isCommErr(err) {
			s.fail(err)
		}
		return e, false
	}
	chunk, completion, err := s.fetch(cursor, m, s.takeFreeBuf(), true, false)
	if err != nil {
		// PFS errors reach every rank through the rendezvous, so abandoning
		// on one is collective — benign. A transport failure is not.
		s.retireBuf(chunk)
		bufpool.Put(m.frame)
		if isCommErr(err) {
			s.fail(fmt.Errorf("%w: parallel read: %w", ErrIO, err))
		}
		return e, false
	}
	if len(chunk) == 0 {
		// The queue holds an empty share as a nil chunk; its destination
		// goes back for the next prefetch.
		s.retireBuf(chunk)
		chunk = nil
	}
	e.meta, e.next = m, cursor+m.h.TotalBytes()
	e.chunk, e.completion, e.span = chunk, completion, s.f.LastAsyncSpan()
	// The async transfer's completion is the same instant on every rank;
	// its distance from the planned start is the record's observed cost,
	// fed back at issue time (ranks run the pipeline in lockstep, so the
	// planner sees observations in the same order everywhere).
	s.observe(completion)
	return e, true
}

// takePrefetched pops the queue head when it is the record at the current
// cursor. A stale queue (which cursor movement through Read and Skip never
// produces, but cheap to be safe against) is drained and counted wasted,
// and the caller proceeds synchronously.
func (s *IStream) takePrefetched() (prefetched, bool) {
	if len(s.pre) == 0 {
		return prefetched{}, false
	}
	if s.pre[0].cursor != s.cursor {
		s.dropPrefetched()
		return prefetched{}, false
	}
	e := s.pre[0]
	copy(s.pre, s.pre[1:])
	s.pre[len(s.pre)-1] = prefetched{}
	s.pre = s.pre[:len(s.pre)-1]
	return e, true
}

// dropPrefetched discards every queued prefetch, counting the fetched data
// as wasted and recycling the share buffers.
func (s *IStream) dropPrefetched() {
	for i := range s.pre {
		s.met.prefetchWasted.Add(int64(len(s.pre[i].chunk)))
		s.retireBuf(s.pre[i].chunk)
		bufpool.Put(s.pre[i].meta.frame)
		s.pre[i] = prefetched{}
	}
	s.pre = s.pre[:0]
}

// retireBuf recycles a pooled buffer this stream no longer needs: onto the
// local free list while prefetching (destinations turn over every record;
// the list is bounded by the queue depth plus the refill slot), back to
// the shared pool otherwise. nil is a no-op.
func (s *IStream) retireBuf(b []byte) {
	if b == nil {
		return
	}
	if d := s.aheadDepth(); d > 0 && len(s.preFree) <= d {
		s.preFree = append(s.preFree, b)
		return
	}
	bufpool.Put(b)
}

// takeFreeBuf pops a recycled prefetch destination (length reset), or
// returns nil, in which case the read path draws from the shared pool.
func (s *IStream) takeFreeBuf() []byte {
	n := len(s.preFree)
	if n == 0 {
		return nil
	}
	b := s.preFree[n-1]
	s.preFree[n-1] = nil
	s.preFree = s.preFree[:n-1]
	return b[:0]
}

// Skip advances past the next record without loading its data. It enables
// the paper's multiple-streams-per-file pattern ("Multiple d/streams may be
// set up and connected to the same file if collections with differing
// distributions and alignments are to be output"): each input stream reads
// the records that match its distribution and skips the others, in file
// order. Only the record header is read (by node 0, broadcast).
func (s *IStream) Skip() error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if err := s.checkFullyExtracted("skip"); err != nil {
		return err
	}
	if !s.More() {
		return s.fail(fmt.Errorf("%w: skip past last record", ErrOrder))
	}
	s.releaseFrames()
	if e, ok := s.takePrefetched(); ok {
		// Already fetched: no I/O to do, but the prefetched data dies
		// unread.
		s.met.prefetchWasted.Add(int64(len(e.chunk)))
		if s.planner != nil {
			// Debit the waste governor with the record's rank-identical
			// total (Skip is collective, so every rank debits together);
			// enough skipped bytes and the planner stops prefetching.
			s.planner.ObserveWasted(int64(e.meta.h.DataBytes))
		}
		s.retireBuf(e.chunk)
		bufpool.Put(e.meta.frame)
		s.cursor = e.next
	} else {
		m, err := s.frontMatter(s.cursor, true)
		if err != nil {
			return s.fail(err)
		}
		s.cursor += m.h.TotalBytes()
	}
	s.haveRec = false
	s.met.skips.Inc()
	s.topUpPrefetch()
	return nil
}

// NextElems peeks at the next record's element count without consuming it,
// so a reader owning several input streams can decide which one should
// read the upcoming record. Returns ErrOrder at end of file.
func (s *IStream) NextElems() (int, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	if !s.More() {
		return 0, fmt.Errorf("%w: no next record", ErrOrder)
	}
	if len(s.pre) > 0 && s.pre[0].cursor == s.cursor {
		// Peek the prefetch queue: no I/O, no communication (the queues
		// are identical on every rank, so skipping the broadcast is
		// collective-consistent).
		return int(s.pre[0].meta.h.NElems), nil
	}
	m, err := s.frontMatter(s.cursor, true)
	if err != nil {
		return 0, s.fail(err)
	}
	return int(m.h.NElems), nil
}

// Close releases the stream (idempotent). In Strict mode, closing with a
// partially extracted record is an error.
func (s *IStream) Close() error {
	if !s.open {
		return nil
	}
	s.open = false
	// Release the pipeline first: queued prefetches die unread (counted
	// wasted) and the recycled destinations go back to the shared pool.
	s.dropPrefetched()
	for i, b := range s.preFree {
		bufpool.Put(b)
		s.preFree[i] = nil
	}
	s.preFree = nil
	s.releaseSourced()
	err := s.f.Close()
	s.f = nil
	s.releaseFrames()
	bufpool.Put(s.refill)
	s.refill = nil
	return s.closeView(err)
}
