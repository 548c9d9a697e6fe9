package dstream

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
)

// This file implements persistent stream-to-stream channels: the d/stream
// endpoints generalized so a stream can attach M producer ranks directly to
// N consumer ranks over the interconnect, with no file in between (the MPI
// Streams direction — see ROADMAP). The inserter/extractor machinery is the
// one the file streams use; what replaces the file is a set of per-pair
// frame flows over the machine's mailbox rings:
//
//	producer: OpenChannel → insert⁺ → write → (insert⁺ → write)* → close
//	consumer: OpenChannelInput → read → extract* → … → close
//
// # Groups
//
// The producer group occupies machine ranks [0, M) and the consumer group
// machine ranks [P−N, P), where M and N are the NProcs of the two
// distributions and P the machine size. Both ends name both layouts at
// open — the channel's analog of the self-describing record header — so
// every rank derives the complete frame routing statically, with no open
// handshake and no per-record metadata exchange. The groups may overlap
// (M = N = P gives a loopback channel); an overlapping rank must then keep
// its in-flight bytes below the credit window between its own writes and
// reads, or it would wait on a credit only it can send.
//
// # Redistribution
//
// A record leaves as one frame per consumer that owns at least one of this
// rank's elements, packed exactly like the two-phase shuffle: (u32 global,
// u32 len, payload)* with the group's arrays interleaved element-major
// inside the payload. Every element's destination is fixed at open, so the
// frames are built as the group is inserted: the first insert encodes each
// element straight into the frame of the consumer that owns it, behind its
// prefix, and a group of several inserts is interleaved into fresh frames at
// Write. When M ≠ N or the layouts differ, the frames ARE the
// redistribution — every element flows straight from its producer to the
// rank that owns it under the consumer distribution, and Read places it by
// local index.
//
// # Flow control
//
// Data frames ride Endpoint.Send, so bulk frames inherit the rendezvous
// backpressure of the mailbox rings; on top of that a credit window bounds
// the bytes in flight per (producer, consumer) pair. The consumer
// acknowledges a record's frames when the next Read retires them (their
// decoders alias the frame buffers until then); the producer blocks before
// a send that would exceed Options.ChannelWindow outstanding bytes. A
// frame larger than the whole window is allowed through alone — the
// window gates on outstanding > 0, so progress never depends on a credit
// that can't come.
var (
	// ErrEOS reports, from IChannel.Read, that every producer closed the
	// channel: the stream of records is over. Not sticky — it is the normal
	// end of a pipeline, not a failure.
	ErrEOS = errors.New("dstream: end of stream")
)

// DefaultChannelWindow is the per-consumer credit window (bytes) when
// Options.ChannelWindow is zero.
const DefaultChannelWindow = 1 << 20

// chanFlagEOF marks a frame that carries no data: the sending producer has
// closed its end.
const chanFlagEOF = 1 << 0

// chanFrameHeaderLen is the fixed frame front matter: flags, nArrays,
// element count.
const chanFrameHeaderLen = 12

// chanGenStride spreads a name's generations over the tag space (the
// 64-bit golden-ratio constant: odd, so successive generations never
// collide).
const chanGenStride = 0x9E3779B97F4A7C15

// chanTags derives the channel's two wire tags from its name, the way
// streamTag keys a file stream's causal edges, and from how many times this
// end of the name has been opened on this node before. Every rank of the
// machine computes the identical tags with no communication, because every
// rank of a group opens a name the same number of times; and what an
// earlier channel of the name left in a mailbox — a consumer's last credits
// reach a producer that has already closed — cannot be taken by the next
// one for its own. Data and credit flow on distinct tags so a blocked
// credit wait never consumes a data frame.
func chanTags(node *machine.Node, end, name string) (data, credit uint64) {
	gen := node.Generation("dstream.chan." + end + ":" + name)
	return streamTag("dstream.chan.data:"+name) + gen*chanGenStride,
		streamTag("dstream.chan.credit:"+name) + gen*chanGenStride
}

// chanMetrics is the dsmon handle set of the channel layer, get-or-create
// in the run's registry like streamMetrics.
type chanMetrics struct {
	frames  *dsmon.Counter
	bytes   *dsmon.Counter
	redist  *dsmon.Counter
	drained *dsmon.Counter
	credits *dsmon.Gauge
	// creditStall observes the virtual seconds a producer's Write blocked
	// waiting for consumer credit; recvStall the virtual seconds a
	// consumer's Read blocked waiting for producer frames — the two halves
	// of a pipeline imbalance.
	creditStall *dsmon.Histogram
	recvStall   *dsmon.Histogram
}

func newChanMetrics(m *dsmon.Monitor) *chanMetrics {
	reg := m.Registry()
	return &chanMetrics{
		frames: reg.Counter("dstream_chan_frames_total", "channel data frames sent"),
		bytes: reg.Counter("dstream_chan_bytes_total",
			"channel frame bytes sent (header + routed payload)"),
		redist: reg.Counter("dstream_chan_redistribute_bytes_total",
			"channel frame bytes that crossed machine ranks"),
		drained: reg.Counter("dstream_chan_drained_bytes_total",
			"channel frame bytes an early-closing consumer drained unread"),
		credits: reg.Gauge("dstream_chan_credits",
			"channel frame bytes in flight awaiting consumer credit, all channels of this node's run"),
		creditStall: reg.Histogram("dstream_chan_stall_seconds",
			"virtual seconds a channel primitive blocked on the other end", dsmon.LatencyBuckets, "phase", "credit"),
		recvStall: reg.Histogram("dstream_chan_stall_seconds",
			"virtual seconds a channel primitive blocked on the other end", dsmon.LatencyBuckets, "phase", "recv"),
	}
}

// chanCheck validates the pair of layouts against the machine. mine is the
// calling end's distribution, peer the other end's.
func chanCheck(node *machine.Node, mine, peer *distr.Distribution) error {
	if mine.N != peer.N {
		return fmt.Errorf("dstream: channel ends disagree on element count: %d vs %d", mine.N, peer.N)
	}
	if mine.NProcs > node.Size() || peer.NProcs > node.Size() {
		return fmt.Errorf("dstream: channel groups (%d and %d ranks) exceed the %d-node machine",
			mine.NProcs, peer.NProcs, node.Size())
	}
	return nil
}

// chanDest is one consumer a producer sends frames to.
type chanDest struct {
	cons  int // consumer group rank
	rank  int // machine rank
	count int // elements routed there per record (0 = pacing-marker destination)
	// frame is this consumer's frame of the record being assembled: a pooled
	// buffer, its header reserved, that the group's first insert is encoded
	// into. It is held from that insert until Write sends it, and nil
	// otherwise — a frame that was sent is the consumer's.
	frame []byte
	// hint is the length of this consumer's frame of the previous record;
	// zero before the first.
	hint int
	// at is interleave's read cursor in frame.
	at int
	// outstanding is the frame bytes sent and not yet credited back — the
	// producer side of the credit window.
	outstanding int64
}

// chanFrames is a producer's frame plan — the destinations, and which one
// each local element belongs to — and the frames of the record being
// assembled. The assembler encodes the group's first insert through it.
type chanFrames struct {
	dests    []chanDest
	elemDest []int // local element → index into dests
	start    int   // where the element being encoded starts in its frame
	total    int   // payload bytes of the insert so far
}

// beginFrames takes one pooled frame per destination, as long as its frame
// of the previous record, with the header reserved; Write stamps it.
func (f *chanFrames) beginFrames() {
	for i := range f.dests {
		d := &f.dests[i]
		d.frame = bufpool.GetCap(max(d.hint, chanFrameHeaderLen))[:chanFrameHeaderLen]
	}
	f.total = 0
}

// enter points e at the frame element l goes to, behind the element's
// prefix: its global index g, and a length land fills in.
func (f *chanFrames) enter(e *Encoder, l, g int) {
	e.Adopt(f.dests[f.elemDest[l]].frame)
	e.Uint32(uint32(g))
	e.Uint32(0)
	f.start = e.Mark()
}

// land closes element l, which ends at end in its frame: its length goes
// into its prefix, and the frame, wherever e moved it to, back to its
// destination. A destination with no previous record to go by takes the rest
// of its elements to be like its first, as an arena does. It returns where
// the element would end were the insert one arena.
func (f *chanFrames) land(e *Encoder, l, end int) int {
	sz := end - f.start
	d := &f.dests[f.elemDest[l]]
	if d.hint == 0 && f.start == chanFrameHeaderLen+8 {
		e.Reserve(min(chanFrameHeaderLen+d.count*(8+sz), bufpool.MaxClass) - end)
	}
	d.frame = e.Detach()
	binary.LittleEndian.PutUint32(d.frame[f.start-4:], uint32(sz))
	f.total += sz
	return f.total
}

// dropFrames releases the frames still held: begun, and not sent.
func (f *chanFrames) dropFrames() {
	for i := range f.dests {
		bufpool.Put(f.dests[i].frame)
		f.dests[i].frame = nil
	}
}

// chanSrc is one producer a consumer receives frames from.
type chanSrc struct {
	prod  int // producer group rank
	rank  int // machine rank
	count int // elements expected per record
}

// OChannel is the producer end of a stream-to-stream channel: an OStream
// whose records leave over the interconnect instead of landing in a file. In
// the record pipeline (DESIGN.md) it is the assembler — Insert fills the
// interleave group exactly as on a file stream, its first insert straight
// into the frames — plus the frame sink: Write sends the group to the
// consumers as one frame per destination.
type OChannel struct {
	assembler
	chanFrames
	peer    *distr.Distribution // consumer layout
	window  int64
	dataTag uint64
	credTag uint64
	built   [][]byte // interleave's new frames, parallel to dests

	cmet *chanMetrics
}

// OpenChannel opens the producer end of the channel called name. d is the
// producer group's layout (its NProcs is M, the producer count), peer the
// consumer group's layout (NProcs = N). The caller must be one of machine
// ranks [0, M); every producer and every consumer of the machine must make
// its matching open call, though — unlike the file opens — no
// communication happens until the first Write.
func OpenChannel(node *machine.Node, d, peer *distr.Distribution, name string, opts ...Option) (*OChannel, error) {
	o := buildOptions(opts)
	if err := o.validateFor(dirChanSend); err != nil {
		return nil, err
	}
	if err := chanCheck(node, d, peer); err != nil {
		return nil, err
	}
	if node.Rank() >= d.NProcs {
		return nil, fmt.Errorf("dstream: rank %d outside the channel's producer group [0,%d)",
			node.Rank(), d.NProcs)
	}
	s := &OChannel{
		assembler: newAssembler(newStream(node, d, node.Rank(), nil, name), "ochannel"),
		peer:      peer,
		window:    int64(o.ChannelWindow),
		cmet:      newChanMetrics(node.Monitor()),
	}
	if s.window <= 0 {
		s.window = DefaultChannelWindow
	}
	s.dataTag, s.credTag = chanTags(node, "out", name)
	s.buildRouting()
	s.frames = &s.chanFrames
	return s, nil
}

// buildRouting derives the static frame plan: which consumers this
// producer sends to, how many elements each frame carries, and which
// destination each local element belongs to. Producer group rank 0
// additionally adopts every consumer that owns no elements, sending it
// empty pacing frames so its Read keeps record cadence and its EOF
// arrives.
func (s *OChannel) buildRouting() {
	consBase := s.node.Size() - s.peer.NProcs
	nLocal := s.LocalLen()
	s.elemDest = make([]int, nLocal)
	idx := make([]int, s.peer.NProcs)
	for c := range idx {
		idx[c] = -1
	}
	for l := 0; l < nLocal; l++ {
		g := s.dist.GlobalIndex(s.rank, l)
		c := s.peer.Owner(g)
		if idx[c] < 0 {
			idx[c] = len(s.dests)
			s.dests = append(s.dests, chanDest{cons: c, rank: consBase + c})
		}
		s.dests[idx[c]].count++
		s.elemDest[l] = idx[c]
	}
	if s.rank == 0 {
		for c := 0; c < s.peer.NProcs; c++ {
			if s.peer.LocalCount(c) == 0 {
				s.dests = append(s.dests, chanDest{cons: c, rank: consBase + c})
			}
		}
	}
}

// Write flushes the current interleave group as one record: one frame per
// destination, each element in the frame of the consumer that owns it with
// the group's arrays interleaved element-major (as on disk, so extractors
// see the same layout), goes out over the mailbox rings, gated by the credit
// window.
func (s *OChannel) Write() error {
	w, err := s.beginWrite()
	if err != nil {
		return err
	}
	return s.endWrite(w, s.sendFrames(w))
}

// sendFrames is the frame sink. The frames are the ones the group's first
// insert was encoded into — interleaved into fresh ones first when the group
// has more inserts — so what is left is to stamp each header and give each
// frame to the transport (an owned send: the consumer releases it) once its
// consumer's window has room for it. A frame a failed Write did not send goes
// back to the pool here.
func (s *OChannel) sendFrames(w flush) error {
	if w.arrays > 1 {
		s.interleave(w)
	}
	s.inserts[0].framed = false // the frames are the sink's now
	s.release()
	for i := range s.dests {
		d := &s.dests[i]
		d.hint = len(d.frame)
		binary.LittleEndian.PutUint32(d.frame[0:], 0)
		binary.LittleEndian.PutUint32(d.frame[4:], uint32(w.arrays))
		binary.LittleEndian.PutUint32(d.frame[8:], uint32(d.count))
	}
	s.node.CopyCost(int64(w.bytes) + int64(8*len(w.sizes)))

	ep := s.node.Comm().Endpoint()
	seq := uint64(s.wrote) + 1
	for i := range s.dests {
		d := &s.dests[i]
		frameLen := int64(len(d.frame))
		if err := s.awaitCredit(d, frameLen); err != nil {
			s.dropFrames()
			return fmt.Errorf("channel credit from consumer %d: %w", d.cons, err)
		}
		if w.rec != nil {
			w.rec.FlowOut(dsmon.FlowKey{Kind: "chan", A: s.node.Rank(), B: d.rank, Tag: s.tag, Seq: seq}, s.writeSpan)
		}
		if err := ep.SendOwned(d.rank, s.dataTag, d.frame); err != nil {
			s.dropFrames() // a send that failed left its frame here too
			return fmt.Errorf("channel send to consumer %d: %w", d.cons, err)
		}
		d.frame = nil
		d.outstanding += frameLen
		s.cmet.credits.Add(float64(frameLen))
		s.cmet.frames.Inc()
		s.cmet.bytes.Add(frameLen)
		if d.rank != s.node.Rank() {
			s.cmet.redist.Add(frameLen)
		}
	}
	return nil
}

// interleave rebuilds the frames of a group of several inserts element-major,
// each into one exactly-sized pooled buffer: an element's bytes of the first
// insert, read out of the frame they were encoded into, then its bytes of
// every later insert, out of their arenas. The old frames go back to the
// pool.
func (s *OChannel) interleave(w flush) {
	if cap(s.built) < len(s.dests) {
		s.built = make([][]byte, len(s.dests))
	}
	built := s.built[:len(s.dests)]
	// at adds up each new frame's length first, and is the read cursor in
	// the old one after.
	for i := range s.dests {
		s.dests[i].at = chanFrameHeaderLen
	}
	for l, sz := range w.sizes {
		s.dests[s.elemDest[l]].at += 8 + int(sz)
	}
	for i := range s.dests {
		d := &s.dests[i]
		built[i] = bufpool.GetCap(d.at)[:chanFrameHeaderLen]
		d.at = chanFrameHeaderLen
	}
	first := s.inserts[0].offs
	for l, sz := range w.sizes {
		i := s.elemDest[l]
		d := &s.dests[i]
		next := d.at + 8 + int(first[l+1]-first[l])
		f := append(built[i], d.frame[d.at:d.at+4]...) // the global index
		f = binary.LittleEndian.AppendUint32(f, sz)
		f = append(f, d.frame[d.at+8:next]...)
		for _, in := range s.inserts[1:] {
			f = append(f, in.elem(l)...)
		}
		built[i], d.at = f, next
	}
	for i := range s.dests {
		d := &s.dests[i]
		bufpool.Put(d.frame)
		d.frame, built[i] = built[i], nil
	}
}

// awaitCredit blocks until sending frameLen more bytes to d fits the
// window. A frame with nothing outstanding always passes, so an oversize
// frame cannot deadlock on a credit that will never come.
func (s *OChannel) awaitCredit(d *chanDest, frameLen int64) error {
	if d.outstanding <= 0 || d.outstanding+frameLen <= s.window {
		return nil
	}
	ep := s.node.Comm().Endpoint()
	start := s.node.Clock().Now()
	for d.outstanding > 0 && d.outstanding+frameLen > s.window {
		b, err := ep.Recv(d.rank, s.credTag)
		if err != nil {
			return err
		}
		var rd enc.Reader
		rd.Reset(b)
		v := rd.Uint64()
		ok := rd.Err() == nil && rd.Remaining() == 0
		bufpool.Put(b)
		if !ok {
			return fmt.Errorf("dstream: malformed credit frame from consumer %d", d.cons)
		}
		d.outstanding -= int64(v)
		s.cmet.credits.Add(-float64(v))
		if d.outstanding < 0 {
			return fmt.Errorf("dstream: consumer %d over-credited by %d bytes", d.cons, -d.outstanding)
		}
	}
	end := s.node.Clock().Now()
	s.cmet.creditStall.Observe(end - start)
	if rec := s.met.mon.Recorder(); rec != nil && end > start {
		rec.Add(s.node.Rank(), "dstream", "ochannel.credit-wait "+s.name, start, end)
	}
	return nil
}

// closeSend delivers the end-of-stream marker: one EOF-flagged empty frame
// to every destination. EOF frames are small, ride the eager path, and are
// not credit-accounted.
func (s *OChannel) closeSend() error {
	ep := s.node.Comm().Endpoint()
	var e enc.Buffer
	e.Uint32(chanFlagEOF)
	e.Uint32(0)
	e.Uint32(0)
	for i := range s.dests {
		d := &s.dests[i]
		if err := ep.Send(d.rank, s.dataTag, e.Bytes()); err != nil {
			return fmt.Errorf("%w: channel EOF to consumer %d: %w", ErrIO, d.cons, err)
		}
	}
	return nil
}

// Close sends the end-of-stream marker and releases the producer end.
// Idempotent and safe to defer, like the file streams' Close; data inserted
// but never written is surfaced as an order error.
func (s *OChannel) Close() error {
	if !s.open {
		return nil
	}
	s.open = false
	var err error
	if s.err == nil {
		if err = s.closeSend(); err != nil {
			s.fail(err)
		}
	}
	// Settle the in-flight account: credits for the last record arrive at
	// the consumer's next read or close, but a closed producer no longer
	// listens for them — the gauge tracks live channels only.
	for i := range s.dests {
		d := &s.dests[i]
		if d.outstanding > 0 {
			s.cmet.credits.Add(-float64(d.outstanding))
			d.outstanding = 0
		}
	}
	return s.closeGroup(err)
}

// IChannel is the consumer end of a stream-to-stream channel: an IStream
// whose records arrive over the interconnect. In the record pipeline
// (DESIGN.md) it is the frame source — each Read assembles one record from
// one frame per producer — in front of the record view, which Extract calls
// drain exactly as on a file stream. Read returns ErrEOS once every producer
// has closed.
type IChannel struct {
	recordView
	peer    *distr.Distribution // producer layout
	dataTag uint64
	credTag uint64

	eos bool

	srcs []chanSrc
	// frames holds the current record's frame buffers (parallel to srcs);
	// the element decoders alias them, so they are retired — credited back
	// to their producers and returned to the pool — only when the next
	// Read, or Close, replaces them.
	frames [][]byte
	out    [][]byte // per local element payload, aliasing frames

	readRecs  int
	credFrame enc.Buffer
	cmet      *chanMetrics
}

// OpenChannelInput opens the consumer end of the channel called name. d is
// the consumer group's layout (its NProcs is N, the consumer count), peer
// the producer group's layout (NProcs = M). The caller must be one of
// machine ranks [P−N, P).
func OpenChannelInput(node *machine.Node, d, peer *distr.Distribution, name string, opts ...Option) (*IChannel, error) {
	o := buildOptions(opts)
	if err := o.validateFor(dirChanRecv); err != nil {
		return nil, err
	}
	if err := chanCheck(node, d, peer); err != nil {
		return nil, err
	}
	consBase := node.Size() - d.NProcs
	if node.Rank() < consBase {
		return nil, fmt.Errorf("dstream: rank %d outside the channel's consumer group [%d,%d)",
			node.Rank(), consBase, node.Size())
	}
	r := &IChannel{
		recordView: recordView{stream: newStream(node, d, node.Rank()-consBase, nil, name), strict: o.Strict},
		peer:       peer,
		cmet:       newChanMetrics(node.Monitor()),
	}
	r.dataTag, r.credTag = chanTags(node, "in", name)
	r.buildRouting()
	return r, nil
}

// buildRouting derives the consumer's static frame plan: which producers
// send to this rank and how many elements each delivers per record. A
// consumer owning no elements still hears from producer group rank 0 (the
// pacing marker), so its Read keeps cadence and sees EOF.
func (r *IChannel) buildRouting() {
	counts := make([]int, r.peer.NProcs)
	nLocal := r.LocalLen()
	for l := 0; l < nLocal; l++ {
		counts[r.peer.Owner(r.dist.GlobalIndex(r.rank, l))]++
	}
	for p, c := range counts {
		if c > 0 {
			r.srcs = append(r.srcs, chanSrc{prod: p, rank: p, count: c})
		}
	}
	if len(r.srcs) == 0 {
		r.srcs = append(r.srcs, chanSrc{prod: 0, rank: 0})
	}
	r.frames = make([][]byte, len(r.srcs))
	r.out = make([][]byte, nLocal)
}

// Records returns the number of records read so far.
func (r *IChannel) Records() int { return r.readRecs }

// EOF reports whether every producer has closed the channel.
func (r *IChannel) EOF() bool { return r.eos }

// credit acknowledges frame b from src — its byte length flows back to its
// producer as an 8-byte eager credit frame, reopening that pair's window —
// and returns it to the buffer pool.
func (r *IChannel) credit(src *chanSrc, b []byte) error {
	r.credFrame.Reset()
	r.credFrame.Uint64(uint64(len(b)))
	err := r.node.Comm().Endpoint().Send(src.rank, r.credTag, r.credFrame.Bytes())
	bufpool.Put(b)
	if err != nil {
		return r.fail(fmt.Errorf("%w: channel credit to producer %d: %w", ErrIO, src.prod, err))
	}
	return nil
}

// retire acknowledges and releases the previous record's frames.
func (r *IChannel) retire() {
	for i, b := range r.frames {
		if b != nil {
			_ = r.credit(&r.srcs[i], b) // a failure sticks: the callers look at r.err
			r.frames[i] = nil
		}
	}
	clear(r.out)
}

// Read assembles the next record: the previous record's frames are retired
// (credited and pooled), one frame is received from every producer in the
// plan, and each element payload is placed — still aliasing its frame
// buffer, zero copies — at its local index under the consumer
// distribution. Returns ErrEOS once every producer has closed.
func (r *IChannel) Read() error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	if r.eos {
		return ErrEOS
	}
	if err := r.checkFullyExtracted("read"); err != nil {
		return err
	}
	start := r.node.Clock().Now()
	rec := r.met.mon.Recorder()
	var readSpan dsmon.SpanID
	if rec != nil {
		readSpan = rec.NewSpanID()
	}
	r.retire()
	if r.err != nil {
		return r.err
	}
	ep := r.node.Comm().Endpoint()
	seq := uint64(r.readRecs) + 1
	eofs := 0
	nArrays := -1
	var total int64
	for i := range r.srcs {
		src := &r.srcs[i]
		b, err := ep.Recv(src.rank, r.dataTag)
		if err != nil {
			return r.fail(fmt.Errorf("%w: channel recv from producer %d: %w", ErrIO, src.prod, err))
		}
		r.frames[i] = b
		var d enc.Reader
		d.Reset(b)
		flags := d.Uint32()
		na := int(d.Uint32())
		cnt := int(d.Uint32())
		if d.Err() != nil {
			return r.fail(fmt.Errorf("%w: channel frame from producer %d: truncated header", ErrIO, src.prod))
		}
		if flags&chanFlagEOF != 0 {
			eofs++
			continue
		}
		if rec != nil {
			rec.FlowIn(dsmon.FlowKey{Kind: "chan", A: src.rank, B: r.node.Rank(), Tag: r.tag, Seq: seq}, readSpan)
		}
		if cnt != src.count {
			return r.fail(fmt.Errorf("%w: channel frame from producer %d carries %d elements, plan expects %d",
				ErrIO, src.prod, cnt, src.count))
		}
		if nArrays < 0 {
			nArrays = na
		} else if na != nArrays {
			return r.fail(fmt.Errorf("%w: producers disagree on array count (%d vs %d)", ErrIO, na, nArrays))
		}
		for j := 0; j < cnt; j++ {
			g := int(d.Uint32())
			sz := int(d.Uint32())
			p := d.Raw(sz)
			if d.Err() != nil {
				return r.fail(fmt.Errorf("%w: channel frame from producer %d: truncated element", ErrIO, src.prod))
			}
			if g < 0 || g >= r.dist.N || r.dist.Owner(g) != r.rank {
				return r.fail(fmt.Errorf("%w: element %d misrouted to consumer %d", ErrIO, g, r.rank))
			}
			li := r.dist.LocalIndex(g)
			if r.out[li] != nil {
				return r.fail(fmt.Errorf("%w: element %d delivered twice", ErrIO, g))
			}
			r.out[li] = p
		}
		if d.Remaining() != 0 {
			return r.fail(fmt.Errorf("%w: channel frame from producer %d: %d trailing bytes", ErrIO, src.prod, d.Remaining()))
		}
		total += int64(len(b))
	}
	if eofs > 0 {
		if eofs != len(r.srcs) {
			return r.fail(fmt.Errorf("%w: channel EOF and data frames in the same record", ErrIO))
		}
		// EOF frames carry no credited bytes; release them directly.
		for i, b := range r.frames {
			if b != nil {
				bufpool.Put(b)
				r.frames[i] = nil
			}
		}
		r.eos = true
		r.haveRec = false
		return ErrEOS
	}
	for l, b := range r.out {
		if b == nil {
			return r.fail(fmt.Errorf("dstream: local slot %d (global %d) never arrived",
				l, r.dist.GlobalIndex(r.rank, l)))
		}
	}
	decs := r.decoders(len(r.out))
	for l, b := range r.out {
		decs[l].Reset(b)
	}
	r.node.CopyCost(total)
	r.readRecs++
	end := r.loaded(nArrays, total, start)
	r.cmet.recvStall.Observe(end - start)
	if rec != nil {
		rec.AddSpanID(readSpan, r.node.Rank(), "dstream", "ichannel.Read "+r.name, start, end)
	}
	return nil
}

// drain consumes — crediting and discarding — everything the producers
// still have in flight, through their EOF markers, so an early-closing
// consumer never leaves a producer blocked on a credit window that would
// never reopen. The skipped bytes are counted drained. A channel already
// in its sticky-error state does not drain: the run is aborting, and the
// machine tears the transport down with it.
func (r *IChannel) drain() error {
	r.retire()
	if r.err != nil || r.eos {
		return r.err
	}
	ep := r.node.Comm().Endpoint()
	var drained int64
	eof := make([]bool, len(r.srcs)) // sources whose EOF marker arrived
	for done := 0; done < len(r.srcs); {
		for i := range r.srcs {
			if eof[i] {
				continue
			}
			src := &r.srcs[i]
			b, err := ep.Recv(src.rank, r.dataTag)
			if err != nil {
				return r.fail(fmt.Errorf("%w: channel drain from producer %d: %w", ErrIO, src.prod, err))
			}
			var d enc.Reader
			d.Reset(b)
			flags := d.Uint32()
			if d.Err() != nil {
				bufpool.Put(b)
				return r.fail(fmt.Errorf("%w: channel frame from producer %d: truncated header", ErrIO, src.prod))
			}
			if flags&chanFlagEOF != 0 {
				eof[i] = true
				done++
				bufpool.Put(b)
				continue
			}
			drained += int64(len(b))
			if err := r.credit(src, b); err != nil {
				return err
			}
		}
	}
	r.cmet.drained.Add(drained)
	r.eos = true
	return nil
}

// Close drains the channel to end-of-stream (crediting the producers for
// everything discarded) and releases the consumer end. Idempotent. In
// Strict mode, closing with a partially extracted record is an error.
func (r *IChannel) Close() error {
	if !r.open {
		return nil
	}
	r.open = false
	err := r.closeView(nil)
	if derr := r.drain(); err == nil {
		err = derr
	}
	return err
}
