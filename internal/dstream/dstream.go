// Package dstream implements d/streams, the paper's central contribution: a
// language-independent abstraction for buffered I/O on distributed arrays of
// variable-sized objects (paper §3), realized here for Go collections the
// way pC++/streams realized it for pC++ collections (paper §4).
//
// A d/stream is a buffer associated with a file. Data is inserted from
// distributed collections into an output d/stream's per-node buffers and
// written to the file with one parallel operation; an input d/stream reads a
// record back — with read (element order restored, redistributing across
// nodes when the processor count or distribution changed) or unsortedRead
// (no ordering guarantee, no interprocessor communication) — and extracts it
// into collections.
//
// # Primitive order (Figure 2 state machines)
//
//	output: open → insert⁺ → write → (insert⁺ → write)* → close
//	input:  open → (read|unsortedRead) → extract* → … → close
//
// Illegal orders (write with nothing inserted, extract before a read, more
// extracts than the record has arrays) are rejected at run time.
//
// # Interleaving
//
// Arrays inserted consecutively with no intervening write have their
// elements interleaved in the file: the payloads of element i from every
// insert of the group are contiguous. All collections inserted into one
// group must be aligned (same layout) with the stream's distribution.
//
// # On-disk layout (Figure 4, §4.1)
//
//	file   := fileHeader record*
//	record := recordHeader | sizeTable (node order) | data (node order)
//
// The metadata (distribution descriptor + per-element sizes) precedes the
// data, so the input side needs nothing from the programmer: it reads the
// paperwork, then the data, "regardless of differences in the number of
// processors and distribution of the reading and writing arrays."
package dstream

import (
	"errors"
	"fmt"
	"hash/fnv"

	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
)

// Encoder is the typed buffer an element inserter fills (one per element).
type Encoder = enc.Buffer

// Decoder is the typed reader an element extractor drains.
type Decoder = enc.Reader

// Inserter is implemented by element types that can insert themselves —
// the Go counterpart of the paper's insertion functions
// (declareStreamInserter). Implementations append the element's fields,
// including variable-sized ones, to e.
type Inserter interface {
	StreamInsert(e *Encoder)
}

// Extractor is the inverse of Inserter. Implementations decode exactly what
// their StreamInsert encoded; decoding failures surface via d.Err and are
// checked by the library after each element.
type Extractor interface {
	StreamExtract(d *Decoder)
}

// Options tune a stream; the zero value gives the defaults. Prefer building
// them through the open calls' functional options; the struct remains
// exported for WithOptions (a pre-built value applied wholesale) and for
// tools that enumerate settings.
type Options struct {
	// Strategy selects the collective data path. StrategyAuto (the zero
	// value) hands the choice to the cost-model planner, record by record;
	// an explicit strategy is used as given and switches the planner off.
	Strategy Strategy
	// Aggregators overrides the two-phase aggregator count; zero takes the
	// planner's K on a planned stream and the file's stripe factor otherwise.
	Aggregators int
	// Strict enforces the full Figure 2 contract on input streams: every
	// array of a record must be extracted before the next read or skip, and
	// before close ("every extract must have a corresponding insert" in
	// both directions). Off by default: the paper's interface permits a
	// reader that stops early, losing the rest of the record.
	Strict bool
	// Append opens an output stream on an existing d/stream file and adds
	// records after the ones already present, instead of truncating — the
	// §2 "saving data-sets between application runs" pattern when one file
	// accumulates the history of several runs. The file must already be a
	// valid d/stream file.
	Append bool
	// Async turns output writes into write-behind operations: Write still
	// rendezvouses (the group must agree on the record layout) but returns
	// without waiting for the disk, so computation between writes overlaps
	// the transfer. Close (or Drain) waits for everything to land. An
	// extension beyond the paper's synchronous write primitive; the
	// BenchmarkAblation/async-overlap bench quantifies it.
	Async bool
	// ReadAhead is the input-stream prefetch depth: while the consumer
	// drains the current record, up to ReadAhead upcoming records are
	// fetched in the background (metadata synchronously — it is a few
	// broadcast bytes — the data section with the asynchronous read
	// primitives), so Read stalls only for the un-overlapped remainder of
	// the transfer. The read-side mirror of Async. Zero disables
	// prefetching; prefetched records a consumer skips are counted as
	// wasted bytes and their buffers recycled.
	ReadAhead int
	// FS overrides the file system the stream's file is opened on. Nil (the
	// default) uses the machine's own file system (machine.Config.FS). A
	// session with a dstreamd daemon injects its remote-backed file system
	// here — see the session package — so embedded and remote streams share
	// every code path above the pfs.Backend seam.
	FS *pfs.FileSystem
	// ChannelWindow is the per-consumer credit window of a stream-to-stream
	// channel, in bytes: a producer keeps at most this many unacknowledged
	// frame bytes in flight toward each consumer before blocking for
	// credit, so a slow consumer backpressures its producers instead of
	// growing unbounded buffers. Zero means DefaultChannelWindow. Only
	// OpenChannel/OpenChannelInput accept it.
	ChannelWindow int
}

// Common errors.
var (
	// ErrClosed reports use of a closed stream.
	ErrClosed = errors.New("dstream: stream closed")
	// ErrNotAligned reports inserting/extracting a collection whose layout
	// differs from the stream's distribution.
	ErrNotAligned = errors.New("dstream: collection not aligned with stream distribution")
	// ErrOrder reports a primitive called out of the legal order.
	ErrOrder = errors.New("dstream: primitive out of order")
	// ErrIO wraps a flush or refill that failed in the layers below —
	// communication retries exhausted, storage faults, aborted collectives.
	// The stream is left in its sticky-error state: later primitives return
	// the same error instead of hanging or silently corrupting the file.
	ErrIO = errors.New("dstream: I/O failed")
)

// stream holds the state every end of the record pipeline shares, whichever
// direction it moves records in and whether a file or a channel is attached.
type stream struct {
	node *machine.Node
	dist *distr.Distribution
	// rank is this node's rank in dist: the machine rank, except on a
	// channel's consumer group, which sits at the top of the machine.
	rank int
	f    *pfs.File // nil on a channel, and after Close
	open bool
	name string
	err  error // sticky
	met  *streamMetrics
	// tag keys this stream's cross-rank causal edges (shuffle/scatter
	// rendezvous). Derived from the file name, so every rank's instance of
	// the same logical stream computes the identical tag with no
	// communication.
	tag uint64
}

func newStream(node *machine.Node, d *distr.Distribution, rank int, f *pfs.File, name string) stream {
	return stream{node: node, dist: d, rank: rank, f: f, open: true, name: name,
		met: newStreamMetrics(node.Monitor()), tag: streamTag(name)}
}

// streamTag hashes a stream name into the causal-edge rendezvous tag.
func streamTag(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// streamMetrics is the dsmon handle set of one stream. Handles are
// get-or-create in the run's registry, so every stream of a run
// aggregates into the same dstream_* families; a run without a monitor
// gets nil handles, which are no-ops. This is the accounting the paper's
// tables imply but never expose: how full the per-node buffers get, how
// long a flush or refill stalls the computation, and — for asynchronous
// write-behind — how much of each transfer overlapped computation instead
// of blocking it.
type streamMetrics struct {
	mon      *dsmon.Monitor
	inserts  *dsmon.Counter
	writes   *dsmon.Counter
	reads    *dsmon.Counter
	extracts *dsmon.Counter
	skips    *dsmon.Counter
	errs     *dsmon.Counter
	fill     *dsmon.Gauge
	// flushBytes / refillBytes observe the per-node payload of each
	// flush / refill; flushStall / refillStall observe the virtual
	// seconds the primitive kept the node from computing.
	flushBytes  *dsmon.Histogram
	refillBytes *dsmon.Histogram
	flushStall  *dsmon.Histogram
	drainStall  *dsmon.Histogram
	refillStall *dsmon.Histogram
	// asyncOverlap observes, per asynchronous append, the virtual seconds
	// the disk kept working after Write returned — the overlapped share;
	// flushStall{phase="write"} holds the blocked share.
	asyncOverlap *dsmon.Histogram
	// Two-phase accounting: shuffleBytes observes the per-node payload
	// exchanged over the interconnect during the aggregation shuffle;
	// extentBytes observes the stripe-aligned extent each aggregator moved
	// to or from the file; shuffleStall observes the virtual seconds the
	// shuffle phase (alltoallv + the aggregator's copy charge) kept the node
	// from computing.
	shuffleBytes *dsmon.Histogram
	extentBytes  *dsmon.Histogram
	shuffleStall *dsmon.Histogram
	// Read-ahead accounting: prefetchHits counts reads served from the
	// prefetch queue; prefetchWasted counts prefetched data bytes dropped
	// unread (skipped records, close with queued records); prefetchOverlap
	// observes, per hit, the virtual seconds of the prefetched transfer
	// that overlapped computation instead of stalling the consumer —
	// refillStall holds the blocked remainder.
	prefetchHits    *dsmon.Counter
	prefetchWasted  *dsmon.Counter
	prefetchOverlap *dsmon.Histogram
}

// newStreamMetrics binds the dstream metric families in m's registry.
func newStreamMetrics(m *dsmon.Monitor) *streamMetrics {
	reg := m.Registry()
	return &streamMetrics{
		mon:      m,
		inserts:  reg.Counter("dstream_inserts_total", "insert operations (one per collection per group)"),
		writes:   reg.Counter("dstream_writes_total", "records flushed by output streams"),
		reads:    reg.Counter("dstream_reads_total", "records loaded by input streams"),
		extracts: reg.Counter("dstream_extracts_total", "extract operations drained from records"),
		skips:    reg.Counter("dstream_skips_total", "records skipped by input streams"),
		errs:     reg.Counter("dstream_errors_total", "stream primitives that failed and stuck the stream in its error state"),
		fill: reg.Gauge("dstream_buffer_fill_bytes",
			"bytes currently buffered in unwritten interleave groups, all streams of this node's run"),
		flushBytes: reg.Histogram("dstream_flush_bytes",
			"per-node data bytes per record flush", dsmon.SizeBuckets),
		refillBytes: reg.Histogram("dstream_refill_bytes",
			"per-node data bytes per record refill", dsmon.SizeBuckets),
		flushStall: reg.Histogram("dstream_flush_stall_seconds",
			"virtual seconds a write kept the node from computing", dsmon.LatencyBuckets, "phase", "write"),
		drainStall: reg.Histogram("dstream_flush_stall_seconds",
			"virtual seconds a write kept the node from computing", dsmon.LatencyBuckets, "phase", "drain"),
		refillStall: reg.Histogram("dstream_refill_stall_seconds",
			"virtual seconds a read/unsortedRead kept the node from computing", dsmon.LatencyBuckets),
		asyncOverlap: reg.Histogram("dstream_async_overlap_seconds",
			"virtual seconds of disk transfer overlapped with computation per async append", dsmon.LatencyBuckets),
		shuffleBytes: reg.Histogram("dstream_twophase_shuffle_bytes",
			"per-node payload bytes exchanged in the two-phase aggregation shuffle", dsmon.SizeBuckets),
		extentBytes: reg.Histogram("dstream_twophase_extent_bytes",
			"stripe-aligned extent bytes per aggregator transfer", dsmon.SizeBuckets),
		shuffleStall: reg.Histogram("dstream_twophase_shuffle_stall_seconds",
			"virtual seconds the two-phase shuffle kept the node from computing", dsmon.LatencyBuckets),
		prefetchHits: reg.Counter("dstream_prefetch_hits_total",
			"input-stream reads served from the read-ahead queue"),
		prefetchWasted: reg.Counter("dstream_prefetch_wasted_bytes_total",
			"prefetched data bytes dropped unread (skips, close with queued records)"),
		prefetchOverlap: reg.Histogram("dstream_prefetch_overlap_seconds",
			"virtual seconds of prefetched transfer overlapped with computation per hit", dsmon.LatencyBuckets),
	}
}

func (s *stream) fail(err error) error {
	if err != nil && s.err == nil {
		s.err = err
		s.met.errs.Inc()
	}
	return err
}

func (s *stream) checkOpen() error {
	if s.err != nil {
		return s.err
	}
	if !s.open {
		return ErrClosed
	}
	return nil
}

// Node returns the owning node.
func (s *stream) Node() *machine.Node { return s.node }

// Dist returns the distribution the stream was opened with: the layout of
// the collections this end inserts from or extracts into.
func (s *stream) Dist() *distr.Distribution { return s.dist }

// LocalLen returns the number of elements this node holds per array — its
// share of the stream's distribution.
func (s *stream) LocalLen() int { return s.dist.LocalCount(s.rank) }

// headerFor renders the record header (and descriptor section, for
// EXPLICIT distributions) for this stream's distribution.
func headerFor(d *distr.Distribution, nArrays int, dataBytes uint64) (enc.RecordHeader, []byte) {
	var desc []byte
	if d.Mode == distr.Explicit {
		desc = enc.EncodeOwnerTable(d.Owners())
	}
	return enc.RecordHeader{
		NArrays:     uint32(nArrays),
		NElems:      uint32(d.N),
		NProcs:      uint32(d.NProcs),
		Mode:        uint8(d.Mode),
		BlockSize:   uint32(d.BlockSize),
		AlignOffset: int32(d.Align.Offset),
		AlignStride: int32(d.Align.Stride),
		TemplateN:   uint32(d.TemplateN),
		DescBytes:   uint32(len(desc)),
		DataBytes:   dataBytes,
	}, desc
}

// checkFileHeader reads the file header of f and validates it; node 0 does
// it for the group when a stream opens an existing file.
func checkFileHeader(f *pfs.File) error {
	hdr := make([]byte, enc.FileHeaderLen)
	if err := f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("read file header: %w", err)
	}
	return enc.CheckFileHeader(hdr)
}

// fileOrder returns, for each file position (writer node-block order), the
// global element index stored there.
func fileOrder(wdist *distr.Distribution) []int {
	out := make([]int, 0, wdist.N)
	for r := 0; r < wdist.NProcs; r++ {
		n := wdist.LocalCount(r)
		for l := 0; l < n; l++ {
			out = append(out, wdist.GlobalIndex(r, l))
		}
	}
	return out
}
