package dstream

import (
	"fmt"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/collective"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/plan"
)

// OStream is an output d/stream: a per-node buffer bound to a file, into
// which aligned collections are inserted and then written with one parallel
// operation per record. Declare one per distribution/alignment, as in the
// paper: `oStream s(&d, &a, "wholeGridFile")`. In the record pipeline
// (DESIGN.md) it is the assembler plus the file sink: pack the group, pick a
// strategy, append.
type OStream struct {
	assembler
	planState
	opts Options
	// metaLen is the byte length of a record's front matter — header,
	// descriptor, size table — which the distribution fixes for every record.
	metaLen int64
	// planTotal carries a planned record's agreed total data bytes from the
	// plan agreement to writeParallel, which then skips its own Allreduce.
	planTotal int64
	// pending is the completion time of the latest asynchronous write; the
	// clock must reach it before the stream's data is durable. pendingSpans
	// are the async disk spans the next Drain will wait on (tracing only).
	pending      float64
	pendingSpans []dsmon.SpanID
	// Per-record scratch: pieces is the block node 0 appends, the front
	// matter and the data pieces behind it; sendBufs is what the two-phase
	// shuffle lends each rank, recvBufs what each rank lent this one and
	// lent which of those are lent rather than copied.
	pieces   [][]byte
	sendBufs [][]byte
	recvBufs [][]byte
	lent     []bool
}

// openOutput is the collective open every output constructor funnels into.
// Every node of the machine must make the matching call.
func openOutput(node *machine.Node, d *distr.Distribution, name string, opts Options) (*OStream, error) {
	if d.NProcs != node.Size() {
		return nil, fmt.Errorf("dstream: distribution over %d procs on a %d-node machine", d.NProcs, node.Size())
	}
	if err := opts.validateFor(dirOutput); err != nil {
		return nil, err
	}
	f, err := openFile(node, opts, name, !opts.Append)
	if err != nil {
		return nil, fmt.Errorf("dstream: open output %q: %w", name, err)
	}
	s := &OStream{
		assembler: newAssembler(newStream(node, d, node.Rank(), f, name), "ostream"),
		opts:      opts,
	}
	_, desc := headerFor(d, 1, 0)
	s.metaLen = enc.RecordHeaderLen + int64(len(desc)) + int64(4*d.N)
	if opts.plannerEnabled() {
		s.planState = s.newPlanState()
	}
	// Node 0 stamps (or, in append mode, validates) the file header; the
	// control sync both orders that before any parallel append and models
	// the PFS open synchronization.
	if opts.Append {
		// Node 0 validates the existing header, so a bad file fails every
		// node together instead of leaving peers waiting at the open
		// rendezvous.
		_, frame, err := node.Comm().Rooted(0, func() ([]byte, error) { return nil, checkFileHeader(f) })
		bufpool.Put(frame)
		if err != nil {
			f.Close()
			return nil, s.fail(fmt.Errorf("dstream: append to %q: %w", name, err))
		}
	} else if node.Rank() == 0 {
		if err := f.WriteAt(enc.EncodeFileHeader(), 0); err != nil {
			f.Close()
			return nil, s.fail(fmt.Errorf("dstream: write file header: %w", err))
		}
	}
	if err := f.ControlSync(); err != nil {
		f.Close()
		return nil, s.fail(fmt.Errorf("dstream: open sync: %w", err))
	}
	return s, nil
}

// FileSize returns the current byte length of the underlying file image
// (header plus all committed records). Checkpoint managers use it to seal
// commit markers.
func (s *OStream) FileSize() int64 {
	if s.f == nil {
		return 0
	}
	return s.f.Size()
}

// Write flushes the current interleave group as one record (§4.1): the
// per-element pointer lists are traversed, data is packed into the per-node
// buffer, the metadata (distribution descriptor and per-element sizes) is
// placed ahead of the data — through node 0 or with a parallel write of its
// own, as the strategy has it — and the data is written with one parallel
// operation in node order.
func (s *OStream) Write() error {
	w, err := s.beginWrite()
	if err != nil {
		return err
	}
	return s.endWrite(w, s.appendRecord(w))
}

// appendRecord is the file sink: the group packed into the per-node data
// buffer — one insert hands over its arena, a longer group is packed
// element-major — and moved to the file by the record's strategy.
func (s *OStream) appendRecord(w flush) error {
	data := s.pack()
	s.node.CopyCost(int64(w.bytes) + int64(4*len(w.sizes)))

	strat := s.opts.Strategy
	var err error
	if s.planner != nil {
		strat, err = s.planRecord(w.bytes)
	}
	if err == nil {
		switch strat {
		case StrategyFunnel:
			err = s.writeFunnel(w.arrays, w.sizes, data)
		case StrategyTwoPhase:
			var lent bool
			if lent, err = s.writeTwoPhase(w.arrays, w.sizes, data); lent && err != nil {
				// A peer may still be reading its overlap: the arena goes to
				// the garbage collector, not back to the pool.
				data = nil
			}
		default:
			err = s.writeParallel(w.arrays, w.sizes, data)
		}
	}
	// Every strategy's bytes are in the file by the time it returns
	// (parallel appends complete inside the rendezvous, and no rank leaves
	// that before every rank's move is done), or on the wire (transports
	// copy a borrowed send), so the packed buffer can be released even on
	// failure — unless the shuffle lent it out and failed.
	bufpool.Put(data)
	if err == nil {
		// The strategy's closing rendezvous left every rank's clock at the
		// same instant: a rank-identical observation, fed back for free.
		s.observe(s.node.Clock().Now())
	}
	return err
}

// planRecord agrees on the record's total data bytes — one 8-byte
// Allreduce, the same agreement writeParallel performs anyway, hoisted
// ahead of the strategy choice — and asks the planner for this record's
// plan. The Allreduce both supplies a rank-identical geometry and
// equalizes the group's virtual clocks — its root hears from every rank
// before it releases any, and all of them leave at the one instant it sends
// with the result — so every rank picks the same strategy with no further
// communication and the post-flush clock delta is a common observation.
func (s *OStream) planRecord(localBytes int) (Strategy, error) {
	total, err := s.node.Comm().Allreduce(float64(localBytes), collective.OpSum)
	if err != nil {
		return StrategyAuto, fmt.Errorf("dstream: plan agreement: %w", err)
	}
	s.planTotal = int64(total)
	d := s.planner.PlanWrite(plan.Geometry{
		NProcs:    s.dist.NProcs,
		NElems:    s.dist.N,
		DataBytes: s.planTotal,
		MetaBytes: s.metaLen,
	}, s.opts.Aggregators)
	s.decided(&s.stream, d, s.node.Clock().Now())
	return fromPlanStrategy(d.Strategy), nil
}

// writeFunnel gathers the size table to node 0, which writes the record
// header and the whole table at the head of its per-node block; one
// parallel append moves everything (§4.1: "collected into node zero and
// placed at the head of the per-node buffer on that node so that it can be
// written with the actual data"). data is this node's part of the data
// section as the pieces it is in, in file order; the head is one more piece
// in front of them, not a block they are copied behind.
func (s *OStream) writeFunnel(nArrays int, localSizes []uint32, data ...[]byte) error {
	comm := s.node.Comm()
	st := enc.AppendSizeTable(bufpool.GetCap(4*len(localSizes)), localSizes)
	parts, err := comm.Gather(0, st)
	if err != nil {
		bufpool.Put(st)
		return fmt.Errorf("dstream: gather sizes: %w", err)
	}
	if s.node.Rank() != 0 {
		// The transport copied st on send; the non-root block is just data,
		// which its owner releases.
		bufpool.Put(st)
		return s.appendBlock("funnel append", data...)
	}
	// The front matter in one buffer: the table is gathered straight in
	// behind the header, which is rewritten once the table's sum is known.
	h, desc := headerFor(s.dist, nArrays, 0)
	front := append(h.AppendTo(bufpool.GetCap(int(s.metaLen))), desc...)
	// parts[0] aliases st (Gather returns the root's own contribution
	// as-is); the rest arrived from the wire and are ours to release.
	for r, p := range parts {
		front = append(front, p...)
		if r != 0 {
			bufpool.Put(p)
		}
	}
	bufpool.Put(st)
	h.DataBytes, err = enc.SumSizeTable(front[enc.RecordHeaderLen+len(desc):], s.dist.N)
	if err != nil {
		bufpool.Put(front)
		return fmt.Errorf("dstream: reassemble size table: %w", err)
	}
	h.AppendTo(front[:0])
	s.pieces = append(append(s.pieces[:0], front), data...)
	err = s.appendBlock("funnel append", s.pieces...)
	clear(s.pieces)
	bufpool.Put(front)
	return err
}

// appendBlock moves one per-node block, handed over as its pieces, to the
// file, synchronously or write-behind per Options.Async. The pieces are the
// caller's again when it returns, whatever it returns.
func (s *OStream) appendBlock(what string, pieces ...[]byte) error {
	if !s.opts.Async {
		if _, err := s.f.ParallelAppend(pieces...); err != nil {
			return fmt.Errorf("dstream: %s: %w", what, err)
		}
		return nil
	}
	_, completion, err := s.f.ParallelAppendAsync(pieces...)
	if err != nil {
		return fmt.Errorf("dstream: %s: %w", what, err)
	}
	if completion > s.pending {
		s.pending = completion
	}
	// The disk keeps transferring past this point while the node
	// computes: the write-behind overlap the paper's synchronous
	// primitive cannot have.
	if overlap := completion - s.node.Clock().Now(); overlap > 0 {
		s.met.asyncOverlap.Observe(overlap)
	}
	if id := s.f.LastAsyncSpan(); id != 0 {
		s.pendingSpans = append(s.pendingSpans, id)
	}
	return nil
}

// Drain blocks (in virtual time) until every asynchronous write has landed
// on disk. A no-op for synchronous streams.
func (s *OStream) Drain() {
	now := s.node.Clock().Now()
	if stall := s.pending - now; stall > 0 {
		s.met.drainStall.Observe(stall)
		if rec := s.met.mon.Recorder(); rec != nil {
			id := rec.AddSpan(s.node.Rank(), "dstream", "ostream.Drain "+s.name, now, s.pending)
			// Link the drain to the async disk spans it is waiting out.
			for _, p := range s.pendingSpans {
				rec.AddFlow(p, id, "drain")
			}
		}
	}
	s.pendingSpans = s.pendingSpans[:0]
	s.node.Clock().SyncTo(s.pending)
}

// writeParallel writes the metadata section with its own parallel append
// (node 0 prefixes the record header to its slice of the size table), then
// the data section with a second parallel append.
func (s *OStream) writeParallel(nArrays int, localSizes []uint32, data []byte) error {
	var total float64
	if s.planner != nil {
		// The plan agreement already summed the group's data bytes; don't
		// pay a second Allreduce.
		total = float64(s.planTotal)
	} else {
		var err error
		total, err = s.node.Comm().Allreduce(float64(len(data)), collective.OpSum)
		if err != nil {
			return fmt.Errorf("dstream: sum data bytes: %w", err)
		}
	}
	var meta []byte
	if s.node.Rank() == 0 {
		h, desc := headerFor(s.dist, nArrays, uint64(total))
		meta = bufpool.GetCap(enc.RecordHeaderLen + len(desc) + 4*len(localSizes))
		meta = h.AppendTo(meta)
		meta = append(meta, desc...)
		meta = enc.AppendSizeTable(meta, localSizes)
	} else {
		meta = enc.AppendSizeTable(bufpool.GetCap(4*len(localSizes)), localSizes)
	}
	_, err := s.f.ParallelAppend(meta)
	bufpool.Put(meta)
	if err != nil {
		return fmt.Errorf("dstream: meta append: %w", err)
	}
	return s.appendBlock("data append", data)
}

// Close releases the stream. As in pC++/streams, where close lives in the
// d/stream destructor, Close is idempotent and safe to defer.
func (s *OStream) Close() error {
	if !s.open {
		return nil
	}
	s.open = false
	s.Drain()
	err := s.f.Close()
	s.f = nil
	return s.closeGroup(err)
}
