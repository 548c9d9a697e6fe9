package dstream

import (
	"fmt"
	"math"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/pfs"
)

// arena is one insert: the payloads of every local element, in local order,
// encoded back to back into one pooled buffer — or, sourced, into memory the
// file's backend handed out (pfs.BufferSource), which goes back through the
// file. Element l is buf[offs[l]:offs[l+1]]. A channel's first insert has no
// buffer of its own: framed, its elements are in the channel's frames, and
// offs only measures them.
type arena struct {
	buf     []byte
	offs    []uint32 // LocalLen+1 entries
	framed  bool
	sourced bool
}

func (a *arena) elem(l int) []byte { return a.buf[a.offs[l]:a.offs[l+1]] }

// assembler is the output half of the record pipeline, the left side of
// Figure 2: the interleave group — the inserts made since the last write,
// one arena each — and everything about insert → write → close that does not
// depend on where a record goes. An output end is an assembler plus a sink:
// OStream's packs the group and appends it to a file, OChannel's sends the
// group's frames.
//
// The encoder writes every element straight to where the sink takes it from,
// so an inserted byte is copied once on the way in and — for the common group
// of one insert — not again before the sink hands it on. On a file stream
// that is the arena, which already is the packed per-node buffer. On a
// channel, the group's first insert is encoded into the frame of the
// consumer that owns each element (frames), behind the element's frame
// prefix; a later insert goes to an arena, and Write interleaves.
//
// Arenas come from bufpool and are sized without a knob: from what the
// previous group's insert at the same position took, or, on a stream's first
// group, from LocalLen × the first element once that is encoded. An
// underestimate moves the arena up one pool class at a time. Frames are sized
// the same way, each for its own destination. On a file whose backend
// supplies buffers (src), the arena moves there once its first element is
// encoded, sized the same way (and never smaller than that element), so that
// the backend writes the rest from where it was encoded; one outgrown moves
// to the pool, and the backend gets its buffer back.
type assembler struct {
	stream
	// kind prefixes the end's spans: "ostream" or "ochannel".
	kind string

	enc     Encoder
	inserts []arena
	hints   []int      // hints[i]: bytes the latest i-th insert of a group encoded
	offFree [][]uint32 // offset tables between groups
	sizes   []uint32   // the local size table, reused across flushes
	bytes   int64      // payload bytes in inserts (this group's share of the fill gauge)
	spans   []dsmon.SpanID

	// maxBytes caps an arena and an element's interleaved payload: what the
	// record format's u32 size-table entry can say. Tests lower it.
	maxBytes uint64

	wrote int // records written
	// writeSpan is the current record's flush span (zero when the run is not
	// tracing), reserved when Write begins so that the encode edges and the
	// sink's own edges can name it before its end time is known.
	writeSpan dsmon.SpanID

	// frames, on a channel, is where the group's first insert is encoded.
	// It and src are last because a field ahead of enc moves the encoder: 8
	// bytes further on, an insert of 16 384 small elements ran ~7 % slower
	// on a 2-vCPU Xeon.
	frames *chanFrames
	// src, on an output stream that never lends its arenas (its strategy
	// fixed to funnel or parallel), is the file arenas are drawn from when
	// its backend has buffers to give; nil otherwise. A lent arena that
	// fails is dropped, which a backend's buffer cannot be.
	src *pfs.File
}

func newAssembler(st stream, kind string) assembler {
	return assembler{stream: st, kind: kind, maxBytes: math.MaxUint32}
}

// Pending returns the number of inserts in the current interleave group.
func (a *assembler) Pending() int { return len(a.inserts) }

// Records returns the number of records written so far.
func (a *assembler) Records() int { return a.wrote }

// InsertFunc is the low-level insert primitive: fill is called once per
// locally owned element, in local order, and appends that element's payload
// to the encoder. The generic helpers (Insert, InsertField, InsertElems, …)
// are built on it. Inserting charges the per-element pointer-list traversal
// cost of Figure 4.
func (a *assembler) InsertFunc(fill func(local int, e *Encoder)) error {
	if err := a.checkOpen(); err != nil {
		return err
	}
	n := a.LocalLen()
	start := a.node.Clock().Now()
	pos := len(a.inserts)
	if pos == len(a.hints) {
		a.hints = append(a.hints, 0)
	}
	hint := a.hints[pos]
	var offs []uint32
	if f := len(a.offFree); f > 0 && cap(a.offFree[f-1]) > n {
		offs = a.offFree[f-1][:n+1]
		a.offFree = a.offFree[:f-1]
	} else {
		offs = make([]uint32, n+1)
	}
	fr := a.frames
	if pos > 0 {
		fr = nil // a later insert of a channel's group goes to an arena
	}
	e := &a.enc
	if fr != nil {
		fr.beginFrames()
	} else {
		e.Adopt(bufpool.GetCap(hint))
	}
	for l := 0; l < n; l++ {
		if fr != nil {
			fr.enter(e, l, a.dist.GlobalIndex(a.rank, l))
		}
		fill(l, e)
		end := e.Mark()
		if fr != nil {
			end = fr.land(e, l, end)
		} else if l == 0 {
			// The previous group's insert at this position gives the size;
			// on a stream's first group nothing does but this element: take
			// the rest to be like it, without leaving the pool on an
			// estimate.
			est := hint
			if est == 0 {
				est = min(end*n, bufpool.MaxClass)
			}
			if !a.source(e, max(est, end)) {
				e.Reserve(est - end)
			}
		}
		offs[l+1] = uint32(end) // checked as a whole below: ends only grow
	}
	sourced := e.Sourced()
	buf := e.Detach() // nil when the insert went to the frames: land took each back
	total := len(buf)
	if fr != nil {
		total = fr.total
	}
	if uint64(total) > a.maxBytes {
		a.putArena(buf, sourced)
		if fr != nil {
			fr.dropFrames()
		}
		a.offFree = append(a.offFree, offs)
		return a.fail(fmt.Errorf("%w: insert of %d bytes on one node exceeds the record format's %d-byte sizes",
			ErrOrder, total, a.maxBytes))
	}
	a.hints[pos] = total
	a.inserts = append(a.inserts, arena{buf: buf, offs: offs, framed: fr != nil, sourced: sourced})
	a.bytes += int64(total)
	a.met.inserts.Inc()
	a.met.fill.Add(float64(total))
	a.node.Compute(float64(n) * a.node.Profile().PerElemCost)
	if rec := a.met.mon.Recorder(); rec != nil {
		id := rec.AddSpan(a.node.Rank(), "dstream", a.kind+".Insert "+a.name, start, a.node.Clock().Now())
		a.spans = append(a.spans, id)
	}
	return nil
}

// flush is one Write between beginWrite and endWrite: what the sink needs to
// know about the group, and what the epilogue needs to settle the accounts.
type flush struct {
	start  float64
	arrays int      // inserts in the group
	sizes  []uint32 // per local element, the group's inserts interleaved
	bytes  int      // their sum
	rec    *dsmon.Recorder
}

// beginWrite is Write's prologue on every output end: the open and order
// checks, the flush span reserved and linked to the group's insert spans,
// and the local size table. The sink then takes the group (pack, or elem by
// elem and release) and endWrite closes the record.
func (a *assembler) beginWrite() (flush, error) {
	if err := a.checkOpen(); err != nil {
		return flush{}, err
	}
	if len(a.inserts) == 0 {
		return flush{}, a.fail(fmt.Errorf("%w: write with no pending inserts", ErrOrder))
	}
	w := flush{start: a.node.Clock().Now(), arrays: len(a.inserts), rec: a.met.mon.Recorder()}
	if w.rec != nil {
		a.writeSpan = w.rec.NewSpanID()
		for _, id := range a.spans {
			w.rec.AddFlow(id, a.writeSpan, "encode")
		}
		a.spans = a.spans[:0]
	}
	var err error
	w.sizes, w.bytes, err = a.sizeTable()
	return w, err
}

// endWrite is Write's epilogue: a sink failure sticks the stream in its
// error state; a record that left counts, and its stall and span are cut.
func (a *assembler) endWrite(w flush, err error) error {
	if err != nil {
		return a.fail(fmt.Errorf("%w: %w", ErrIO, err))
	}
	a.wrote++
	end := a.node.Clock().Now()
	a.met.writes.Inc()
	a.met.flushBytes.Observe(float64(w.bytes))
	a.met.flushStall.Observe(end - w.start)
	if w.rec != nil {
		w.rec.AddSpanID(a.writeSpan, a.node.Rank(), "dstream", a.kind+".Write "+a.name, w.start, end)
	}
	return nil
}

// closeGroup is the tail of an output end's Close. Data inserted but never
// written is lost; that is surfaced unless err, what closing the sink
// returned, already reports something.
func (a *assembler) closeGroup(err error) error {
	if n := len(a.inserts); n > 0 {
		if err == nil {
			err = fmt.Errorf("%w: close with %d unwritten inserts", ErrOrder, n)
		}
		a.release()
	}
	return err
}

// sizeTable returns each local element's payload size with the group's
// inserts interleaved — offset differences, summed across inserts — and
// their total. The table is valid until the next call. An element too large
// for the record format empties the group and fails the stream.
func (a *assembler) sizeTable() ([]uint32, int, error) {
	n := len(a.inserts[0].offs) - 1
	if cap(a.sizes) < n {
		a.sizes = make([]uint32, n)
	}
	sizes := a.sizes[:n]
	first := a.inserts[0].offs
	for l := range sizes {
		sizes[l] = first[l+1] - first[l]
	}
	for _, in := range a.inserts[1:] {
		for l := range sizes {
			sz := uint64(sizes[l]) + uint64(in.offs[l+1]-in.offs[l])
			if sz > a.maxBytes {
				a.release()
				return nil, 0, a.fail(fmt.Errorf("%w: local element %d takes %d bytes across the group's inserts, over the record format's %d-byte sizes",
					ErrOrder, l, sz, a.maxBytes))
			}
			sizes[l] = uint32(sz)
		}
	}
	return sizes, int(a.bytes), nil
}

// pack empties the group into the per-node data buffer: element-major, the
// inserts interleaved (Figure 4's pointer-list traversal). One insert's
// arena is that buffer as it stands, sourced or not; a longer group is
// packed into a pooled one. The caller owns the result and releases it with
// putArena, sourced as reported.
func (a *assembler) pack() (data []byte, sourced bool) {
	if len(a.inserts) == 1 {
		in := &a.inserts[0]
		data, sourced = in.buf, in.sourced
		in.buf, in.sourced = nil, false
	} else {
		data = bufpool.GetCap(int(a.bytes))
		for l, n := 0, len(a.inserts[0].offs)-1; l < n; l++ {
			for i := range a.inserts {
				data = append(data, a.inserts[i].elem(l)...)
			}
		}
	}
	a.release()
	return data, sourced
}

// source moves the arena e holds, the insert's first element, into a buffer
// of the file's backend with room for n bytes (no fewer than that element's),
// and reports whether it did: not on an end that draws none, nor when the
// backend has none to give.
func (a *assembler) source(e *Encoder, n int) bool {
	if a.src == nil {
		return false
	}
	run := a.src.Buffer(n)
	if run == nil {
		return false
	}
	first := e.Detach()
	e.AdoptFrom(append(run[:0], first...), a.src)
	bufpool.Put(first)
	return true
}

// putArena gives an arena, or a packed buffer, back where it came from: a
// sourced one to the file's backend, any other to the pool.
func (a *assembler) putArena(b []byte, sourced bool) {
	if sourced {
		a.src.Release(b)
	} else {
		bufpool.Put(b)
	}
}

// release empties the group, returning each arena where it came from, and
// the frames too while its first insert is still in them.
func (a *assembler) release() {
	for i := range a.inserts {
		in := &a.inserts[i]
		if in.framed {
			a.frames.dropFrames()
		}
		a.putArena(in.buf, in.sourced)
		a.offFree = append(a.offFree, in.offs)
		*in = arena{}
	}
	a.inserts = a.inserts[:0]
	a.met.fill.Add(-float64(a.bytes))
	a.bytes = 0
}
