package dstream

import (
	"fmt"
	"math"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/trace"
)

// arena is one insert: the payloads of every local element, in local order,
// encoded back to back into one pooled buffer. Element l is
// buf[offs[l]:offs[l+1]].
type arena struct {
	buf  []byte
	offs []uint32 // LocalLen+1 entries
}

func (a *arena) elem(l int) []byte { return a.buf[a.offs[l]:a.offs[l+1]] }

// insertGroup is the interleave group of an output end, file or channel:
// the inserts made since the last write, one arena each. The stream's
// encoder writes every element straight into the arena, so an inserted byte
// is copied once on the way in and — for the common group of one insert,
// whose arena already is the packed per-node buffer — not again before the
// write strategy takes it.
//
// Arenas come from bufpool and are sized without a knob: from what the
// previous group's insert at the same position took, or, on a stream's first
// group, from LocalLen × the first element once that is encoded. An
// underestimate moves the arena up one pool class at a time.
type insertGroup struct {
	st *stream
	// spanName prefixes the insert spans ("ostream.Insert " / "ochannel.Insert ").
	spanName string

	enc     Encoder
	inserts []arena
	hints   []int      // hints[i]: bytes the latest i-th insert of a group encoded
	offFree [][]uint32 // offset tables between groups
	sizes   []uint32   // the local size table, reused across flushes
	bytes   int64      // payload bytes in inserts (this group's share of the fill gauge)
	spans   []trace.SpanID

	// maxBytes caps an arena and an element's interleaved payload: what the
	// record format's u32 size-table entry can say. Tests lower it.
	maxBytes uint64
}

func newInsertGroup(st *stream, spanName string) insertGroup {
	return insertGroup{st: st, spanName: spanName, maxBytes: math.MaxUint32}
}

// insert encodes one array: fill is called once per local element, in local
// order, appending that element's payload to the encoder. It charges the
// per-element pointer-list traversal cost of Figure 4.
func (g *insertGroup) insert(n int, fill func(local int, e *Encoder)) error {
	st := g.st
	start := st.node.Clock().Now()
	pos := len(g.inserts)
	if pos == len(g.hints) {
		g.hints = append(g.hints, 0)
	}
	hint := g.hints[pos]
	var offs []uint32
	if f := len(g.offFree); f > 0 && cap(g.offFree[f-1]) > n {
		offs = g.offFree[f-1][:n+1]
		g.offFree = g.offFree[:f-1]
	} else {
		offs = make([]uint32, n+1)
	}
	e := &g.enc
	e.Adopt(bufpool.GetCap(hint))
	for l := 0; l < n; l++ {
		fill(l, e)
		end := e.Mark()
		if l == 0 && hint == 0 {
			// Nothing to go by but this element: take the rest to be like
			// it, without leaving the pool on an estimate.
			e.Reserve(min(end*n, bufpool.MaxClass) - end)
		}
		offs[l+1] = uint32(end) // checked as a whole below: ends only grow
	}
	buf := e.Detach()
	if uint64(len(buf)) > g.maxBytes {
		bufpool.Put(buf)
		g.offFree = append(g.offFree, offs)
		return st.fail(fmt.Errorf("%w: insert of %d bytes on one node exceeds the record format's %d-byte sizes",
			ErrOrder, len(buf), g.maxBytes))
	}
	g.hints[pos] = len(buf)
	g.inserts = append(g.inserts, arena{buf: buf, offs: offs})
	g.bytes += int64(len(buf))
	st.met.inserts.Inc()
	st.met.fill.Add(float64(len(buf)))
	st.node.Compute(float64(n) * st.node.Profile().PerElemCost)
	if rec := st.met.mon.Recorder(); rec != nil {
		id := rec.AddSpan(st.node.Rank(), "dstream", g.spanName+st.name, start, st.node.Clock().Now())
		g.spans = append(g.spans, id)
	}
	return nil
}

// linkSpans draws the encode edges from the group's insert spans to the
// flush span that consumes them.
func (g *insertGroup) linkSpans(rec *trace.Recorder, flush trace.SpanID) {
	for _, id := range g.spans {
		rec.AddFlow(id, flush, "encode")
	}
	g.spans = g.spans[:0]
}

// sizeTable returns each local element's payload size with the group's
// inserts interleaved — offset differences, summed across inserts — and
// their total. The table is valid until the next call. An element too large
// for the record format empties the group and fails the stream.
func (g *insertGroup) sizeTable() ([]uint32, int, error) {
	n := len(g.inserts[0].offs) - 1
	if cap(g.sizes) < n {
		g.sizes = make([]uint32, n)
	}
	sizes := g.sizes[:n]
	first := g.inserts[0].offs
	for l := range sizes {
		sizes[l] = first[l+1] - first[l]
	}
	for _, a := range g.inserts[1:] {
		for l := range sizes {
			sz := uint64(sizes[l]) + uint64(a.offs[l+1]-a.offs[l])
			if sz > g.maxBytes {
				g.release()
				return nil, 0, g.st.fail(fmt.Errorf("%w: local element %d takes %d bytes across the group's inserts, over the record format's %d-byte sizes",
					ErrOrder, l, sz, g.maxBytes))
			}
			sizes[l] = uint32(sz)
		}
	}
	return sizes, int(g.bytes), nil
}

// pack empties the group into the per-node data buffer: element-major, the
// inserts interleaved (Figure 4's pointer-list traversal). One insert's
// arena is that buffer as it stands. The caller owns the result and
// releases it to bufpool.
func (g *insertGroup) pack() []byte {
	var data []byte
	if len(g.inserts) == 1 {
		data, g.inserts[0].buf = g.inserts[0].buf, nil
	} else {
		data = bufpool.GetCap(int(g.bytes))
		for l, n := 0, len(g.inserts[0].offs)-1; l < n; l++ {
			for i := range g.inserts {
				data = append(data, g.inserts[i].elem(l)...)
			}
		}
	}
	g.release()
	return data
}

// release empties the group, returning its arenas to the pool.
func (g *insertGroup) release() {
	for i := range g.inserts {
		a := &g.inserts[i]
		bufpool.Put(a.buf)
		g.offFree = append(g.offFree, a.offs)
		*a = arena{}
	}
	g.inserts = g.inserts[:0]
	g.st.met.fill.Add(-float64(g.bytes))
	g.bytes = 0
}
