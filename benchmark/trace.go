package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/pfs"
)

// The traced run records a span around every call the benchmark makes into
// the library (the façade kinds) and at the two seams the library offers
// for wrapping: comm.Transport (kSend, kRecv) and pfs.Backend, on the
// client side of a file system (kBackend*) and under the daemon (kStore*).
// Nothing here is compiled into the program under test.

type spanKind uint8

const (
	kCycle spanKind = iota
	kPhaseOut
	kPhaseIn

	kOpen
	kInsert
	kWrite
	kClose
	kOpenInput
	kRead
	kExtract
	kCloseInput
	kChanOpen
	kChanInsert
	kChanWrite
	kChanClose
	kChanOpenInput
	kChanRead
	kChanExtract
	kChanCloseInput
	kSave
	kRestore

	kSend
	kRecv

	kBackendWrite
	kBackendRead
	kBackendTruncate
	kBackendSize
	kStoreWrite
	kStoreRead
	kStoreTruncate
	kStoreSize

	numKinds
)

var kindNames = [numKinds]string{
	"cycle", "phase.output", "phase.input",
	"dstream.Open", "dstream.Insert", "dstream.Write", "dstream.Close",
	"dstream.OpenInput", "dstream.Read", "dstream.Extract", "dstream.CloseInput",
	"dstream.OpenChannel", "dstream.InsertElems", "dstream.ChannelWrite", "dstream.ChannelClose",
	"dstream.OpenChannelInput", "dstream.ChannelRead", "dstream.ExtractElems", "dstream.ChannelCloseInput",
	"ckpt.SaveCheckpoint", "ckpt.RestoreCheckpoint",
	"comm.Send", "comm.Recv",
	"pfs.backend.WriteAt", "pfs.backend.ReadAt", "pfs.backend.Truncate", "pfs.backend.Size",
	"server.store.WriteAt", "server.store.ReadAt", "server.store.Truncate", "server.store.Size",
}

// outputSide reports whether a façade span belongs to the output phase.
func (k spanKind) outputSide() bool {
	switch k {
	case kOpen, kInsert, kWrite, kClose, kChanOpen, kChanInsert, kChanWrite, kChanClose, kSave:
		return true
	}
	return false
}

func (k spanKind) facade() bool { return k >= kOpen && k <= kRestore }

// Ranks of spans that no machine rank owns: a backend call runs on whichever
// rank arrived last at the file system's rendezvous, and a store call on one
// of the daemon's I/O goroutines.
const (
	rankShared = -1
	rankServer = -2
)

type span struct {
	ID, Parent int32
	Kind       spanKind
	Rank       int8
	Cycle      int32
	Start, End int64 // ns since the tracer was made
	Bytes      int64
}

func (s *span) dur() int64 { return s.End - s.Start }

// wrapperCalls counts every call through a benchmark wrapper, recorded or
// not; an untraced run must leave it alone.
var wrapperCalls atomic.Int64

type tracer struct {
	t0    time.Time
	ranks []*rankTracer
	ids   atomic.Int32
	// on is set by rank 0 before the barrier that opens a measured cycle and
	// cleared before the one that opens the first cycle after them, so every
	// rank sees one value for the whole of a cycle.
	on    atomic.Bool
	cycle atomic.Int32

	mu     sync.Mutex
	shared []span

	// Totals over the tracer's life, recording or not: what the seam tests
	// compare with the library's own accounts.
	sentMsgs, sentBytes         atomic.Int64
	backendWritten, backendRead atomic.Int64
}

// rankTracer is one rank's span list. Only that rank's goroutine touches it:
// façade calls and Endpoint sends and receives all run there.
type rankTracer struct {
	tr    *tracer
	rank  int8
	spans []span
	open  []int // indices of the façade spans in progress
	_     [64]byte
}

func newTracer(nprocs int) *tracer {
	tr := &tracer{t0: time.Now(), ranks: make([]*rankTracer, nprocs)}
	for r := range tr.ranks {
		tr.ranks[r] = &rankTracer{tr: tr, rank: int8(r), spans: make([]span, 0, 1<<14)}
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// rank returns r's span list, nil on a nil tracer: begin and end on a nil
// rankTracer do nothing, which is the whole cost of tracing in an untraced
// run.
func (tr *tracer) rank(r int) *rankTracer {
	if tr == nil {
		return nil
	}
	return tr.ranks[r]
}

func (rt *rankTracer) begin(k spanKind) {
	if rt == nil || !rt.tr.on.Load() {
		return
	}
	var parent int32
	if n := len(rt.open); n > 0 {
		parent = rt.spans[rt.open[n-1]].ID
	}
	rt.open = append(rt.open, len(rt.spans))
	rt.spans = append(rt.spans, span{ID: rt.tr.ids.Add(1), Parent: parent, Kind: k,
		Rank: rt.rank, Cycle: rt.tr.cycle.Load(), Start: rt.tr.now()})
}

func (rt *rankTracer) end() {
	if rt == nil || len(rt.open) == 0 {
		return
	}
	n := len(rt.open) - 1
	rt.spans[rt.open[n]].End = rt.tr.now()
	rt.open = rt.open[:n]
}

// leaf records a finished seam span under whatever façade call is open.
func (rt *rankTracer) leaf(k spanKind, start, end, bytes int64) {
	var parent int32
	if n := len(rt.open); n > 0 {
		parent = rt.spans[rt.open[n-1]].ID
	}
	rt.spans = append(rt.spans, span{ID: rt.tr.ids.Add(1), Parent: parent, Kind: k,
		Rank: rt.rank, Cycle: rt.tr.cycle.Load(), Start: start, End: end, Bytes: bytes})
}

func (tr *tracer) sharedSpan(k spanKind, rank int8, start, end, bytes int64) {
	s := span{ID: tr.ids.Add(1), Kind: k, Rank: rank, Cycle: tr.cycle.Load(), Start: start, End: end, Bytes: bytes}
	tr.mu.Lock()
	tr.shared = append(tr.shared, s)
	tr.mu.Unlock()
}

// --- comm seam -------------------------------------------------------------

type tracedTransport struct {
	comm.Transport
	tr *tracer
}

// wrapTransport is a machine.Config.WrapTransport hook.
func (tr *tracer) wrapTransport(t comm.Transport) comm.Transport {
	return &tracedTransport{Transport: t, tr: tr}
}

func (t *tracedTransport) Send(m comm.Message) error {
	wrapperCalls.Add(1)
	tr := t.tr
	start := tr.now()
	err := t.Transport.Send(m)
	if err != nil {
		return err
	}
	tr.sentMsgs.Add(1)
	tr.sentBytes.Add(int64(len(m.Data)))
	if tr.on.Load() && m.From >= 0 && m.From < len(tr.ranks) {
		tr.ranks[m.From].leaf(kSend, start, tr.now(), int64(len(m.Data)))
	}
	return nil
}

func (t *tracedTransport) Recv(to, from int, tag uint64) (comm.Message, error) {
	wrapperCalls.Add(1)
	tr := t.tr
	start := tr.now()
	m, err := t.Transport.Recv(to, from, tag)
	if err == nil && tr.on.Load() && to >= 0 && to < len(tr.ranks) {
		tr.ranks[to].leaf(kRecv, start, tr.now(), int64(len(m.Data)))
	}
	return m, err
}

// --- pfs seam --------------------------------------------------------------

// tracedBackend times every call on one file's storage. base is kBackendWrite
// for a file system's own backend and kStoreWrite for the one under the
// daemon; the other three kinds follow it in the same order.
type tracedBackend struct {
	pfs.Backend
	tr   *tracer
	base spanKind
	rank int8
}

// wrapFactory returns f with every backend it opens traced.
func (tr *tracer) wrapFactory(f pfs.BackendFactory, base spanKind, rank int8) pfs.BackendFactory {
	return func(name string) (pfs.Backend, error) {
		b, err := f(name)
		if err != nil {
			return nil, err
		}
		return &tracedBackend{Backend: b, tr: tr, base: base, rank: rank}, nil
	}
}

func (b *tracedBackend) WriteAt(p []byte, off int64) (int, error) {
	wrapperCalls.Add(1)
	start := b.tr.now()
	n, err := b.Backend.WriteAt(p, off)
	if b.base == kBackendWrite {
		b.tr.backendWritten.Add(int64(n))
	}
	if b.tr.on.Load() {
		b.tr.sharedSpan(b.base, b.rank, start, b.tr.now(), int64(n))
	}
	return n, err
}

func (b *tracedBackend) ReadAt(p []byte, off int64) (int, error) {
	wrapperCalls.Add(1)
	start := b.tr.now()
	n, err := b.Backend.ReadAt(p, off)
	if b.base == kBackendWrite {
		b.tr.backendRead.Add(int64(n))
	}
	if b.tr.on.Load() {
		b.tr.sharedSpan(b.base+1, b.rank, start, b.tr.now(), int64(n))
	}
	return n, err
}

func (b *tracedBackend) Truncate(size int64) error {
	wrapperCalls.Add(1)
	start := b.tr.now()
	err := b.Backend.Truncate(size)
	if b.tr.on.Load() {
		b.tr.sharedSpan(b.base+2, b.rank, start, b.tr.now(), 0)
	}
	return err
}

func (b *tracedBackend) Size() int64 {
	wrapperCalls.Add(1)
	start := b.tr.now()
	n := b.Backend.Size()
	if b.tr.on.Load() {
		b.tr.sharedSpan(b.base+3, b.rank, start, b.tr.now(), 0)
	}
	return n
}

// Layout passes the stripe geometry through, so two-phase plans the same
// aggregators with and without the wrapper. The zero Layout means unknown.
func (b *tracedBackend) Layout() pfs.Layout {
	if lp, ok := b.Backend.(pfs.LayoutProvider); ok {
		return lp.Layout()
	}
	return pfs.Layout{}
}

// --- after the run ---------------------------------------------------------

// finish merges the per-rank lists with the shared one, adds one cycle span
// and two phase spans per cycle from the ranks' phase clocks, and gives every
// span that has no parent yet the phase it ran in. The result is sorted by
// start time.
func (tr *tracer) finish(cycles []cycleTimes) []span {
	var all []span
	phase := map[int32][2]span{} // cycle → output, input
	for _, c := range cycles {
		cy := span{ID: tr.ids.Add(1), Kind: kCycle, Rank: rankShared, Cycle: c.cycle,
			Start: min(c.outStart, c.inStart), End: max(c.outEnd, c.inEnd)}
		out := span{ID: tr.ids.Add(1), Parent: cy.ID, Kind: kPhaseOut, Rank: rankShared, Cycle: c.cycle, Start: c.outStart, End: c.outEnd}
		in := span{ID: tr.ids.Add(1), Parent: cy.ID, Kind: kPhaseIn, Rank: rankShared, Cycle: c.cycle, Start: c.inStart, End: c.inEnd}
		phase[c.cycle] = [2]span{out, in}
		all = append(all, cy, out, in)
	}
	adopt := func(s *span) {
		if s.Parent != 0 {
			return
		}
		p, ok := phase[s.Cycle]
		if !ok {
			return
		}
		switch {
		case s.Kind.facade():
			if s.Kind.outputSide() {
				s.Parent = p[0].ID
			} else {
				s.Parent = p[1].ID
			}
		case s.Start >= p[1].Start:
			// A seam span with no façade call above it. A file's phases take
			// turns, so the clock tells which one it ran in.
			s.Parent = p[1].ID
		default:
			s.Parent = p[0].ID
		}
	}
	for _, rt := range tr.ranks {
		for i := range rt.spans {
			adopt(&rt.spans[i])
		}
		all = append(all, rt.spans...)
	}
	tr.mu.Lock()
	for i := range tr.shared {
		adopt(&tr.shared[i])
	}
	all = append(all, tr.shared...)
	tr.mu.Unlock()
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// writeSpans writes the span file: a header saying what was measured, then
// one span per line.
func writeSpans(path string, head any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	hb, err := json.Marshal(head)
	if err != nil {
		f.Close()
		return err
	}
	w.WriteString(`{"run":`)
	w.Write(hb)
	w.WriteString(`,"unit":"ns","spans":[` + "\n")
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",")
		}
		enc.Encode(struct {
			ID     int32  `json:"id"`
			Parent int32  `json:"parent"`
			Name   string `json:"name"`
			Rank   int8   `json:"rank"`
			Cycle  int32  `json:"cycle"`
			Start  int64  `json:"start"`
			End    int64  `json:"end"`
			Bytes  int64  `json:"bytes,omitempty"`
		}{s.ID, s.Parent, kindNames[s.Kind], s.Rank, s.Cycle, s.Start, s.End, s.Bytes})
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
