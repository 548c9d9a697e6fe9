package dsmon

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// SpanID identifies one recorded span within a Recorder. IDs are allocated
// by the recorder; 0 means "no span" (the nil-recorder fast path) and is
// ignored everywhere a SpanID is consumed.
type SpanID uint64

// Event is one traced interval on one node's virtual timeline. ID is zero
// for plain Add events; spans recorded through AddSpan carry a recorder-
// unique ID so causal edges (Flow) can reference them.
type Event struct {
	Node  int     `json:"node"`
	Cat   string  `json:"cat"`  // e.g. "io", "collective"
	Name  string  `json:"name"` // e.g. "ParallelAppend f"
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	ID    SpanID  `json:"id,omitempty"`
}

// Flow is one causal edge of the span graph: work recorded in span From
// enabled work recorded in span To — a message send feeding its receive, a
// barrier arrival feeding the release, an asynchronous I/O issue feeding
// its completion, a shuffle contribution feeding the aggregator's stripe
// write. Kind names the edge family.
type Flow struct {
	From SpanID `json:"from"`
	To   SpanID `json:"to"`
	Kind string `json:"kind"`
}

// FlowKey is the rendezvous key for a cross-rank edge whose two endpoint
// spans are recorded by different goroutines: both sides derive the same
// key from protocol state (ranks, tag, sequence number), one side publishes
// its span with FlowOut, the other with FlowIn, and whichever arrives
// second completes the edge. Kind becomes the resulting Flow's Kind.
type FlowKey struct {
	Kind string
	A, B int // ranks: source and destination of the edge
	Tag  uint64
	Seq  uint64
}

// Recorder collects the virtual-time event timeline of a machine run —
// which node spent which virtual interval in which operation — and renders
// it as an ASCII Gantt chart or Chrome trace-viewer JSON (load via
// chrome://tracing or https://ui.perfetto.dev). It is safe for concurrent
// use. A nil *Recorder is a valid no-op sink, so instrumented code needs no
// conditionals.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	flows  []Flow
	ids    atomic.Uint64
	// Pending halves of keyed cross-rank edges; entries for messages that
	// were sent but never received (aborted runs) stay behind harmlessly.
	pendingOut map[FlowKey]SpanID
	pendingIn  map[FlowKey]SpanID
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add records one interval that no causal edge will reference (span ID 0).
// No-op on a nil recorder.
func (r *Recorder) Add(node int, cat, name string, start, end float64) {
	r.AddSpanID(0, node, cat, name, start, end)
}

// NewSpanID reserves a span ID without recording anything yet, for call
// sites that need to publish edges referencing a span before its end time
// is known (record it later with AddSpanID). Returns 0 on a nil recorder.
func (r *Recorder) NewSpanID() SpanID {
	if r == nil {
		return 0
	}
	return SpanID(r.ids.Add(1))
}

// AddSpan records one interval with a fresh span ID and returns the ID (0
// on a nil recorder).
func (r *Recorder) AddSpan(node int, cat, name string, start, end float64) SpanID {
	id := r.NewSpanID()
	r.AddSpanID(id, node, cat, name, start, end)
	return id
}

// AddSpanID records one interval under a previously reserved span ID.
func (r *Recorder) AddSpanID(id SpanID, node int, cat, name string, start, end float64) {
	if r == nil {
		return
	}
	if end < start {
		start, end = end, start
	}
	r.mu.Lock()
	r.events = append(r.events, Event{Node: node, Cat: cat, Name: name, Start: start, End: end, ID: id})
	r.mu.Unlock()
}

// AddFlow records a causal edge between two spans directly (both IDs known
// to one goroutine). Edges touching span 0 are dropped, so untraced fast
// paths need no conditionals.
func (r *Recorder) AddFlow(from, to SpanID, kind string) {
	if r == nil || from == 0 || to == 0 {
		return
	}
	r.mu.Lock()
	r.flows = append(r.flows, Flow{From: from, To: to, Kind: kind})
	r.mu.Unlock()
}

// FlowOut publishes the source half of the keyed edge k. If the sink half
// is already waiting, the edge is recorded; otherwise it waits for FlowIn.
// Either call order works — the receiver of a message may record its span
// before the sender returns from its Send.
func (r *Recorder) FlowOut(k FlowKey, id SpanID) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	if to, ok := r.pendingIn[k]; ok {
		delete(r.pendingIn, k)
		r.flows = append(r.flows, Flow{From: id, To: to, Kind: k.Kind})
	} else {
		if r.pendingOut == nil {
			r.pendingOut = make(map[FlowKey]SpanID)
		}
		r.pendingOut[k] = id
	}
	r.mu.Unlock()
}

// FlowIn publishes the sink half of the keyed edge k (see FlowOut).
func (r *Recorder) FlowIn(k FlowKey, id SpanID) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	if from, ok := r.pendingOut[k]; ok {
		delete(r.pendingOut, k)
		r.flows = append(r.flows, Flow{From: from, To: id, Kind: k.Kind})
	} else {
		if r.pendingIn == nil {
			r.pendingIn = make(map[FlowKey]SpanID)
		}
		r.pendingIn[k] = id
	}
	r.mu.Unlock()
}

// Flows returns the completed causal edges sorted by (From, To, Kind).
func (r *Recorder) Flows() []Flow {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Flow, len(r.flows))
	copy(out, r.flows)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Events returns the recorded events sorted by (start, node, name, id) —
// fully deterministic for goldens and snapshot diffs.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// chromeEvent is one entry of the Chrome trace-viewer "traceEvents" array.
// ID and BP are only set on flow events (ph "s"/"f") and omitted from the
// duration events, so traces without flows keep their exact legacy shape.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	ID   uint64  `json:"id,omitempty"`
	BP   string  `json:"bp,omitempty"`
}

// WriteChromeJSON renders the timeline in Chrome trace-viewer format, one
// "thread" per node, virtual seconds mapped to microseconds. Causal edges
// are appended as flow-event pairs (ph "s" at the source span's end, ph "f"
// with bp "e" at the sink span's end) that chrome://tracing and Perfetto
// render as arrows. Output is fully deterministic: duration events sort by
// (start, node, name), flows by endpoint position, and the flow ids are
// renumbered in that order.
func (r *Recorder) WriteChromeJSON(w io.Writer) error {
	evs := r.Events()
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Unit        string        `json:"displayTimeUnit"`
	}{Unit: "ms"}
	byID := make(map[SpanID]Event)
	for _, e := range evs {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: e.Name, Cat: e.Cat, Ph: "X",
			Ts: e.Start * 1e6, Dur: (e.End - e.Start) * 1e6,
			Pid: 0, Tid: e.Node,
		})
		if e.ID != 0 {
			byID[e.ID] = e
		}
	}
	type boundFlow struct {
		from, to Event
		kind     string
	}
	var flows []boundFlow
	for _, f := range r.Flows() {
		from, okF := byID[f.From]
		to, okT := byID[f.To]
		if okF && okT {
			flows = append(flows, boundFlow{from: from, to: to, kind: f.Kind})
		}
	}
	sort.Slice(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
		if a.from.End != b.from.End {
			return a.from.End < b.from.End
		}
		if a.from.Node != b.from.Node {
			return a.from.Node < b.from.Node
		}
		if a.to.End != b.to.End {
			return a.to.End < b.to.End
		}
		if a.to.Node != b.to.Node {
			return a.to.Node < b.to.Node
		}
		return a.kind < b.kind
	})
	for i, f := range flows {
		id := uint64(i + 1)
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{Name: f.kind, Cat: "flow", Ph: "s", Ts: f.from.End * 1e6, Pid: 0, Tid: f.from.Node, ID: id},
			chromeEvent{Name: f.kind, Cat: "flow", Ph: "f", Ts: f.to.End * 1e6, Pid: 0, Tid: f.to.Node, ID: id, BP: "e"},
		)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// WriteGantt renders an ASCII Gantt chart, one row per node, `width`
// columns spanning [0, max end time].
func (r *Recorder) WriteGantt(w io.Writer, width int) error {
	evs := r.Events()
	if len(evs) == 0 {
		_, err := fmt.Fprintln(w, "(no events)")
		return err
	}
	if width < 10 {
		width = 10
	}
	maxNode, maxT := 0, 0.0
	for _, e := range evs {
		if e.Node > maxNode {
			maxNode = e.Node
		}
		if e.End > maxT {
			maxT = e.End
		}
	}
	if maxT == 0 {
		maxT = 1
	}
	col := func(t float64) int {
		c := int(t / maxT * float64(width-1))
		if c >= width {
			c = width - 1
		}
		return c
	}
	rows := make([][]byte, maxNode+1)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for _, e := range evs {
		mark := byte('#')
		switch e.Cat {
		case "collective":
			mark = '='
		case "comm":
			mark = '-'
		case "dstream":
			mark = '~'
		}
		for c := col(e.Start); c <= col(e.End); c++ {
			rows[e.Node][c] = mark
		}
	}
	fmt.Fprintf(w, "virtual time 0 .. %.4fs  (# independent I/O, = collective op, - message, ~ stream op)\n", maxT)
	for n, row := range rows {
		if _, err := fmt.Fprintf(w, "node %2d |%s|\n", n, row); err != nil {
			return err
		}
	}
	return nil
}
