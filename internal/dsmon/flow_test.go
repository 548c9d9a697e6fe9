package dsmon

import (
	"strings"
	"testing"
)

// TestFlowRendezvous pins the keyed-edge rendezvous protocol: either arrival
// order completes the edge exactly once, distinct keys stay independent, and
// unmatched halves never surface as flows.
func TestFlowRendezvous(t *testing.T) {
	r := NewRecorder()
	a := r.AddSpan(0, "comm", "Send", 0.0, 0.1)
	b := r.AddSpan(1, "comm", "Recv", 0.05, 0.2)
	c := r.AddSpan(1, "comm", "Send", 0.3, 0.4)
	d := r.AddSpan(0, "comm", "Recv", 0.35, 0.5)

	k1 := FlowKey{Kind: "msg", A: 0, B: 1, Tag: 7, Seq: 1}
	k2 := FlowKey{Kind: "msg", A: 1, B: 0, Tag: 7, Seq: 1}
	r.FlowOut(k1, a) // source first
	r.FlowIn(k1, b)
	r.FlowIn(k2, d) // sink first
	r.FlowOut(k2, c)
	r.FlowOut(FlowKey{Kind: "msg", A: 0, B: 1, Tag: 9, Seq: 2}, a) // never received

	flows := r.Flows()
	want := []Flow{{From: a, To: b, Kind: "msg"}, {From: c, To: d, Kind: "msg"}}
	if len(flows) != len(want) {
		t.Fatalf("got %d flows %v, want %v", len(flows), flows, want)
	}
	for i, f := range flows {
		if f != want[i] {
			t.Fatalf("flow %d = %v, want %v", i, f, want[i])
		}
	}
}

// TestFlowRendezvousRepublish pins the duplicate-delivery contract: if the
// same key's source half is published twice before the sink arrives (a
// retransmitted message), the edge completes once — no doubled arrows.
func TestFlowRendezvousRepublish(t *testing.T) {
	r := NewRecorder()
	a := r.AddSpan(0, "comm", "Send", 0.0, 0.1)
	a2 := r.AddSpan(0, "comm", "Send", 0.1, 0.2)
	b := r.AddSpan(1, "comm", "Recv", 0.05, 0.3)
	k := FlowKey{Kind: "msg", A: 0, B: 1, Tag: 1, Seq: 5}
	r.FlowOut(k, a)
	r.FlowOut(k, a2) // retransmit republishes the key
	r.FlowIn(k, b)
	flows := r.Flows()
	if len(flows) != 1 {
		t.Fatalf("duplicate publish produced %d flows, want 1: %v", len(flows), flows)
	}
	if flows[0].To != b || flows[0].Kind != "msg" {
		t.Fatalf("flow %v does not end at the receive span", flows[0])
	}
}

// TestFlowNilAndZero pins the fast-path contract: nil recorders and zero
// span IDs are silently ignored everywhere.
func TestFlowNilAndZero(t *testing.T) {
	var nilRec *Recorder
	if id := nilRec.NewSpanID(); id != 0 {
		t.Fatalf("nil recorder allocated span id %d", id)
	}
	nilRec.AddFlow(1, 2, "msg")
	nilRec.FlowOut(FlowKey{Kind: "msg"}, 1)
	nilRec.FlowIn(FlowKey{Kind: "msg"}, 1)
	if got := nilRec.Flows(); got != nil {
		t.Fatalf("nil recorder has flows %v", got)
	}

	r := NewRecorder()
	id := r.AddSpan(0, "io", "x", 0, 1)
	r.AddFlow(0, id, "k")
	r.AddFlow(id, 0, "k")
	r.FlowOut(FlowKey{Kind: "k"}, 0)
	r.FlowIn(FlowKey{Kind: "k"}, 0)
	if got := r.Flows(); len(got) != 0 {
		t.Fatalf("zero-ID edges surfaced: %v", got)
	}
}

// TestChromeJSONFlows pins the flow-event rendering: an s/f pair per bound
// edge, appended after all duration events, ids renumbered deterministically,
// bp "e" on the finish half, and arrows anchored at the endpoint spans' ends.
func TestChromeJSONFlows(t *testing.T) {
	r := NewRecorder()
	a := r.AddSpan(0, "comm", "Send", 0.001, 0.002)
	b := r.AddSpan(1, "comm", "Recv", 0.0015, 0.003)
	r.AddFlow(a, b, "msg")

	var sb strings.Builder
	if err := r.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	const golden = `{
 "traceEvents": [
  {
   "name": "Send",
   "cat": "comm",
   "ph": "X",
   "ts": 1000,
   "dur": 1000,
   "pid": 0,
   "tid": 0
  },
  {
   "name": "Recv",
   "cat": "comm",
   "ph": "X",
   "ts": 1500,
   "dur": 1500,
   "pid": 0,
   "tid": 1
  },
  {
   "name": "msg",
   "cat": "flow",
   "ph": "s",
   "ts": 2000,
   "dur": 0,
   "pid": 0,
   "tid": 0,
   "id": 1
  },
  {
   "name": "msg",
   "cat": "flow",
   "ph": "f",
   "ts": 3000,
   "dur": 0,
   "pid": 0,
   "tid": 1,
   "id": 1,
   "bp": "e"
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if got := sb.String(); got != golden {
		t.Fatalf("Chrome flow JSON drifted from golden.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}
