package comm

import (
	"testing"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/vtime"
)

// TestSendRecvFlow pins the msg causal edge: each Send span is connected to
// exactly the Recv span that consumed its sequence number, the edge points
// from sender to receiver, and the endpoint spans carry sane timestamps.
func TestSendRecvFlow(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	mon := dsmon.NewTracing()
	var c0, c1 vtime.Clock
	e0 := NewEndpoint(0, 2, tr, &c0, vtime.Challenge()).SetMonitor(mon)
	e1 := NewEndpoint(1, 2, tr, &c1, vtime.Challenge()).SetMonitor(mon)

	const n = 3
	for i := 0; i < n; i++ {
		if err := e0.Send(1, 7, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := put(e1.Recv(0, 7)); err != nil {
			t.Fatal(err)
		}
	}

	rec := mon.Recorder()
	flows := rec.Flows()
	if len(flows) != n {
		t.Fatalf("got %d msg edges, want %d: %v", len(flows), n, flows)
	}
	byID := map[dsmon.SpanID]dsmon.Event{}
	for _, ev := range rec.Events() {
		if ev.ID != 0 {
			byID[ev.ID] = ev
		}
	}
	for _, f := range flows {
		if f.Kind != "msg" {
			t.Fatalf("edge kind %q, want msg", f.Kind)
		}
		from, ok := byID[f.From]
		if !ok {
			t.Fatalf("edge %v has dangling source", f)
		}
		to, ok := byID[f.To]
		if !ok {
			t.Fatalf("edge %v has dangling sink", f)
		}
		if from.Name != "Send" || from.Node != 0 {
			t.Fatalf("edge source = %+v, want a Send span on node 0", from)
		}
		if to.Name != "Recv" || to.Node != 1 {
			t.Fatalf("edge sink = %+v, want a Recv span on node 1", to)
		}
		// The receive completes at the message's arrival or later; a message
		// cannot be consumed before the sender's span began.
		if to.End < from.Start {
			t.Fatalf("receive span ends (%v) before the send began (%v)", to.End, from.Start)
		}
	}
}
