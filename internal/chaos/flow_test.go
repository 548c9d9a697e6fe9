package chaos

import (
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/vtime"
)

// TestSendRecvFlowUnderFaults pins the msg causal edge's exactly-once
// contract under retransmission and duplication: with drops forcing sender
// retries, send-errors forcing retries that duplicate on the wire, and
// outright duplicated deliveries, every application-level message must still
// produce exactly one Send→Recv edge — no doubled arrows from duplicates,
// no dangling halves from retries.
func TestSendRecvFlowUnderFaults(t *testing.T) {
	for _, seed := range []int64{3, 17, 2026} {
		rates := Rates{
			Drop: 0.10, SendErr: 0.15, Duplicate: 0.25, RecvErr: 0.10,
			MaxDelay: time.Millisecond, ReorderFuse: time.Millisecond,
		}
		mon := dsmon.NewTracing()
		tr := NewTransport(comm.NewChanTransport(2), 2, seed, rates, mon)
		var c0, c1 vtime.Clock
		e0 := comm.NewEndpoint(0, 2, tr, &c0, vtime.Challenge()).SetMonitor(mon)
		e1 := comm.NewEndpoint(1, 2, tr, &c1, vtime.Challenge()).SetMonitor(mon)
		// The fault rates here are far above DefaultRates; widen the retry
		// budget so no send exhausts it (which would orphan the receiver).
		policy := comm.RetryPolicy{MaxAttempts: 30, Backoff: 1e-6}
		e0.SetRetryPolicy(policy)
		e1.SetRetryPolicy(policy)

		const n = 200
		errc := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if err := e0.Send(1, 7, []byte{byte(i)}); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		for i := 0; i < n; i++ {
			data, err := e1.Recv(0, 7)
			if err != nil {
				t.Fatalf("seed %d: Recv %d: %v", seed, i, err)
			}
			if data[0] != byte(i) {
				t.Fatalf("seed %d: message %d out of order: got %d", seed, i, data[0])
			}
			bufpool.Put(data)
		}
		if err := <-errc; err != nil {
			t.Fatalf("seed %d: Send: %v", seed, err)
		}
		tr.Close()

		rec := mon.Recorder()
		flows := rec.Flows()
		if len(flows) != n {
			t.Fatalf("seed %d: %d messages produced %d msg edges, want exactly %d",
				seed, n, len(flows), n)
		}
		byID := map[dsmon.SpanID]dsmon.Event{}
		for _, ev := range rec.Events() {
			if ev.ID != 0 {
				byID[ev.ID] = ev
			}
		}
		sinks := map[dsmon.SpanID]bool{}
		for _, f := range flows {
			if f.Kind != "msg" {
				t.Fatalf("seed %d: unexpected edge kind %q", seed, f.Kind)
			}
			from, okF := byID[f.From]
			to, okT := byID[f.To]
			if !okF || !okT {
				t.Fatalf("seed %d: dangling edge %v", seed, f)
			}
			if from.Name != "Send" || from.Node != 0 || to.Name != "Recv" || to.Node != 1 {
				t.Fatalf("seed %d: edge %v connects %q@%d → %q@%d, want Send@0 → Recv@1",
					seed, f, from.Name, from.Node, to.Name, to.Node)
			}
			if sinks[f.To] {
				t.Fatalf("seed %d: receive span %d has two incoming msg edges", seed, f.To)
			}
			sinks[f.To] = true
		}
	}
}
