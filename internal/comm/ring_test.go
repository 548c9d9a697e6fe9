package comm

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/dsmon"
)

// Regression tests for the bounded MPMC ring and its mailbox integration:
// wraparound at capacity boundaries, full-ring backpressure (the producer
// blocks, never drops), close racing in-flight sends, and the race-free
// stats surface. The pooldebug build (`make race-pooldebug`) re-runs these
// with poisoned buffers, so a payload released twice or used after reap
// panics at the exact call.

func TestRingWraparound(t *testing.T) {
	const cap = 8
	r := newRing(cap)
	// Drive the indices far past several wraparounds with a mixed
	// fill/drain pattern, verifying FIFO and the exact full/empty edges.
	next, taken := 0, 0
	for cycle := 0; cycle < 100; cycle++ {
		fill := 1 + cycle%cap
		if free := cap - (next - taken); fill > free {
			fill = free
		}
		for i := 0; i < fill; i++ {
			if !r.tryPut(Message{Tag: uint64(next)}) {
				t.Fatalf("cycle %d: put %d rejected with %d in flight", cycle, next, next-taken)
			}
			next++
		}
		if next-taken == cap {
			if r.tryPut(Message{Tag: 999}) {
				t.Fatalf("cycle %d: put accepted on a full ring", cycle)
			}
		}
		drain := 1 + (cycle+3)%cap
		if drain > next-taken {
			drain = next - taken
		}
		for i := 0; i < drain; i++ {
			m, ok := r.tryTake()
			if !ok {
				t.Fatalf("cycle %d: take rejected with %d in flight", cycle, next-taken)
			}
			if m.Tag != uint64(taken) {
				t.Fatalf("cycle %d: took %d, want %d — FIFO broken across wraparound", cycle, m.Tag, taken)
			}
			taken++
		}
	}
	for taken < next {
		m, ok := r.tryTake()
		if !ok || m.Tag != uint64(taken) {
			t.Fatalf("final drain: got (%v, %v), want %d", m.Tag, ok, taken)
		}
		taken++
	}
	if _, ok := r.tryTake(); ok {
		t.Fatal("take succeeded on an empty ring")
	}
}

// TestRingFullBackpressure: a bulk producer that outruns its consumer by a
// full ring must block — and lose nothing. The 129th send parks until the
// receiver drains a slot; every message then arrives exactly once, in
// order.
func TestRingFullBackpressure(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	payload := make([]byte, eagerMaxBytes+1024) // rendezvous class: never spills
	const total = defaultRingCap + 1

	sent := make(chan int, 1) // receives the count once the sender finishes
	go func() {
		for i := 0; i < total; i++ {
			payload[0] = byte(i)
			if err := tr.Send(Message{From: 0, To: 1, Tag: 5, Data: payload}); err != nil {
				sent <- i
				return
			}
		}
		sent <- total
	}()

	// The sender must fill the ring and then stall on message 129 — visible
	// as a FullStalls tick, not a drop or an error.
	deadline := time.Now().Add(5 * time.Second)
	for tr.RingStats().FullStalls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer never hit the full-ring backpressure path")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case n := <-sent:
		t.Fatalf("sender finished %d messages with nobody receiving — ring did not backpressure", n)
	default:
	}

	for i := 0; i < total; i++ {
		m, err := tr.Recv(1, 0, 5)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m.Data[0] != byte(i) {
			t.Fatalf("message %d out of order: got %d — backpressure dropped or reordered", i, m.Data[0])
		}
		bufpool.Put(m.Data)
	}
	if n := <-sent; n != total {
		t.Fatalf("sender completed only %d of %d sends", n, total)
	}
	st := tr.RingStats()
	if st.Spills != 0 {
		t.Errorf("bulk train spilled %d messages — rendezvous class must block, not spill", st.Spills)
	}
}

// TestRingCloseWhileSending closes the transport while producers are
// mid-burst — some parked on full rings, some racing the eager path. Every
// Send must return (nil or ErrClosed, never a hang), and the pooldebug
// build verifies close's reap and the racing producers release every
// pooled payload exactly once.
func TestRingCloseWhileSending(t *testing.T) {
	tr := NewChanTransport(3)
	bulk := make([]byte, eagerMaxBytes+512)
	small := make([]byte, 32)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for s := 0; s < 2; s++ {
		s := s
		wg.Add(1)
		go func() { // bulk producer: parks on the full ring, close must release it
			defer wg.Done()
			for i := 0; ; i++ {
				if err := tr.Send(Message{From: s, To: 2, Tag: 7, Data: bulk}); err != nil {
					if !errors.Is(err, ErrClosed) {
						errs <- fmt.Errorf("bulk sender %d: %v", s, err)
					}
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // eager producer: races close on the spill path
			defer wg.Done()
			for i := 0; ; i++ {
				if err := tr.Send(Message{From: s, To: 2, Tag: 8, Data: small}); err != nil {
					if !errors.Is(err, ErrClosed) {
						errs <- fmt.Errorf("eager sender %d: %v", s, err)
					}
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the rings fill and the bulk producers park

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a sender is still blocked after Close — close did not release parked producers")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := tr.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestRingStatsRaceFree is the exposition test for the stats surface:
// RingStats and a Prometheus scrape both run concurrently
// with live traffic. Under -race (this suite runs in `make check`'s race
// leg) any unsynchronized counter access is a hard failure — the property
// that lets dsmon scrape comm gauges mid-run.
func TestRingStatsRaceFree(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	mon := dsmon.New()
	tr.SetMonitor(mon)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // traffic
		defer wg.Done()
		payload := make([]byte, 64)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := tr.Send(Message{From: 0, To: 1, Tag: 3, Data: payload}); err != nil {
				return
			}
			m, err := tr.Recv(1, 0, 3)
			if err != nil {
				return
			}
			bufpool.Put(m.Data)
		}
	}()
	wg.Add(1)
	go func() { // snapshots, mid-run
		defer wg.Done()
		for i := 0; i < 200; i++ {
			st := tr.RingStats()
			if st.RingPuts < 0 {
				t.Error("negative counter")
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // the dsmon scrape path the telemetry endpoint uses
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := mon.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestParkedReceiveAllocatesNothing: a receive that finds nothing parks on
// its mailbox's arrival gate, and the send that wakes it, and the receive's
// leaving, allocate nothing once the gate has a channel: the next park is
// handed the channel the last one left.
func TestParkedReceiveAllocatesNothing(t *testing.T) {
	ctr := new(ringCounters)
	mb := newMailbox(2, ctr)
	var got atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := mb.get(1, 7); err != nil {
				return
			}
			got.Add(1)
		}
	}()
	defer func() { mb.close(); <-done }()
	roundTrip := func() {
		for mb.arrival.waiters.Load() == 0 { // the receiver is on the gate
			runtime.Gosched()
		}
		n := got.Load()
		if err := mb.put(Message{From: 1, To: 0, Tag: 7}); err != nil {
			t.Fatal(err)
		}
		for got.Load() == n {
			runtime.Gosched()
		}
	}
	roundTrip() // the gate's first channel, the stream's first pending list
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Fatalf("a park and its wake allocate %.2f objects, want 0", avg)
	}
}
