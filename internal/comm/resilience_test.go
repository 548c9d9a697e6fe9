package comm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/vtime"
)

// --- mailbox sequencing ---------------------------------------------------

func TestMailboxReassemblesOutOfOrder(t *testing.T) {
	mb := newMailbox(2, new(ringCounters))
	// Seq 2 arrives first (a reordered wire); seq 1 follows.
	mb.put(Message{From: 0, Tag: 5, Seq: 2, Data: []byte("second")})
	mb.put(Message{From: 0, Tag: 5, Seq: 1, Data: []byte("first")})
	for i, want := range []string{"first", "second"} {
		m, err := mb.get(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if string(m.Data) != want {
			t.Fatalf("delivery %d = %q, want %q", i, m.Data, want)
		}
	}
}

func TestMailboxDropsDuplicates(t *testing.T) {
	mb := newMailbox(2, new(ringCounters))
	mb.put(Message{From: 0, Tag: 1, Seq: 1, Data: []byte("a")})
	mb.put(Message{From: 0, Tag: 1, Seq: 1, Data: []byte("a-dup-queued")}) // dup of a queued message
	if m, _ := mb.get(0, 1); string(m.Data) != "a" {
		t.Fatalf("first delivery = %q", m.Data)
	}
	mb.put(Message{From: 0, Tag: 1, Seq: 1, Data: []byte("a-dup-late")}) // dup of a delivered message
	mb.put(Message{From: 0, Tag: 1, Seq: 2, Data: []byte("b")})
	if m, _ := mb.get(0, 1); string(m.Data) != "b" {
		t.Fatalf("second delivery = %q (duplicate leaked through)", m.Data)
	}
	if queued := mb.backlog(); queued != 0 {
		t.Fatalf("%d stale duplicates left staged", queued)
	}
}

// TestMailboxForgetsWhatItDelivered: a delivered message is not kept alive
// by the slot it vacated, and a stream with nothing staged is not in the
// pending map at all — its list waits on the free list for the next stream.
func TestMailboxForgetsWhatItDelivered(t *testing.T) {
	mb := newMailbox(2, new(ringCounters))
	k := streamID{0, 1}
	for _, d := range []string{"a", "b", "c"} {
		mb.put(Message{From: 0, Tag: 1, Data: []byte(d)})
	}
	if m, _ := mb.get(0, 1); string(m.Data) != "a" {
		t.Fatalf("first delivery = %q", m.Data)
	}
	list := mb.pending[k]
	if len(list) != 2 {
		t.Fatalf("%d messages staged after one of three was delivered", len(list))
	}
	for _, q := range list[len(list):cap(list)] {
		if q.Data != nil {
			t.Fatalf("vacated slot still references payload %q", q.Data)
		}
	}
	mb.get(0, 1)
	mb.get(0, 1)
	if _, staged := mb.pending[k]; staged || len(mb.listFree) != 1 {
		t.Fatalf("drained stream: in the pending map %v, %d lists free; want gone and 1", staged, len(mb.listFree))
	}
	// The next stream takes the recycled list.
	mb.put(Message{From: 1, Tag: 9, Data: []byte("d")})
	if m, _ := mb.get(1, 9); string(m.Data) != "d" || len(mb.listFree) != 1 || len(mb.pending) != 0 {
		t.Fatalf("delivery %q, %d lists free, %d streams pending", m.Data, len(mb.listFree), len(mb.pending))
	}
}

func TestMailboxStreamsAreIndependent(t *testing.T) {
	mb := newMailbox(2, new(ringCounters))
	// A gap on one (from, tag) stream must not block a different stream.
	mb.put(Message{From: 0, Tag: 1, Seq: 2, Data: []byte("gapped")})
	mb.put(Message{From: 1, Tag: 1, Seq: 1, Data: []byte("other-rank")})
	mb.put(Message{From: 0, Tag: 2, Seq: 1, Data: []byte("other-tag")})
	if m, _ := mb.get(1, 1); string(m.Data) != "other-rank" {
		t.Fatalf("cross-rank delivery = %q", m.Data)
	}
	if m, _ := mb.get(0, 2); string(m.Data) != "other-tag" {
		t.Fatalf("cross-tag delivery = %q", m.Data)
	}
}

func TestMailboxSeqZeroBypassesSequencing(t *testing.T) {
	mb := newMailbox(2, new(ringCounters))
	// Legacy unsequenced messages (Seq 0) are delivered as-is, duplicates
	// included — raw transport users manage their own ordering.
	mb.put(Message{From: 0, Tag: 9, Data: []byte("x")})
	mb.put(Message{From: 0, Tag: 9, Data: []byte("x")})
	for i := 0; i < 2; i++ {
		if m, err := mb.get(0, 9); err != nil || string(m.Data) != "x" {
			t.Fatalf("unsequenced delivery %d: %q, %v", i, m.Data, err)
		}
	}
}

func TestMailboxGetWithinTimesOut(t *testing.T) {
	mb := newMailbox(2, new(ringCounters))
	start := time.Now()
	_, err := mb.getWithin(0, 1, 20*time.Millisecond)
	if err == nil {
		t.Fatal("empty-mailbox wait returned a message")
	}
	if !errors.Is(err, ErrRecvTimeout) || !IsTransient(err) {
		t.Fatalf("timeout error = %v; want ErrRecvTimeout (transient)", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timed-out wait took %v", elapsed)
	}
}

// --- endpoint retry -------------------------------------------------------

// scriptedTransport wraps an inner transport and fails sends according to a
// small script, for deterministic retry tests.
type scriptedTransport struct {
	Transport
	mu            sync.Mutex
	failFirst     int   // fail this many sends with a transient error...
	deliverAnyway bool  // ...but deliver them regardless (models a lost ACK)
	fatal         error // when set, every send fails with this instead
	sends         int
}

func (s *scriptedTransport) Send(m Message) error {
	s.mu.Lock()
	s.sends++
	n := s.sends
	s.mu.Unlock()
	if s.fatal != nil {
		return s.fatal
	}
	if n <= s.failFirst {
		if s.deliverAnyway {
			s.Transport.Send(m)
		}
		return fmt.Errorf("%w: scripted fault %d", ErrTransient, n)
	}
	return s.Transport.Send(m)
}

func testEndpoints(tr Transport) (*Endpoint, *Endpoint, *dsmon.Monitor) {
	mon := dsmon.New()
	prof := vtime.Paragon()
	var c0, c1 vtime.Clock
	snd := NewEndpoint(0, 2, tr, &c0, prof).SetMonitor(mon)
	rcv := NewEndpoint(1, 2, tr, &c1, prof).SetMonitor(mon)
	return snd, rcv, mon
}

func TestEndpointRetriesTransientSend(t *testing.T) {
	st := &scriptedTransport{Transport: NewChanTransport(2), failFirst: 3}
	snd, rcv, mon := testEndpoints(st)
	if err := snd.Send(1, 7, []byte("payload")); err != nil {
		t.Fatalf("send not absorbed by retry: %v", err)
	}
	if got, err := rcv.Recv(0, 7); err != nil || string(got) != "payload" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	reg := mon.Registry()
	if n := reg.Counter("comm_send_retries_total", "").Value(); n != 3 {
		t.Errorf("send retries counted = %d, want 3", n)
	}
	if n := reg.Counter("comm_retries_exhausted_total", "").Value(); n != 0 {
		t.Errorf("exhaustions counted = %d, want 0", n)
	}
}

func TestEndpointRetryDeliversExactlyOnce(t *testing.T) {
	// The transient failure delivered its message anyway (a lost ACK): the
	// retry manufactures a duplicate, which the mailbox must suppress.
	st := &scriptedTransport{Transport: NewChanTransport(2), failFirst: 1, deliverAnyway: true}
	snd, rcv, _ := testEndpoints(st)
	for i := 0; i < 5; i++ {
		if err := snd.Send(1, 3, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		got, err := rcv.Recv(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want := string([]byte{byte('a' + i)}); string(got) != want {
			t.Fatalf("delivery %d = %q, want %q (duplicate or reorder leaked)", i, got, want)
		}
	}
}

func TestEndpointRetryExhaustionIsClean(t *testing.T) {
	st := &scriptedTransport{Transport: NewChanTransport(2), failFirst: 1 << 30}
	snd, _, mon := testEndpoints(st)
	snd.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, Backoff: 1e-6})
	err := snd.Send(1, 1, []byte("doomed"))
	if err == nil {
		t.Fatal("send succeeded with every attempt faulted")
	}
	if !IsTransient(err) {
		t.Fatalf("exhaustion error lost its transient cause: %v", err)
	}
	if st.sends != 4 {
		t.Errorf("transport saw %d attempts, want 4", st.sends)
	}
	if n := mon.Registry().Counter("comm_retries_exhausted_total", "").Value(); n != 1 {
		t.Errorf("exhaustions counted = %d, want 1", n)
	}
}

func TestEndpointDoesNotRetryFatalErrors(t *testing.T) {
	boom := errors.New("comm: wire on fire")
	st := &scriptedTransport{Transport: NewChanTransport(2), fatal: boom}
	snd, _, _ := testEndpoints(st)
	if err := snd.Send(1, 1, nil); !errors.Is(err, boom) {
		t.Fatalf("fatal error not propagated: %v", err)
	}
	if st.sends != 1 {
		t.Fatalf("fatal error retried: transport saw %d attempts", st.sends)
	}
}

func TestEndpointRecvDeadline(t *testing.T) {
	tr := NewChanTransport(2)
	_, rcv, mon := testEndpoints(tr)
	rcv.SetRecvDeadline(15 * time.Millisecond).
		SetRetryPolicy(RetryPolicy{MaxAttempts: 2, Backoff: 1e-6})
	_, err := rcv.Recv(0, 42)
	if err == nil {
		t.Fatal("receive with no sender returned")
	}
	if !IsTransient(err) {
		t.Fatalf("deadline error not transient: %v", err)
	}
	if n := mon.Registry().Counter("comm_recv_retries_total", "").Value(); n != 1 {
		t.Errorf("recv retries counted = %d, want 1", n)
	}
	// A sender that shows up within the deadline is unaffected.
	snd := NewEndpoint(0, 2, tr, new(vtime.Clock), vtime.Paragon())
	go func() {
		time.Sleep(5 * time.Millisecond)
		snd.Send(1, 43, []byte("late but fine"))
	}()
	rcv.SetRecvDeadline(5 * time.Second)
	if got, err := rcv.Recv(0, 43); err != nil || string(got) != "late but fine" {
		t.Fatalf("recv under generous deadline = %q, %v", got, err)
	}
}

// --- TCP all-to-all stress (run under -race via make check) ---------------

// TestTCPAllToAllStress drives every rank pair of a loopback TCP transport
// concurrently: each rank streams sequenced messages to every other rank
// while receiving from all of them, so the frame codec, per-conn write path,
// and mailbox sequencing are all exercised under contention.
func TestTCPAllToAllStress(t *testing.T) {
	const (
		nprocs = 4
		msgs   = 60
	)
	tr, err := NewTCPTransport(nprocs)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	prof := vtime.Paragon()
	var wg sync.WaitGroup
	errc := make(chan error, nprocs)
	for rank := 0; rank < nprocs; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			clk := new(vtime.Clock)
			ep := NewEndpoint(rank, nprocs, tr, clk, prof)
			for i := 0; i < msgs; i++ {
				for to := 0; to < nprocs; to++ {
					if to == rank {
						continue
					}
					payload := []byte(fmt.Sprintf("r%d->%d #%03d", rank, to, i))
					if err := ep.Send(to, 0x77, payload); err != nil {
						errc <- fmt.Errorf("rank %d send: %w", rank, err)
						return
					}
				}
			}
			for from := 0; from < nprocs; from++ {
				if from == rank {
					continue
				}
				for i := 0; i < msgs; i++ {
					got, err := ep.Recv(from, 0x77)
					if err != nil {
						errc <- fmt.Errorf("rank %d recv from %d: %w", rank, from, err)
						return
					}
					if want := fmt.Sprintf("r%d->%d #%03d", from, rank, i); string(got) != want {
						errc <- fmt.Errorf("rank %d: from %d message %d = %q, want %q", rank, from, i, got, want)
						return
					}
				}
			}
		}(rank)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
