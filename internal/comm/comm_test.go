package comm

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/vtime"
)

// eachTransport runs the test body once per transport implementation.
func eachTransport(t *testing.T, n int, body func(t *testing.T, tr Transport)) {
	t.Helper()
	t.Run("chan", func(t *testing.T) {
		tr := NewChanTransport(n)
		defer tr.Close()
		body(t, tr)
	})
	t.Run("tcp", func(t *testing.T) {
		tr, err := NewTCPTransport(n)
		if err != nil {
			t.Fatalf("NewTCPTransport: %v", err)
		}
		defer tr.Close()
		body(t, tr)
	})
}

func TestPointToPoint(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr Transport) {
		want := []byte("hello distributed world")
		if err := tr.Send(Message{From: 0, To: 1, Tag: 7, Time: 1.5, Data: want}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		m, err := tr.Recv(1, 0, 7)
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if !bytes.Equal(m.Data, want) || m.From != 0 || m.Tag != 7 || m.Time != 1.5 {
			t.Fatalf("got %+v, want data=%q from=0 tag=7 time=1.5", m, want)
		}
		bufpool.Put(m.Data)
	})
}

func TestEmptyPayload(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr Transport) {
		if err := tr.Send(Message{From: 1, To: 0, Tag: 3}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		m, err := tr.Recv(0, 1, 3)
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if len(m.Data) != 0 {
			t.Fatalf("got %d bytes, want 0", len(m.Data))
		}
	})
}

func TestSelfSend(t *testing.T) {
	eachTransport(t, 1, func(t *testing.T, tr Transport) {
		if err := tr.Send(Message{From: 0, To: 0, Tag: 1, Data: []byte("me")}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		m, err := tr.Recv(0, 0, 1)
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if string(m.Data) != "me" {
			t.Fatalf("got %q", m.Data)
		}
		bufpool.Put(m.Data)
	})
}

// TestTagMatching: a receiver waiting on tag B is not satisfied by tag A,
// even when A arrived first.
func TestTagMatching(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr Transport) {
		if err := tr.Send(Message{From: 0, To: 1, Tag: 1, Data: []byte("first")}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Send(Message{From: 0, To: 1, Tag: 2, Data: []byte("second")}); err != nil {
			t.Fatal(err)
		}
		m2, err := tr.Recv(1, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if string(m2.Data) != "second" {
			t.Fatalf("tag 2 recv got %q", m2.Data)
		}
		bufpool.Put(m2.Data)
		m1, err := tr.Recv(1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(m1.Data) != "first" {
			t.Fatalf("tag 1 recv got %q", m1.Data)
		}
		bufpool.Put(m1.Data)
	})
}

// TestSenderFIFO: per-(sender,tag) order is preserved.
func TestSenderFIFO(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr Transport) {
		const k = 100
		for i := 0; i < k; i++ {
			if err := tr.Send(Message{From: 0, To: 1, Tag: 9, Data: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			m, err := tr.Recv(1, 0, 9)
			if err != nil {
				t.Fatal(err)
			}
			if m.Data[0] != byte(i) {
				t.Fatalf("message %d out of order: got %d", i, m.Data[0])
			}
			bufpool.Put(m.Data)
		}
	})
}

// TestSendBufferReuse: the transport must copy payloads so callers can
// reuse their buffers immediately (wire semantics).
func TestSendBufferReuse(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr Transport) {
		buf := []byte("original")
		if err := tr.Send(Message{From: 0, To: 1, Tag: 1, Data: buf}); err != nil {
			t.Fatal(err)
		}
		copy(buf, "CLOBBER!")
		m, err := tr.Recv(1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(m.Data) != "original" {
			t.Fatalf("payload aliased sender buffer: got %q", m.Data)
		}
		bufpool.Put(m.Data)
	})
}

func TestManyToOneConcurrent(t *testing.T) {
	const n = 8
	eachTransport(t, n, func(t *testing.T, tr Transport) {
		var wg sync.WaitGroup
		for r := 1; r < n; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if err := tr.Send(Message{From: r, To: 0, Tag: 4, Data: []byte{byte(r), byte(i)}}); err != nil {
						t.Errorf("send from %d: %v", r, err)
						return
					}
				}
			}()
		}
		// Receiver pulls from each sender in rank order; FIFO per sender.
		for r := 1; r < n; r++ {
			for i := 0; i < 50; i++ {
				m, err := tr.Recv(0, r, 4)
				if err != nil {
					t.Fatalf("recv from %d: %v", r, err)
				}
				if m.Data[0] != byte(r) || m.Data[1] != byte(i) {
					t.Fatalf("from %d msg %d: got %v", r, i, m.Data)
				}
				bufpool.Put(m.Data)
			}
		}
		wg.Wait()
	})
}

func TestInvalidRanks(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr Transport) {
		if err := tr.Send(Message{From: 0, To: 5, Tag: 1}); err == nil {
			t.Error("send to invalid rank accepted")
		}
		if _, err := tr.Recv(-1, 0, 1); err == nil {
			t.Error("recv on invalid rank accepted")
		}
	})
}

func TestCloseUnblocksReceivers(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr Transport) {
		errc := make(chan error, 1)
		go func() {
			_, err := tr.Recv(1, 0, 1)
			errc <- err
		}()
		tr.Close()
		if err := <-errc; err == nil {
			t.Error("Recv returned nil error after Close")
		}
	})
}

// TestEndpointTiming verifies the virtual-time law: receiver time advances
// to sendTime + latency + bytes/bandwidth.
func TestEndpointTiming(t *testing.T) {
	prof := vtime.Profile{MsgLatency: 0.010, MsgBW: 1000, SendOverhead: 0.001}
	tr := NewChanTransport(2)
	defer tr.Close()
	var c0, c1 vtime.Clock
	e0 := NewEndpoint(0, 2, tr, &c0, prof)
	e1 := NewEndpoint(1, 2, tr, &c1, prof)

	data := make([]byte, 500) // 0.5s at 1000 B/s
	if err := e0.Send(1, 1, data); err != nil {
		t.Fatal(err)
	}
	// Sender paid its overhead.
	if got := c0.Now(); got != 0.001 {
		t.Fatalf("sender clock = %v, want 0.001", got)
	}
	if err := put(e1.Recv(0, 1)); err != nil {
		t.Fatal(err)
	}
	want := 0.001 + 0.010 + 0.5
	if got := c1.Now(); got != want {
		t.Fatalf("receiver clock = %v, want %v", got, want)
	}
}

// TestEndpointTimingLateReceiver: if the receiver is already past the
// arrival time, its clock must not move backwards.
func TestEndpointTimingLateReceiver(t *testing.T) {
	prof := vtime.Profile{MsgLatency: 0.010, MsgBW: 1e9}
	tr := NewChanTransport(2)
	defer tr.Close()
	var c0, c1 vtime.Clock
	e0 := NewEndpoint(0, 2, tr, &c0, prof)
	e1 := NewEndpoint(1, 2, tr, &c1, prof)
	c1.Advance(100)

	if err := e0.Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := put(e1.Recv(0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := c1.Now(); got != 100 {
		t.Fatalf("receiver clock = %v, want 100 (no backwards motion)", got)
	}
}

// TestTransportsTimeEquivalent: a fixed message script produces identical
// virtual clocks over the channel and TCP transports.
func TestTransportsTimeEquivalent(t *testing.T) {
	prof := vtime.Paragon()
	run := func(tr Transport) []float64 {
		defer tr.Close()
		const n = 4
		clocks := make([]vtime.Clock, n)
		eps := make([]*Endpoint, n)
		for i := range eps {
			eps[i] = NewEndpoint(i, n, tr, &clocks[i], prof)
		}
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Ring: send to (r+1)%n, receive from (r-1+n)%n, 10 rounds.
				for round := 0; round < 10; round++ {
					payload := make([]byte, 128*(r+1))
					if err := eps[r].Send((r+1)%n, uint64(round), payload); err != nil {
						t.Errorf("send: %v", err)
						return
					}
					if err := put(eps[r].Recv((r+n-1)%n, uint64(round))); err != nil {
						t.Errorf("recv: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		out := make([]float64, n)
		for i := range clocks {
			out[i] = clocks[i].Now()
		}
		return out
	}

	chanTimes := run(NewChanTransport(4))
	tcpTr, err := NewTCPTransport(4)
	if err != nil {
		t.Fatal(err)
	}
	tcpTimes := run(tcpTr)
	for i := range chanTimes {
		if chanTimes[i] != tcpTimes[i] {
			t.Fatalf("rank %d: chan vtime %v != tcp vtime %v", i, chanTimes[i], tcpTimes[i])
		}
	}
}

func TestEndpointStats(t *testing.T) {
	tr := NewChanTransport(3)
	defer tr.Close()
	var c0, c1 vtime.Clock
	e0 := NewEndpoint(0, 3, tr, &c0, vtime.Challenge())
	e1 := NewEndpoint(1, 3, tr, &c1, vtime.Challenge())
	for i := 0; i < 3; i++ {
		if err := e0.Send(1, 1, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e0.Send(2, 1, make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := put(e1.Recv(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := e0.Stats()
	if st.Sent != 4 || st.BytesSent != 35 {
		t.Fatalf("sender stats = %+v, want Sent 4, BytesSent 35", st)
	}
	if st.SentByPeer[1] != 3 || st.SentByPeer[2] != 1 {
		t.Fatalf("SentByPeer = %v, want [0 3 1]", st.SentByPeer)
	}
	rst := e1.Stats()
	if rst.Received != 3 || rst.BytesReceived != 30 {
		t.Fatalf("receiver stats = %+v, want Received 3, BytesReceived 30", rst)
	}
	if rst.ReceivedByPeer[0] != 3 {
		t.Fatalf("ReceivedByPeer = %v, want [3 0 0]", rst.ReceivedByPeer)
	}
	// Snapshots are copies, not views.
	rst.ReceivedByPeer[0] = 99
	if e1.Stats().ReceivedByPeer[0] != 3 {
		t.Fatal("Stats leaked internal slice")
	}
}

func TestEndpointMonitorMetricsAndSpans(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	mon := dsmon.NewTracing()
	var c0, c1 vtime.Clock
	e0 := NewEndpoint(0, 2, tr, &c0, vtime.Challenge()).SetMonitor(mon)
	e1 := NewEndpoint(1, 2, tr, &c1, vtime.Challenge()).SetMonitor(mon)
	if err := e0.Send(1, 7, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if err := put(e1.Recv(0, 7)); err != nil {
		t.Fatal(err)
	}
	reg := mon.Registry()
	if got := reg.Counter("comm_messages_sent_total", "").Value(); got != 1 {
		t.Fatalf("sent counter = %d", got)
	}
	if got := reg.Counter("comm_bytes_received_total", "").Value(); got != 128 {
		t.Fatalf("bytes received counter = %d", got)
	}
	if got := reg.Histogram("comm_message_size_bytes", "", dsmon.SizeBuckets).Count(); got != 1 {
		t.Fatalf("size histogram count = %d", got)
	}
	var sendSpans, recvSpans int
	for _, ev := range mon.Recorder().Events() {
		if ev.Cat != "comm" {
			t.Fatalf("unexpected category %q", ev.Cat)
		}
		switch ev.Name {
		case "Send":
			sendSpans++
		case "Recv":
			recvSpans++
		}
	}
	if sendSpans != 1 || recvSpans != 1 {
		t.Fatalf("spans = %d send, %d recv", sendSpans, recvSpans)
	}
}

// Property: payloads of arbitrary content round-trip intact over TCP frames.
func TestTCPFrameRoundTripQuick(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	seq := uint64(0)
	f := func(data []byte, timeMantissa uint16) bool {
		seq++
		tm := float64(timeMantissa) / 7.0
		if err := tr.Send(Message{From: 0, To: 1, Tag: seq, Time: tm, Data: data}); err != nil {
			return false
		}
		m, err := tr.Recv(1, 0, seq)
		if err != nil {
			return false
		}
		defer bufpool.Put(m.Data)
		return bytes.Equal(m.Data, data) && m.Time == tm && m.From == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkChanTransportRoundTrip(b *testing.B) {
	benchTransport(b, NewChanTransport(2))
}

func BenchmarkTCPTransportRoundTrip(b *testing.B) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		b.Fatal(err)
	}
	benchTransport(b, tr)
}

func benchTransport(b *testing.B, tr Transport) {
	defer tr.Close()
	payload := make([]byte, 4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			m, err := tr.Recv(1, 0, 1)
			if err != nil {
				b.Error(err)
				return
			}
			if err := tr.Send(Message{From: 1, To: 0, Tag: 2, Data: m.Data}); err != nil {
				b.Error(err)
				return
			}
			bufpool.Put(m.Data)
		}
	}()
	b.SetBytes(int64(len(payload)) * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Tag: 1, Data: payload}); err != nil {
			b.Fatal(err)
		}
		m, err := tr.Recv(0, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(m.Data)
	}
	<-done
}

// put gives back the payload an Endpoint receive returned and passes its error
// on.
func put(data []byte, err error) error {
	bufpool.Put(data)
	return err
}

// The FaultyTransport tests live in faulty_test.go.
