package comm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/vtime"
)

// ownedBuf is a pooled buffer with a pattern no pool poison resembles.
func ownedBuf(n int, salt byte) []byte {
	b := bufpool.Get(n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

// settle waits for the pool's Outstanding count to reach want: a TCP writer
// releases a frame after the socket took it, not before Send returns.
func settle(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for bufpool.Stats().Outstanding != want {
		if time.Now().After(deadline) {
			t.Fatalf("bufpool Outstanding = %d, want %d", bufpool.Stats().Outstanding, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func ownedEndpoints(tr Transport) (snd, rcv *Endpoint) {
	c := make([]vtime.Clock, 2)
	prof := vtime.Paragon()
	return NewEndpoint(0, 2, tr, &c[0], prof), NewEndpoint(1, 2, tr, &c[1], prof).SetRecvDeadline(5 * time.Second)
}

// TestSendOwnedHandsOver: an owned send costs the in-process transport no
// copy — the receiver is delivered the very slice — and costs the wire
// transport the one copy into its frame, after which it releases the
// sender's buffer itself. Either way the receiver's Put is the last: the
// pool's Outstanding is back where it started. Eager and rendezvous sizes,
// sequenced and one-shot streams.
func TestSendOwnedHandsOver(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr Transport) {
		_, inproc := tr.(*ChanTransport)
		snd, rcv := ownedEndpoints(tr)
		start := bufpool.Stats().Outstanding
		for i, n := range []int{64, eagerMaxBytes, eagerMaxBytes + 1, 1 << 20} {
			for _, once := range []bool{false, true} {
				buf := ownedBuf(n, byte(i))
				want := bytes.Clone(buf)
				first := &buf[0]
				tag, send := uint64(7), snd.SendOwned
				if once {
					tag, send = uint64(100+i), snd.SendOnceOwned
				}
				if err := send(1, tag, buf); err != nil {
					t.Fatalf("owned send of %d bytes: %v", n, err)
				}
				got, err := rcv.Recv(0, tag)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%d bytes arrived different from what was sent", n)
				}
				// (Over the wire the address says nothing: the buffer the
				// transport released may be the one its read loop drew.)
				if inproc && &got[0] != first {
					t.Fatalf("%d bytes: the receiver was delivered a copy", n)
				}
				bufpool.Put(got)
			}
		}
		settle(t, start)
		if st := snd.Stats(); st.Sent != 8 || st.BytesSent != 2*(64+2*eagerMaxBytes+1+1<<20) {
			t.Errorf("sender accounted %d messages, %d bytes", st.Sent, st.BytesSent)
		}
	})
}

// TestSendOwnedFailureLeavesBuffer: ownership passes on a nil return only. A
// send that fails — a closed transport of either kind, a dead link, a retry
// budget spent on transient faults — leaves the buffer the caller's: not
// released (Outstanding still counts it), not poisoned, every byte in place,
// and good for another send.
func TestSendOwnedFailureLeavesBuffer(t *testing.T) {
	closedChan := NewChanTransport(2)
	closedChan.Close()
	closedTCP, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	closedTCP.Close()
	flaky := &scriptedTransport{Transport: NewChanTransport(2), failFirst: 1 << 30}
	defer flaky.Close()
	for _, row := range []struct {
		name  string
		tr    Transport
		sends int // transport attempts expected; 0 = don't care
		is    error
	}{
		{"closed in-process transport", closedChan, 0, ErrClosed},
		{"closed tcp transport", closedTCP, 0, ErrClosed},
		{"dead faulty transport", NewFaultyTransport(NewChanTransport(2), 0), 0, nil},
		{"retries exhausted", flaky, 3, ErrTransient},
	} {
		for _, n := range []int{100, 64 << 10} {
			t.Run(fmt.Sprintf("%s/%d", row.name, n), func(t *testing.T) {
				snd, _ := ownedEndpoints(row.tr)
				snd.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: 1e-6})
				start := bufpool.Stats().Outstanding
				buf := ownedBuf(n, 3)
				want := bytes.Clone(buf)
				flaky.sends = 0
				err := snd.SendOwned(1, 4, buf)
				if err == nil {
					t.Fatal("send succeeded")
				}
				if row.is != nil && !errors.Is(err, row.is) {
					t.Fatalf("err = %v, want %v", err, row.is)
				}
				if row.sends != 0 && flaky.sends != row.sends {
					t.Fatalf("%d transport attempts, want %d", flaky.sends, row.sends)
				}
				if !bytes.Equal(buf, want) {
					t.Fatal("the failed send disturbed the caller's buffer")
				}
				if got := bufpool.Stats().Outstanding; got != start+1 {
					t.Fatalf("Outstanding moved by %d across the failed send, want 1 (the caller's buffer)", got-start)
				}
				bufpool.Put(buf)
				settle(t, start)
			})
		}
	}
}

// TestSendOwnedRetryResendsTheBuffer: a transient fault that did not deliver
// leaves the buffer with the endpoint's retry loop, which sends that same
// buffer again; the attempt that succeeds hands it over.
func TestSendOwnedRetryResendsTheBuffer(t *testing.T) {
	st := &scriptedTransport{Transport: NewChanTransport(2), failFirst: 2}
	defer st.Close()
	snd, rcv := ownedEndpoints(st)
	start := bufpool.Stats().Outstanding
	buf := ownedBuf(8192, 9)
	want, first := bytes.Clone(buf), &buf[0]
	if err := snd.SendOwned(1, 11, buf); err != nil {
		t.Fatalf("send not absorbed by retry: %v", err)
	}
	if st.sends != 3 {
		t.Fatalf("%d transport attempts, want 3", st.sends)
	}
	got, err := rcv.Recv(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != first || !bytes.Equal(got, want) {
		t.Fatal("the retried send did not deliver the caller's buffer intact")
	}
	bufpool.Put(got)
	settle(t, start)
}

// TestOwnedFlagStopsAtTheTransport: the flag is the sender's word to the
// transport. What the receiver is delivered does not carry it, so a relay
// that forwards a received Message does not give away a buffer it was never
// told it owns.
func TestOwnedFlagStopsAtTheTransport(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr Transport) {
		buf := ownedBuf(256, 1)
		if err := tr.Send(Message{From: 0, To: 1, Tag: 2, Data: buf, Mode: Owned}); err != nil {
			t.Fatal(err)
		}
		m, err := tr.Recv(1, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if m.Mode != Borrowed {
			t.Error("a delivered message still says Owned")
		}
		bufpool.Put(m.Data)
	})
}
