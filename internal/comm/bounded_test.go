package comm_test

import (
	"fmt"
	"sync"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/collective"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/vtime"
)

// TestFreshTagCollectivesKeepMailboxBounded: every collective call mints a
// tag of its own, so a machine that lives long runs through streams without
// end. Neither end may keep anything per stream once its one message is
// delivered: after a few thousand collectives of every kind the mailboxes
// hold no staged stream and no cursor, remember no more one-shot streams
// than their window, and the endpoints number no send stream at all.
func TestFreshTagCollectivesKeepMailboxBounded(t *testing.T) {
	const nprocs, rounds = 4, 1500
	tr := comm.NewChanTransport(nprocs)
	defer tr.Close()
	eps := make([]*comm.Endpoint, nprocs)
	var wg sync.WaitGroup
	errs := make([]error, nprocs)
	for r := 0; r < nprocs; r++ {
		eps[r] = comm.NewEndpoint(r, nprocs, tr, new(vtime.Clock), vtime.Paragon())
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := collective.New(eps[r])
			payload := make([]byte, 100)
			errs[r] = func() error {
				for i := 0; i < rounds; i++ {
					if err := c.Barrier(); err != nil {
						return err
					}
					b, err := c.Bcast(i%nprocs, payload)
					if err != nil {
						return err
					}
					if r != i%nprocs {
						bufpool.Put(b)
					}
					parts, err := c.Gather(0, payload)
					if err != nil {
						return err
					}
					for from, p := range parts {
						if from != r {
							bufpool.Put(p)
						}
					}
					if _, err := c.Allreduce(float64(r), collective.OpSum); err != nil {
						return err
					}
					bufs := make([][]byte, nprocs)
					for to := range bufs {
						bufs[to] = payload[:10*(to+1)]
					}
					recv, err := c.Alltoallv(bufs)
					if err != nil {
						return err
					}
					for _, p := range recv {
						bufpool.Put(p)
					}
				}
				return nil
			}()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < nprocs; r++ {
		pending, next, once, free := tr.StageState(r)
		if pending != 0 || next != 0 {
			t.Errorf("rank %d mailbox: %d staged streams and %d cursors after %d rounds, want none", r, pending, next, rounds)
		}
		if once > comm.OnceWindow || free > comm.MaxListFree {
			t.Errorf("rank %d mailbox: remembers %d one-shot streams (window %d), holds %d free lists", r, once, comm.OnceWindow, free)
		}
		if n := eps[r].SendStreams(); n != 0 {
			t.Errorf("rank %d endpoint: numbers %d send streams, want none", r, n)
		}
	}
}

// TestOneShotDuplicateSuppressed: a one-shot message's duplicate is dropped
// whether it arrives while the original is still staged or after it was
// delivered, and a sequenced stream beside it keeps its cursor.
func TestOneShotDuplicateSuppressed(t *testing.T) {
	tr := comm.NewChanTransport(2)
	defer tr.Close()
	once := func(tag uint64, data string) comm.Message {
		return comm.Message{From: 0, To: 1, Tag: tag, Seq: comm.SeqOnce, Data: []byte(data)}
	}
	send := func(m comm.Message) {
		t.Helper()
		if err := tr.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(tag uint64) string {
		t.Helper()
		m, err := tr.Recv(1, 0, tag)
		if err != nil {
			t.Fatal(err)
		}
		defer bufpool.Put(m.Data)
		return string(m.Data)
	}
	send(once(7, "a"))
	send(once(7, "a-dup-staged"))
	send(comm.Message{From: 0, To: 1, Tag: 8, Seq: 1, Data: []byte("s1")})
	if got := recv(7); got != "a" {
		t.Fatalf("tag 7 delivered %q", got)
	}
	send(once(7, "a-dup-late"))
	send(once(9, "b"))
	if got := recv(9); got != "b" {
		t.Fatalf("tag 9 delivered %q", got)
	}
	if got := recv(8); got != "s1" {
		t.Fatalf("tag 8 delivered %q", got)
	}
	pending, next, onceN, _ := tr.StageState(1)
	if pending != 0 || next != 1 || onceN != 2 {
		t.Fatalf("stage holds %d streams, %d cursors, %d one-shot marks; want 0, 1, 2", pending, next, onceN)
	}
	// Past the window the oldest mark is forgotten, never a newer one.
	for i := 0; i < comm.OnceWindow; i++ {
		tag := uint64(100 + i)
		send(once(tag, fmt.Sprint(i)))
		if got := recv(tag); got != fmt.Sprint(i) {
			t.Fatalf("tag %d delivered %q", tag, got)
		}
	}
	if _, _, onceN, _ := tr.StageState(1); onceN != comm.OnceWindow {
		t.Fatalf("%d one-shot marks held, window is %d", onceN, comm.OnceWindow)
	}
	// The duplicate is drained, and judged, by the receive that follows it.
	send(once(uint64(100+comm.OnceWindow-1), "dup-of-newest"))
	send(once(5000, "fresh"))
	if got := recv(5000); got != "fresh" {
		t.Fatalf("tag 5000 delivered %q", got)
	}
	if pending, _, _, _ := tr.StageState(1); pending != 0 {
		t.Fatalf("duplicate of a remembered one-shot stream was staged (%d streams pending)", pending)
	}
}
