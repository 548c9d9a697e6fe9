package collective_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/chaos"
	"pcxxstreams/internal/collective"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/vtime"
)

// TestAlltoallvLent: the lending exchange hands every non-empty buffer over as
// it is where it can. In process each rank receives the very slices its peers
// lent — the same first byte — marked lent, and its own entry as itself; over
// TCP, and through chaos.Transport (which delivers copies of whatever it is
// given), it receives copies it owns, not marked. Either way the bytes are the
// sent ones, the send lists are untouched, and once the copies are released
// the pool holds what it held before. A rank that lends nothing to a peer
// sends it an empty message, which is not lent.
func TestAlltoallvLent(t *testing.T) {
	const n = 3
	want := func(from, to int) []byte {
		if (from+to)%3 == 2 {
			return nil // these pairs exchange nothing
		}
		b := make([]byte, 100+40*to+from)
		for i := range b {
			b[i] = byte(16*from + to + i)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		tr    func(t *testing.T) comm.Transport
		lends bool
	}{
		{"chan", func(*testing.T) comm.Transport { return comm.NewChanTransport(n) }, true},
		{"tcp", func(t *testing.T) comm.Transport {
			tr, err := comm.NewTCPTransport(n)
			if err != nil {
				t.Skipf("no loopback sockets: %v", err)
			}
			return tr
		}, false},
		{"chaos", func(*testing.T) comm.Transport {
			return chaos.NewTransport(comm.NewChanTransport(n), n, 1, chaos.Rates{}, nil)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := bufpool.Stats().Outstanding
			var mu sync.Mutex
			sent := map[[2]int]*byte{}
			lendAll(t, n, tc.tr(t), func(c *collective.Comm) error {
				me := c.Rank()
				bufs := make([][]byte, n)
				for j := range bufs {
					bufs[j] = want(me, j)
					if len(bufs[j]) > 0 {
						mu.Lock()
						sent[[2]int{me, j}] = &bufs[j][0]
						mu.Unlock()
					}
				}
				recv, lent := make([][]byte, n), make([]bool, n)
				if err := c.AlltoallvLent(bufs, recv, lent); err != nil {
					return err
				}
				for j := range bufs {
					if !bytes.Equal(bufs[j], want(me, j)) {
						return fmt.Errorf("the buffer lent to %d changed", j)
					}
				}
				for r, p := range recv {
					if !bytes.Equal(p, want(r, me)) {
						return fmt.Errorf("what came from %d is not what it lent", r)
					}
					mu.Lock()
					first, ok := sent[[2]int{r, me}]
					mu.Unlock()
					same := ok && &p[0] == first
					switch {
					case r == me && !(lent[r] && (same || !ok)):
						return fmt.Errorf("the own entry is not the caller's own buffer, marked lent")
					case r != me && lent[r] != (tc.lends && ok):
						return fmt.Errorf("from %d: lent %v, the transport lends %v and %d bytes were sent", r, lent[r], tc.lends, len(p))
					case r != me && lent[r] != same:
						return fmt.Errorf("from %d: lent %v, but the slice is the sender's: %v", r, lent[r], same)
					}
					if !lent[r] {
						bufpool.Put(p)
					}
				}
				return nil
			})
			if got := bufpool.Stats().Outstanding - base; got != 0 {
				t.Errorf("%d pooled buffers out after the exchange", got)
			}
		})
	}
}

// TestLentMessageIsNeverReleased: a lent payload stays its sender's whatever
// becomes of the message — a duplicate the mailbox discards, or a message
// nobody received when the transport closes — so the transport never gives it
// to the pool; under pooldebug a release would also poison its bytes.
func TestLentMessageIsNeverReleased(t *testing.T) {
	tr := comm.NewChanTransport(2)
	buf := append(bufpool.GetCap(300), bytes.Repeat([]byte{7}, 300)...)
	puts := bufpool.Stats().Puts
	dup := comm.Message{From: 0, To: 1, Tag: 5, Seq: comm.SeqOnce, Data: buf, Mode: comm.Lent}
	for i := 0; i < 2; i++ {
		if err := tr.Send(dup); err != nil {
			t.Fatal(err)
		}
	}
	m, err := tr.Recv(1, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode != comm.Lent || &m.Data[0] != &buf[0] {
		t.Fatal("the lent payload was not delivered as it is, marked lent")
	}
	if err := tr.Send(comm.Message{From: 0, To: 1, Tag: 6, Data: buf, Mode: comm.Lent}); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if got := bufpool.Stats().Puts - puts; got != 0 {
		t.Errorf("the transport released %d buffers: a lent payload went to the pool", got)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{7}, 300)) {
		t.Error("the lent payload's bytes changed")
	}
	bufpool.Put(buf)
}

// lendAll runs body on n ranks over tr, which it closes.
func lendAll(t *testing.T, n int, tr comm.Transport, body func(c *collective.Comm) error) {
	t.Helper()
	defer tr.Close()
	clocks := make([]vtime.Clock, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = body(collective.New(comm.NewEndpoint(r, n, tr, &clocks[r], vtime.Paragon())))
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
