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
		})
	}
}

// TestAlltoallvLeased: the leased exchange lends every non-empty buffer under
// its sender's lease. In process each rank reads the very slices its peers
// lent, each under the lease its lender armed, with a hold taken for it; the
// lender's buffer goes back to the pool only when the last of its readers —
// the lender included — has released, whichever order they release in. Over
// TCP and through chaos.Transport the receiver gets a copy of its own and no
// lease, and the lender's release alone gives its buffer back.
func TestAlltoallvLeased(t *testing.T) {
	const n = 3
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
			leases := make([]comm.Lease, n)
			bufs := make([][]byte, n)
			var released sync.WaitGroup
			released.Add(n)
			lendAll(t, n, tc.tr(t), func(c *collective.Comm) error {
				me := c.Rank()
				// Rank me lends rank j bytes [40j, 40j+40) of one buffer.
				buf := bufpool.Get(40 * n)
				for i := range buf {
					buf[i] = byte(16*me + i)
				}
				bufs[me] = buf
				leases[me].Arm(buf, nil)
				send := make([][]byte, n)
				for j := range send {
					if j != me {
						send[j] = buf[40*j : 40*j+40]
					}
				}
				recv, held := make([][]byte, n), make([]*comm.Lease, n)
				if err := c.AlltoallvLeased(send, recv, held); err != nil {
					return err
				}
				for r, p := range recv {
					if r == me {
						continue
					}
					want := bufs[r][40*me : 40*me+40]
					switch {
					case !bytes.Equal(p, want):
						return fmt.Errorf("what came from %d is not what it lent", r)
					case tc.lends && (held[r] != &leases[r] || &p[0] != &want[0]):
						return fmt.Errorf("from %d: not the lender's slice under its lease", r)
					case !tc.lends && held[r] != nil:
						return fmt.Errorf("from %d: a copy came with a lease", r)
					}
				}
				if leases[me].Idle() {
					return fmt.Errorf("the lease went idle with its lender's hold still on")
				}
				// Release in rank order, the lender's own hold last.
				for r := range held {
					if held[r] == nil {
						bufpool.Put(recv[r])
					}
				}
				for r := range held {
					held[r].Release()
				}
				released.Done()
				released.Wait()
				leases[me].Release()
				return nil
			})
			for r := range leases {
				if !leases[r].Idle() {
					t.Errorf("rank %d's lease is still held", r)
				}
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
