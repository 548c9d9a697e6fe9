package collective

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/vtime"
)

// spmd runs body on n ranks over a fresh channel transport and returns the
// final virtual clock of every rank. Errors inside body fail the test.
func spmd(t testing.TB, n int, body func(c *Comm) error) []float64 {
	t.Helper()
	return spmdOver(t, n, comm.NewChanTransport(n), body)
}

// spmdOver is spmd on the caller's transport, which it closes.
func spmdOver(t testing.TB, n int, tr comm.Transport, body func(c *Comm) error) []float64 {
	t.Helper()
	defer tr.Close()
	clocks := make([]vtime.Clock, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := comm.NewEndpoint(r, n, tr, &clocks[r], vtime.Paragon())
			errs[r] = body(New(ep))
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	out := make([]float64, n)
	for i := range clocks {
		out[i] = clocks[i].Now()
	}
	return out
}

// putAll gives back every entry of an all-to-all's result.
func putAll(bufs [][]byte) {
	for _, b := range bufs {
		bufpool.Put(b)
	}
}

// putGathered gives back what a gather delivered to its root: every entry but
// the root's own, which is the caller's data.
func putGathered(parts [][]byte, root int) {
	for r, p := range parts {
		if r != root {
			bufpool.Put(p)
		}
	}
}

// msgLog is a transport that logs, per rank and in order, every message the
// rank sends and receives. A send is logged before it is handed on: after a
// nil return an owned buffer is the receiver's.
type msgLog struct {
	comm.Transport
	mu   sync.Mutex
	logs [][]msgEvent
}

// msgEvent is one logged message: which way, the peer, the tag and the size.
type msgEvent struct {
	dir        string
	peer, size int
	tag        uint64
}

func (e msgEvent) String() string {
	kinds := map[uint64]string{kindBarrier: "barrier", kindBcast: "bcast", kindGather: "gather",
		kindAlltoall: "alltoall", kindReduce: "reduce"}
	return fmt.Sprintf("%s %d %s/%d %dB", e.dir, e.peer, kinds[e.tag>>56], e.tag&0xFFFF, e.size)
}

func newMsgLog(n int) *msgLog {
	return &msgLog{Transport: comm.NewChanTransport(n), logs: make([][]msgEvent, n)}
}

func (l *msgLog) note(rank int, e msgEvent) {
	l.mu.Lock()
	l.logs[rank] = append(l.logs[rank], e)
	l.mu.Unlock()
}

func (l *msgLog) Send(m comm.Message) error {
	l.note(m.From, msgEvent{"send", m.To, len(m.Data), m.Tag})
	return l.Transport.Send(m)
}

func (l *msgLog) Recv(to, from int, tag uint64) (comm.Message, error) {
	m, err := l.Transport.Recv(to, from, tag)
	if err == nil {
		l.note(to, msgEvent{"recv", from, len(m.Data), tag})
	}
	return m, err
}

// TestBarrierEqualizesClocks is the shape table: New picks the flat exchange
// up to flatMax ranks and the treeFanout-ary tree beyond, from nothing but
// the size. On both, every synchronizing operation releases ranks that came
// in skewed at one bit-equal instant, no earlier than the slowest arrived.
// Flat, the root talks to everyone; on the tree no rank talks to more than
// its parent and treeFanout children in any funnel operation.
func TestBarrierEqualizesClocks(t *testing.T) {
	anyRank := func(int) bool { return true }
	ops := []struct {
		name   string
		funnel bool // composed of rooted operations only
		// Which ranks may come in late and still leave with everyone: all of
		// them where the root hears from each before it releases any, the
		// root alone for the one-way Bcast, nobody for the operations that do
		// not synchronize.
		late func(rank int) bool
		run  func(c *Comm) error
	}{
		{"barrier", true, anyRank, func(c *Comm) error { return c.Barrier() }},
		{"bcast", true, func(rank int) bool { return rank == 0 }, func(c *Comm) error {
			_, err := c.Bcast(0, []byte("shape"))
			return err
		}},
		{"allreduce", true, anyRank, func(c *Comm) error {
			_, err := c.Allreduce(float64(c.Rank()), OpMax)
			return err
		}},
		{"alltoallv", false, anyRank, func(c *Comm) error {
			got, err := c.Alltoallv(make([][]byte, c.Size()))
			putAll(got)
			return err
		}},
		{"allgather", true, anyRank, func(c *Comm) error {
			_, frame, err := c.Allgather([]byte{byte(c.Rank())})
			bufpool.Put(frame)
			return err
		}},
		{"gather", true, nil, func(c *Comm) error {
			parts, err := c.Gather(0, []byte{byte(c.Rank())})
			putGathered(parts, 0)
			return err
		}},
	}
	for _, n := range []int{1, 2, 9, 16, 17, 64} {
		wantFanout := 0
		if n > flatMax {
			wantFanout = treeFanout
		}
		for _, op := range ops {
			log := newMsgLog(n)
			var slowest float64
			for r := 0; r < n; r++ {
				if op.late != nil && op.late(r) {
					slowest = float64(r+1) * 0.5
				}
			}
			times := spmdOver(t, n, log, func(c *Comm) error {
				if c.Fanout() != wantFanout {
					return fmt.Errorf("fan-out %d at %d ranks, want %d", c.Fanout(), n, wantFanout)
				}
				if op.late != nil && op.late(c.Rank()) {
					c.Endpoint().Clock().Advance(float64(c.Rank()+1) * 0.5)
				}
				return op.run(c)
			})
			most := 0
			for _, events := range log.logs {
				peers := map[int]bool{}
				for _, e := range events {
					peers[e.peer] = true
				}
				most = max(most, len(peers))
			}
			if wantFanout == 0 && most != n-1 {
				t.Errorf("n=%d %s: busiest rank has %d peers, the flat exchange gives its root %d", n, op.name, most, n-1)
			}
			if wantFanout != 0 && op.funnel && most > treeFanout+1 {
				t.Errorf("n=%d %s: a rank exchanged with %d peers, the tree allows %d", n, op.name, most, treeFanout+1)
			}
			for r, tm := range times {
				if op.late != nil && (tm != times[0] || tm < slowest) {
					t.Errorf("n=%d %s: rank %d left at %v, rank 0 at %v, slowest arrival %v", n, op.name, r, tm, times[0], slowest)
				}
			}
		}
	}
}

func TestBarrierSingleRank(t *testing.T) {
	spmd(t, 1, func(c *Comm) error { return c.Barrier() })
}

func TestBcast(t *testing.T) {
	for _, root := range []int{0, 2} {
		root := root
		times := spmd(t, 4, func(c *Comm) error {
			var data []byte
			if c.Rank() == root {
				data = []byte("payload from root")
			}
			got, err := c.Bcast(root, data)
			if err != nil {
				return err
			}
			if string(got) != "payload from root" {
				return fmt.Errorf("rank %d got %q", c.Rank(), got)
			}
			return nil
		})
		for r, tm := range times {
			if tm != times[0] {
				t.Fatalf("root=%d: rank %d clock %v != %v", root, r, tm, times[0])
			}
		}
	}
}

// TestBcastInvalidRoot: every rooted operation refuses a root outside the
// group, on both shapes, before it sends anything.
func TestBcastInvalidRoot(t *testing.T) {
	for _, n := range []int{2, 17} {
		spmd(t, n, func(c *Comm) error {
			for _, root := range []int{-1, n} {
				_, bcast := c.Bcast(root, nil)
				_, gather := c.Gather(root, nil)
				_, reduce := c.Reduce(root, 1, OpSum)
				for op, err := range map[string]error{"bcast": bcast, "gather": gather, "reduce": reduce} {
					if err == nil {
						return fmt.Errorf("n=%d: %s accepted root %d", n, op, root)
					}
				}
			}
			// Each failed call bumped seq before validating, identically on
			// all ranks, so the group is still aligned. Verify with a real
			// collective.
			return c.Barrier()
		})
	}
}

// TestBcastShortFrame: a broadcast frame too short to hold the release
// instant is refused, not sliced.
func TestBcastShortFrame(t *testing.T) {
	spmd(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.ep.SendOnce(1, tag(kindBcast, c.next(), 0), []byte{1, 2, 3})
		}
		if _, err := c.Bcast(0, nil); err == nil || !strings.Contains(err.Error(), "short frame") {
			return fmt.Errorf("got %v, want a short-frame error", err)
		}
		return nil
	})
}

func TestGather(t *testing.T) {
	spmd(t, 5, func(c *Comm) error {
		mine := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
		parts, err := c.Gather(0, mine)
		if err != nil {
			return err
		}
		defer putGathered(parts, 0)
		if c.Rank() != 0 {
			if parts != nil {
				return fmt.Errorf("non-root got parts")
			}
			return nil
		}
		for r, p := range parts {
			if len(p) != 2 || p[0] != byte(r) || p[1] != byte(r*2) {
				return fmt.Errorf("part %d = %v", r, p)
			}
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	spmd(t, 4, func(c *Comm) error {
		mine := bytes.Repeat([]byte{byte(c.Rank() + 1)}, c.Rank()+1) // varied sizes
		parts, frame, err := c.Allgather(mine)
		if err != nil {
			return err
		}
		defer bufpool.Put(frame)
		if len(parts) != 4 {
			return fmt.Errorf("got %d parts", len(parts))
		}
		for r, p := range parts {
			want := bytes.Repeat([]byte{byte(r + 1)}, r+1)
			if !bytes.Equal(p, want) {
				return fmt.Errorf("part %d = %v, want %v", r, p, want)
			}
		}
		return nil
	})
}

func TestAllgatherEmptyContributions(t *testing.T) {
	spmd(t, 3, func(c *Comm) error {
		parts, frame, err := c.Allgather(nil)
		if err != nil {
			return err
		}
		defer bufpool.Put(frame)
		for r, p := range parts {
			if len(p) != 0 {
				return fmt.Errorf("part %d nonempty: %v", r, p)
			}
		}
		return nil
	})
}

func TestAlltoallv(t *testing.T) {
	const n = 4
	times := spmd(t, n, func(c *Comm) error {
		me := c.Rank()
		bufs := make([][]byte, n)
		for j := 0; j < n; j++ {
			// Message content encodes (sender, receiver); length varies.
			bufs[j] = bytes.Repeat([]byte{byte(10*me + j)}, me+j+1)
		}
		got, err := c.Alltoallv(bufs)
		if err != nil {
			return err
		}
		defer putAll(got)
		for r, p := range got {
			want := bytes.Repeat([]byte{byte(10*r + me)}, r+me+1)
			if !bytes.Equal(p, want) {
				return fmt.Errorf("rank %d from %d: got %v want %v", me, r, p, want)
			}
		}
		return nil
	})
	for r, tm := range times {
		if tm != times[0] {
			t.Fatalf("rank %d clock %v != %v after alltoallv", r, tm, times[0])
		}
	}
}

func TestAlltoallvSelfCopyIsolation(t *testing.T) {
	spmd(t, 2, func(c *Comm) error {
		bufs := [][]byte{[]byte("aa"), []byte("bb")}
		got, err := c.Alltoallv(bufs)
		if err != nil {
			return err
		}
		defer putAll(got)
		// Mutating the input after the exchange must not affect the output.
		bufs[c.Rank()][0] = 'X'
		if got[c.Rank()][0] == 'X' {
			return fmt.Errorf("self delivery aliases sender buffer")
		}
		return nil
	})
}

// refuseAfter lets the first `left` sends through and refuses every later
// one, without closing anything, so what did get through can still be
// received.
type refuseAfter struct {
	comm.Transport
	mu   sync.Mutex
	left int
}

func (r *refuseAfter) Send(m comm.Message) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.left == 0 {
		return fmt.Errorf("refused")
	}
	r.left--
	return r.Transport.Send(m)
}

// TestAlltoallvOwned: the owned exchange hands the buffers over. On the
// in-process transport every rank receives the very slices its peers filled —
// the same first byte, not a copy — and its own entry as itself; bufs is all
// nil afterwards. A send that fails leaves the buffers
// not yet sent with the caller, every byte in place, and the one sent before
// it with its receiver.
func TestAlltoallvOwned(t *testing.T) {
	const n = 4
	want := func(from, to int) []byte {
		b := make([]byte, 100+50*to+from)
		for i := range b {
			b[i] = byte(16*from + to + i)
		}
		return b
	}
	fill := func(from, to int) []byte { // want's bytes in a pooled buffer
		w := want(from, to)
		return append(bufpool.GetCap(len(w)), w...)
	}
	var mu sync.Mutex
	sent := map[[2]int]*byte{}
	spmd(t, n, func(c *Comm) error {
		me := c.Rank()
		bufs := make([][]byte, n)
		for j := range bufs {
			if (me+j)%3 == 2 {
				continue // these pairs exchange nothing
			}
			bufs[j] = fill(me, j)
			mu.Lock()
			sent[[2]int{me, j}] = &bufs[j][0]
			mu.Unlock()
		}
		got, err := c.AlltoallvOwned(bufs)
		if err != nil {
			return err
		}
		for j, b := range bufs {
			if b != nil {
				return fmt.Errorf("entry %d is still set after the exchange", j)
			}
		}
		for r, p := range got {
			mu.Lock()
			first, ok := sent[[2]int{r, me}]
			mu.Unlock()
			switch {
			case !ok && len(p) != 0:
				return fmt.Errorf("%d bytes from %d, which sent nothing", len(p), r)
			case ok && (!bytes.Equal(p, want(r, me)) || &p[0] != first):
				return fmt.Errorf("what came from %d is not the buffer it filled", r)
			}
			bufpool.Put(p)
		}
		return nil
	})

	tr := &refuseAfter{Transport: comm.NewChanTransport(3), left: 1}
	defer tr.Close()
	var clocks [2]vtime.Clock
	c := New(comm.NewEndpoint(0, 3, tr, &clocks[0], vtime.Paragon()))
	bufs := [][]byte{fill(0, 0), fill(0, 1), fill(0, 2)}
	first := &bufs[1][0]
	if _, err := c.AlltoallvOwned(bufs); err == nil {
		t.Fatal("AlltoallvOwned with its second send refused succeeded")
	}
	if bufs[1] != nil {
		t.Error("the buffer sent to rank 1 is still in bufs")
	}
	for _, j := range []int{0, 2} {
		if !bytes.Equal(bufs[j], want(0, j)) {
			t.Errorf("the unsent buffer for rank %d is not the caller's as it was", j)
		}
		bufpool.Put(bufs[j])
	}
	d, err := comm.NewEndpoint(1, 3, tr, &clocks[1], vtime.Paragon()).Recv(0, tag(kindAlltoall, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if &d[0] != first {
		t.Error("rank 1 was delivered a copy")
	}
	bufpool.Put(d)
}

func TestAlltoallvWrongLen(t *testing.T) {
	spmd(t, 2, func(c *Comm) error {
		if _, err := c.Alltoallv(make([][]byte, 3)); err == nil {
			return fmt.Errorf("wrong buffer count accepted")
		}
		return nil
	})
}

func TestReduce(t *testing.T) {
	spmd(t, 4, func(c *Comm) error {
		v := float64(c.Rank() + 1) // 1,2,3,4
		sum, err := c.Reduce(0, v, OpSum)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && sum != 10 {
			return fmt.Errorf("sum = %v, want 10", sum)
		}
		max, err := c.Reduce(0, v, OpMax)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && max != 4 {
			return fmt.Errorf("max = %v, want 4", max)
		}
		min, err := c.Reduce(0, v, OpMin)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && min != 1 {
			return fmt.Errorf("min = %v, want 1", min)
		}
		return nil
	})
}

func TestAllreduce(t *testing.T) {
	times := spmd(t, 5, func(c *Comm) error {
		got, err := c.Allreduce(float64(c.Rank()), OpMax)
		if err != nil {
			return err
		}
		if got != 4 {
			return fmt.Errorf("rank %d allreduce max = %v, want 4", c.Rank(), got)
		}
		return nil
	})
	for r, tm := range times {
		if tm != times[0] {
			t.Fatalf("rank %d clock %v != %v after allreduce", r, tm, times[0])
		}
	}
}

// TestSequencedCollectivesDoNotCrosstalk runs several different collectives
// back to back and checks results stay separated.
func TestSequencedCollectivesDoNotCrosstalk(t *testing.T) {
	spmd(t, 3, func(c *Comm) error {
		for i := 0; i < 10; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			msg := []byte(fmt.Sprintf("round-%d", i))
			var in []byte
			if c.Rank() == 0 {
				in = msg
			}
			got, err := c.Bcast(0, in)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, msg) {
				return fmt.Errorf("round %d: got %q", i, got)
			}
			s, err := c.Allreduce(1, OpSum)
			if err != nil {
				return err
			}
			if s != 3 {
				return fmt.Errorf("round %d: sum %v", i, s)
			}
		}
		return nil
	})
}

// TestDeterministicVirtualTime: the same program yields bit-identical clocks
// on repeated runs.
func TestDeterministicVirtualTime(t *testing.T) {
	run := func() []float64 {
		return spmd(t, 4, func(c *Comm) error {
			for i := 0; i < 5; i++ {
				_, frame, err := c.Allgather(make([]byte, 100*(c.Rank()+1)))
				bufpool.Put(frame)
				if err != nil {
					return err
				}
				bufs := make([][]byte, 4)
				for j := range bufs {
					bufs[j] = make([]byte, 64*j)
				}
				got, err := c.Alltoallv(bufs)
				putAll(got)
				if err != nil {
					return err
				}
			}
			return c.Barrier()
		})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: run1 %v != run2 %v", i, a[i], b[i])
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{},
		{nil},
		{[]byte("a")},
		{[]byte(""), []byte("xy"), nil, []byte("0123456789")},
	}
	for _, parts := range cases {
		got, err := unflatten(flatten(parts))
		if err != nil {
			t.Fatalf("unflatten(%v): %v", parts, err)
		}
		if len(got) != len(parts) {
			t.Fatalf("len %d != %d", len(got), len(parts))
		}
		for i := range parts {
			if !bytes.Equal(got[i], parts[i]) {
				t.Fatalf("part %d: %v != %v", i, got[i], parts[i])
			}
		}
	}
}

func TestUnflattenRejectsCorrupt(t *testing.T) {
	for _, b := range [][]byte{
		{},
		{1, 0, 0},
		{2, 0, 0, 0, 5, 0, 0, 0}, // truncated lengths
		append(flatten([][]byte{[]byte("ab")}), 0xFF), // trailing junk
	} {
		if _, err := unflatten(b); err == nil {
			t.Errorf("unflatten(%v) accepted corrupt input", b)
		}
	}
}

// spmdTCP mirrors spmd over real loopback sockets.
func spmdTCP(t *testing.T, n int, body func(c *Comm) error) {
	t.Helper()
	tr, err := comm.NewTCPTransport(n)
	if err != nil {
		t.Fatal(err)
	}
	spmdOver(t, n, tr, body)
}

// TestCollectivesOverTCP exercises every collective over real sockets.
func TestCollectivesOverTCP(t *testing.T) {
	spmdTCP(t, 4, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		// Bcast's body with the frame beside the payload: a frame read off the
		// wire is the pool's, and Bcast's payload cannot give it back.
		got, bframe, err := c.bcastFrame(1, map[bool][]byte{true: []byte("tcp"), false: nil}[c.Rank() == 1])
		if err != nil {
			return err
		}
		defer bufpool.Put(bframe)
		if string(got) != "tcp" {
			return fmt.Errorf("bcast got %q", got)
		}
		parts, frame, err := c.Allgather([]byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		defer bufpool.Put(frame)
		for r, p := range parts {
			if len(p) != 1 || p[0] != byte(r) {
				return fmt.Errorf("allgather part %d = %v", r, p)
			}
		}
		bufs := make([][]byte, 4)
		for j := range bufs {
			bufs[j] = []byte{byte(c.Rank()), byte(j)}
		}
		recv, err := c.Alltoallv(bufs)
		if err != nil {
			return err
		}
		defer putAll(recv)
		for r, p := range recv {
			if p[0] != byte(r) || p[1] != byte(c.Rank()) {
				return fmt.Errorf("alltoallv from %d = %v", r, p)
			}
		}
		sum, err := c.Allreduce(float64(c.Rank()+1), OpSum)
		if err != nil {
			return err
		}
		if sum != 10 {
			return fmt.Errorf("allreduce = %v", sum)
		}
		return nil
	})
}

// TestOwnedFramesAccount: Alltoallv, Allreduce and Bcast rounds whose
// receivers release what they got, and a Bcast whose send fails, which leaves
// the frame with the sender to release. That no frame is lost or released
// twice is the test binary's ledger's to check.
func TestOwnedFramesAccount(t *testing.T) {
	const n, rounds = 4, 3
	spmd(t, n, func(c *Comm) error {
		me := c.Rank()
		for round := 0; round < rounds; round++ {
			bufs := make([][]byte, n)
			for j := range bufs {
				bufs[j] = bytes.Repeat([]byte{byte(16*me + j + round)}, 70+90*j)
			}
			got, err := c.Alltoallv(bufs)
			if err != nil {
				return err
			}
			for r, p := range got {
				if want := bytes.Repeat([]byte{byte(16*r + me + round)}, 70+90*me); !bytes.Equal(p, want) {
					return fmt.Errorf("round %d: rank %d from %d: wrong bytes", round, me, r)
				}
				bufpool.Put(p)
			}
			if sum, err := c.Allreduce(1, OpSum); err != nil || sum != n {
				return fmt.Errorf("round %d: allreduce = %v, %v", round, sum, err)
			}
			root := round % n
			data := bytes.Repeat([]byte{byte(round + 1)}, 5000)
			d, err := c.Bcast(root, data)
			if err != nil {
				return err
			}
			if !bytes.Equal(d, bytes.Repeat([]byte{byte(round + 1)}, 5000)) {
				return fmt.Errorf("round %d: rank %d: wrong broadcast", round, me)
			}
		}
		return nil
	})

	tr := comm.NewChanTransport(2)
	tr.Close()
	var clock vtime.Clock
	c := New(comm.NewEndpoint(0, 2, tr, &clock, vtime.Paragon()))
	if _, err := c.Bcast(0, make([]byte, 300)); err == nil {
		t.Fatal("Bcast over a closed transport succeeded")
	}
}
