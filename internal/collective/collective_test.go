package collective

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/vtime"
)

// spmd runs body on n ranks over a fresh channel transport and returns the
// final virtual clock of every rank. Errors inside body fail the test.
func spmd(t *testing.T, n int, body func(c *Comm) error) []float64 {
	t.Helper()
	tr := comm.NewChanTransport(n)
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

func TestBarrierEqualizesClocks(t *testing.T) {
	times := spmd(t, 6, func(c *Comm) error {
		// Skew the clocks first.
		c.Endpoint().Clock().Advance(float64(c.Rank()) * 0.5)
		return c.Barrier()
	})
	for r, tm := range times {
		if tm != times[0] {
			t.Fatalf("rank %d clock %v != rank 0 clock %v after barrier", r, tm, times[0])
		}
	}
	if times[0] < 2.5 {
		t.Fatalf("barrier exit %v earlier than slowest participant (2.5)", times[0])
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

func TestBcastInvalidRoot(t *testing.T) {
	spmd(t, 2, func(c *Comm) error {
		if _, err := c.Bcast(5, nil); err == nil {
			return fmt.Errorf("invalid root accepted")
		}
		// Consume the wasted sequence number identically on all ranks: the
		// failed call bumped seq before validating, so the group is still
		// aligned. Verify with a real collective.
		return c.Barrier()
	})
}

func TestGather(t *testing.T) {
	spmd(t, 5, func(c *Comm) error {
		mine := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
		parts, err := c.Gather(0, mine)
		if err != nil {
			return err
		}
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
		parts, err := c.Allgather(mine)
		if err != nil {
			return err
		}
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
		parts, err := c.Allgather(nil)
		if err != nil {
			return err
		}
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
		// Mutating the input after the exchange must not affect the output.
		bufs[c.Rank()][0] = 'X'
		if got[c.Rank()][0] == 'X' {
			return fmt.Errorf("self delivery aliases sender buffer")
		}
		return nil
	})
}

func TestAlltoallvChunked(t *testing.T) {
	// With a message bound far below the payload sizes, contributions travel
	// as framed chunk trains; the result must be identical to the unchunked
	// exchange, including empty and sub-chunk-size payloads.
	const n = 4
	spmd(t, n, func(c *Comm) error {
		c.SetMaxMsgBytes(64)
		me := c.Rank()
		bufs := make([][]byte, n)
		for j := 0; j < n; j++ {
			switch {
			case me == 1 && j == 2:
				bufs[j] = nil // empty contribution
			case me == 2 && j == 1:
				bufs[j] = []byte{0xAB} // smaller than one chunk
			default:
				bufs[j] = bytes.Repeat([]byte{byte(10*me + j)}, 500+13*me+j)
			}
		}
		got, err := c.Alltoallv(bufs)
		if err != nil {
			return err
		}
		for r, p := range got {
			var want []byte
			switch {
			case r == 1 && me == 2:
				want = nil
			case r == 2 && me == 1:
				want = []byte{0xAB}
			default:
				want = bytes.Repeat([]byte{byte(10*r + me)}, 500+13*r+me)
			}
			if !bytes.Equal(p, want) {
				return fmt.Errorf("rank %d from %d: got %d bytes, want %d", me, r, len(p), len(want))
			}
		}
		return nil
	})
}

func TestAlltoallvChunkAutoRaise(t *testing.T) {
	// A pathologically small bound must still move a payload whose chunk
	// count would overflow the 16-bit sub-index space: the chunk size is
	// raised deterministically instead.
	spmd(t, 2, func(c *Comm) error {
		c.SetMaxMsgBytes(1)
		me := c.Rank()
		big := bytes.Repeat([]byte{byte(me + 1)}, 1<<16) // 64Ki payload, bound 1
		got, err := c.Alltoallv([][]byte{big, big})
		if err != nil {
			return err
		}
		want := bytes.Repeat([]byte{byte(2 - me)}, 1<<16)
		if !bytes.Equal(got[1-me], want) {
			return fmt.Errorf("rank %d: chunked payload corrupted", me)
		}
		return nil
	})
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
				if _, err := c.Allgather(make([]byte, 100*(c.Rank()+1))); err != nil {
					return err
				}
				bufs := make([][]byte, 4)
				for j := range bufs {
					bufs[j] = make([]byte, 64*j)
				}
				if _, err := c.Alltoallv(bufs); err != nil {
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

func TestScatterv(t *testing.T) {
	spmd(t, 4, func(c *Comm) error {
		var parts [][]byte
		if c.Rank() == 1 {
			parts = [][]byte{[]byte("aa"), []byte("b"), []byte("cccc"), nil}
		}
		got, err := c.Scatterv(1, parts)
		if err != nil {
			return err
		}
		want := []string{"aa", "b", "cccc", ""}[c.Rank()]
		if string(got) != want {
			return fmt.Errorf("rank %d got %q, want %q", c.Rank(), got, want)
		}
		return nil
	})
}

func TestScattervSelfCopyIsolation(t *testing.T) {
	spmd(t, 2, func(c *Comm) error {
		var parts [][]byte
		if c.Rank() == 0 {
			parts = [][]byte{[]byte("mine"), []byte("yours")}
		}
		got, err := c.Scatterv(0, parts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			parts[0][0] = 'X'
			if got[0] == 'X' {
				return fmt.Errorf("scatterv self part aliases input")
			}
		}
		return nil
	})
}

func TestScattervValidation(t *testing.T) {
	spmd(t, 2, func(c *Comm) error {
		if _, err := c.Scatterv(9, nil); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		if c.Rank() == 0 {
			if _, err := c.Scatterv(0, make([][]byte, 5)); err == nil {
				return fmt.Errorf("wrong part count accepted")
			}
		} else {
			// keep sequence numbers aligned with rank 0's failed call
			c.next()
		}
		return nil
	})
}

// spmdTCP mirrors spmd over real loopback sockets.
func spmdTCP(t *testing.T, n int, body func(c *Comm) error) {
	t.Helper()
	tr, err := comm.NewTCPTransport(n)
	if err != nil {
		t.Fatal(err)
	}
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
}

// TestCollectivesOverTCP exercises every collective over real sockets.
func TestCollectivesOverTCP(t *testing.T) {
	spmdTCP(t, 4, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		got, err := c.Bcast(1, map[bool][]byte{true: []byte("tcp"), false: nil}[c.Rank() == 1])
		if err != nil {
			return err
		}
		if string(got) != "tcp" {
			return fmt.Errorf("bcast got %q", got)
		}
		parts, err := c.Allgather([]byte{byte(c.Rank())})
		if err != nil {
			return err
		}
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
		part, err := c.Scatterv(0, map[bool][][]byte{
			true:  {[]byte("r0"), []byte("r1"), []byte("r2"), []byte("r3")},
			false: nil,
		}[c.Rank() == 0])
		if err != nil {
			return err
		}
		if string(part) != fmt.Sprintf("r%d", c.Rank()) {
			return fmt.Errorf("scatterv = %q", part)
		}
		return nil
	})
}

// TestOwnedFramesAccount: the two senders that build a pooled frame only to
// send it — a chunked alltoallv's header frame and the linear broadcast root's
// last copy — give it to the transport. The pool's account says nobody lost
// one and nobody released one twice: once every rank has released what
// Alltoallv returned, as many buffers are out as before; each broadcast
// leaves out the frames its receivers keep (they return a sub-slice, which
// the pool will not take) and nothing more; and a send that fails leaves the
// frame with the sender, who releases it.
func TestOwnedFramesAccount(t *testing.T) {
	const n, rounds = 4, 3
	base := bufpool.Stats().Outstanding
	spmd(t, n, func(c *Comm) error {
		c.SetMaxMsgBytes(64)
		me := c.Rank()
		for round := 0; round < rounds; round++ {
			bufs := make([][]byte, n)
			for j := range bufs {
				bufs[j] = bytes.Repeat([]byte{byte(16*me + j + round)}, 70+90*j) // two chunks and more: the header frame is copied out and released
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
	if got, want := bufpool.Stats().Outstanding-base, int64(rounds*(n-1)); got != want {
		t.Errorf("%d pooled buffers out after %d rounds, want the %d broadcast frames the receivers kept", got, rounds, want)
	}

	base = bufpool.Stats().Outstanding
	tr := comm.NewChanTransport(2)
	tr.Close()
	var clock vtime.Clock
	c := New(comm.NewEndpoint(0, 2, tr, &clock, vtime.Paragon())).SetMaxMsgBytes(64)
	if _, err := c.Alltoallv([][]byte{nil, make([]byte, 300)}); err == nil {
		t.Fatal("Alltoallv over a closed transport succeeded")
	}
	if _, err := c.Bcast(0, make([]byte, 300)); err == nil {
		t.Fatal("Bcast over a closed transport succeeded")
	}
	if got := bufpool.Stats().Outstanding - base; got != 0 {
		t.Errorf("%d pooled buffers out after the failed sends", got)
	}
}
