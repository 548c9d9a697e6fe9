package server_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/leakcheck"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/server"
)

// The data path borrows: a write sends the caller's buffer, a read reply
// lands in it, the daemon moves a chunk through one pooled buffer. These
// tests pin who may touch what, and when; they mean most under
// `-race -tags pooldebug` (make race-pooldebug).

const mib = 1 << 20

func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31) ^ salt
	}
	return b
}

// fillBytes sets every byte of p to v (by doubling copies: a byte loop over
// a megabyte is what the race detector is slowest at).
func fillBytes(p []byte, v byte) {
	p[0] = v
	for n := 1; n < len(p); n *= 2 {
		copy(p[n:], p[:n])
	}
}

// guarded returns an n-byte buffer filled with fill, cut from the middle of a
// larger one; check fails the test if anything outside the n bytes changed.
func guarded(t *testing.T, n int, fill byte) (p []byte, check func()) {
	t.Helper()
	const guard = 4096
	whole := bytes.Repeat([]byte{fill}, n+2*guard)
	for i := 0; i < guard; i++ {
		whole[i], whole[guard+n+i] = 0xA5, 0xA5
	}
	return whole[guard : guard+n : guard+n], func() {
		t.Helper()
		for i := 0; i < guard; i++ {
			if whole[i] != 0xA5 || whole[guard+n+i] != 0xA5 {
				t.Fatalf("byte written outside the caller's buffer (guard offset %d)", i)
			}
		}
	}
}

// TestTornReadReply severs the connection halfway through a 1 MiB read
// reply. Resumed, ReadAt returns the exact bytes; never resumed, it returns
// a clean error and the caller's buffer holds a correct prefix and nothing
// else — readLoop writes the right bytes at the right offsets or none.
func TestTornReadReply(t *testing.T) {
	srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	want := pattern(mib, 0)
	const sentinel = 0xEE

	run := func(t *testing.T, resume bool) {
		rl := startRelay(t, srv.Addr())
		cli, err := server.Dial(rl.addr(), server.ClientConfig{
			Tenant:          "a",
			ReconnectBudget: 300 * time.Millisecond,
			ReconnectPause:  5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		b, err := cli.OpenBackend("torn")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		p, checkGuards := guarded(t, mib, sentinel)
		rl.armCut(mib/2 + 100)
		if !resume {
			rl.ln.Close() // the redial finds nobody
		}
		n, err := b.ReadAt(p, 0)
		checkGuards()
		if rl.cutCount() != 1 {
			t.Fatalf("relay cut %d replies, want 1", rl.cutCount())
		}
		if resume {
			if err != nil || n != mib || !bytes.Equal(p, want) {
				t.Fatalf("ReadAt across a torn reply = %d, %v; data equal: %v", n, err, bytes.Equal(p, want))
			}
			return
		}
		if err == nil {
			t.Fatal("ReadAt succeeded with the daemon unreachable after a torn reply")
		}
		i := 0
		for i < mib && p[i] == want[i] {
			i++
		}
		if i < mib/4 {
			t.Fatalf("only %d correct bytes landed before the cut; the reply was cut past %d", i, mib/2)
		}
		for ; i < mib; i++ {
			if p[i] != sentinel && p[i] != want[i] {
				t.Fatalf("p[%d] = %#x: neither the file's byte %#x nor untouched", i, p[i], want[i])
			}
		}
	}
	t.Run("resumed", func(t *testing.T) { run(t, true) })
	t.Run("abandoned", func(t *testing.T) { run(t, false) })
}

// TestCloseDuringWrites has several goroutines writing 1 MiB chunks, each
// scribbling over its buffer the moment WriteAt returns, while connections
// are killed and the client is closed under them. A resend reads the
// caller's buffer, so it may only run while the caller is still parked: the
// race detector must stay silent, every call must return (data or a clean
// error), and no scribbled byte may ever reach the store.
func TestCloseDuringWrites(t *testing.T) {
	srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	const writers, rounds, scribble = 4, 12, 0xFF
	sent := make([]byte, writers) // fill value of each writer's last attempted chunk
	var acks atomic.Int64

	for round := 0; round < rounds; round++ {
		cli, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "a", ReconnectPause: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		b, err := cli.OpenBackend("scribble")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := make([]byte, mib)
				for {
					fill := sent[w] + 1 // 1..: never zero, never the scribble
					if fill == scribble {
						return
					}
					fillBytes(p, fill)
					sent[w] = fill
					n, err := b.WriteAt(p, int64(w)*mib)
					fillBytes(p, scribble)
					if err != nil {
						return // the client was closed under us
					}
					if n != mib {
						t.Errorf("WriteAt = %d with no error", n)
						return
					}
					acks.Add(1)
				}
			}()
		}
		// Cut only once traffic is flowing, however slow the build.
		for start, deadline := acks.Load(), time.Now().Add(20*time.Second); acks.Load() < start+writers; {
			if time.Now().After(deadline) {
				t.Fatal("no write was acknowledged")
			}
			time.Sleep(time.Millisecond)
		}
		// A cut, then Close a little later each round: somewhere in the sweep
		// Close lands while the reconnect is resending the writers' chunks.
		srv.KillConnections()
		time.Sleep(time.Duration(round) * 50 * time.Microsecond)
		cli.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("a WriteAt in flight across Close never returned")
		}
	}

	cli := dial(t, srv, "a")
	b, err := cli.OpenBackend("scribble")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, mib)
	for w := 0; w < writers; w++ {
		if _, err := b.ReadAt(got, int64(w)*mib); err != nil {
			t.Fatal(err)
		}
		// A chunk is one frame and lands whole or not at all, so the region
		// is one fill value some attempt sent. (Not necessarily the last one
		// acknowledged: a closed session's unacknowledged chunk may still be
		// queued in the daemon when the next session's lands.)
		if fill := got[0]; fill < 1 || fill > sent[w] || !bytes.Equal(got, bytes.Repeat([]byte{fill}, mib)) {
			t.Fatalf("writer %d's region starts %#x (sent 1..%#x) and is uniform: %v — a buffer was read after its owner had it back",
				w, fill, sent[w], bytes.Equal(got, bytes.Repeat([]byte{fill}, mib)))
		}
	}
}

// slowBackend holds every write long enough for a queue to form behind it.
type slowBackend struct{ pfs.Backend }

func (b slowBackend) WriteAt(p []byte, off int64) (int, error) {
	time.Sleep(5 * time.Millisecond)
	return b.Backend.WriteAt(p, off)
}

// TestPoolBalance: every pooled buffer the daemon takes goes back exactly
// once, on the refusal paths as on the normal one.
func TestPoolBalance(t *testing.T) {
	srv, err := server.Start("127.0.0.1:0", server.Config{
		Factory: func(string) (pfs.Backend, error) { return slowBackend{pfs.NewMemBackend()}, nil },
		Tenants: []server.Tenant{{Name: "a", QuotaBytes: 4 * mib}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := bufpool.Stats().Outstanding
	cli, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "a", ReconnectBudget: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	b, err := cli.OpenBackend("f")
	if err != nil {
		t.Fatal(err)
	}
	chunk := pattern(mib, 3)

	if _, err := b.WriteAt(chunk, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadAt(make([]byte, mib), 0); err != nil {
		t.Fatal(err)
	}
	leakcheck.WaitOutstanding(t, base, "write and read")

	if _, err := b.WriteAt(chunk, 4*mib); !errors.Is(err, server.ErrQuota) {
		t.Fatalf("over-quota write = %v", err)
	}
	leakcheck.WaitOutstanding(t, base, "quota reject")

	for _, off := range []int64{-1, math.MaxInt64 - 1} {
		if _, err := b.WriteAt(chunk, off); err == nil {
			t.Fatalf("write at offset %d succeeded", off)
		}
	}
	leakcheck.WaitOutstanding(t, base, "negative and overflowing offsets")

	raw := rawHello(t, srv.Addr(), "a")
	defer raw.Close()
	exchange := func(what string, req ...[]byte) {
		t.Helper()
		for _, part := range req {
			if _, err := raw.Write(part); err != nil {
				t.Fatal(err)
			}
		}
		if _, status, body, err := readRawFrame(raw); err != nil || status != wireErr {
			t.Fatalf("%s: status %d, err %v, body %q; want a permanent error", what, status, err, body)
		}
	}
	exchange("write to an unopened file", frame(1, wireWrite, str("nobody-opened-this"), i64(0), blob(chunk)))
	leakcheck.WaitOutstanding(t, base, "write to an unopened file")
	exchange("oversize write", frame(2, wireWrite, str("f"), i64(0), blob(make([]byte, mib+1))))
	leakcheck.WaitOutstanding(t, base, "oversize write")

	// Writes queued on the I/O ranks when the daemon shuts down: the ranks
	// drain before Close returns, and each job releases its buffer (the
	// test binary's leak check holds it to that).
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := b.WriteAt(chunk[:64<<10], int64(i)*mib); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	wg.Wait()
}

// TestWriteOffsetOverflow: off+len wrapped negative, sailed under the quota
// check and reached a striped store whose cell walk then ran zero times — the
// daemon acknowledged four bytes it never stored. Now a clean error, with
// nothing reserved and nothing written; reads are bounded the same way.
func TestWriteOffsetOverflow(t *testing.T) {
	srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a", QuotaBytes: mib}}})
	cli := dial(t, srv, "a")
	b, err := cli.OpenBackend("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("head"), 0); err != nil {
		t.Fatal(err)
	}
	if n, err := b.WriteAt([]byte("lost"), math.MaxInt64-1); err == nil || n != 0 {
		t.Fatalf("WriteAt(4 bytes, MaxInt64-1) = %d, %v; want 0 and an error", n, err)
	}
	if used, _, err := cli.Usage(); err != nil || used != 4 {
		t.Fatalf("Usage after the refused write = %d, %v; want 4", used, err)
	}
	if size := b.Size(); size != 4 {
		t.Fatalf("Size after the refused write = %d, want 4", size)
	}
	for _, off := range []int64{-1, math.MaxInt64 - 1} {
		n, err := b.ReadAt(make([]byte, 4), off)
		if err == nil || errors.Is(err, io.EOF) || pfs.IsTransient(err) || n != 0 {
			t.Fatalf("ReadAt(4 bytes, %d) = %d, %v; want 0 and a permanent error", off, n, err)
		}
	}
}

// TestRefusedRequestKeepsConnection: a request the daemon can delimit but
// will not serve is answered with a permanent error on a connection that
// stays up. Hanging up instead made the client reconnect and resend the same
// frame, to be hung up on again until its whole reconnect budget was gone.
func TestRefusedRequestKeepsConnection(t *testing.T) {
	srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	cli := dial(t, srv, "a")
	if _, err := cli.OpenBackend("f"); err != nil {
		t.Fatal(err)
	}
	raw := rawHello(t, srv.Addr(), "a")
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck

	refused := []struct {
		what string
		req  []byte
	}{
		{"read above the chunk limit", frame(1, wireRead, str("f"), i64(0), u32(mib+1))},
		{"open whose name runs past the frame", frame(2, wireOpen, u32(100), []byte("ab"))},
		{"read with no body at all", frame(3, wireRead)},
		{"write above the chunk limit", frame(4, wireWrite, str("f"), i64(0), blob(make([]byte, mib+1)))},
		{"write declaring more data than its frame has", frame(5, wireWrite, str("f"), i64(0), u32(500), make([]byte, 100))},
		{"write declaring less data than its frame has", frame(6, wireWrite, str("f"), i64(0), u32(10), make([]byte, 100))},
		{"write too short for its own head", frame(7, wireWrite, u32(1))},
		{"control request with a 64 KiB name", frame(8, wireOpen, blob(make([]byte, 64<<10)))},
	}
	for _, rq := range refused {
		if _, err := raw.Write(rq.req); err != nil {
			t.Fatalf("%s: %v", rq.what, err)
		}
		id, status, body, err := readRawFrame(raw)
		if err != nil {
			t.Fatalf("%s: the daemon hung up (%v)", rq.what, err)
		}
		if want := uint64(rq.req[4]); id != want || status != wireErr {
			t.Fatalf("%s: reply id %d status %d (%q), want id %d and a permanent error", rq.what, id, status, body, want)
		}
	}
	// Still in frame: a well-formed request on the same connection is served.
	if _, err := raw.Write(frame(9, wireUsage)); err != nil {
		t.Fatal(err)
	}
	if id, status, _, err := readRawFrame(raw); err != nil || id != 9 || status != wireOK {
		t.Fatalf("usage after the refusals: id %d status %d err %v", id, status, err)
	}

	// What cannot be re-synchronized still ends the connection.
	for _, prefix := range []uint32{8, math.MaxUint32} {
		c := rawHello(t, srv.Addr(), "a")
		c.SetDeadline(time.Now().Add(10 * time.Second))   //nolint:errcheck
		c.Write(append(u32(prefix), make([]byte, 16)...)) //nolint:errcheck
		if _, _, _, err := readRawFrame(c); err == nil {
			t.Fatalf("a frame of declared length %d was answered, not hung up on", prefix)
		}
		c.Close()
	}
}
