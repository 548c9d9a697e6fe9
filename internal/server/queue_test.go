package server_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/leakcheck"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/server"
)

// A connection's replies leave through its own writer, and what a request
// holds — a read's pooled buffer, its share of the tenant window — goes back
// only once the reply is on the wire. These tests pin that a client that
// stops reading parks only its own connection, never an I/O rank, and the
// size of the tenant window.

// bytesOut is the daemon's count of bytes it has read from the store for
// tenant's reads.
func bytesOut(mon *dsmon.Monitor, tenant string) *dsmon.Counter {
	return mon.Registry().Counter("dstreamd_bytes_out_total",
		"payload bytes returned in read responses", "tenant", tenant)
}

// waitCount waits until c reaches at least n.
func waitCount(t *testing.T, c *dsmon.Counter, n int64, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d, want at least %d", what, c.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// within fails the test unless f, run on a goroutine of its own, returns
// within d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v", what, d)
	}
}

// acrossRanks reads 1 MiB at offsets i × 64 KiB, i = 0..3, four times over:
// on the default stripe of four 64 KiB cells those are four cells, which the
// daemon routes to its four I/O ranks. want is the file's image.
func acrossRanks(t *testing.T, b pfs.Backend, want []byte) {
	p := make([]byte, mib)
	for range 4 {
		for i := range 4 {
			off := int64(i) * 64 << 10
			if _, err := b.ReadAt(p, off); err != nil || !bytes.Equal(p, want[off:off+mib]) {
				t.Errorf("read of 1 MiB at %d: %v, bytes equal %v", off, err, bytes.Equal(p, want[off:off+mib]))
				return
			}
		}
	}
}

// gatedStore is the daemon's default store at a stripe factor of p, with the
// file named gated (tenant prefix included) behind a gate of p; the gate is
// sent on the returned channel when the file is opened.
func gatedStore(gated string, p int) (pfs.BackendFactory, <-chan *gate) {
	store := pfs.StripedMemFactory(p, 64<<10)
	gates := make(chan *gate, 1)
	return func(name string) (pfs.Backend, error) {
		b, err := store(name)
		if name != gated || err != nil {
			return b, err
		}
		g := &gate{Backend: b, p: p}
		gates <- g
		return g, nil
	}, gates
}

// TestStalledTenantStallsOnlyItself: tenant a sends 64 chunk reads on a raw
// connection and never reads a reply. Tenant b's reads, on every I/O rank,
// still finish promptly, where an I/O rank that wrote a's replies itself
// would hang them behind a's socket. Cutting a's connection gives back
// every pooled buffer its queued replies held, and its window share: a new
// session of a gets four chunk reads into the store at once.
func TestStalledTenantStallsOnlyItself(t *testing.T) {
	mon := dsmon.New()
	store, gates := gatedStore("a/whole", 4)
	srv := startDaemon(t, server.Config{
		Factory: store,
		Tenants: []server.Tenant{{Name: "a"}, {Name: "b"}},
		Monitor: mon,
	})
	base := bufpool.Stats().Outstanding
	fa, err := dial(t, srv, "a").OpenBackend("f")
	if err != nil {
		t.Fatal(err)
	}
	// Every read a sends has a whole chunk to answer with.
	if _, err := fa.WriteAt(pattern(mib, 1), 0); err != nil {
		t.Fatal(err)
	}
	fb, err := dial(t, srv, "b").OpenBackend("f")
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(2*mib, 2)
	if _, err := fb.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}

	raw := rawHello(t, srv.Addr(), "a")
	defer raw.Close()
	raw.(*net.TCPConn).SetReadBuffer(4 << 10) //nolint:errcheck // a smaller buffer only fills sooner
	var stall []byte
	for i := range 64 {
		stall = append(stall, frame(uint64(1+i), wireRead, str("f"), i64(0), u32(mib))...)
	}
	if _, err := raw.Write(stall); err != nil {
		t.Fatal(err)
	}
	waitCount(t, bytesOut(mon, "a"), 4*mib, "bytes read from the store for the stalled tenant")

	within(t, 5*time.Second, "tenant b's reads beside a stalled tenant", func() { acrossRanks(t, fb, want) })

	raw.Close()
	// Once the daemon has let go of the connection, every reply it owed has
	// been through the writer.
	conns := mon.Registry().Gauge("dstreamd_connections_active", "client connections currently attached")
	for deadline := time.Now().Add(10 * time.Second); conns.Value() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v connections still attached after the cut, want 2", conns.Value())
		}
	}
	leakcheck.WaitOutstanding(t, base, "the stalled connection cut")
	fw, err := dial(t, srv, "a").OpenBackend("whole")
	if err != nil {
		t.Fatal(err)
	}
	<-gates
	// The gate on the empty file opens only once all four are inside.
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := fw.ReadAt(make([]byte, mib), int64(i)*64<<10); n != 0 || !errors.Is(err, io.EOF) {
				t.Errorf("chunk read %d after the cut = %d, %v; want 0 and EOF", i, n, err)
			}
		}()
	}
	wg.Wait()
}

// TestTenantWindowIsOneChunkPerRank pins the tenant window and who releases
// it. Four chunk reads of one session are in the store at once (a gate opens
// only then), one on each I/O rank, and the window then admits nothing more
// until a reply has been written — read from the store is not enough. And a
// flood of eager reads, which the window does not meter, still takes a slot
// of its connection's reply queue each, so a client that sends them and
// reads nothing parks its own reader and no I/O rank.
func TestTenantWindowIsOneChunkPerRank(t *testing.T) {
	mon := dsmon.New()
	store, gates := gatedStore("a/gated", 4)
	srv := startDaemon(t, server.Config{
		Factory: store,
		Tenants: []server.Tenant{{Name: "a"}, {Name: "b"}},
		Monitor: mon,
	})

	// Over the same-host socket, whose buffer holds less than a chunk: a reply
	// nobody reads cannot be written whole.
	raw := sameHostHello(t, srv.Addr(), "a")
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	if _, err := raw.Write(frame(1, wireOpen, str("gated"))); err != nil {
		t.Fatal(err)
	}
	if _, status, _, err := readRawFrame(raw); err != nil || status != wireOK {
		t.Fatalf("open: status %d, err %v", status, err)
	}
	g := <-gates
	data := pattern(2*mib, 3)
	if _, err := g.Backend.WriteAt(data, 0); err != nil { // past the gate, straight into the store
		t.Fatal(err)
	}
	offset := func(id uint64) int64 { return int64((id-2)%4) * 64 << 10 }
	var reads []byte
	for id := uint64(2); id < 10; id++ {
		reads = append(reads, frame(id, wireRead, str("gated"), i64(offset(id)), u32(mib))...)
	}
	if _, err := raw.Write(reads); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); g.entered() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d chunk reads reached the store at once, want 4: one per I/O rank", g.entered())
		}
	}
	time.Sleep(200 * time.Millisecond)
	if n := g.entered(); n != 4 {
		t.Fatalf("%d chunk reads reached the store before any reply was written, want 4", n)
	}
	// Each reply read off the socket lets the writer finish it and release
	// its chunk of the window; the second round fills as they go.
	for range 8 {
		id, status, body, err := readRawFrame(raw)
		if err != nil || status != wireOK || len(body) != 4+mib {
			t.Fatalf("reply %d: status %d, %d bytes, err %v", id, status, len(body), err)
		}
		if off := offset(id); !bytes.Equal(body[4:], data[off:off+mib]) {
			t.Fatalf("reply %d: not the bytes at %d", id, off)
		}
	}

	fb, err := dial(t, srv, "b").OpenBackend("f")
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(2*mib, 5)
	if _, err := fb.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	flood := sameHostHello(t, srv.Addr(), "a")
	defer flood.Close()
	flood.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	if _, err := flood.Write(frame(1, wireOpen, str("small"))); err != nil {
		t.Fatal(err)
	}
	if _, err := flood.Write(frame(2, wireWrite, str("small"), i64(0), blob(pattern(4<<10, 4)))); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, status, _, err := readRawFrame(flood); err != nil || status != wireOK {
			t.Fatalf("open and write: status %d, err %v", status, err)
		}
	}
	var small []byte
	for i := range 4096 {
		small = append(small, frame(uint64(3+i), wireRead, str("small"), i64(0), u32(4<<10))...)
	}
	// At least a reply queue's worth of the flood is served before b starts.
	// The count is taken before the flood goes out: the daemon serves only
	// about that much more before the flood parks its reader.
	served := bytesOut(mon, "a")
	floodStart := served.Value()
	go flood.Write(small) //nolint:errcheck // the daemon stops reading it; closing the connection ends the write
	waitCount(t, served, floodStart+64*4<<10, "bytes read from the store for the flood")
	within(t, 5*time.Second, "tenant b's reads beside a flood of eager reads", func() { acrossRanks(t, fb, want) })
	flood.Close()
}

// TestSessionKeepsOneChunkPerRankInFlight: on a daemon with eight I/O ranks,
// one session's eight concurrent chunk writes, one per rank, are all in the
// store at once (a gate opens only then). The daemon's tenant window is the
// only meter, so a client that held its own writes to a smaller window would
// leave the gate short and fail them.
func TestSessionKeepsOneChunkPerRankInFlight(t *testing.T) {
	store, gates := gatedStore("a/f", 8)
	srv := startDaemon(t, server.Config{Factory: store, StripeFactor: 8, Tenants: []server.Tenant{{Name: "a"}}})
	f, err := dial(t, srv, "a").OpenBackend("f")
	if err != nil {
		t.Fatal(err)
	}
	<-gates
	data := pattern(mib, 6)
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Cells 0..7 of one file land on eight distinct ranks.
			if _, err := f.WriteAt(data, int64(i)*64<<10); err != nil {
				t.Errorf("chunk write %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
}

// cutStore is a daemon's store that counts its reads and writes and, once
// gated is set, holds each at the gate until open is closed; reached is
// closed when the first one arrives.
type cutStore struct {
	pfs.Backend
	gated         atomic.Bool
	once          sync.Once
	reached, open chan struct{}
	reads, writes atomic.Int64
}

func (c *cutStore) wait() {
	if c.gated.Load() {
		c.once.Do(func() { close(c.reached) })
		<-c.open
	}
}

func (c *cutStore) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	c.wait()
	return c.Backend.ReadAt(p, off)
}

func (c *cutStore) WriteAt(p []byte, off int64) (int, error) {
	c.writes.Add(1)
	c.wait()
	return c.Backend.WriteAt(p, off)
}

// TestCutSkipsQueuedRequests: on a daemon with one I/O rank, a session's
// reads (or writes) queue behind one held at the store when its connection
// is cut, and the client's resends queue behind those. None of the cut
// connection's queued requests reaches the store once the gate opens: the
// store sees the one in flight at the cut and the resends, and every resend
// lands byte-identical.
func TestCutSkipsQueuedRequests(t *testing.T) {
	for _, op := range []string{"read", "write"} {
		t.Run(op, func(t *testing.T) { cutQueued(t, op == "write") })
	}
}

func cutQueued(t *testing.T, write bool) {
	const n, size = 6, 64 << 10
	mon := dsmon.New()
	store := &cutStore{Backend: pfs.NewMemBackend(), reached: make(chan struct{}), open: make(chan struct{})}
	srv := startDaemon(t, server.Config{
		StripeFactor: 1,
		Factory:      func(string) (pfs.Backend, error) { return store, nil },
		Tenants:      []server.Tenant{{Name: "a"}},
		Monitor:      mon,
	})
	cli, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "a", ReconnectPause: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	b, err := cli.OpenBackend("f")
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(n*size, 7)
	if !write {
		if _, err := b.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
	}

	requests := mon.Registry().Counter("dstreamd_requests_total", "", "tenant", "a")
	base := requests.Value()
	store.reads.Store(0)
	store.writes.Store(0)
	store.gated.Store(true)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := int64(i * size)
			if write {
				if _, err := b.WriteAt(want[off:off+size], off); err != nil {
					t.Errorf("write at %d: %v", off, err)
				}
				return
			}
			p := make([]byte, size)
			if _, err := b.ReadAt(p, off); err != nil || !bytes.Equal(p, want[off:off+size]) {
				t.Errorf("read at %d: %v, bytes equal %v", off, err, bytes.Equal(p, want[off:off+size]))
			}
		}()
	}
	<-store.reached
	waitCount(t, requests, base+n, "requests served before the cut")
	srv.KillConnections()
	// The resends come in on the next connection and queue on the same rank.
	waitCount(t, requests, base+2*n, "requests served after the cut")
	close(store.open)
	wg.Wait()

	what, got := "read", store.reads.Load()
	if write {
		what, got = "write", store.writes.Load()
	}
	if got != n+1 {
		t.Fatalf("%d %ss reached the store, want %d: the one held at the cut and %d resends, none of the cut connection's queued ones",
			got, what, n+1, n)
	}
	if write {
		store.gated.Store(false)
		back := make([]byte, n*size)
		if _, err := b.ReadAt(back, 0); err != nil || !bytes.Equal(back, want) {
			t.Fatalf("file after the resent writes: %v, bytes equal %v", err, bytes.Equal(back, want))
		}
	}
}

// ask sends one request over c and fails t unless its reply is OK.
func ask(t *testing.T, c net.Conn, req []byte) []byte {
	t.Helper()
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	_, status, body, err := readRawFrame(c)
	if err != nil || status != wireOK {
		t.Fatalf("reply: status %d, err %v, body %q", status, err, body)
	}
	return body
}

// TestLateStoreAfterResume: a write of a cut connection, parked in the tenant
// window's admission, is dropped when it is admitted after its session
// resumed over another connection; stored, it would land over the resend and
// over what the client has written there since. On a daemon with one I/O
// rank, a read on a second connection that does not read its reply holds the
// whole window (its writer releases the share only once the reply is out);
// an 8 KiB write on the first connection then parks in admission. The client
// leaves that connection (the daemon sees no hang-up), resumes, resends that
// write and writes newer bytes over the same range, both in eager pieces the
// window does not meter, every one answered. Then the stalled reply is
// drained, the window frees, and the parked write is admitted: the store
// sees the four eager pieces and nothing else, the first connection's
// handler returns, and the range reads back as the newest bytes.
func TestLateStoreAfterResume(t *testing.T) {
	const at, size, half = 2 * mib, 8 << 10, 4 << 10
	mon := dsmon.New()
	store := &cutStore{Backend: pfs.NewMemBackend()}
	srv := startDaemon(t, server.Config{
		StripeFactor: 1,
		Factory:      func(string) (pfs.Backend, error) { return store, nil },
		Tenants:      []server.Tenant{{Name: "a"}},
		Monitor:      mon,
	})
	c1, token := resumeOn(t, "tcp", srv.Addr(), "a", "")
	defer c1.Close()
	ask(t, c1, frame(1, wireOpen, str("f")))
	ask(t, c1, frame(2, wireWrite, str("f"), i64(0), blob(pattern(mib, 1))))
	store.writes.Store(0)

	// A reply of a whole chunk that nobody reads holds the whole window.
	stall := sameHostHello(t, srv.Addr(), "a")
	defer stall.Close()
	ask(t, stall, frame(1, wireOpen, str("f")))
	if _, err := stall.Write(frame(2, wireRead, str("f"), i64(0), u32(mib))); err != nil {
		t.Fatal(err)
	}
	waitCount(t, bytesOut(mon, "a"), mib, "bytes read from the store for the stalled reply")

	requests := mon.Registry().Counter("dstreamd_requests_total", "", "tenant", "a")
	stale, resent, newer := pattern(size, 2), pattern(size, 2), pattern(size, 3)
	base := requests.Value()
	if _, err := c1.Write(frame(3, wireWrite, str("f"), i64(at), blob(stale))); err != nil {
		t.Fatal(err)
	}
	waitCount(t, requests, base+1, "the write to park served")
	// The cut: the client gives up on the first connection, which the daemon
	// does not see go — a cut on the client's leg alone, as a relay's can be.
	// So nothing on the daemon's side of it stops its reader or its writer.

	c2, _ := resumeOn(t, "tcp", srv.Addr(), "a", token)
	defer c2.Close()
	for i, p := range [][]byte{resent, newer} {
		for h := 0; h < size; h += half {
			ask(t, c2, frame(uint64(10+2*i+h/half), wireWrite, str("f"), i64(at+int64(h)), blob(p[h:h+half])))
		}
	}

	if _, _, body, err := readRawFrame(stall); err != nil || len(body) < mib {
		t.Fatalf("stalled reply: %d bytes, %v", len(body), err)
	}
	// The window frees and the parked write is admitted. The first
	// connection's handler returns only once that request has had its reply
	// through the writer — the rank has dropped it or stored it — and the
	// resume has already closed its socket.
	conns := mon.Registry().Gauge("dstreamd_connections_active", "client connections currently attached")
	for deadline := time.Now().Add(10 * time.Second); conns.Value() != 2 && store.writes.Load() == 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v connections attached after the drain, want 2: the first outlived its resume", conns.Value())
		}
	}
	body := ask(t, c2, frame(20, wireRead, str("f"), i64(at), u32(size)))
	if n := store.writes.Load(); n != 4 {
		t.Fatalf("%d writes reached the store after the stall, want the 4 eager pieces: the left connection's parked write was stored", n)
	}
	if len(body) < size || !bytes.Equal(body[len(body)-size:], newer) {
		t.Fatalf("range after the late admission: %d bytes, the newest write's %v", len(body), len(body) >= size && bytes.Equal(body[len(body)-size:], newer))
	}
}
