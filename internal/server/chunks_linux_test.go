//go:build linux

package server_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/server"
)

// A same-host client's reads and writes hand their data over in shared
// chunks: a sealed memfd the daemon passes at hello, mapped on both sides.
// These tests pin the handshake, the refusals that keep a chunk with one
// owner, the seal, and that every mapping goes away with its connection.

// The v2 hello and the chunk ops, restated (wire.go).
const (
	wireVersion      = 2
	featSharedChunks = 1
	wireReadChunk    = 9
	wireWriteChunk   = 10
	wireBye          = 8
	wireEOF          = 1
)

// chunkCounters are the daemon's counts of transfers by the way their data
// crossed.
func chunkCounters(mon *dsmon.Monitor) (chunked, noChunk, noMapping *dsmon.Counter) {
	reg := mon.Registry() // keyed on name and labels: the daemon's help stands
	return reg.Counter("dstreamd_chunk_transfers_total", ""),
		reg.Counter("dstreamd_inline_transfers_total", "", "reason", "no_chunk"),
		reg.Counter("dstreamd_inline_transfers_total", "", "reason", "no_mapping")
}

// chunkConn is a raw v2 connection that was granted shared chunks: the
// socket, the chunk file the hello reply carried, and this side's mapping.
type chunkConn struct {
	*net.UnixConn
	fd  int
	n   int
	mem []byte
	// hello and helloReply are the handshake's frames, whole.
	hello, helloReply []byte
}

func (cc *chunkConn) chunk(k int) []byte { return cc.mem[k*mib : (k+1)*mib] }

// chunkHello dials the same-host socket of the daemon at addr, sends a v2
// hello for tenant asking for shared chunks, and maps the chunk file that
// comes back. Everything is released at the end of the test.
func chunkHello(t testing.TB, addr, tenant string) *chunkConn {
	t.Helper()
	c, err := net.Dial("unix", "@dstreamd/"+addr)
	if err != nil {
		t.Fatal(err)
	}
	uc := c.(*net.UnixConn)
	hello := frame(0, wireHello, str(tenant), str(""), u32(wireVersion), u32(featSharedChunks))
	if _, err := uc.Write(hello); err != nil {
		t.Fatal(err)
	}
	uc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	// One sendmsg carries the whole reply and the file.
	buf, oob := make([]byte, 512), make([]byte, syscall.CmsgSpace(4))
	n, oobn, _, _, err := uc.ReadMsgUnix(buf, oob)
	if err != nil {
		t.Fatal(err)
	}
	_, status, body, err := readRawFrame(bytes.NewReader(buf[:n]))
	if err != nil || status != wireOK {
		t.Fatalf("v2 hello: status %d, err %v", status, err)
	}
	msgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
	if err != nil || len(msgs) != 1 {
		t.Fatalf("v2 hello reply carried %d control messages (%v), want the chunk file", len(msgs), err)
	}
	fds, err := syscall.ParseUnixRights(&msgs[0])
	if err != nil || len(fds) != 1 {
		t.Fatalf("v2 hello reply carried %d files (%v), want 1", len(fds), err)
	}
	// token, version, features, N, chunk size
	rest := body[4+binary.LittleEndian.Uint32(body):]
	if len(rest) != 16 || binary.LittleEndian.Uint32(rest) != wireVersion ||
		binary.LittleEndian.Uint32(rest[4:]) != featSharedChunks || binary.LittleEndian.Uint32(rest[12:]) != mib {
		t.Fatalf("v2 hello reply fields behind the token: %x", rest)
	}
	cc := &chunkConn{UnixConn: uc, fd: fds[0], n: int(binary.LittleEndian.Uint32(rest[8:])),
		hello: hello, helloReply: buf[:n]}
	if cc.mem, err = syscall.Mmap(cc.fd, 0, cc.n*mib, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		uc.Close()
		syscall.Munmap(cc.mem) //nolint:errcheck
		syscall.Close(cc.fd)
	})
	return cc
}

// rawConn dials addr on network, with a deadline and no hello.
func rawConn(t testing.TB, network, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	t.Cleanup(func() { c.Close() })
	return c
}

// readWholeFrame reads one frame, its length prefix included.
func readWholeFrame(t testing.TB, c net.Conn) []byte {
	t.Helper()
	id, tag, body, err := readRawFrame(c)
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	return frame(id, tag, body)
}

// exchange sends one request and reads one reply.
func exchange(t testing.TB, c net.Conn, req []byte) (id uint64, status byte, body []byte) {
	t.Helper()
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	id, status, body, err := readRawFrame(c)
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	return id, status, body
}

// TestChunkTransfers: a same-host session moves its data in shared chunks,
// none framed, and reads back what it wrote, in transfers below, at and
// above a chunk; a TCP session moves the same data framed.
func TestChunkTransfers(t *testing.T) {
	mon := dsmon.New()
	cfg := server.Config{Tenants: []server.Tenant{{Name: "a"}}, Monitor: mon}
	srv := startDaemon(t, cfg)
	chunked, noChunk, noMapping := chunkCounters(mon)
	roundTrip := func(t *testing.T, cli *server.Client) {
		b, err := cli.OpenBackend("f")
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{100, mib, 3*mib + 17} {
			want := pattern(n, byte(n))
			if _, err := b.WriteAt(want, 5); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, n)
			if _, err := b.ReadAt(got, 5); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%d bytes: read back %v, equal %v", n, err, bytes.Equal(got, want))
			}
		}
		if n, err := b.ReadAt(make([]byte, 64), 3*mib); n != 22 || err == nil {
			t.Fatalf("read across EOF = %d, %v; want 22 and EOF", n, err)
		}
	}
	roundTrip(t, dial(t, srv, "a"))
	// Per round trip: 1 + 1 + 4 chunks each way, and the read across EOF.
	if chunked.Value() != 13 || noChunk.Value()+noMapping.Value() != 0 {
		t.Fatalf("same-host session: %d chunk transfers, %d + %d framed; want 13 and none",
			chunked.Value(), noChunk.Value(), noMapping.Value())
	}
	proxied, err := server.Dial(startRelay(t, srv.Addr()).addr(), server.ClientConfig{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer proxied.Close()
	roundTrip(t, proxied)
	if chunked.Value() != 13 || noMapping.Value() != 13 || noChunk.Value() != 0 {
		t.Fatalf("TCP session: %d chunk transfers, %d framed without a mapping, %d without a free chunk; want 13, 13, 0",
			chunked.Value(), noMapping.Value(), noChunk.Value())
	}
}

// holdBackend parks every write until release is closed.
type holdBackend struct {
	pfs.Backend
	entered chan struct{}
	release chan struct{}
}

func (b *holdBackend) WriteAt(p []byte, off int64) (int, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Backend.WriteAt(p, off)
}

// TestChunkOpsRefused: a chunk op the daemon cannot take over is answered
// with a permanent error, never served and never a panic — a chunk past the
// connection's N, a transfer above a chunk, a chunk another request still
// holds, and any chunk op on a connection without shared chunks (TCP, or a
// v1 hello on the same-host socket). The connection stays in frame, and the
// held chunk's own request completes.
func TestChunkOpsRefused(t *testing.T) {
	hold := &holdBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := startDaemon(t, server.Config{
		Factory: func(name string) (pfs.Backend, error) {
			if strings.HasSuffix(name, "/held") {
				hold.Backend = pfs.NewMemBackend()
				return hold, nil
			}
			return pfs.NewMemBackend(), nil
		},
		Tenants: []server.Tenant{{Name: "a"}},
	})
	cc := chunkHello(t, srv.Addr(), "a")
	if cc.n != 16 {
		t.Fatalf("N = %d on a daemon of 4 I/O ranks, want 16", cc.n)
	}
	for id, name := range []string{"f", "held"} {
		if _, status, _ := exchange(t, cc, frame(uint64(id+1), wireOpen, str(name))); status != wireOK {
			t.Fatalf("open %s: status %d", name, status)
		}
	}
	refused := func(c net.Conn, what string, req []byte) {
		t.Helper()
		id, status, body := exchange(t, c, req)
		if want := binary.LittleEndian.Uint64(req[4:]); id != want || status != wireErr {
			t.Fatalf("%s: reply id %d status %d (%q), want id %d and a permanent error", what, id, status, body, want)
		}
	}
	refused(cc, "a write naming chunk N", frame(3, wireWriteChunk, str("f"), i64(0), u32(8), u32(uint32(cc.n))))
	refused(cc, "a read naming chunk 2^32-1", frame(4, wireReadChunk, str("f"), i64(0), u32(8), u32(^uint32(0))))
	refused(cc, "a write above a chunk", frame(5, wireWriteChunk, str("f"), i64(0), u32(mib+1), u32(0)))
	refused(cc, "a read above a chunk", frame(6, wireReadChunk, str("f"), i64(0), u32(mib+1), u32(0)))

	copy(cc.chunk(1), "held data")
	if _, err := cc.Write(frame(7, wireWriteChunk, str("held"), i64(0), u32(9), u32(1))); err != nil {
		t.Fatal(err)
	}
	<-hold.entered
	refused(cc, "a write naming a chunk the daemon holds", frame(8, wireWriteChunk, str("f"), i64(0), u32(4), u32(1)))
	refused(cc, "a read naming a chunk the daemon holds", frame(9, wireReadChunk, str("f"), i64(0), u32(4), u32(1)))
	close(hold.release)
	if id, status, body := exchange(t, cc, frame(10, wireReadChunk, str("held"), i64(0), u32(9), u32(2))); id != 7 || status != wireOK {
		t.Fatalf("the held chunk's write: reply id %d status %d (%q)", id, status, body)
	}
	if id, status, body, err := readRawFrame(cc); err != nil || id != 10 || status != wireOK ||
		!bytes.Equal(body, append(u32(2), u32(9)...)) || string(cc.chunk(2)[:9]) != "held data" {
		t.Fatalf("read into chunk 2: id %d status %d body %x err %v, chunk %q", id, status, body, err, cc.chunk(2)[:9])
	}
	// A write's chunk comes back as it was written, under pooldebug too: it
	// may be a chunk of a run the client holds, which a resend copies from.
	if string(cc.chunk(1)[:9]) != "held data" {
		t.Fatalf("the daemon handed chunk 1 back changed: %q", cc.chunk(1)[:9])
	}

	for _, c := range []net.Conn{rawHello(t, srv.Addr(), "a"), sameHostHello(t, srv.Addr(), "a")} {
		c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		if _, status, _ := exchange(t, c, frame(1, wireOpen, str("f"))); status != wireOK {
			t.Fatalf("open: status %d", status)
		}
		refused(c, "a write naming a chunk on a "+c.RemoteAddr().Network()+" v1 connection",
			frame(2, wireWriteChunk, str("f"), i64(0), u32(4), u32(0)))
		refused(c, "a read naming a chunk on a "+c.RemoteAddr().Network()+" v1 connection",
			frame(3, wireReadChunk, str("f"), i64(0), u32(4), u32(0)))
		if _, status, _ := exchange(t, c, frame(4, wireUsage)); status != wireOK {
			t.Fatalf("usage after the refusals: status %d", status)
		}
		c.Close()
	}
}

// TestChunkFileSealed: the file a client receives holds exactly N chunks and
// cannot be resized — ftruncate fails with EPERM whether it would shrink or
// grow it — so no client can make the daemon's mapping fault.
func TestChunkFileSealed(t *testing.T) {
	srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}, StripeFactor: 3})
	cc := chunkHello(t, srv.Addr(), "a")
	var st syscall.Stat_t
	if err := syscall.Fstat(cc.fd, &st); err != nil || st.Size != 12*mib || cc.n != 12 {
		t.Fatalf("chunk file: %d chunks, %d bytes (%v); want 12 of a MiB", cc.n, st.Size, err)
	}
	for _, size := range []int64{0, mib, 13 * mib} {
		if err := syscall.Ftruncate(cc.fd, size); !errors.Is(err, syscall.EPERM) {
			t.Errorf("ftruncate to %d = %v, want EPERM", size, err)
		}
	}
}

// chunkMappings counts this process's mappings of chunk files.
func chunkMappings(t *testing.T) int {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if strings.Contains(sc.Text(), "memfd:dstreamd") {
			n++
		}
	}
	return n
}

// noMappings waits until no chunk mapping of an earlier test is left — a
// closed client unmaps when its readLoop exits, after Close has returned — so
// that a test counting mappings against its own start counts only its own.
func noMappings(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); chunkMappings(t) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d chunk mappings of earlier tests still mapped", chunkMappings(t))
		}
	}
}

// TestChunkMappingsReturn: both sides of every connection unmap its chunks.
// Clients move data across several reconnects, each of which maps a fresh
// set on both sides; after Client.Close and Server.Close the process has as
// many chunk mappings as it started with.
func TestChunkMappingsReturn(t *testing.T) {
	start := chunkMappings(t)
	srv, err := server.Start("127.0.0.1:0", server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(2*mib, 7)
	var clis []*server.Client
	for range 3 {
		cli, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "a", ReconnectPause: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		clis = append(clis, cli)
	}
	for round := range 4 {
		for i, cli := range clis {
			b, err := cli.OpenBackend("f")
			if err != nil {
				t.Fatal(err)
			}
			off := int64(i) * 2 * mib
			if _, err := b.WriteAt(want, off); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if _, err := b.ReadAt(got, off); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("round %d client %d: %v, equal %v", round, i, err, bytes.Equal(got, want))
			}
		}
		if n := chunkMappings(t); n < 2*len(clis) {
			t.Fatalf("round %d: %d chunk mappings, want at least %d", round, n, 2*len(clis))
		}
		srv.KillConnections()
	}
	for _, cli := range clis {
		cli.Close()
	}
	srv.Close()
	// At most: an earlier test's client may still have been letting go of its
	// chunks when this one counted.
	for deadline := time.Now().Add(10 * time.Second); chunkMappings(t) > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d chunk mappings after Close, %d before the daemon started", chunkMappings(t), start)
		}
	}
}
