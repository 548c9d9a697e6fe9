//go:build linux

package server_test

import (
	"bytes"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/server"
)

// FuzzServerConn feeds arbitrary bytes to two live daemon connections, each
// after a valid hello and an open (so that well-formed writes and reads among
// them reach the I/O ranks): a v1 connection over TCP, and a v2 connection
// over the same-host socket that was granted shared chunks. The daemon must
// not panic, every pooled buffer it took must be back once the connection is
// gone, and a well-behaved client of another tenant on the same daemon must
// still round-trip a write and a read. The corpus under testdata/fuzz holds
// the frames the decoder's bounds are about: a length prefix of 0xFFFFFFFF
// and one of 8, a write whose declared data length disagrees with its frame
// in either direction, reads and writes above the chunk limit, a head above
// maxHead, frames cut short. The seeds added below are the chunk ops' bounds:
// a chunk index of N and of 2^32-1, a transfer above a chunk, one chunk named
// by two requests at once, and a well-formed chunk write and read — which the
// TCP connection, having no chunks, must refuse too.
func FuzzServerConn(f *testing.F) {
	srv, err := server.Start("127.0.0.1:0", server.Config{
		// The quota keeps a fuzzed offset or truncate from growing the store.
		Tenants: []server.Tenant{{Name: "fuzz", QuotaBytes: mib}, {Name: "good"}},
		Grace:   50 * time.Millisecond, // one abandoned session per input
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	good, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "good"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { good.Close() })
	b, err := good.OpenBackend("g")
	if err != nil {
		f.Fatal(err)
	}
	want, got := pattern(64<<10, 9), make([]byte, 64<<10)
	chunkOp := func(op byte, k, n uint32) []byte { return frame(2, op, str("f"), i64(0), u32(n), u32(k)) }
	for _, seed := range [][]byte{
		chunkOp(wireWriteChunk, 8, 4),
		chunkOp(wireReadChunk, ^uint32(0), 4),
		chunkOp(wireWriteChunk, 0, mib+1),
		chunkOp(wireReadChunk, 0, mib+1),
		append(chunkOp(wireWriteChunk, 1, mib), chunkOp(wireReadChunk, 1, mib)...),
		append(chunkOp(wireWriteChunk, 0, 16), chunkOp(wireReadChunk, 1, 16)...),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		base := bufpool.Stats().Outstanding
		for _, c := range []interface {
			net.Conn
			CloseWrite() error
		}{rawHello(t, srv.Addr(), "fuzz").(*net.TCPConn), chunkHello(t, srv.Addr(), "fuzz")} {
			c.SetDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck
			if _, err := c.Write(frame(1, wireOpen, str("f"))); err != nil {
				t.Fatal(err)
			}
			if _, status, _, err := readRawFrame(c); err != nil || status != wireOK {
				t.Fatalf("open: status %d, err %v", status, err)
			}
			// Replies are drained as the input goes out, so that neither side
			// stalls on a full socket; half-closing then lets the daemon read
			// the input to its end before it sees the connection go.
			drained := make(chan struct{})
			go func() {
				io.Copy(io.Discard, c) //nolint:errcheck
				close(drained)
			}()
			c.Write(data)  //nolint:errcheck // the daemon may hang up mid-input
			c.CloseWrite() //nolint:errcheck
			<-drained
			c.Close()
			waitOutstanding(t, base, "after the fuzzed "+c.RemoteAddr().Network()+" connection")
		}

		if _, err := b.WriteAt(want, 0); err != nil {
			t.Fatalf("well-behaved write after the fuzzed connection: %v", err)
		}
		if _, err := b.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("well-behaved read after the fuzzed connection: %v, equal %v", err, bytes.Equal(got, want))
		}
		waitOutstanding(t, base, "after the well-behaved round trip")
	})
}

// replyServer is a stand-in daemon for FuzzClientReply: it completes hello
// and open properly and answers every read request with whatever bytes it was
// told to, then hangs up. After a few connections it refuses hello outright,
// which ends the client's reconnecting with a permanent error rather than by
// running down its budget.
type replyServer struct {
	ln net.Listener
	// chunks makes it answer hello as a v2 daemon granting two shared
	// chunks, each filled with 0xC5, which the client's read names.
	chunks bool

	mu    sync.Mutex
	reply []byte
	conns int
}

const replyServerConns = 3

func (rs *replyServer) arm(reply []byte) {
	rs.mu.Lock()
	rs.reply, rs.conns = reply, 0
	rs.mu.Unlock()
}

func (rs *replyServer) serve() {
	for {
		c, err := rs.ln.Accept()
		if err != nil {
			return
		}
		go rs.handle(c)
	}
}

func (rs *replyServer) handle(c net.Conn) {
	defer c.Close()
	c.SetDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck
	id, op, _, err := readRawFrame(c)
	if err != nil || op != wireHello {
		return
	}
	rs.mu.Lock()
	rs.conns++
	reply, refuse := rs.reply, rs.conns > replyServerConns
	rs.mu.Unlock()
	if refuse {
		c.Write(frame(id, wireAuth, str("replyServer: enough"))) //nolint:errcheck
		return
	}
	if rs.chunks {
		fd, mem, err := server.NewChunkFile(2)
		if err != nil {
			return
		}
		defer syscall.Munmap(mem) //nolint:errcheck
		for i := range mem {
			mem[i] = 0xC5
		}
		// token, version, features, N, chunk size; the file alongside
		hello := frame(id, wireOK, str("tok"), u32(wireVersion), u32(featSharedChunks), u32(2), u32(mib))
		c.(*net.UnixConn).WriteMsgUnix(hello, syscall.UnixRights(fd), nil) //nolint:errcheck
		syscall.Close(fd)
	} else {
		// token, window, quota, used, resumed, eager split
		c.Write(frame(id, wireOK, str("tok"), i64(4<<20), i64(0), i64(0), []byte{0}, u32(4096))) //nolint:errcheck
	}
	for {
		id, op, _, err := readRawFrame(c)
		if err != nil {
			return
		}
		switch op {
		case wireOpen:
			// size, stripe unit, stripe factor
			c.Write(frame(id, wireOK, i64(0), i64(64<<10), u32(4))) //nolint:errcheck
		case wireRead, wireReadChunk:
			c.Write(reply) //nolint:errcheck
			return
		default:
			return
		}
	}
}

// FuzzClientReply answers a pending ReadAt with arbitrary bytes, once over
// TCP, where the read is framed, and once over a same-host socket that
// granted shared chunks, where the read hands over chunk 0. The client must
// not panic, must not write outside the caller's buffer, and must end in
// data, a clean error or a reconnect — never a hang. The read is request id 1
// for 32 bytes; the corpus holds a well-formed reply of each status, a reply
// with more data than was asked for, one whose data length disagrees with its
// frame, length prefixes of 0xFFFFFFFF and 8, a reply to another id, and
// replies cut short. The seeds added below are chunk replies: well-formed, at
// EOF, with more data than was asked for, with a body of the wrong length,
// and one naming chunk 1, which the client did not hand over — a corrupt
// stream, which the client answers by reconnecting.
func FuzzClientReply(f *testing.F) {
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	rs := &replyServer{ln: tcp}
	go rs.serve()
	f.Cleanup(func() { tcp.Close() })
	// The chunk server's socket is named after a port this listener holds.
	port, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { port.Close() })
	unix, err := net.Listen("unix", "@dstreamd/"+port.Addr().String())
	if err != nil {
		f.Fatal(err)
	}
	crs := &replyServer{ln: unix, chunks: true}
	go crs.serve()
	f.Cleanup(func() { unix.Close() })
	for _, seed := range [][]byte{
		frame(1, wireOK, u32(0), u32(32)),
		frame(1, wireEOF, u32(0), u32(7)),
		frame(1, wireOK, u32(0), u32(33)),
		frame(1, wireOK, u32(0), u32(32), u32(0)),
		frame(1, wireOK, u32(1), u32(32)),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, reply []byte) {
		for _, rs := range []*replyServer{rs, crs} {
			addr := tcp.Addr().String()
			if rs.chunks {
				addr = port.Addr().String()
			}
			readReply(t, rs, addr, reply)
		}
	})
}

// readReply is one FuzzClientReply input against one reply server.
func readReply(t *testing.T, rs *replyServer, addr string, reply []byte) {
	rs.arm(reply)
	cli, err := server.Dial(addr, server.ClientConfig{
		Tenant:          "t",
		ReconnectBudget: 2 * time.Second,
		ReconnectPause:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	b, err := cli.OpenBackend("f")
	if err != nil {
		t.Fatal(err)
	}
	p, checkGuards := guarded(t, 32, 0xEE)
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := b.ReadAt(p, 0)
		done <- result{n, err}
	}()
	select {
	case r := <-done:
		checkGuards()
		if r.n < 0 || r.n > len(p) || (r.err == nil && r.n != len(p)) {
			t.Fatalf("ReadAt = %d, %v for a %d-byte buffer", r.n, r.err, len(p))
		}
	case <-time.After(20 * time.Second):
		t.Fatal("ReadAt hung on a fuzzed reply")
	}
}
