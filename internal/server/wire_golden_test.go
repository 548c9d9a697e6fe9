//go:build linux

package server_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire_frames_v2.golden from this build's encoders")

// partialBackend fails every transfer transiently after moving a few bytes:
// the reply shape that carries a message and partial progress at once.
type partialBackend struct{ pfs.Backend }

func (b partialBackend) ReadAt(p []byte, off int64) (int, error) {
	n := copy(p, "abc")
	return n, fmt.Errorf("%w: injected short read", pfs.ErrTransient)
}

func (b partialBackend) WriteAt(p []byte, off int64) (int, error) {
	return 2, fmt.Errorf("%w: injected short write", pfs.ErrTransient)
}

// goldenDaemon starts the daemon the wire goldens were recorded against: a
// tenant with a 1 MiB quota, and a file "flaky" whose every transfer fails
// transiently after moving a few bytes.
func goldenDaemon(t *testing.T) *server.Server {
	return startDaemon(t, server.Config{
		Factory: func(name string) (pfs.Backend, error) {
			if strings.HasSuffix(name, "/flaky") {
				return partialBackend{pfs.NewMemBackend()}, nil
			}
			return pfs.NewMemBackend(), nil
		},
		Tenants: []server.Tenant{{Name: "gold", QuotaBytes: 1 << 20}},
	})
}

// goldenCalls drives every op through cli — open, write, read, a read across
// EOF, size, truncate, usage, a quota reject, a permanent error, transient
// replies with partial progress — and closes it, which says bye.
func goldenCalls(t *testing.T, cli *server.Client) {
	t.Helper()
	b, err := cli.OpenBackend("data")
	if err != nil {
		t.Fatal(err)
	}
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error", what)
		}
	}
	_, err = b.WriteAt([]byte("0123456789"), 0)
	must("write", err)
	buf := make([]byte, 10)
	_, err = b.ReadAt(buf, 0)
	must("read", err)
	_, err = b.ReadAt(make([]byte, 20), 5) // 5 bytes and EOF
	wantErr("read across EOF", err)
	if got := b.Size(); got != 10 {
		t.Fatalf("Size = %d", got)
	}
	must("truncate", b.Truncate(4))
	_, _, err = cli.Usage()
	must("usage", err)
	_, err = b.WriteAt([]byte{1}, 1<<20) // quota reject
	wantErr("over-quota write", err)
	_, err = b.WriteAt([]byte{1}, -1) // permanent error
	wantErr("negative-offset write", err)
	fl, err := cli.OpenBackend("flaky")
	must("open flaky", err)
	_, err = fl.ReadAt(make([]byte, 8), 0) // transient, 3 bytes of progress
	wantErr("transient read", err)
	_, err = fl.WriteAt([]byte("wxyz"), 0) // transient, 2 bytes of progress
	wantErr("transient write", err)
	cli.Close()
}

// goldenExchanges is how many frames each way goldenCalls makes: hello, the
// twelve calls, bye.
const goldenExchanges = 14

// maskToken overwrites the random 32-character resume token a hello reply
// opens with (prefix, id, status, u32 length: 17 bytes in).
func maskToken(fr []byte) { copy(fr[17:17+32], bytes.Repeat([]byte("T"), 32)) }

// dumpFrames renders frames as a golden file does: "> " and the hex of each
// request, then "< " and the hex of each reply.
func dumpFrames(up, down [][]byte) string {
	var out strings.Builder
	for _, fr := range up {
		fmt.Fprintf(&out, "> %s\n", hex.EncodeToString(fr))
	}
	for _, fr := range down {
		fmt.Fprintf(&out, "< %s\n", hex.EncodeToString(fr))
	}
	return out.String()
}

// loadGolden reads a golden file's requests and replies.
func loadGolden(t *testing.T, name string) (up, down [][]byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		fr, err := hex.DecodeString(line[2:])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if line[0] == '>' {
			up = append(up, fr)
		} else {
			down = append(down, fr)
		}
	}
	return up, down
}

// checkGolden compares a dump with testdata/name, or rewrites it under
// -update if it may: the v1 golden never may.
func checkGolden(t *testing.T, name, got string, mayUpdate bool) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden && mayUpdate {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("wire frames differ from %s\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestWireGolden pins the bytes on the wire.
//
// v1 is testdata/wire_frames.golden, generated by the encoders of the commit
// before the data path was rebuilt (`go test -run TestWireGolden
// -update` there) and never regenerated since. Its requests, replayed raw
// against this daemon, must draw its replies byte for byte: a v1 client of
// any age is answered as it always was. And this client, over TCP, must still
// send exactly those requests and read those replies through a recording
// relay — the TCP path's frames are v1's.
//
// v2 is testdata/wire_frames_v2.golden: a v2 hello on the same-host socket,
// granted shared chunks, and chunk ops of every reply shape — written and
// read back, a read across EOF, a transient read whose partial data rides in
// the frame, a transient write, a chunk past N refused — then bye.
func TestWireGolden(t *testing.T) {
	t.Run("v1", func(t *testing.T) {
		srv := goldenDaemon(t)
		up, down := loadGolden(t, "wire_frames.golden")
		c := rawConn(t, "tcp", srv.Addr())
		for i, req := range up {
			if _, err := c.Write(req); err != nil {
				t.Fatal(err)
			}
			fr := readWholeFrame(t, c)
			if i == 0 {
				maskToken(fr)
			}
			if !bytes.Equal(fr, down[i]) {
				t.Fatalf("reply %d to the committed v1 request %x:\n got %x\nwant %x", i, req, fr, down[i])
			}
		}
	})

	t.Run("v1 client over TCP", func(t *testing.T) {
		rl := startRelay(t, goldenDaemon(t).Addr())
		cli, err := server.Dial(rl.addr(), server.ClientConfig{Tenant: "gold"})
		if err != nil {
			t.Fatal(err)
		}
		goldenCalls(t, cli)
		// Close does not wait for bye's reply; the relay sees it cross.
		var up, down [][]byte
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			upStream, downStream := rl.streams()
			var upRest, downRest []byte
			up, upRest = splitFrames(upStream)
			down, downRest = splitFrames(downStream)
			if len(down) == goldenExchanges && len(upRest)+len(downRest) == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d requests crossed the relay and %d replies, want %d of each, whole",
					len(up), len(down), goldenExchanges)
			}
		}
		maskToken(down[0])
		checkGolden(t, "wire_frames.golden", dumpFrames(up, down), false)
	})

	t.Run("v2", func(t *testing.T) {
		cc := chunkHello(t, goldenDaemon(t).Addr(), "gold")
		up, down := [][]byte{cc.hello}, [][]byte{cc.helloReply}
		maskToken(down[0])
		send := func(req []byte) {
			t.Helper()
			if _, err := cc.Write(req); err != nil {
				t.Fatal(err)
			}
			up, down = append(up, req), append(down, readWholeFrame(t, cc))
		}
		send(frame(1, wireOpen, str("data")))
		copy(cc.chunk(3), "0123456789")
		send(frame(2, wireWriteChunk, str("data"), i64(0), u32(10), u32(3)))
		send(frame(3, wireReadChunk, str("data"), i64(0), u32(10), u32(5)))
		if got := string(cc.chunk(5)[:10]); got != "0123456789" {
			t.Fatalf("chunk 5 after the read: %q", got)
		}
		send(frame(4, wireReadChunk, str("data"), i64(5), u32(20), u32(0))) // 5 bytes and EOF
		send(frame(5, wireOpen, str("flaky")))
		send(frame(6, wireReadChunk, str("flaky"), i64(0), u32(8), u32(1))) // transient, 3 bytes in the frame
		copy(cc.chunk(2), "wxyz")
		send(frame(7, wireWriteChunk, str("flaky"), i64(0), u32(4), u32(2))) // transient, 2 bytes of progress
		send(frame(8, wireWriteChunk, str("data"), i64(0), u32(4), u32(uint32(cc.n))))
		send(frame(9, wireBye))
		checkGolden(t, "wire_frames_v2.golden", dumpFrames(up, down), true)
	})
}

// TestClientAgainstV1Daemon is a new client on the same-host socket of a
// daemon that answers v1: it replays the committed v1 replies, and ignores
// the trailing bytes of the hello as a daemon from before v2 does. The
// client's v2 hello is the committed v1 hello with the version and features
// behind it; granted no chunks, it falls back to frames, and every other
// request it sends is the committed one. It never holds a run of chunks as
// a read buffer.
func TestClientAgainstV1Daemon(t *testing.T) {
	up, down := loadGolden(t, "wire_frames.golden")
	tcp, err := net.Listen("tcp", "127.0.0.1:0") // holds the port the socket is named after
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	ln, err := net.Listen("unix", "@dstreamd/"+tcp.Addr().String())
	if err != nil {
		t.Skipf("no same-host socket: %v", err)
	}
	defer ln.Close()
	got := make(chan [][]byte, 1)
	go func() {
		var sent [][]byte
		defer func() { got <- sent }()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for i := range down {
			id, tag, body, err := readRawFrame(c)
			if err != nil {
				return
			}
			sent = append(sent, frame(id, tag, body))
			c.Write(down[i]) //nolint:errcheck
		}
	}()
	cli, err := server.Dial(tcp.Addr().String(), server.ClientConfig{Tenant: "gold"})
	if err != nil {
		t.Fatal(err)
	}
	if n := cli.Network(); n != "unix" {
		t.Fatalf("client on %s, want the same-host socket", n)
	}
	if cli.Buffer(mib) != nil {
		t.Fatal("a session granted no chunks handed out a read buffer")
	}
	goldenCalls(t, cli)
	sent := <-got
	if len(sent) != len(up) {
		t.Fatalf("the client sent %d frames, want %d", len(sent), len(up))
	}
	hello := frame(0, wireHello, up[0][13:], u32(wireVersion), u32(featSharedChunks))
	if !bytes.Equal(sent[0], hello) {
		t.Fatalf("hello %x, want the v1 hello and version 2, shared chunks: %x", sent[0], hello)
	}
	for i := 1; i < len(up); i++ {
		if !bytes.Equal(sent[i], up[i]) {
			t.Fatalf("request %d: %x, want the committed %x", i, sent[i], up[i])
		}
	}
}
