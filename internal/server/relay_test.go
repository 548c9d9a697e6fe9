package server_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
)

// relay is a loopback TCP proxy between a client and a daemon. It records
// the bytes that cross it in each direction and can sever one connection
// after a set number of reply bytes — a torn frame, the fault a real network
// produces and KillConnections (which cuts between frames as seen from the
// server's writer) cannot.
type relay struct {
	ln     net.Listener
	target string

	mu   sync.Mutex
	up   bytes.Buffer // client → daemon
	down bytes.Buffer // daemon → client
	// cutDown, when positive, is the number of daemon → client bytes to let
	// through before cutting both legs; it applies once and then clears.
	cutDown int64
	cuts    int
}

func startRelay(t *testing.T, target string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln, target: target}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.serve(c, s)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return r
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// armCut makes the relay sever the connection carrying the next reply bytes
// once n of them have been forwarded.
func (r *relay) armCut(n int64) {
	r.mu.Lock()
	r.cutDown = n
	r.mu.Unlock()
}

func (r *relay) cutCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cuts
}

func (r *relay) serve(c, s net.Conn) {
	defer c.Close()
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 32<<10)
		for {
			n, err := c.Read(buf)
			if n > 0 {
				r.mu.Lock()
				r.up.Write(buf[:n])
				r.mu.Unlock()
				if _, werr := s.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				// Half-close, so a reply to the client's last frame (bye)
				// is still read and recorded below.
				s.(*net.TCPConn).CloseWrite() //nolint:errcheck
				return
			}
		}
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := s.Read(buf)
		if n > 0 {
			r.mu.Lock()
			r.down.Write(buf[:n])
			cut := false
			if r.cutDown > 0 {
				if int64(n) >= r.cutDown {
					n, cut = int(r.cutDown), true
					r.cutDown = 0
					r.cuts++
				} else {
					r.cutDown -= int64(n)
				}
			}
			r.mu.Unlock()
			c.Write(buf[:n]) //nolint:errcheck // a closed client still gets its reply recorded
			if cut {
				c.Close()
				s.Close()
				break
			}
		}
		if err != nil {
			break
		}
	}
	c.Close()
	s.Close()
	<-done
}

// streams returns what crossed the relay so far, per direction.
func (r *relay) streams() (up, down []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return bytes.Clone(r.up.Bytes()), bytes.Clone(r.down.Bytes())
}

// splitFrames cuts a recorded byte stream at its length prefixes; each
// returned frame includes its prefix, and partial is what follows the last
// whole one.
func splitFrames(stream []byte) (frames [][]byte, partial []byte) {
	for len(stream) >= 4 {
		n := int(binary.LittleEndian.Uint32(stream))
		if len(stream) < 4+n {
			break
		}
		frames = append(frames, stream[:4+n])
		stream = stream[4+n:]
	}
	return frames, stream
}

// --- hand-rolled frames, for the tests that speak the protocol raw ---

// The wire's opcodes and statuses (wire.go), restated: the tests that talk to
// a daemon or a client at the byte level are the protocol's second
// implementation, and must not share the first one's constants.
const (
	wireHello = 1
	wireOpen  = 2
	wireRead  = 3
	wireWrite = 4
	wireUsage = 7

	wireOK   = 0
	wireAuth = 4
	wireErr  = 6
)

// frame builds one wire frame: length prefix, id, op or status, body.
func frame(id uint64, tag byte, body ...[]byte) []byte {
	b := make([]byte, 4, 64)
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, tag)
	for _, part := range body {
		b = append(b, part...)
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

func u32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
func i64(v int64) []byte  { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
func blob(p []byte) []byte {
	return append(u32(uint32(len(p))), p...)
}
func str(s string) []byte { return blob([]byte(s)) }

// readRawFrame reads one frame off a raw connection: id, op or status, body.
func readRawFrame(r io.Reader) (id uint64, tag byte, body []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 9 || n > 32<<20 {
		return 0, 0, nil, io.ErrUnexpectedEOF
	}
	buf := make([]byte, n)
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, err
	}
	return binary.LittleEndian.Uint64(buf), buf[8], buf[9:], nil
}

// rawHello dials the daemon's TCP address and completes a hello for tenant
// by hand, returning the raw connection.
func rawHello(t testing.TB, addr, tenant string) net.Conn {
	t.Helper()
	return rawHelloOn(t, "tcp", addr, tenant)
}

// sameHostHello is rawHello over the unix socket a daemon bound to the
// loopback literal addr also serves: "@dstreamd/" and the address.
func sameHostHello(t testing.TB, addr, tenant string) net.Conn {
	t.Helper()
	return rawHelloOn(t, "unix", "@dstreamd/"+addr, tenant)
}

func rawHelloOn(t testing.TB, network, addr, tenant string) net.Conn {
	t.Helper()
	c, _ := resumeOn(t, network, addr, tenant, "")
	return c
}

// resumeOn is rawHelloOn resuming the session of token when it is not
// empty; it returns the session's token too.
func resumeOn(t testing.TB, network, addr, tenant, token string) (net.Conn, string) {
	t.Helper()
	c, err := net.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame(0, wireHello, str(tenant), str(token))); err != nil {
		t.Fatal(err)
	}
	_, status, body, err := readRawFrame(c)
	if err != nil || status != wireOK || len(body) < 4 {
		t.Fatalf("raw hello: status %d, err %v, body %q", status, err, body)
	}
	n := min(int(binary.LittleEndian.Uint32(body)), len(body)-4)
	return c, string(body[4 : 4+n])
}
