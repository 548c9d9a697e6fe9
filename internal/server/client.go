package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/pfs"
)

// ErrClientClosed reports use of a client after Close (or after a failed
// reconnect exhausted its budget and broke the session for good).
var ErrClientClosed = errors.New("dstreamd: client closed")

// ClientConfig shapes one client session.
type ClientConfig struct {
	// Tenant is the namespace to authenticate into. Required.
	Tenant string
	// ReconnectBudget is the total real time a broken connection is retried
	// before the session fails permanently with a clean error. Default 15 s.
	ReconnectBudget time.Duration
	// ReconnectPause is the delay between redial attempts. Default 20 ms.
	ReconnectPause time.Duration
	// Token resumes a previous session instead of admitting a new one.
	// Normally left empty; reconnects within one Client resume implicitly.
	Token string
}

// statusError is a permanent server-reported failure, tagged with its wire
// status so callers can errors.Is against the exported sentinels.
type statusError struct {
	status uint8
	msg    string
}

func (e *statusError) Error() string { return e.msg }

func (e *statusError) Is(target error) bool {
	switch e.status {
	case statusQuota:
		return target == ErrQuota
	case statusAuth:
		return target == ErrUnknownTenant
	case statusBusy:
		return target == ErrBusy
	}
	return false
}

// call is one in-flight request: its frame, kept for an idempotent resend
// after reconnect, and the reply channel. The frame is head and, for a write,
// the caller's own buffer behind it — or, when the call holds a shared chunk,
// head naming the chunk the caller's buffer was copied into, or — when the
// caller's buffer is itself a chunk of a run it holds — naming that chunk,
// with no copy. A read's reply lands in the caller's buffer too, or in the
// chunk it is copied out of, or in place in the held chunk. The caller's
// buffer is borrowed — see Ownership in the package doc.
type call struct {
	id uint64
	// held: chunk k is the caller's buffer itself, a chunk of a run the
	// caller holds (Client.buffer): a read's into or a write's payload, which
	// the reply neither copies nor frees. A reconnect withdraws a held read
	// rather than resend it, and resends a held write as any other: its
	// payload copied into a chunk of the new connection.
	held    bool
	op      uint8  // opRead, opWrite or a control op: the framed form's
	head    []byte // prefix, id, op and every field but a write's data
	payload []byte // write: the caller's p, sent behind head; nil otherwise
	into    []byte // read: the caller's p, filled by readLoop; nil otherwise
	// k is the shared chunk the data crosses in, one of m, the chunks of the
	// connection the call was last given to; -1 when it crosses in the frame.
	// Set under mu (and wmu, on a resend), before the frame naming it goes out.
	k    int
	m    *chunkMap
	done chan reply
}

// isData reports whether the call moves data: a read or a write.
func (cl *call) isData() bool { return cl.payload != nil || cl.into != nil }

// takeChunk gives the call a free chunk of m, the chunks of the connection it
// is about to go out on, or the framed path when m is nil or has none free.
// The caller holds mu.
func (cl *call) takeChunk(m *chunkMap) {
	cl.m, cl.k, cl.held = m, -1, false
	if m != nil {
		cl.k = m.take(1)
	}
}

// writeCall sends cl on conn: framed, the payload behind the head, or naming
// its chunk — the head's fields, op swapped, the chunk index behind them,
// written into the head's spare capacity. The caller holds wmu, which guards
// the head bytes this rewrites.
func writeCall(conn net.Conn, cl *call) error {
	if cl.k < 0 {
		cl.head[opOffset] = cl.op
		return writeFrame(conn, cl.head, cl.payload)
	}
	h := putU32(cl.head, uint32(cl.k))
	h[opOffset] = opWriteChunk
	if cl.op == opRead {
		h[opOffset] = opReadChunk
	}
	return writeFrame(conn, h, nil)
}

// chunkMap is the client's side of one connection's shared chunks: the
// mapping, which chunks a request or a run holds (guarded by Client.mu), and
// its users — the goroutines copying into it and the runs handed out of it.
// The connection's readLoop unmaps it when it exits, once users is zero.
type chunkMap struct {
	mem   []byte
	busy  []bool
	users sync.WaitGroup
}

// take holds the first run of n adjacent free chunks, lowest index first, and
// returns its first chunk; -1 when there is none. Taking the lowest keeps the
// pages a connection has touched to the high-water mark of what it held at
// once. The caller holds Client.mu.
func (m *chunkMap) take(n int) int {
	run := 0
	for k, busy := range m.busy {
		if busy {
			run = 0
			continue
		}
		if run++; run == n {
			at := k + 1 - n
			for j := at; j <= k; j++ {
				m.busy[j] = true
			}
			return at
		}
	}
	return -1
}

// chunkRun is n adjacent chunks of m from chunk k on, handed out as one
// buffer (Client.buffer). wrote marks a run a write has named a chunk of.
type chunkRun struct {
	m     *chunkMap
	k, n  int
	wrote bool
}

// acceptChunks maps the shared chunks a v2 hello reply grants (r is at the
// fields behind the token) from fd, the file that came with the reply. Nil
// means frames: a v1 reply, no chunks granted, or a file it will not map.
func acceptChunks(r *enc.Reader, fd int) *chunkMap {
	if fd < 0 || r.Remaining() != 16 || r.Uint32() != wireVersion {
		return nil
	}
	features, n, size := r.Uint32(), r.Uint32(), r.Uint32()
	if features&featSharedChunks == 0 || n == 0 || n > maxChunks || size != chunkBytes {
		return nil
	}
	mem, err := mapChunkFile(fd, int(n))
	if err != nil {
		return nil
	}
	return &chunkMap{mem: mem, busy: make([]bool, n)}
}

type reply struct {
	status uint8
	n      int         // read, statusOK or statusEOF: bytes readLoop put in call.into
	rd     *enc.Reader // every other reply: the body after the status
	err    error       // client-side failure (session broken); status invalid
}

// Client is one tenant session with a dstreamd daemon: it multiplexes
// concurrent requests onto a single connection and transparently reconnects
// — resuming the same server-side session by token and resending every
// in-flight request (requests are idempotent by construction, see the
// package doc). It meters nothing: how many bytes a tenant has in flight is
// the daemon's decision alone (Config.StripeFactor).
//
// Clients are safe for concurrent use; a session's streams on many machine
// ranks share one Client.
type Client struct {
	addr string
	cfg  ClientConfig

	mu      sync.Mutex
	conn    net.Conn
	shm     *chunkMap // conn's shared chunks; nil when it has none
	gen     int       // bumps on every successful reconnect
	token   string
	nextID  uint64
	pending map[uint64]*call
	broken  error      // non-nil once the session is permanently dead
	runs    []chunkRun // buffers handed out and not yet released, any mapping's
	// copiedOut counts the bytes read replies copied out of shared chunks,
	// copiedIn the bytes writes copied into them, and pooled the buffers asked
	// for on a connection with shared chunks that found no run free.
	copiedOut, copiedIn int64
	pooled              int

	wmu sync.Mutex // serializes frame writes to the current conn
}

// Dial connects to a daemon at addr and opens a session for cfg.Tenant.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.Tenant == "" {
		return nil, fmt.Errorf("dstreamd: ClientConfig.Tenant is required")
	}
	if cfg.ReconnectBudget <= 0 {
		cfg.ReconnectBudget = 15 * time.Second
	}
	if cfg.ReconnectPause <= 0 {
		cfg.ReconnectPause = 20 * time.Millisecond
	}
	c := &Client{
		addr:    addr,
		cfg:     cfg,
		token:   cfg.Token,
		pending: make(map[uint64]*call),
	}
	conn, m, err := c.dialOnce()
	if err != nil {
		return nil, err
	}
	c.conn, c.shm = conn, m
	go c.readLoop(conn, c.gen, m)
	return c, nil
}

// dialOnce dials and performs the hello handshake on a fresh connection. It
// keeps the granted resume token, and returns the connection's shared chunks
// if it has any: over the same-host socket the hello is v2 and asks for them
// (see the package doc); over TCP it is v1, whose other reply fields are
// reserved.
func (c *Client) dialOnce() (net.Conn, *chunkMap, error) {
	conn, err := dialDaemon(c.addr)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	tok := c.token
	c.mu.Unlock()
	req := putStr(putStr(newFrame(0, opHello), c.cfg.Tenant), tok)
	if _, unix := conn.(*net.UnixConn); unix {
		req = putU32(putU32(req, wireVersion), featSharedChunks)
	}
	if err := writeFrame(conn, req, nil); err != nil {
		conn.Close()
		return nil, nil, err
	}
	// Straight off the socket, not a buffered reader that could swallow the
	// start of the next frame: readLoop brings its own.
	status, rest, fd, err := readHelloHead(conn)
	if fd >= 0 {
		defer closeFile(fd) // a mapping outlives its file
	}
	var r *enc.Reader
	if err == nil {
		r, err = readBody(conn, rest)
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	if status != statusOK {
		msg := r.String()
		conn.Close()
		return nil, nil, &statusError{status: status, msg: msg}
	}
	token := r.String()
	if err := r.Err(); err != nil {
		conn.Close()
		return nil, nil, err
	}
	m := acceptChunks(r, fd)
	c.mu.Lock()
	c.token = token
	c.mu.Unlock()
	return conn, m, nil
}

// dialDaemon connects to the daemon at addr: over its same-host unix socket
// when addr is a loopback literal and the socket answers, over TCP otherwise.
func dialDaemon(addr string) (net.Conn, error) {
	if path := sameHostSocket(addr); path != "" {
		if conn, err := net.Dial("unix", path); err == nil {
			return conn, nil
		}
	}
	return net.Dial("tcp", addr)
}

// Token returns the session resume token granted at hello.
func (c *Client) Token() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token
}

// Close says goodbye (best effort) and tears the session down. In-flight
// requests fail with ErrClientClosed. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.broken != nil {
		c.mu.Unlock()
		return nil
	}
	c.broken = ErrClientClosed
	conn := c.conn
	id := c.nextID
	c.nextID++
	calls := c.takeCallsLocked()
	c.mu.Unlock()

	if conn != nil {
		// Tell the server the session ends now (frees its admission slot
		// without waiting out the grace window); ignore failures — the
		// janitor reclaims the slot eventually either way.
		c.wmu.Lock()
		writeFrame(conn, newFrame(id, opBye), nil) //nolint:errcheck
		c.wmu.Unlock()
		conn.Close()
	}
	for _, cl := range calls {
		cl.done <- reply{err: ErrClientClosed}
	}
	return nil
}

// takeCallsLocked drains the pending map; caller holds c.mu.
func (c *Client) takeCallsLocked() []*call {
	calls := make([]*call, 0, len(c.pending))
	for id, cl := range c.pending {
		calls = append(calls, cl)
		delete(c.pending, id)
	}
	return calls
}

// readBody reads the rest bytes that finish a frame whose head has been read
// and returns a cursor over them. Control replies only: a few fields, or a
// message (a transient reply carries its partial progress behind the message).
func readBody(r io.Reader, rest int) (*enc.Reader, error) {
	body := make([]byte, rest)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return enc.NewReader(body), nil
}

// readLoop delivers responses for one connection generation, whose shared
// chunks are m; on connection failure it hands off to reconnect, and then
// unmaps m. It is the one reply decoder: a read's data goes from the socket,
// or out of its chunk, into the buffer its caller passed to ReadAt — unless
// that buffer is the chunk, of a run its caller holds — every other body into
// a cursor the caller decodes. A reply hands a call's chunk back to m, a held
// one excepted: that is its run's until the run is released.
func (c *Client) readLoop(conn net.Conn, gen int, m *chunkMap) {
	defer c.retire(m)
	br := bufio.NewReader(conn)
	for {
		id, status, rest, err := readFrameHead(br)
		if err != nil {
			c.reconnect(conn, gen)
			return
		}
		// Out of pending, the call is this goroutine's: Close and fail cannot
		// release its caller while the body below lands in the caller's buffer.
		c.mu.Lock()
		cl := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if cl == nil {
			// A request answered on an earlier connection and again on this one.
			if _, err := br.Discard(rest); err != nil {
				c.reconnect(conn, gen)
				return
			}
			continue
		}
		rep := reply{status: status}
		switch {
		case cl.k >= 0 && cl.m != m:
			err = fmt.Errorf("dstreamd: reply %d to a request whose chunk this connection never carried", id)
		case cl.into != nil && (status == statusOK || status == statusEOF):
			if cl.k >= 0 {
				if rep.n, err = readChunkData(br, rest, cl.k, len(cl.into)); err == nil && !cl.held {
					copy(cl.into, chunkAt(m.mem, cl.k)[:rep.n])
				}
			} else {
				rep.n, err = readData(br, rest, cl.into)
			}
		default:
			rep.rd, err = readBody(br, rest)
		}
		if err != nil {
			// Torn or corrupt inside the body: the request is still owed an
			// answer, so it goes back to be resent — the same bytes will land
			// at the same offsets — unless the session is already over.
			c.mu.Lock()
			broken := c.broken
			if broken == nil {
				c.pending[id] = cl
			}
			c.mu.Unlock()
			if broken != nil {
				cl.done <- reply{err: broken}
			}
			c.reconnect(conn, gen)
			return
		}
		if cl.k >= 0 && !cl.held {
			poisonChunk(chunkAt(m.mem, cl.k))
			c.mu.Lock()
			m.busy[cl.k] = false
			if cl.into != nil {
				c.copiedOut += int64(rep.n)
			}
			c.mu.Unlock()
		}
		cl.done <- rep
	}
}

// retire unmaps m, the chunks of a connection whose readLoop is exiting, once
// nothing is copying into them and every run handed out of them is released;
// if they are still the client's current ones (the session broke), transfers
// go framed from now on.
func (c *Client) retire(m *chunkMap) {
	if m == nil {
		return
	}
	c.mu.Lock()
	if c.shm == m {
		c.shm = nil
	}
	c.mu.Unlock()
	m.users.Wait()
	unmapChunks(m.mem)
}

// readChunkData reads the body of a successful read reply in chunk form —
// chunk(u32) n(u32), rest bytes in all — and returns n, the bytes the reply
// left at the start of chunk k. A reply naming another chunk than the one its
// request handed over, or more data than the want asked for, is a corrupt
// stream.
func readChunkData(r io.Reader, rest int, k, want int) (int, error) {
	var b [8]byte
	if rest != len(b) {
		return 0, fmt.Errorf("dstreamd: chunk read reply with %d bytes of body", rest)
	}
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	got, n := binary.LittleEndian.Uint32(b[:]), binary.LittleEndian.Uint32(b[4:])
	if int64(got) != int64(k) || int64(n) > int64(want) {
		return 0, fmt.Errorf("dstreamd: read reply names chunk %d with %d bytes; chunk %d went out for %d",
			got, n, k, want)
	}
	return int(n), nil
}

// buffer hands out a run of adjacent free chunks of the current connection's
// mapping, at least n bytes of it, as a read destination or a write source:
// a ReadAt into it or a WriteAt from it names its chunks, so the daemon's
// store reads straight into memory the caller then reads in place, or writes
// from memory the caller encoded into. Its capacity is the whole run — a pool
// class for a run of 1, 2 or 4 chunks, so it must never reach bufpool. Nil
// when the connection has no mapping or no run that long is free. The
// mapping stays until release gives the run back, whatever becomes of the
// connection meanwhile.
func (c *Client) buffer(n int) []byte {
	chunks := (n + chunkBytes - 1) / chunkBytes
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.shm
	if m == nil || n <= 0 || c.broken != nil {
		return nil
	}
	k := m.take(chunks)
	if k < 0 {
		c.pooled++
		return nil
	}
	m.users.Add(1)
	c.runs = append(c.runs, chunkRun{m: m, k: k, n: chunks})
	lo := k * chunkBytes
	return m.mem[lo : lo+n : lo+chunks*chunkBytes]
}

// release takes back a run buffer handed out, poisoned under -tags pooldebug
// so that a reader past its release fails byte identity — unless a write
// named it and its mapping is retired: that write of the dead connection,
// parked on the daemon, may still store from the run, and no run is handed
// out of that mapping again.
func (c *Client) release(b []byte) {
	at := &b[:1][0]
	c.mu.Lock()
	for i, r := range c.runs {
		if at != &r.m.mem[r.k*chunkBytes] {
			continue
		}
		c.runs = append(c.runs[:i], c.runs[i+1:]...)
		for k := r.k; k < r.k+r.n; k++ {
			if r.m == c.shm || !r.wrote {
				poisonChunk(chunkAt(r.m.mem, k))
			}
			r.m.busy[k] = false
		}
		c.mu.Unlock()
		r.m.users.Done()
		return
	}
	c.mu.Unlock()
	panic("dstreamd: release of a buffer the client never handed out")
}

// runChunk is the chunk of the current mapping that p starts at when p lies
// in a run handed out by buffer, or -1; a write's p marks its run. The caller
// holds mu.
func (c *Client) runChunk(p []byte, write bool) int {
	if len(p) == 0 {
		return -1
	}
	for i, r := range c.runs {
		if r.m != c.shm {
			continue
		}
		for k := r.k; k < r.k+r.n; k++ {
			if &p[0] == &r.m.mem[k*chunkBytes] {
				c.runs[i].wrote = c.runs[i].wrote || write
				return k
			}
		}
	}
	return -1
}

// readData reads the body of a successful read reply — data(u32 length,
// bytes), rest bytes in all — straight into p. A length that disagrees with
// the frame's or exceeds what was asked for is a corrupt stream.
func readData(r io.Reader, rest int, p []byte) (int, error) {
	var lb [4]byte
	if rest < len(lb) {
		return 0, fmt.Errorf("dstreamd: truncated frame")
	}
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(lb[:])
	if int64(n) != int64(rest-len(lb)) || int64(n) > int64(len(p)) {
		return 0, fmt.Errorf("dstreamd: read reply declares %d data bytes in a frame with %d left, %d asked for",
			n, rest-len(lb), len(p))
	}
	return io.ReadFull(r, p[:n])
}

// reconnect redials within the budget, resumes the session by token, and
// resends every in-flight request on the new connection. Single-flight by
// construction: only the readLoop of the current generation gets here, and
// it runs at most once per generation.
func (c *Client) reconnect(dead net.Conn, gen int) {
	dead.Close()
	c.mu.Lock()
	if c.broken != nil || gen != c.gen {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()

	deadline := time.Now().Add(c.cfg.ReconnectBudget)
	for {
		conn, m, err := c.dialOnce()
		if err == nil {
			c.mu.Lock()
			if c.broken != nil {
				// Close raced the redial; don't resurrect the session.
				c.mu.Unlock()
				conn.Close()
				if m != nil {
					unmapChunks(m.mem)
				}
				return
			}
			c.conn, c.shm = conn, m
			c.gen++
			newGen := c.gen
			resend := make([]*call, 0, len(c.pending))
			var withdrawn []*call
			for id, cl := range c.pending {
				if cl.held && cl.into != nil {
					// Its chunk is the old mapping's, where the dead
					// connection's request may still land at any time:
					// the caller reads no reply out of it. A held write
					// is resent: its run stays its caller's, who is
					// parked, and the copy below takes it from there.
					delete(c.pending, id)
					withdrawn = append(withdrawn, cl)
					continue
				}
				resend = append(resend, cl)
			}
			if m != nil {
				m.users.Add(1) // the resends' copies into it, below
			}
			c.mu.Unlock()
			for _, cl := range withdrawn {
				cl.done <- reply{err: errWithdrawn}
			}
			go c.readLoop(conn, newGen, m)
			// Resend in-flight requests; they are idempotent (same bytes,
			// same offsets, same names), so a request the server already
			// executed just executes again to the same effect. Each takes a
			// chunk of the new connection's, if one is free, and a write's
			// payload is copied into it again. A payload is its caller's
			// buffer, valid only while the caller is parked: Close and fail
			// set broken before they release anyone, and a released caller
			// waits for wmu before it returns, so checking broken under wmu
			// before each frame keeps this loop off a buffer that has gone
			// back to its owner.
			c.wmu.Lock()
			for _, cl := range resend {
				c.mu.Lock()
				broken := c.broken
				owed := c.pending[cl.id] == cl
				if broken == nil && owed && cl.isData() {
					cl.takeChunk(m)
					if cl.k >= 0 && cl.payload != nil {
						c.copiedIn += int64(len(cl.payload))
					}
				}
				c.mu.Unlock()
				if broken != nil {
					break
				}
				if !owed {
					continue // answered, or released, since the list was taken
				}
				if cl.k >= 0 && cl.payload != nil {
					copy(chunkAt(m.mem, cl.k), cl.payload)
				}
				if writeCall(conn, cl) != nil {
					break // next readLoop generation will reconnect again
				}
			}
			c.wmu.Unlock()
			if m != nil {
				m.users.Done()
			}
			return
		}
		var se *statusError
		if errors.As(err, &se) {
			// The server refused the resume outright (auth/busy): permanent.
			c.fail(err)
			return
		}
		if time.Now().After(deadline) {
			c.fail(fmt.Errorf("dstreamd: reconnect budget exhausted: %w", err))
			return
		}
		time.Sleep(c.cfg.ReconnectPause)
		c.mu.Lock()
		closed := c.broken != nil
		c.mu.Unlock()
		if closed {
			return // Close, during the pause: stop redialing, let go of the chunks
		}
	}
}

// fail breaks the session permanently with a clean error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.broken != nil {
		c.mu.Unlock()
		return
	}
	c.broken = err
	calls := c.takeCallsLocked()
	c.mu.Unlock()
	for _, cl := range calls {
		cl.done <- reply{err: err}
	}
}

// roundTrip sends one control request and waits for its response; body
// appends the op's fields to the frame head.
func (c *Client) roundTrip(op uint8, body func(b []byte) []byte) (reply, error) {
	return c.transfer(op, body, nil, nil)
}

// transfer is roundTrip for the two data ops: a write's payload is sent
// behind the head body builds (whose last field must be the payload's
// length), a read's data is delivered into into — or, when a shared chunk is
// free, each is copied once, into the chunk or out of it. A read into, or a
// write from, a chunk of a run the caller holds names that chunk and is not
// copied at all; cut in flight, such a read fails with errWithdrawn, and such
// a write is resent with a copy, as any other. Both are the caller's again
// when transfer returns.
func (c *Client) transfer(op uint8, body func(b []byte) []byte, payload, into []byte) (reply, error) {
	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		return reply{}, err
	}
	id := c.nextID
	c.nextID++
	cl := &call{id: id, op: op, head: body(newFrame(id, op)), payload: payload, into: into, k: -1, done: make(chan reply, 1)}
	data := into
	if payload != nil {
		data = payload
	}
	if k := c.runChunk(data, payload != nil); k >= 0 {
		cl.m, cl.k, cl.held = c.shm, k, true
	} else if cl.isData() {
		cl.takeChunk(c.shm)
	}
	m, k := cl.m, cl.k
	copyIn := k >= 0 && payload != nil && !cl.held
	if copyIn {
		m.users.Add(1)
		c.copiedIn += int64(len(payload))
	}
	c.pending[id] = cl
	conn := c.conn
	c.mu.Unlock()

	if copyIn {
		// Into the chunk before the frame that hands it over. Should a
		// reconnect resend the call meanwhile, it copies into a chunk of the
		// new connection; this mapping stays until users is back to zero.
		copy(chunkAt(m.mem, k), payload)
		m.users.Done()
	}
	c.wmu.Lock()
	err := writeCall(conn, cl)
	c.wmu.Unlock()
	if err != nil {
		// Kick the readLoop into reconnecting; the request stays pending and
		// is resent on the next connection.
		conn.Close()
	}
	rep := <-cl.done
	if rep.err != nil {
		if payload != nil {
			// Close or fail released this call, and a resend begun before
			// that may still be reading payload: it holds wmu while it does.
			c.wmu.Lock()
			c.wmu.Unlock() //nolint:staticcheck // empty critical section: a barrier, not a guard
		}
		return reply{}, rep.err
	}
	return rep, nil
}

// errWithdrawn answers a read into a held run that was in flight when its
// connection was cut: the run's holder releases it and reads again into a
// buffer of its own (pfs.BufferSource).
var errWithdrawn = fmt.Errorf("%w: dstreamd: the connection was cut with a read into its shared chunk in flight", pfs.ErrWithdrawn)

// decodeErr maps a non-OK status to the error the pfs layer expects:
// transient faults re-wrap pfs.ErrTransient so the client file system's
// retry machinery absorbs them; everything else is permanent.
func decodeErr(status uint8, msg string) error {
	switch status {
	case statusTransient:
		return fmt.Errorf("%w: %s", pfs.ErrTransient, msg)
	case statusQuota, statusAuth, statusBusy:
		return &statusError{status: status, msg: msg}
	default:
		return errors.New(msg)
	}
}

// Usage reports the tenant's reserved bytes and quota as of now.
func (c *Client) Usage() (used, quota int64, err error) {
	rep, err := c.roundTrip(opUsage, func(b []byte) []byte { return b })
	if err != nil {
		return 0, 0, err
	}
	if rep.status != statusOK {
		return 0, 0, decodeErr(rep.status, rep.rd.String())
	}
	used = rep.rd.Int64()
	quota = rep.rd.Int64()
	return used, quota, rep.rd.Err()
}

// OpenBackend opens (or creates) the named file in the session's tenant
// namespace and returns it as a pfs.Backend + pfs.LayoutProvider: the
// remote daemon becomes just another storage device under the client-side
// file system, with the server's stripe geometry visible to the two-phase
// aggregation planner.
func (c *Client) OpenBackend(name string) (pfs.Backend, error) {
	rep, err := c.roundTrip(opOpen, func(b []byte) []byte { return putStr(b, name) })
	if err != nil {
		return nil, err
	}
	if rep.status != statusOK {
		return nil, decodeErr(rep.status, rep.rd.String())
	}
	rep.rd.Int64() // current size (informational; Size() re-queries)
	unit := rep.rd.Int64()
	factor := rep.rd.Uint32()
	if err := rep.rd.Err(); err != nil {
		return nil, err
	}
	return &remoteFile{
		c:      c,
		name:   name,
		layout: pfs.Layout{StripeUnit: unit, StripeFactor: int(factor)},
	}, nil
}

// Factory adapts the session to a pfs.BackendFactory, the seam the whole
// integration hangs on: pfs.NewFileSystem(profile, client.Factory()) yields
// a file system whose storage lives in the daemon.
func (c *Client) Factory() pfs.BackendFactory {
	return func(name string) (pfs.Backend, error) { return c.OpenBackend(name) }
}

// remoteFile is one daemon-resident file exposed as a pfs.Backend. Large
// transfers are chunked so the daemon's tenant window meters them a chunk at
// a time and no single frame monopolizes the connection.
type remoteFile struct {
	c      *Client
	name   string
	layout pfs.Layout
}

var (
	_ pfs.LayoutProvider = (*remoteFile)(nil)
	_ pfs.BufferSource   = (*remoteFile)(nil)
)

// Layout reports the server-side stripe geometry.
func (f *remoteFile) Layout() pfs.Layout { return f.layout }

// Close is a no-op: the file's lifetime is the session's, and many files
// share one session (the Client owns the connection).
func (f *remoteFile) Close() error { return nil }

// Size queries the current file size. Backend.Size has no error return, so
// a dead session reports 0 — harmless, because every subsequent transfer on
// the dead session fails with the real (clean) error.
func (f *remoteFile) Size() int64 {
	rep, err := f.c.roundTrip(opSize, func(b []byte) []byte { return putStr(b, f.name) })
	if err != nil || rep.status != statusOK {
		return 0
	}
	return rep.rd.Int64()
}

// Truncate resizes the file (and the tenant's quota reservation).
func (f *remoteFile) Truncate(size int64) error {
	rep, err := f.c.roundTrip(opTrunc, func(b []byte) []byte {
		return putI64(putStr(b, f.name), size)
	})
	if err != nil {
		return err
	}
	if rep.status != statusOK {
		return decodeErr(rep.status, rep.rd.String())
	}
	return nil
}

// Buffer hands out a run of the session's shared chunks as a read
// destination or a write source (pfs.BufferSource): see Client.buffer.
func (f *remoteFile) Buffer(n int) []byte { return f.c.buffer(n) }

// Release gives back a buffer Buffer handed out.
func (f *remoteFile) Release(b []byte) { f.c.release(b) }

// ReadAt implements io.ReaderAt against the daemon, chunk by chunk, each
// chunk's request waiting for its reply before the next goes out. Into a
// buffer Buffer handed out, each request names the chunk it reads into, and a
// connection cut with one in flight fails the read with pfs.ErrWithdrawn.
func (f *remoteFile) ReadAt(p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		n := len(p) - total
		if n > chunkBytes {
			n = chunkBytes
		}
		got, err := f.readChunk(p[total:total+n], off+int64(total))
		total += got
		if err != nil {
			return total, err
		}
		if got < n {
			return total, io.EOF
		}
	}
	return total, nil
}

func (f *remoteFile) readChunk(p []byte, off int64) (int, error) {
	rep, err := f.c.transfer(opRead, func(b []byte) []byte {
		return putU32(putI64(putStr(b, f.name), off), uint32(len(p)))
	}, nil, p)
	if err != nil {
		return 0, err
	}
	switch rep.status {
	case statusOK:
		return rep.n, nil
	case statusEOF:
		return rep.n, io.EOF
	case statusTransient:
		msg := rep.rd.String()
		return copy(p, rep.rd.Raw(int(rep.rd.Uint32()))), fmt.Errorf("%w: %s", pfs.ErrTransient, msg)
	default:
		return 0, decodeErr(rep.status, rep.rd.String())
	}
}

// WriteAt implements io.WriterAt against the daemon, chunk by chunk: each
// chunk's request waits for its reply before the next goes out, as a read's
// do. A session keeps several chunks in flight by its ranks' concurrent
// calls, and the daemon's tenant window is what holds it to its share of the
// I/O ranks. From a buffer Buffer handed out, each request names the chunk
// its piece already is, and the daemon stores from it: the client copies
// nothing. From any other buffer, each piece is copied into a free chunk, or
// sent in the frame when none is free.
func (f *remoteFile) WriteAt(p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		n := len(p) - total
		if n > chunkBytes {
			n = chunkBytes
		}
		wrote, err := f.writeChunk(p[total:total+n], off+int64(total))
		total += wrote
		if err != nil {
			return total, err
		}
		if wrote < n {
			return total, io.ErrShortWrite
		}
	}
	return total, nil
}

func (f *remoteFile) writeChunk(p []byte, off int64) (int, error) {
	rep, err := f.c.transfer(opWrite, func(b []byte) []byte {
		return putU32(putI64(putStr(b, f.name), off), uint32(len(p)))
	}, p, nil)
	if err != nil {
		return 0, err
	}
	switch rep.status {
	case statusOK:
		return int(rep.rd.Uint32()), rep.rd.Err()
	case statusTransient:
		msg := rep.rd.String()
		return int(rep.rd.Uint32()), fmt.Errorf("%w: %s", pfs.ErrTransient, msg)
	default:
		return 0, decodeErr(rep.status, rep.rd.String())
	}
}
