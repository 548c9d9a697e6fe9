package server

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/pfs"
)

// Sentinel errors surfaced to clients as clean failures (never hangs).
var (
	// ErrQuota reports a write or truncate that would push a tenant past its
	// byte quota. Permanent: the pfs retry layer does not retry it, so it
	// surfaces through dstream as a clean ErrIO on every rank.
	ErrQuota = errors.New("dstreamd: tenant quota exceeded")
	// ErrUnknownTenant reports a hello for a tenant the daemon was not
	// configured with.
	ErrUnknownTenant = errors.New("dstreamd: unknown tenant")
	// ErrBusy reports admission refusal: the tenant is at its session limit.
	ErrBusy = errors.New("dstreamd: tenant session limit reached")
	// ErrShutdown reports a request caught by daemon shutdown.
	ErrShutdown = errors.New("dstreamd: server shutting down")
)

// Tenant configures one namespace the daemon serves.
type Tenant struct {
	// Name identifies the tenant; clients present it at hello. Every file a
	// tenant opens lives under "<name>/" in the daemon's backing store, so
	// tenants cannot observe each other's bytes.
	Name string
	// QuotaBytes bounds the tenant's total reserved file bytes; zero means
	// unlimited. Breaches fail the offending write with a clean ErrQuota.
	QuotaBytes int64
	// MaxSessions bounds concurrent sessions (attached or within the
	// reconnect grace window); zero means unlimited.
	MaxSessions int
}

// Config describes one daemon instance.
type Config struct {
	// Factory creates the storage backend behind each (tenant-prefixed)
	// file. Nil defaults to a striped in-memory store with StripeFactor /
	// StripeUnit geometry.
	Factory pfs.BackendFactory
	// StripeFactor and StripeUnit shape the default striped store (and the
	// geometry reported to clients for backends that expose none). Defaults:
	// 4 devices × 64 KiB. The daemon's own concurrency follows from them:
	// StripeFactor dedicated I/O goroutines own the storage — requests are
	// routed by (file, stripe cell), so one file's cell is always served by
	// the same rank while distinct cells and files proceed in parallel — and
	// tenantWindow bounds what one tenant may queue on them.
	StripeFactor int
	StripeUnit   int64
	// Tenants is the namespace table. A client presenting any other name is
	// rejected at hello.
	Tenants []Tenant
	// Grace is how long a disconnected session stays resumable (and keeps
	// counting against MaxSessions). Default 30 s.
	Grace time.Duration
	// Monitor receives the daemon's metrics (per-tenant labels). Nil runs
	// unmonitored.
	Monitor *dsmon.Monitor
}

// eagerBytes is the eager/rendezvous split reused from the comm layer:
// requests whose payload is at most this many bytes bypass the admission
// window (control traffic must not deadlock behind bulk data), larger ones
// reserve window credits first.
const eagerBytes = 4 << 10

// replyQueue bounds the replies one connection may owe at once. Its reader
// takes a slot before it serves a request; its writer gives the slot back
// once the reply is on the wire. A session keeps P ops and a few control
// calls in flight, far below 64, so the bound only bites on a client that
// stops reading — and then it parks that connection's reader, never an I/O
// rank.
const replyQueue = 64

// tenantWindow is the per-tenant admission budget: across all of a tenant's
// sessions, at most this many bulk bytes are held by the daemon at once, from
// admission until the reply is on the wire; excess requests wait
// (backpressure, not failure). One chunk per I/O rank lets the P ops a
// session keeps in flight reach P ranks at once, and a tenant no further: it
// cannot bury the stripe under a backlog, and a tenant that stops reading
// holds its own window, nobody else's. Valid after withDefaults.
func (c Config) tenantWindow() int64 { return int64(c.StripeFactor) * chunkBytes }

func (c Config) withDefaults() Config {
	if c.StripeFactor <= 0 {
		c.StripeFactor = 4
	}
	if c.StripeUnit <= 0 {
		c.StripeUnit = 64 << 10
	}
	if c.Factory == nil {
		c.Factory = pfs.StripedMemFactory(c.StripeFactor, c.StripeUnit)
	}
	if c.Grace <= 0 {
		c.Grace = 30 * time.Second
	}
	return c
}

// byteSem is a counting semaphore over bytes with blocking acquisition —
// the admission window. Closing it releases every waiter with ErrShutdown.
type byteSem struct {
	mu     sync.Mutex
	cond   *sync.Cond
	avail  int64
	closed bool
}

func newByteSem(n int64) *byteSem {
	s := &byteSem{avail: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// acquire blocks until n bytes are available (n is clamped to the window
// size elsewhere, so it can always be satisfied).
func (s *byteSem) acquire(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.avail < n && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return ErrShutdown
	}
	s.avail -= n
	return nil
}

func (s *byteSem) release(n int64) {
	s.mu.Lock()
	s.avail += n
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *byteSem) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// srvFile is one tenant file: the backend (shared by every session of the
// tenant), its stripe geometry, and the reserved high-water size the quota
// accounting tracks.
type srvFile struct {
	b      pfs.Backend
	layout pfs.Layout
	resEnd int64
}

// tenantMetrics is the per-tenant handle set, all labeled tenant="<name>".
type tenantMetrics struct {
	sessions      *dsmon.Gauge
	sessionsTotal *dsmon.Counter
	reconnects    *dsmon.Counter
	quotaUsed     *dsmon.Gauge
	quotaRejects  *dsmon.Counter
	bytesIn       *dsmon.Counter
	bytesOut      *dsmon.Counter
	requests      *dsmon.Counter
	transients    *dsmon.Counter
	admissionWait *dsmon.Histogram
}

func newTenantMetrics(m *dsmon.Monitor, tenant string) tenantMetrics {
	reg := m.Registry()
	return tenantMetrics{
		sessions: reg.Gauge("dstreamd_sessions_active",
			"client sessions attached or within the reconnect grace window", "tenant", tenant),
		sessionsTotal: reg.Counter("dstreamd_sessions_total",
			"client sessions ever admitted", "tenant", tenant),
		reconnects: reg.Counter("dstreamd_reconnects_total",
			"sessions resumed after a disconnect", "tenant", tenant),
		quotaUsed: reg.Gauge("dstreamd_quota_used_bytes",
			"reserved file bytes counted against the tenant quota", "tenant", tenant),
		quotaRejects: reg.Counter("dstreamd_quota_rejects_total",
			"writes or truncates refused for breaching the tenant quota", "tenant", tenant),
		bytesIn: reg.Counter("dstreamd_bytes_in_total",
			"payload bytes received in write requests", "tenant", tenant),
		bytesOut: reg.Counter("dstreamd_bytes_out_total",
			"payload bytes returned in read responses", "tenant", tenant),
		requests: reg.Counter("dstreamd_requests_total",
			"requests served", "tenant", tenant),
		transients: reg.Counter("dstreamd_transient_replies_total",
			"requests answered with a retryable storage fault", "tenant", tenant),
		admissionWait: reg.Histogram("dstreamd_admission_wait_seconds",
			"real seconds bulk requests waited for the tenant admission window",
			dsmon.LatencyBuckets, "tenant", tenant),
	}
}

// tenantState is the server-side namespace of one tenant.
type tenantState struct {
	cfg    Tenant
	window *byteSem

	mu       sync.Mutex
	files    map[string]*srvFile
	usage    int64
	sessions int

	met tenantMetrics
}

// session is one admitted client session, resumable across connections.
type session struct {
	token string
	ten   *tenantState

	mu       sync.Mutex
	attached bool
	detached time.Time
	// cur is the connection the session is attached over (nil between
	// connections): the one a resume makes dead.
	cur *conn
}

// attach makes cn the session's connection, before cn serves any request.
// The connection it replaces is dead from now on, whatever its reader and
// writer have noticed of the cut: a request of it still parked in the tenant
// window's admission, or queued on an I/O rank, is dropped where it would
// have reached the store (conn.dropped). The client resends it over cn, and
// stored late it would land over the resend and whatever the client has
// written there since.
func (sess *session) attach(cn *conn) {
	sess.mu.Lock()
	prev := sess.cur
	sess.cur, sess.attached = cn, true
	sess.mu.Unlock()
	if prev != nil {
		prev.dead.Store(true)
		prev.c.Close()
	}
}

// detach leaves the session resumable for the grace window, then a timer
// releases its admission slot — unless it has been resumed over another
// connection since cn was its own.
func (s *Server) detach(sess *session, cn *conn) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.cur != cn {
		return
	}
	sess.cur, sess.attached, sess.detached = nil, false, time.Now()
	time.AfterFunc(s.cfg.Grace, func() { s.expire(sess) })
}

// Server is a running dstreamd instance.
type Server struct {
	cfg Config
	lns []net.Listener // TCP, then the same-host unix socket if there is one

	mu       sync.Mutex
	tenants  map[string]*tenantState
	sessions map[string]*session
	conns    map[net.Conn]struct{}
	closed   bool

	ranks []chan func()
	wg    sync.WaitGroup // conn handlers + janitor
	iowg  sync.WaitGroup // I/O rank workers

	mConns      *dsmon.Gauge
	mChunked    *dsmon.Counter // transfers whose data crossed in a shared chunk
	mNoChunk    *dsmon.Counter // framed on a connection with shared chunks: none was free
	mNoMapping  *dsmon.Counter // framed on a connection without shared chunks
	mChunksHeld *dsmon.Gauge   // shared chunks the daemon holds now
}

// sharedChunks is N, the number of chunks a same-host connection shares: four
// per I/O rank, at most maxChunks. A client holds runs of them as its input
// streams' refill buffers (a four-rank read of a 2048-Segment checkpoint
// holds twelve), and a session keeping one transfer in flight per rank (what
// the tenant window admits) still finds one free beside them. A client with
// more ranks, larger shares or several input streams open holds more, and
// the runs can then crowd out the transfer chunks: its writes and small
// reads cross framed, which is correct but copies through the socket. So a
// connection pins up to N MiB of shared memory, 16 MiB at the default four
// I/O ranks; a page counts only once touched, and the client takes the
// lowest chunks free, so what is resident is the most it held at once.
func (c Config) sharedChunks() int { return min(4*c.StripeFactor, maxChunks) }

// Start builds a daemon from cfg and serves it on addr (":0" picks a free
// port). Bound to a loopback literal, it also serves same-host clients on the
// abstract unix socket named after the bound address (sameHostSocket), which
// Dial prefers for such an address. It returns once the listeners are bound.
func Start(addr string, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		tenants:  make(map[string]*tenantState),
		sessions: make(map[string]*session),
		conns:    make(map[net.Conn]struct{}),
		ranks:    make([]chan func(), cfg.StripeFactor),
	}
	// dsmon handles are nil-safe, so an unmonitored daemon needs no guards.
	reg := cfg.Monitor.Registry()
	s.mConns = reg.Gauge("dstreamd_connections_active", "client connections currently attached")
	s.mChunked = reg.Counter("dstreamd_chunk_transfers_total",
		"reads and writes whose data crossed in a shared chunk")
	const inline = "reads and writes whose data crossed in the frame, by why no shared chunk carried it"
	s.mNoChunk = reg.Counter("dstreamd_inline_transfers_total", inline, "reason", "no_chunk")
	s.mNoMapping = reg.Counter("dstreamd_inline_transfers_total", inline, "reason", "no_mapping")
	s.mChunksHeld = reg.Gauge("dstreamd_chunks_held",
		"shared chunks the daemon holds now: handed over by a request, not yet handed back")
	for _, t := range cfg.Tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("dstreamd: tenant with empty name")
		}
		if _, dup := s.tenants[t.Name]; dup {
			return nil, fmt.Errorf("dstreamd: duplicate tenant %q", t.Name)
		}
		ts := &tenantState{
			cfg:    t,
			window: newByteSem(cfg.tenantWindow()),
			files:  make(map[string]*srvFile),
		}
		ts.met = newTenantMetrics(cfg.Monitor, t.Name)
		s.tenants[t.Name] = ts
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dstreamd: listen %s: %w", addr, err)
	}
	s.lns = []net.Listener{ln}
	if path := sameHostSocket(ln.Addr().String()); path != "" {
		uln, err := net.Listen("unix", path)
		if err != nil {
			// Whoever holds the name would get this daemon's same-host clients.
			ln.Close()
			return nil, fmt.Errorf("dstreamd: listen %s: %w", path, err)
		}
		s.lns = append(s.lns, uln)
	}
	for i := range s.ranks {
		ch := make(chan func(), 64)
		s.ranks[i] = ch
		s.iowg.Add(1)
		go func() {
			defer s.iowg.Done()
			for job := range ch {
				job()
			}
		}()
	}
	for _, ln := range s.lns {
		s.wg.Add(1)
		go s.accept(ln)
	}
	return s, nil
}

// Addr returns the bound TCP listen address.
func (s *Server) Addr() string { return s.lns[0].Addr().String() }

// Close shuts the daemon down: stops accepting, closes every client
// connection, drains the I/O ranks, and closes the storage backends.
// Idempotent; blocks until every goroutine has exited.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	tenants := make([]*tenantState, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()

	for _, ln := range s.lns {
		ln.Close()
	}
	for _, t := range tenants {
		t.window.close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	for _, ch := range s.ranks {
		close(ch)
	}
	s.iowg.Wait()
	var firstErr error
	for _, t := range tenants {
		t.mu.Lock()
		for _, f := range t.files {
			if err := f.b.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		t.mu.Unlock()
	}
	return firstErr
}

// KillConnections forcibly closes every live client connection while
// leaving their sessions resumable within the grace window — the
// disconnect/reconnect fault the chaos oracle injects mid-run.
func (s *Server) KillConnections() int {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

func (s *Server) accept(ln net.Listener) {
	defer s.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.mConns.Add(1)
		go s.handleConn(c)
	}
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.mConns.Add(-1)
	c.Close()
}

// newToken mints a session resume token.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// conn is one attached client connection: the reader (handleConn) decodes
// requests, the writer (writeLoop) is the only goroutine that writes to the
// socket, and between them is the reply queue, which the I/O ranks fill.
type conn struct {
	c   net.Conn
	ten *tenantState
	// slots holds one token per reply owed: the reader puts one in before it
	// serves a request, the writer takes it out once the reply is gone. It
	// bounds out, so queueing a reply never blocks — least of all a rank.
	slots chan struct{}
	out   chan outFrame
	// dead is set by the writer when a write fails, and by the reader when
	// it stops reading. The reader stops at it, rather than serve the
	// requests it still has buffered for a connection that can take no
	// reply, and so do the I/O ranks (dropped).
	dead atomic.Bool
	// mem is the connection's shared chunks (nil when it has none), and
	// held[k] is set while the daemon holds chunk k: from the request that
	// hands it over until just before its reply is queued.
	mem   []byte
	held  []atomic.Bool
	mHeld *dsmon.Gauge // the daemon's dstreamd_chunks_held
}

// giveBack lets go of a transfer's data once the daemon is done with it: a
// pooled buffer (k < 0) goes back to the pool, shared chunk k back to the
// client — poisoned first when it carries nothing the client needs — whose
// next request may name it as soon as the reply is out. A write's chunk is
// never poisoned here: it may be a chunk of a run the client holds, whose
// bytes a retry or a resend still reads (the client poisons the chunks it
// copied into itself, at the reply).
func (cn *conn) giveBack(data []byte, k int, poison bool) {
	if k < 0 {
		bufpool.Put(data)
		return
	}
	if poison {
		poisonChunk(data)
	}
	cn.mHeld.Add(-1)
	cn.held[k].Store(false)
}

// outFrame is one reply on its way to the writer, with what its request holds
// until the reply is on the wire.
type outFrame struct {
	head []byte // from newFrame
	// data is a read's reply data, cut from a pooled buffer that the writer
	// puts back; nil for every other reply.
	data []byte
	// share is the tenant-window bytes the request was admitted with, which
	// the writer releases; zero for an eager request.
	share int64
}

// reply queues one control reply: a reply that holds nothing.
func (cn *conn) reply(head []byte) { cn.out <- outFrame{head: head} }

// dropped is what an I/O rank does first with a queued request: when the
// connection has died, the client resends the request on its next one, so
// the rank gives back the request's data — a pooled buffer (nil for a read),
// or shared chunk k when k ≥ 0, poisoned as giveBack has it — and queues an
// empty reply that only returns its window share and slot, without touching
// the store.
func (cn *conn) dropped(id uint64, data []byte, k int, share int64, poison bool) bool {
	if !cn.dead.Load() {
		return false
	}
	cn.giveBack(data, k, poison)
	cn.out <- outFrame{head: newFrame(id, statusErr), share: share}
	return true
}

// fail replies with a non-OK status and its message.
func (cn *conn) fail(id uint64, status uint8, msg string) {
	cn.reply(putStr(newFrame(id, status), msg))
}

// writeLoop writes the queued replies until out is closed. What a reply held
// goes back only after its write, so a client that stops reading keeps its
// own buffers and window share, and nobody else's. After a failed write the
// connection is closed, which stops the reader too, and the rest is dropped:
// the client resends those requests on its next connection.
func (cn *conn) writeLoop() {
	for f := range cn.out {
		if !cn.dead.Load() && writeFrame(cn.c, f.head, f.data) != nil {
			cn.dead.Store(true)
			cn.c.Close()
		}
		if f.data != nil {
			bufpool.Put(f.data)
		}
		if f.share > 0 {
			cn.ten.window.release(f.share)
		}
		<-cn.slots
	}
}

// handleConn owns one client connection: hello, then the request loop — the
// one request decoder. Frames are read through one buffered reader whose
// buffer doubles as the scratch every head is decoded from, so serving a
// request allocates for neither; a write's data goes around it (recvWrite).
//
// A frame it can delimit but not serve (a body that decodes short, a head
// above maxHead, a transfer above chunkBytes) is skipped and answered with
// statusErr, so the refusal reaches the caller instead of a hang-up that the
// client would answer by resending the same frame; it hangs up only where
// the stream cannot be re-synchronized.
func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(c)
	br := bufio.NewReaderSize(c, maxHead)

	sess, mem, err := s.hello(br, c)
	if err != nil {
		return
	}
	cn := &conn{c: c, ten: sess.ten, slots: make(chan struct{}, replyQueue), out: make(chan outFrame, replyQueue)}
	if mem != nil {
		cn.mem, cn.held, cn.mHeld = mem, make([]atomic.Bool, len(mem)/chunkBytes), s.mChunksHeld
	}
	sess.attach(cn)
	defer s.detach(sess, cn)
	written := make(chan struct{})
	go func() {
		defer close(written)
		cn.writeLoop()
	}()
	bye := false
	defer func() {
		if !bye {
			// Nothing more will be read, so nothing more need be written:
			// the writer drops what is still owed, and the I/O ranks skip
			// the requests still queued.
			cn.dead.Store(true)
			c.Close()
		}
		// Every slot back in hand means every request in flight has had
		// its reply through the writer, so no rank can queue one after out
		// is closed — and none holds a chunk, so the mapping can go.
		for range replyQueue {
			cn.slots <- struct{}{}
		}
		close(cn.out)
		<-written
		if cn.mem != nil {
			unmapChunks(cn.mem)
		}
	}()

	for {
		id, op, rest, err := readFrameHead(br)
		if err != nil || cn.dead.Load() {
			return
		}
		sess.ten.met.requests.Inc()
		cn.slots <- struct{}{}
		switch {
		case op == opWrite:
			s.countInline(cn)
			err = s.recvWrite(sess.ten, br, cn, id, rest)
		case rest > maxHead:
			err = skipAndFail(br, cn, id, rest, fmt.Sprintf("dstreamd: %s request of %d bytes exceeds the %d limit",
				opName(op), rest, maxHead))
		default:
			var body []byte
			if body, err = br.Peek(rest); err == nil {
				bye = s.serve(sess, cn, id, op, enc.NewReader(body))
				_, err = br.Discard(rest)
			}
		}
		if err != nil {
			// A request cut short by the socket was answered by nobody.
			<-cn.slots
			return
		}
		if bye {
			return
		}
	}
}

// countInline counts a transfer whose data crosses in its frame.
func (s *Server) countInline(cn *conn) {
	if cn.mem != nil {
		s.mNoChunk.Inc()
	} else {
		s.mNoMapping.Inc()
	}
}

// serveChunk takes over chunk k for one read or write of n bytes, or refuses
// the request: no shared chunks on this connection, k past them, n above a
// chunk, or k already held by another request.
func (s *Server) serveChunk(t *tenantState, cn *conn, id uint64, op uint8, name string, off int64, n, k uint32) {
	switch {
	case cn.mem == nil:
		cn.fail(id, statusErr, fmt.Sprintf("dstreamd: %s on a connection without shared chunks", opName(op)))
	case int64(k) >= int64(len(cn.held)):
		cn.fail(id, statusErr, fmt.Sprintf("dstreamd: %s names chunk %d of %d", opName(op), k, len(cn.held)))
	case n > chunkBytes:
		cn.fail(id, statusErr, fmt.Sprintf("dstreamd: %s of %d bytes exceeds the %d chunk limit", opName(op), n, chunkBytes))
	case !cn.held[k].CompareAndSwap(false, true):
		cn.fail(id, statusErr, fmt.Sprintf("dstreamd: %s names chunk %d, which another request holds", opName(op), k))
	default:
		s.mChunked.Inc()
		s.mChunksHeld.Add(1)
		if op == opWriteChunk {
			s.submitWrite(t, cn, id, name, off, chunkAt(cn.mem, int(k))[:n], int(k))
		} else {
			s.submitRead(t, cn, id, name, off, n, int(k))
		}
	}
}

// skipAndFail refuses a request whose frame has left bytes unread: it skips
// them, so the connection stays in frame, and replies statusErr. The error is
// the socket's: hang up.
func skipAndFail(br *bufio.Reader, cn *conn, id uint64, left int, msg string) error {
	if _, err := br.Discard(left); err != nil {
		return err
	}
	cn.fail(id, statusErr, msg)
	return nil
}

// serve answers one request other than a write, decoding its body from r —
// which aliases the connection's read buffer, so nothing of it outlives the
// call. It reports whether the request was the session's goodbye.
func (s *Server) serve(sess *session, cn *conn, id uint64, op uint8, r *enc.Reader) (bye bool) {
	ten := sess.ten
	switch op {
	case opBye:
		cn.reply(newFrame(id, statusOK))
		// An explicit goodbye ends the session immediately: no grace, the
		// admission slot frees now.
		sess.mu.Lock()
		sess.attached = false
		sess.detached = time.Time{}
		sess.mu.Unlock()
		s.remove(sess)
		return true
	case opOpen:
		if name := r.String(); r.Err() == nil {
			s.doOpen(ten, cn, id, name)
		}
	case opSize:
		name := r.String()
		if r.Err() != nil {
			break
		}
		if f, err := s.lookup(ten, name); err != nil {
			cn.fail(id, statusErr, err.Error())
		} else {
			cn.reply(putI64(newFrame(id, statusOK), f.b.Size()))
		}
	case opTrunc:
		name := r.String()
		if size := r.Int64(); r.Err() == nil {
			s.doTrunc(ten, cn, id, name, size)
		}
	case opUsage:
		ten.mu.Lock()
		used, quota := ten.usage, ten.cfg.QuotaBytes
		ten.mu.Unlock()
		cn.reply(putI64(putI64(newFrame(id, statusOK), used), quota))
	case opRead:
		name := r.String()
		off := r.Int64()
		if n := r.Uint32(); r.Err() == nil {
			s.countInline(cn)
			s.submitRead(ten, cn, id, name, off, n, -1)
		}
	case opReadChunk, opWriteChunk:
		name := r.String()
		off := r.Int64()
		n := r.Uint32()
		if k := r.Uint32(); r.Err() == nil {
			s.serveChunk(ten, cn, id, op, name, off, n, k)
		}
	default:
		cn.fail(id, statusErr, fmt.Sprintf("dstreamd: unknown %s", opName(op)))
	}
	if err := r.Err(); err != nil {
		cn.fail(id, statusErr, fmt.Sprintf("dstreamd: malformed %s request: %v", opName(op), err))
	}
	return false
}

// recvWrite takes one write request off the connection — rest bytes of its
// frame are unread: the name and offset out of the read buffer, the data
// from the socket into one pooled buffer sized for it alone, which
// submitWrite then owns. A request refused here is skipped, never buffered.
// The error is the socket's: hang up.
func (s *Server) recvWrite(t *tenantState, br *bufio.Reader, cn *conn, id uint64, rest int) error {
	refuse := func(left int, msg string) error { return skipAndFail(br, cn, id, left, msg) }
	// name(u32 length, bytes) off(i64), then the data's own u32 length.
	head := int64(4 + 8 + 4)
	if int64(rest) >= head {
		b, err := br.Peek(4)
		if err != nil {
			return err
		}
		head += int64(binary.LittleEndian.Uint32(b))
	}
	if head > int64(rest) {
		return refuse(rest, "dstreamd: malformed write request: truncated frame")
	}
	if head > maxHead {
		return refuse(rest, fmt.Sprintf("dstreamd: write request head of %d bytes exceeds the %d limit", head, maxHead))
	}
	b, err := br.Peek(int(head))
	if err != nil {
		return err
	}
	r := enc.NewReader(b)
	name, off, n := r.String(), r.Int64(), int64(r.Uint32())
	br.Discard(int(head)) //nolint:errcheck // peeked above: it is all buffered
	switch left := int64(rest) - head; {
	case n != left:
		return refuse(int(left), fmt.Sprintf("dstreamd: write request declares %d data bytes in a frame with %d left", n, left))
	case n > chunkBytes:
		return refuse(int(left), fmt.Sprintf("dstreamd: write of %d bytes exceeds the %d chunk limit", n, chunkBytes))
	}
	data := bufpool.Get(int(n))
	if _, err := io.ReadFull(br, data); err != nil {
		bufpool.Put(data)
		return err
	}
	s.submitWrite(t, cn, id, name, off, data, -1)
	return nil
}

// hello performs the handshake: authenticate the tenant, admit or resume
// the session, grant its resume token — and, to a v2 hello on the same-host
// socket that asks for them, the connection's shared chunks, whose mapping it
// returns. It writes its reply itself: the connection has no writer yet. A
// failed write is not its error to report — the session is admitted, and the
// next read finds the dead socket and detaches it.
func (s *Server) hello(br *bufio.Reader, c net.Conn) (*session, []byte, error) {
	id, op, rest, err := readFrameHead(br)
	if err != nil {
		return nil, nil, err
	}
	body, err := br.Peek(min(rest, maxHead))
	if err != nil {
		return nil, nil, err
	}
	fail := func(status uint8, msg string) {
		writeFrame(c, putStr(newFrame(id, status), msg), nil) //nolint:errcheck // a refusal; the connection ends here
	}
	r := enc.NewReader(body)
	tenant := r.String()
	token := r.String()
	// A v1 hello ends at the token.
	version, features := uint32(1), uint32(0)
	if r.Remaining() >= 8 {
		version, features = r.Uint32(), r.Uint32()
	}
	if rest > maxHead || r.Err() != nil || op != opHello {
		fail(statusErr, "dstreamd: expected hello")
		return nil, nil, fmt.Errorf("bad hello")
	}
	br.Discard(rest) //nolint:errcheck // peeked above: it is all buffered
	s.mu.Lock()
	ten := s.tenants[tenant]
	if ten == nil {
		s.mu.Unlock()
		fail(statusAuth, fmt.Sprintf("%v: %q", ErrUnknownTenant, tenant))
		return nil, nil, ErrUnknownTenant
	}
	resumed := false
	var sess *session
	if token != "" {
		if prev, ok := s.sessions[token]; ok && prev.ten == ten {
			sess = prev
			resumed = true
		}
	}
	if sess == nil {
		ten.mu.Lock()
		if ten.cfg.MaxSessions > 0 && ten.sessions >= ten.cfg.MaxSessions {
			ten.mu.Unlock()
			s.mu.Unlock()
			fail(statusBusy,
				fmt.Sprintf("%v: %d active", ErrBusy, ten.cfg.MaxSessions))
			return nil, nil, ErrBusy
		}
		ten.sessions++
		ten.mu.Unlock()
		sess = &session{token: newToken(), ten: ten}
		s.sessions[sess.token] = sess
		ten.met.sessionsTotal.Inc()
		ten.met.sessions.Set(float64(sessionGauge(ten)))
	}
	s.mu.Unlock()
	sess.mu.Lock()
	sess.attached = true
	sess.mu.Unlock()
	if resumed {
		ten.met.reconnects.Inc()
	}

	out := putStr(newFrame(id, statusOK), sess.token)
	if version < wireVersion {
		// Behind the token, the reserved fields (opHello): a 4 MiB window,
		// the quota, the usage, the resumed flag and eagerBytes.
		ten.mu.Lock()
		used, quota := ten.usage, ten.cfg.QuotaBytes
		ten.mu.Unlock()
		out = putI64(putI64(putI64(out, 4<<20), quota), used)
		if resumed {
			out = putU8(out, 1)
		} else {
			out = putU8(out, 0)
		}
		writeFrame(c, putU32(out, eagerBytes), nil) //nolint:errcheck
		return sess, nil, nil
	}
	fd, mem := -1, []byte(nil)
	if _, unix := c.(*net.UnixConn); unix && features&featSharedChunks != 0 {
		if fd, mem, err = newChunkFile(s.cfg.sharedChunks()); err != nil {
			fd, mem = -1, nil // answered with frames
		}
	}
	granted, n := uint32(0), 0
	if mem != nil {
		granted, n = featSharedChunks, len(mem)/chunkBytes
	}
	out = putU32(putU32(putU32(putU32(out, wireVersion), granted), uint32(n)), chunkBytes)
	if mem == nil {
		writeFrame(c, out, nil) //nolint:errcheck
		return sess, nil, nil
	}
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	err = writeWithFile(c, out, fd)
	closeFile(fd)
	if err != nil {
		unmapChunks(mem)
		mem = nil
	}
	return sess, mem, nil
}

func sessionGauge(t *tenantState) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions
}

// expire releases a session's admission slot once its grace window passed
// without a resume.
func (s *Server) expire(sess *session) {
	sess.mu.Lock()
	stale := !sess.attached && !sess.detached.IsZero() && time.Since(sess.detached) >= s.cfg.Grace
	sess.mu.Unlock()
	if stale {
		s.remove(sess)
	}
}

// remove deletes a session and frees its admission slot. Idempotent.
func (s *Server) remove(sess *session) {
	s.mu.Lock()
	_, present := s.sessions[sess.token]
	delete(s.sessions, sess.token)
	s.mu.Unlock()
	if !present {
		return
	}
	sess.ten.mu.Lock()
	sess.ten.sessions--
	n := sess.ten.sessions
	sess.ten.mu.Unlock()
	sess.ten.met.sessions.Set(float64(n))
}

// lookup resolves an already-opened tenant file.
func (s *Server) lookup(t *tenantState, name string) (*srvFile, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.files[name]
	if !ok {
		return nil, fmt.Errorf("dstreamd: file %q not opened", name)
	}
	return f, nil
}

// doOpen gets or creates the tenant file and reports size and geometry.
func (s *Server) doOpen(t *tenantState, cn *conn, id uint64, name string) {
	t.mu.Lock()
	f, ok := t.files[name]
	if !ok {
		b, err := s.cfg.Factory(t.cfg.Name + "/" + name)
		if err != nil {
			t.mu.Unlock()
			cn.fail(id, statusErr, fmt.Sprintf("dstreamd: open %q: %v", name, err))
			return
		}
		f = &srvFile{b: b, resEnd: b.Size()}
		if lp, isLP := b.(pfs.LayoutProvider); isLP {
			f.layout = lp.Layout()
		}
		if f.layout.StripeFactor <= 0 || f.layout.StripeUnit <= 0 {
			f.layout = pfs.Layout{StripeUnit: s.cfg.StripeUnit, StripeFactor: s.cfg.StripeFactor}
		}
		t.files[name] = f
		// A pre-existing image (an OS-backed daemon restart) counts against
		// the quota from the start.
		t.usage += f.resEnd
		t.met.quotaUsed.Set(float64(t.usage))
	}
	size := f.b.Size()
	layout := f.layout
	t.mu.Unlock()
	out := putI64(newFrame(id, statusOK), size)
	out = putI64(out, layout.StripeUnit)
	out = putU32(out, uint32(layout.StripeFactor))
	cn.reply(out)
}

// doTrunc resizes a tenant file, adjusting the quota reservation.
func (s *Server) doTrunc(t *tenantState, cn *conn, id uint64, name string, size int64) {
	if size < 0 {
		cn.fail(id, statusErr, fmt.Sprintf("dstreamd: negative truncate %d", size))
		return
	}
	f, err := s.lookup(t, name)
	if err != nil {
		cn.fail(id, statusErr, err.Error())
		return
	}
	t.mu.Lock()
	switch {
	case size < f.resEnd:
		t.usage -= f.resEnd - size
		f.resEnd = size
	case size > f.resEnd:
		delta := size - f.resEnd
		if t.cfg.QuotaBytes > 0 && t.usage+delta > t.cfg.QuotaBytes {
			t.mu.Unlock()
			t.met.quotaRejects.Inc()
			cn.fail(id, statusQuota, fmt.Sprintf("%v: truncate to %d needs %d over %d",
				ErrQuota, size, delta, t.cfg.QuotaBytes))
			return
		}
		t.usage += delta
		f.resEnd = size
	}
	usage := t.usage
	t.mu.Unlock()
	t.met.quotaUsed.Set(float64(usage))
	if err := f.b.Truncate(size); err != nil {
		cn.fail(id, statusErr, err.Error())
		return
	}
	cn.reply(newFrame(id, statusOK))
}

// rankFor routes one request to its dedicated I/O rank: the same (tenant,
// file, stripe cell) always lands on the same rank, so per-cell order is
// preserved while distinct cells and files fan out across the ranks — the
// ViPIOS "data is mapped across I/O server processes" scheme.
func (s *Server) rankFor(tenant, name string, off int64) chan func() {
	h := fnv.New64a()
	io.WriteString(h, tenant) //nolint:errcheck
	io.WriteString(h, "/")    //nolint:errcheck
	io.WriteString(h, name)   //nolint:errcheck
	cell := off / s.cfg.StripeUnit
	return s.ranks[(h.Sum64()^uint64(cell))%uint64(len(s.ranks))]
}

// admit reserves n bulk bytes from the tenant window and returns the share
// it holds, which travels with the request's reply until the writer releases
// it. Eager-sized requests pass straight through, like eager sends in the
// comm layer, and hold none.
func (s *Server) admit(t *tenantState, n int) (int64, error) {
	if n <= eagerBytes {
		return 0, nil
	}
	share := min(int64(n), s.cfg.tenantWindow())
	start := time.Now()
	if err := t.window.acquire(share); err != nil {
		return 0, err
	}
	t.met.admissionWait.Observe(time.Since(start).Seconds())
	return share, nil
}

// submitRead admits and enqueues one read on its I/O rank. Framed (k < 0),
// the rank reads into a pooled buffer and queues the reply with it as the
// frame's second iovec; the writer puts the buffer back once the reply is
// written. Into shared chunk k, which the daemon holds, the reply only names
// the chunk, and the rank hands the chunk back as it queues it; a transient
// reply carries its partial data in the frame all the same.
func (s *Server) submitRead(t *tenantState, cn *conn, id uint64, name string, off int64, n uint32, k int) {
	refuse := func(msg string) {
		if k >= 0 {
			cn.giveBack(chunkAt(cn.mem, k), k, true)
		}
		cn.fail(id, statusErr, msg)
	}
	if n > chunkBytes {
		refuse(fmt.Sprintf("dstreamd: read of %d bytes exceeds the %d chunk limit", n, chunkBytes))
		return
	}
	f, err := s.lookup(t, name)
	if err != nil {
		refuse(err.Error())
		return
	}
	if off < 0 || off > math.MaxInt64-int64(n) {
		refuse(fmt.Sprintf("dstreamd: read of %d bytes at offset %d is out of range", n, off))
		return
	}
	share, err := s.admit(t, int(n))
	if err != nil {
		refuse(err.Error())
		return
	}
	s.rankFor(t.cfg.Name, name, off) <- func() {
		var buf []byte // shared chunk k, or nil when framed
		if k >= 0 {
			buf = chunkAt(cn.mem, k)
		}
		if cn.dropped(id, buf, k, share, true) {
			return
		}
		if k < 0 {
			buf = bufpool.Get(int(n))
		}
		buf = buf[:n]
		got, err := f.b.ReadAt(buf, off)
		if got < 0 {
			got = 0
		}
		t.met.bytesOut.Add(int64(got))
		status := statusOK
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			status = statusEOF
		case pfs.IsTransient(err):
			t.met.transients.Inc()
			status = statusTransient
		default:
			status, got = statusErr, 0
		}
		head := newFrame(id, status)
		if status == statusTransient || status == statusErr {
			head = putStr(head, err.Error())
		}
		data := buf[:got]
		if k >= 0 {
			switch {
			case status == statusOK || status == statusEOF:
				// The data stays in the chunk, which the reply names.
				head, data = putU32(head, uint32(k)), nil
				cn.giveBack(buf, k, false)
			case got > 0:
				data = append(bufpool.GetCap(got), buf[:got]...)
				cn.giveBack(buf, k, true)
			default:
				data = nil
				cn.giveBack(buf, k, true)
			}
		}
		if status != statusErr {
			head = putU32(head, uint32(got))
		}
		cn.out <- outFrame{head: head, data: data, share: share}
	}
}

// submitWrite checks the quota, admits, and enqueues one write. It owns
// data — a pooled buffer, or shared chunk k when k ≥ 0 — and gives it back on
// every path: at a refusal, or on the I/O rank once the store has returned
// from WriteAt (a striped store hands slices of it to several children at
// once, so not before).
func (s *Server) submitWrite(t *tenantState, cn *conn, id uint64, name string, off int64, data []byte, k int) {
	refuse := func(status uint8, msg string) {
		cn.giveBack(data, k, false)
		cn.fail(id, status, msg)
	}
	f, err := s.lookup(t, name)
	if err != nil {
		refuse(statusErr, err.Error())
		return
	}
	if off < 0 {
		refuse(statusErr, fmt.Sprintf("dstreamd: negative offset %d", off))
		return
	}
	if off > math.MaxInt64-int64(len(data)) {
		// The end would wrap negative, pass the quota check below and reach
		// a store that writes nothing and reports success.
		refuse(statusErr, fmt.Sprintf("dstreamd: write of %d bytes at offset %d is out of range", len(data), off))
		return
	}
	// Quota: reserve growth up front, under the tenant lock, so concurrent
	// writes through different I/O ranks cannot double-spend the budget. A
	// resend after reconnect re-reserves nothing (the high-water already
	// covers it), keeping retries idempotent.
	end := off + int64(len(data))
	t.mu.Lock()
	if end > f.resEnd {
		delta := end - f.resEnd
		if t.cfg.QuotaBytes > 0 && t.usage+delta > t.cfg.QuotaBytes {
			used := t.usage
			t.mu.Unlock()
			t.met.quotaRejects.Inc()
			refuse(statusQuota, fmt.Sprintf(
				"%v: write to %d needs %d more with %d of %d used",
				ErrQuota, end, delta, used, t.cfg.QuotaBytes))
			return
		}
		t.usage += delta
		f.resEnd = end
	}
	usage := t.usage
	t.mu.Unlock()
	t.met.quotaUsed.Set(float64(usage))
	t.met.bytesIn.Add(int64(len(data)))

	share, err := s.admit(t, len(data))
	if err != nil {
		refuse(statusErr, err.Error())
		return
	}
	s.rankFor(t.cfg.Name, name, off) <- func() {
		if cn.dropped(id, data, k, share, false) {
			return
		}
		n, err := f.b.WriteAt(data, off)
		cn.giveBack(data, k, false)
		if n < 0 {
			n = 0
		}
		var head []byte
		switch {
		case err == nil:
			head = putU32(newFrame(id, statusOK), uint32(n))
		case pfs.IsTransient(err):
			t.met.transients.Inc()
			head = putU32(putStr(newFrame(id, statusTransient), err.Error()), uint32(n))
		default:
			head = putStr(newFrame(id, statusErr), err.Error())
		}
		cn.out <- outFrame{head: head, share: share}
	}
}
