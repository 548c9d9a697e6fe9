package comm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/dsmon"
)

// TCPTransport moves messages over real loopback TCP sockets. Every rank
// holds one multiplexed connection to a central acceptor; frames carry the
// destination rank and are dispatched into per-rank mailboxes. Virtual time
// rides in-band (the frame carries the sender's timestamp), so a program
// produces the same virtual-time results over TCP as over channels — a
// property the transport tests assert.
//
// Writes are batched: Send encodes the frame into a pooled buffer and
// queues it on the sender's connection; a per-connection writer coalesces
// whatever has accumulated into one vectored write (net.Buffers → writev),
// so a burst of small frames costs one syscall, not one per message.
type TCPTransport struct {
	boxes []*mailbox
	ln    net.Listener
	ctr   ringCounters

	mu    sync.Mutex
	conns []*tcpConn // indexed by sender rank
	wg    sync.WaitGroup
	done  chan struct{}

	// Wire-level counters (nil handles are no-ops). Unlike the Endpoint's
	// payload accounting these measure the real socket traffic: frame
	// headers included.
	mFrames    *dsmon.Counter
	mWireBytes *dsmon.Counter
	mBatches   *dsmon.Counter
}

// SetMonitor attaches wire-level counters — frames written, total bytes on
// the wire (frame headers included), and vectored batches flushed — plus
// the comm_ring_* mailbox gauges. Call before the machine run starts; the
// handles are read by writer goroutines without further synchronization.
func (t *TCPTransport) SetMonitor(m *dsmon.Monitor) {
	reg := m.Registry()
	t.mFrames = reg.Counter("comm_tcp_frames_total", "frames written to the loopback socket")
	t.mWireBytes = reg.Counter("comm_tcp_wire_bytes_total", "bytes written to the loopback socket, frame headers included")
	t.mBatches = reg.Counter("comm_tcp_write_batches_total", "vectored writes flushed (each coalesces one or more frames)")
	bindRingMetrics(m, &t.ctr)
}

// RingStats snapshots the transport's mailbox-path counters. Safe from
// any goroutine, including mid-run.
func (t *TCPTransport) RingStats() RingStats { return t.ctr.snapshot() }

// maxOutboxBytes bounds the frames queued on one connection awaiting the
// writer; a sender that outruns the socket parks here instead of growing
// the queue without bound.
const maxOutboxBytes = 1 << 20

type tcpConn struct {
	c net.Conn

	mu      sync.Mutex
	cond    *sync.Cond // queue became non-empty, space freed, broken, or closing
	outbox  [][]byte   // encoded frames (pooled), in send order
	queued  int        // bytes across outbox
	broken  error      // first write failure; the byte stream is torn, all later sends fail fast
	closing bool
}

// frame layout: u32 payloadLen | u32 from | u32 to | u64 tag | u64 seq | u64 timeBits | payload
const frameHeaderLen = 4 + 4 + 4 + 8 + 8 + 8

// NewTCPTransport creates a transport for n ranks over loopback TCP. It
// starts a listener, dials one connection per rank, and spawns reader and
// writer goroutines per connection.
func NewTCPTransport(n int) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("comm: tcp listen: %w", err)
	}
	t := &TCPTransport{
		boxes: make([]*mailbox, n),
		ln:    ln,
		conns: make([]*tcpConn, n),
		done:  make(chan struct{}),
	}
	for i := range t.boxes {
		t.boxes[i] = newMailbox(n, &t.ctr)
	}

	accepted := make(chan net.Conn, n)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for i := 0; i < n; i++ {
			c, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c
		}
		close(accepted)
	}()

	for rank := 0; rank < n; rank++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("comm: tcp dial rank %d: %w", rank, err)
		}
		tc := &tcpConn{c: c}
		tc.cond = sync.NewCond(&tc.mu)
		t.conns[rank] = tc
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.writeLoop(tc)
		}()
	}

	// Spawn a reader per accepted connection. Which accepted socket pairs
	// with which dialer does not matter: frames self-describe From/To.
	for c := range accepted {
		c := c
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.readLoop(c)
		}()
	}
	return t, nil
}

func (t *TCPTransport) readLoop(c net.Conn) {
	r := bufio.NewReader(c)
	hdr := make([]byte, frameHeaderLen)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		m := Message{
			From: int(int32(binary.LittleEndian.Uint32(hdr[4:8]))),
			To:   int(int32(binary.LittleEndian.Uint32(hdr[8:12]))),
			Tag:  binary.LittleEndian.Uint64(hdr[12:20]),
			Seq:  binary.LittleEndian.Uint64(hdr[20:28]),
			Time: math.Float64frombits(binary.LittleEndian.Uint64(hdr[28:36])),
		}
		if plen > 0 {
			m.Data = bufpool.Get(int(plen))
			if _, err := io.ReadFull(r, m.Data); err != nil {
				bufpool.Put(m.Data)
				return
			}
		}
		if m.To < 0 || m.To >= len(t.boxes) {
			bufpool.Put(m.Data)
			return // corrupt frame; drop the connection
		}
		// put never blocks (a full ring spills to the overflow list): a read
		// loop stalled on one hot rank would head-of-line-block every other
		// rank multiplexed on this connection.
		if err := t.boxes[m.To].put(m); err != nil {
			bufpool.Put(m.Data)
			return
		}
	}
}

// Send implements Transport by encoding m into a pooled frame and queueing
// it on the sender's connection for the writer to coalesce. The payload is
// fully copied before Send returns, so callers may reuse their buffers
// immediately, exactly as with the old synchronous write path; an owned
// payload (Mode Owned) is copied the same way and then released to bufpool,
// once the frame is queued — a Send that fails leaves it with the caller. A
// lent payload is copied and left with its sender, so the receiver is
// delivered a copy of its own, not marked lent. A write
// failure surfaces on the next Send from that rank (fast and fatal — a
// partial frame may be on the wire, so the stream cannot be trusted).
func (t *TCPTransport) Send(m Message) error {
	if m.From < 0 || m.From >= len(t.conns) {
		return fmt.Errorf("comm: tcp send from invalid rank %d", m.From)
	}
	if m.To < 0 || m.To >= len(t.boxes) {
		return fmt.Errorf("comm: tcp send to invalid rank %d", m.To)
	}
	frame := bufpool.Get(frameHeaderLen + len(m.Data))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(m.Data)))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(int32(m.From)))
	binary.LittleEndian.PutUint32(frame[8:12], uint32(int32(m.To)))
	binary.LittleEndian.PutUint64(frame[12:20], m.Tag)
	binary.LittleEndian.PutUint64(frame[20:28], m.Seq)
	binary.LittleEndian.PutUint64(frame[28:36], math.Float64bits(m.Time))
	copy(frame[frameHeaderLen:], m.Data)

	tc := t.conns[m.From]
	tc.mu.Lock()
	for tc.queued >= maxOutboxBytes && tc.broken == nil && !tc.closing {
		tc.cond.Wait()
	}
	if tc.broken != nil {
		tc.mu.Unlock()
		bufpool.Put(frame)
		return fmt.Errorf("comm: tcp send from %d: %w", m.From, tc.broken)
	}
	if tc.closing {
		tc.mu.Unlock()
		bufpool.Put(frame)
		return ErrClosed
	}
	tc.outbox = append(tc.outbox, frame)
	tc.queued += len(frame)
	tc.mu.Unlock()
	tc.cond.Broadcast()
	if m.Mode == Owned {
		bufpool.Put(m.Data)
	}
	return nil
}

// writeLoop drains one connection's outbox: each pass swaps out everything
// queued and pushes it with a single vectored write, releasing the pooled
// frames afterward. A failed or timed-out write may have left a partial
// frame on the wire; the connection is marked broken and every later send
// fails fast and fatally (retrying could interleave into the torn frame).
func (t *TCPTransport) writeLoop(tc *tcpConn) {
	var scratch net.Buffers
	for {
		tc.mu.Lock()
		for len(tc.outbox) == 0 && tc.broken == nil && !tc.closing {
			tc.cond.Wait()
		}
		if tc.broken != nil || (tc.closing && len(tc.outbox) == 0) {
			frames := tc.outbox
			tc.outbox, tc.queued = nil, 0
			tc.mu.Unlock()
			tc.cond.Broadcast()
			for _, f := range frames {
				bufpool.Put(f)
			}
			return
		}
		frames := tc.outbox
		tc.outbox, tc.queued = nil, 0
		tc.mu.Unlock()
		tc.cond.Broadcast() // space freed: release parked senders

		var bytes int64
		// WriteTo consumes (and reslices) its receiver, so hand it a scratch
		// copy and keep the originals intact for the pool.
		scratch = append(scratch[:0], frames...)
		for _, f := range frames {
			bytes += int64(len(f))
		}
		_, err := scratch.WriteTo(tc.c)
		for _, f := range frames {
			bufpool.Put(f)
		}
		if err != nil {
			tc.mu.Lock()
			tc.broken = err
			tc.mu.Unlock()
			tc.cond.Broadcast()
			return
		}
		t.mFrames.Add(int64(len(frames)))
		t.mWireBytes.Add(bytes)
		t.mBatches.Inc()
	}
}

// Recv implements Transport.
func (t *TCPTransport) Recv(to, from int, tag uint64) (Message, error) {
	if to < 0 || to >= len(t.boxes) {
		return Message{}, fmt.Errorf("comm: tcp recv on invalid rank %d", to)
	}
	return t.boxes[to].get(from, tag)
}

// RecvWithin implements DeadlineRecver. A timeout is transient: the peer
// across the socket may merely be slow.
func (t *TCPTransport) RecvWithin(to, from int, tag uint64, timeout time.Duration) (Message, error) {
	if to < 0 || to >= len(t.boxes) {
		return Message{}, fmt.Errorf("comm: tcp recv on invalid rank %d", to)
	}
	m, err := t.boxes[to].getWithin(from, tag, timeout)
	if errors.Is(err, ErrRecvTimeout) {
		err = fmt.Errorf("%w: %w", ErrTransient, err)
	}
	return m, err
}

// Close shuts down the writers, the listener, all connections, and all
// mailboxes. Queued frames still unflushed are dropped, as on a real wire.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	select {
	case <-t.done:
		t.mu.Unlock()
		return nil
	default:
		close(t.done)
	}
	t.mu.Unlock()

	for _, tc := range t.conns {
		if tc != nil {
			tc.mu.Lock()
			tc.closing = true
			tc.mu.Unlock()
			tc.cond.Broadcast()
		}
	}
	t.ln.Close()
	for _, tc := range t.conns {
		if tc != nil {
			tc.c.Close()
		}
	}
	for _, b := range t.boxes {
		b.close()
	}
	t.wg.Wait()
	return nil
}
