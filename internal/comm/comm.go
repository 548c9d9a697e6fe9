// Package comm provides the rank-addressed message-passing substrate of the
// simulated multicomputer. The paper's pC++ runtime sat on Intel NX and TMC
// CMMD; Go has no MPI culture, so this package emulates the same facility
// with goroutines and sockets: a Transport moves tagged byte payloads
// between ranks, and an Endpoint layers deterministic virtual-time
// accounting on top (each message carries its send timestamp; the receiver's
// clock advances to send time + latency + size/bandwidth).
//
// Two transports are provided behind one interface: ChanTransport (in-process
// queues) and TCPTransport (real loopback sockets, exercising genuine
// serialization). Because virtual time is carried in-band, both transports
// produce identical virtual-time results for the same program.
package comm

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/vtime"
)

// Message is one rank-to-rank datagram. Time is the sender's virtual clock
// at the moment of sending. Seq, when nonzero, is the message's 1-based
// sequence number within its (from, to, tag) stream: sequenced messages are
// deduplicated (a retried or duplicated copy of an already-delivered seq is
// discarded) and reassembled in order (a receiver waiting on the stream is
// not handed seq n+1 while seq n is still in flight). Seq 0 messages bypass
// both mechanisms and behave exactly as before — raw Transport users that
// never face duplication need no sequencing. SeqOnce marks the only message
// its stream will ever carry (see Endpoint.SendOnce).
//
// Mode says how Data changes hands (see Mode). A wrapper that passes the
// Message on by value carries the mode with it; one that may deliver late,
// twice, or deliver and still report failure cannot honour Owned or Lent
// through those paths and follows the rule in DESIGN.md "Ownership on the
// wire".
type Message struct {
	From, To int
	Tag      uint64
	Seq      uint64
	Time     float64
	Data     []byte
	Mode     Mode
}

// Mode is how a message's payload changes hands: one field with three values,
// so that a payload cannot be both given up and lent.
type Mode uint8

const (
	// Borrowed: the transport reads Data only during Send and delivers its
	// own copy, which the receiver owns. A received message that is not Lent
	// reads Borrowed.
	Borrowed Mode = iota
	// Owned: Data is a bufpool buffer the sender gives up (see
	// Endpoint.SendOwned). A Send that returns nil has taken it — delivered
	// it as it is, or copied it and released it — and a Send that returns an
	// error has left it with the caller, untouched. The mode is the sender's
	// word to the transport: what the receiver is delivered reads Borrowed.
	Owned
	// Lent: Data stays the sender's (see Endpoint.SendOnceLent). The
	// in-process transport delivers the very slice, still marked Lent, and
	// the receiver reads it, never writes or Puts it, and stops reading at a
	// fence the two sides' protocol provides; the sender keeps it intact
	// until then. A transport or wrapper that copies delivers its copy as
	// Borrowed.
	Lent
)

// SeqOnce is the sequence number of a one-shot message: the single message
// of a (from, to, tag) stream whose tag is never used again. It is
// deduplicated like any sequenced message, but neither end keeps a cursor
// for its stream afterwards — a program that mints a fresh tag per
// operation (every collective does) would otherwise grow one map entry per
// message on both ends for as long as the machine lives.
const SeqOnce = ^uint64(0)

// Transport delivers messages between ranks. Implementations must preserve
// per-(sender, tag) FIFO order and must match receives by exact (from, tag).
type Transport interface {
	// Send enqueues m for delivery to m.To. It must not block indefinitely
	// on a well-formed program.
	Send(m Message) error
	// Recv blocks until a message from `from` with tag `tag` addressed to
	// `to` is available and returns it.
	Recv(to, from int, tag uint64) (Message, error)
	// Close releases transport resources. Pending receivers get errors.
	Close() error
}

// DeadlineRecver is implemented by transports whose receives can be bounded
// in real time. A receive that outlasts the deadline fails with
// ErrRecvTimeout instead of blocking forever — the last-resort conversion of
// a hang into a clean error.
type DeadlineRecver interface {
	RecvWithin(to, from int, tag uint64, timeout time.Duration) (Message, error)
}

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("comm: transport closed")

// ErrTransient marks a fault the sender or receiver may retry: a dropped or
// NACKed message, an injected chaos fault, a receive deadline. Fatal faults
// (closed transports, invalid ranks, dead links) do not wrap it and
// propagate immediately.
var ErrTransient = errors.New("comm: transient fault")

// ErrRecvTimeout reports a receive that outlasted its real-time deadline. On
// the in-process transport it is final: nothing there holds a message for
// long, so a wait past the deadline is a peer that diverged or died, and
// waiting again only multiplies the wait. A wire transport's also wraps
// ErrTransient: a peer across a socket may merely be slow, and the receiver
// retries until its budget is spent.
var ErrRecvTimeout = errors.New("comm: receive deadline exceeded")

// IsTransient reports whether err is worth retrying: anything wrapping
// ErrTransient, plus net.Error timeouts from a real-socket transport.
func IsTransient(err error) bool {
	if errors.Is(err, ErrTransient) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// RetryPolicy bounds an endpoint's handling of transient faults: up to
// MaxAttempts tries per operation, with Backoff virtual seconds charged
// before the first retry and doubled for each further one. Retries are
// idempotent — a resent message carries the same sequence number, so a
// "failed" send whose copy actually arrived is deduplicated at the
// receiver, not delivered twice.
type RetryPolicy struct {
	MaxAttempts int
	Backoff     float64
}

// DefaultRetryPolicy allows six attempts starting at a microsecond of
// virtual backoff — enough to ride out bursts of transient faults while
// keeping a genuinely dead link's failure latency far below a human's.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{MaxAttempts: 6, Backoff: 1e-6} }

// streamID keys per-(peer, tag) sequencing state: the peer is the sender on
// the receive side and the destination on the send side.
type streamID struct {
	peer int
	tag  uint64
}

// mailbox is one rank's inbound message store, shared by both transports.
// The hot path is lock-free: each sender rank gets its own bounded MPMC
// ring (allocated lazily, so a 1024-rank machine pays only for the pairs
// that actually talk), and an enqueue is a CAS plus a waiter check — no
// mutex, no condition variable, no per-message channel hop. Producers that
// must never stall (wire read loops, and any sender of a small message —
// see eagerMaxBytes) spill to an unbounded overflow list when a ring
// fills; in-process senders of bulk payloads instead block on the space
// gate, so a fast producer is throttled, never dropped.
//
// Matching, sequencing, and reassembly live on the consumer side: the
// receiver drains rings into per-stream pending lists under mu (touched
// only by drainers, never by fast-path producers) and delivers the first
// (from, tag) match. For sequenced messages (Seq != 0) the pending stage
// is also the reassembly point: next tracks the next sequence number to
// deliver per (from, tag) stream, duplicates of already-delivered or
// already-staged sequence numbers are discarded as they are drained, and
// match refuses to hand out seq n+1 while seq n is still in flight — so a
// transport wrapped in delay, duplication, or retransmission still
// presents exactly-once, in-order streams.
//
// The stage holds state only for streams with something staged or a cursor
// to keep: a list that empties leaves the pending map (its backing array
// goes to a small free list), and one-shot streams (SeqOnce) never enter
// next — the last onceWindow of them delivered are remembered instead, which
// is what suppressing a duplicate takes. A duplicate that arrives later
// than that is staged and never matched (nobody receives on a one-shot tag
// twice) until close reaps it.
type mailbox struct {
	size    int
	ringCap int
	rings   []atomic.Pointer[ring] // indexed by sender rank; nil until first use
	closed  atomic.Bool
	arrival gate // producers wake consumers: something was enqueued
	space   gate // consumers wake producers: ring slots were freed
	ctr     *ringCounters

	// ovfBySender[s] counts sender s's messages currently in the overflow
	// list. While it is nonzero, s's later messages must also ride the
	// overflow — a newer message jumping back into the (now drained) ring
	// would be staged ahead of the older spilled ones and break the
	// per-(sender, tag) FIFO contract for unsequenced messages.
	ovfBySender []atomic.Int32

	// ovf is the unbounded MPMC fallback: out-of-range sender ranks and
	// full-ring producers that must not block land here under a plain mutex.
	ovf struct {
		sync.Mutex
		q []Message
	}

	// Matching and reassembly state, guarded by mu. In steady state only
	// the rank's receiver goroutine takes it; a blocked producer assisting
	// its own inbox (see putBlocking) is the other drainer.
	mu       sync.Mutex
	pending  map[streamID][]Message // staged messages per stream, arrival order; no empty lists
	next     map[streamID]uint64    // next seq to deliver; absent means 1
	listFree [][]Message            // emptied pending lists, at most maxListFree
	once     map[streamID]struct{}  // one-shot streams delivered, the latest onceWindow
	onceRing []streamID             // the same, oldest at onceHead once full
	onceHead int
}

const (
	// maxListFree bounds the free list of pending-list backing arrays: a
	// receiver rarely has more streams staged at once than it has peers in
	// one collective step.
	maxListFree = 32
	// onceWindow is how many delivered one-shot streams a mailbox remembers
	// for duplicate suppression. Duplicates are made by a retry or a faulty
	// link and trail their original by a few messages, not hundreds.
	onceWindow = 256
)

func newMailbox(size int, ctr *ringCounters) *mailbox {
	return &mailbox{
		size:        size,
		ringCap:     defaultRingCap,
		rings:       make([]atomic.Pointer[ring], size),
		ovfBySender: make([]atomic.Int32, size),
		ctr:         ctr,
		pending:     make(map[streamID][]Message),
		next:        make(map[streamID]uint64),
		once:        make(map[streamID]struct{}),
	}
}

// ringFor returns the sender's ring, allocating it on first use. Returns
// nil for out-of-range sender ranks (those messages ride the overflow
// list, preserving the old mailbox's permissiveness).
func (mb *mailbox) ringFor(from int) *ring {
	if from < 0 || from >= mb.size {
		return nil
	}
	if r := mb.rings[from].Load(); r != nil {
		return r
	}
	r := newRing(mb.ringCap)
	if mb.rings[from].CompareAndSwap(nil, r) {
		return r
	}
	return mb.rings[from].Load()
}

// nextSeqLocked returns the next deliverable sequence number for a stream
// (1 when the stream has never delivered). Callers hold mb.mu.
func (mb *mailbox) nextSeqLocked(k streamID) uint64 {
	if n := mb.next[k]; n != 0 {
		return n
	}
	return 1
}

// put enqueues without ever blocking: the ring when there is room, the
// overflow list otherwise. This is the wire producers' path (a TCP read
// loop that stalls on one full ring would head-of-line-block frames for
// every other rank on its connection, and, transitively, the kernel
// socket buffers its peers are writing into).
func (mb *mailbox) put(m Message) error {
	if mb.closed.Load() {
		return ErrClosed
	}
	if r := mb.ringFor(m.From); r != nil &&
		mb.ovfBySender[m.From].Load() == 0 && r.tryPut(m) {
		mb.ctr.ringPuts.Add(1)
		mb.arrival.wake()
		if mb.closed.Load() {
			mb.reap() // close raced the enqueue; release anything stranded
		}
		return nil
	}
	return mb.spill(m)
}

func (mb *mailbox) spill(m Message) error {
	mb.ovf.Lock()
	if mb.closed.Load() {
		// close drains the overflow after setting the flag, and does so
		// under this lock — an append here would be stranded forever.
		mb.ovf.Unlock()
		return ErrClosed
	}
	mb.ovf.q = append(mb.ovf.q, m)
	if m.From >= 0 && m.From < mb.size {
		mb.ovfBySender[m.From].Add(1)
	}
	mb.ovf.Unlock()
	mb.ctr.spills.Add(1)
	mb.arrival.wake()
	return nil
}

// eagerMaxBytes splits sends into MPI's two protocols. At or below it a
// send is eager: a full ring spills to the unbounded overflow and the
// sender never blocks, so fire-and-forget control traffic (barrier
// arrivals, chunk-train frames, probe messages) cannot deadlock a program
// that has no receiver posted yet. Above it a send is rendezvous: the
// producer blocks on the full ring until the receiver drains it, so bulk
// data exerts real backpressure instead of ballooning resident memory.
const eagerMaxBytes = 4096

// putBlocking enqueues for an in-process sender. A small message (see
// eagerMaxBytes) never blocks — full rings spill to the overflow. A bulk
// message blocks while the ring is full: the bounded ring is the
// backpressure contract. While blocked, the sender assists — it drains its
// own inbox's rings into the pending stage — so symmetric exchanges (two
// ranks streaming chunk trains at each other, as Alltoallv does) free each
// other's rings instead of deadlocking, the same progress-engine
// discipline MPI implementations use inside blocking sends.
func (mb *mailbox) putBlocking(m Message, own *mailbox) error {
	if mb.closed.Load() {
		return ErrClosed
	}
	r := mb.ringFor(m.From)
	if r == nil || mb.ovfBySender[m.From].Load() > 0 {
		// Out-of-range sender, or earlier messages from this sender are
		// still in the overflow: follow them so per-stream order holds.
		return mb.spill(m)
	}
	if r.tryPut(m) {
		mb.finishPut()
		return nil
	}
	if len(m.Data) <= eagerMaxBytes {
		return mb.spill(m)
	}
	mb.ctr.fullStall.Add(1)
	for {
		spaceCh := mb.space.enter()
		if r.tryPut(m) {
			mb.space.leave(spaceCh)
			mb.finishPut()
			return nil
		}
		if mb.closed.Load() {
			mb.space.leave(spaceCh)
			return ErrClosed
		}
		var ownCh chan struct{}
		if own != nil {
			if n := own.assist(); n > 0 {
				mb.ctr.assists.Add(int64(n))
			}
			// Park on our own arrival gate too: new inbound traffic means
			// more assisting to do (and, on a self-send, more ring space).
			ownCh = own.arrival.enter()
		}
		if r.tryPut(m) { // the assist may have freed our own ring
			if own != nil {
				own.arrival.leave(ownCh)
			}
			mb.space.leave(spaceCh)
			mb.finishPut()
			return nil
		}
		select {
		case <-spaceCh:
		case <-ownCh: // nil when own == nil: never fires
		}
		if own != nil {
			own.arrival.leave(ownCh)
		}
		mb.space.leave(spaceCh)
		if mb.closed.Load() {
			return ErrClosed
		}
	}
}

// finishPut is the post-enqueue epilogue shared by the blocking and
// non-blocking ring paths.
func (mb *mailbox) finishPut() {
	mb.ctr.ringPuts.Add(1)
	mb.arrival.wake()
	if mb.closed.Load() {
		mb.reap()
	}
}

// assist drains this mailbox's rings and overflow into the pending stage
// on behalf of a producer blocked elsewhere, returning the number of
// messages moved. Safe from any goroutine: staging is mu-guarded and
// delivery order per stream is unaffected (the stage preserves arrival
// order).
func (mb *mailbox) assist() int {
	mb.mu.Lock()
	n := mb.drainAllLocked()
	mb.mu.Unlock()
	if n > 0 {
		mb.space.wake()
		mb.arrival.wake()
	}
	return n
}

// drainRingLocked moves everything out of one sender's ring into the
// pending stage, returning the number of slots freed. Callers hold mb.mu.
func (mb *mailbox) drainRingLocked(from int) int {
	if from < 0 || from >= mb.size {
		return 0
	}
	r := mb.rings[from].Load()
	if r == nil {
		return 0
	}
	freed := 0
	for {
		m, ok := r.tryTake()
		if !ok {
			return freed
		}
		mb.stageLocked(m)
		freed++
	}
}

// drainOvfLocked moves the overflow list into the pending stage. Callers
// hold mb.mu (the overflow's own lock is taken only for the swap).
//
// A message spills only when its sender's ring is full or that sender
// already has spilled messages pending, so a sender's in-ring messages are
// older than its in-overflow ones. The list is swapped out first, every ring
// is drained after it, and the per-sender spill counts come down only once
// both are staged: until then a sender with a message in the swapped-out
// list keeps spilling, so its ring holds nothing newer than the list. Rings
// drained before the swap would let a sender refill its ring and spill past
// it in between, and that newer spilled message would be staged ahead of the
// ring.
func (mb *mailbox) drainOvfLocked() int {
	mb.ovf.Lock()
	q := mb.ovf.q
	mb.ovf.q = nil
	mb.ovf.Unlock()
	if len(q) == 0 {
		return 0
	}
	n := 0
	for from := range mb.rings {
		n += mb.drainRingLocked(from)
	}
	for _, m := range q {
		mb.stageLocked(m)
	}
	mb.unspill(q)
	return n + len(q)
}

// takeOvf swaps out the overflow list for a sweep that releases it.
func (mb *mailbox) takeOvf() []Message {
	mb.ovf.Lock()
	q := mb.ovf.q
	mb.ovf.q = nil
	mb.ovf.Unlock()
	mb.unspill(q)
	return q
}

// unspill lowers the per-sender spill counts by the messages of q, which
// have left the overflow list. A sender whose count reaches zero may use its
// ring again.
func (mb *mailbox) unspill(q []Message) {
	for i := range q {
		if f := q[i].From; f >= 0 && f < mb.size {
			mb.ovfBySender[f].Add(-1)
		}
	}
}

func (mb *mailbox) drainAllLocked() int {
	n := 0
	for from := range mb.rings {
		n += mb.drainRingLocked(from)
	}
	return n + mb.drainOvfLocked()
}

// stageLocked appends one drained message to its stream's pending list,
// discarding duplicates of already-delivered or already-staged sequence
// numbers. Callers hold mb.mu.
func (mb *mailbox) stageLocked(m Message) {
	mb.ctr.takes.Add(1)
	k := streamID{m.From, m.Tag}
	list, staged := mb.pending[k]
	switch {
	case m.Seq == SeqOnce:
		if _, done := mb.once[k]; done || staged {
			release(m) // duplicate of the stream's one message
			return
		}
	case m.Seq != 0:
		if m.Seq < mb.nextSeqLocked(k) {
			release(m) // duplicate of an already-delivered message
			return
		}
		for _, q := range list {
			if q.Seq == m.Seq {
				release(m) // duplicate of an already-staged message
				return
			}
		}
	}
	if f := len(mb.listFree); !staged && f > 0 {
		list = mb.listFree[f-1]
		mb.listFree = mb.listFree[:f-1]
	}
	mb.pending[k] = append(list, m)
}

// matchLocked delivers the first deliverable staged message of stream k:
// any Seq 0 or one-shot message, or the sequenced message the stream's
// cursor is waiting for (a gap holds later sequence numbers back). Callers
// hold mb.mu. The vacated slot is zeroed — the list must not keep the
// delivered payload alive — and a list that empties is recycled through
// listFree, so steady-state delivery allocates nothing and the map holds
// only streams with something staged.
func (mb *mailbox) matchLocked(k streamID) (Message, bool) {
	list := mb.pending[k]
	for i, m := range list {
		switch {
		case m.Seq == SeqOnce:
			mb.markOnceLocked(k)
		case m.Seq != 0:
			if m.Seq != mb.nextSeqLocked(k) {
				continue // a gap precedes this one; wait for the in-flight message
			}
			mb.next[k] = m.Seq + 1
		}
		last := len(list) - 1
		copy(list[i:], list[i+1:])
		list[last] = Message{}
		if list = list[:last]; last > 0 {
			mb.pending[k] = list
		} else {
			delete(mb.pending, k)
			if len(mb.listFree) < maxListFree {
				mb.listFree = append(mb.listFree, list)
			}
		}
		return m, true
	}
	return Message{}, false
}

// markOnceLocked remembers that one-shot stream k has delivered, forgetting
// the oldest such stream once onceWindow are held. Callers hold mb.mu.
func (mb *mailbox) markOnceLocked(k streamID) {
	if len(mb.onceRing) < onceWindow {
		mb.onceRing = append(mb.onceRing, k)
	} else {
		delete(mb.once, mb.onceRing[mb.onceHead])
		mb.onceRing[mb.onceHead] = k
		mb.onceHead = (mb.onceHead + 1) % onceWindow
	}
	mb.once[k] = struct{}{}
}

func (mb *mailbox) get(from int, tag uint64) (Message, error) {
	return mb.getWithin(from, tag, 0)
}

// getWithin is get with an optional real-time deadline (0 = wait forever).
// Each pass drains the sender's ring and the overflow into the pending
// stage, attempts a match, and parks on the arrival gate when nothing is
// deliverable; ring slots freed by the drain wake blocked producers.
func (mb *mailbox) getWithin(from int, tag uint64, timeout time.Duration) (Message, error) {
	k := streamID{from, tag}
	var timer *time.Timer
	var timeoutCh <-chan time.Time
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if mb.closed.Load() {
			return Message{}, ErrClosed
		}
		m, ok := mb.poll(from, k)
		if ok {
			return m, nil
		}
		// Register on the gate, then re-check: a message published after
		// the poll above would otherwise be woken into nobody.
		ch := mb.arrival.enter()
		m, ok = mb.poll(from, k)
		if ok {
			mb.arrival.leave(ch)
			return m, nil
		}
		if mb.closed.Load() {
			mb.arrival.leave(ch)
			return Message{}, ErrClosed
		}
		if timeout > 0 && timer == nil {
			timer = time.NewTimer(timeout)
			timeoutCh = timer.C
		}
		mb.ctr.parks.Add(1)
		select {
		case <-ch:
			mb.arrival.leave(ch)
		case <-timeoutCh:
			mb.arrival.leave(ch)
			// One final poll: the message may have landed as the timer fired.
			if m, ok := mb.poll(from, k); ok {
				return m, nil
			}
			return Message{}, fmt.Errorf("%w: no message from %d tag %#x within %v",
				ErrRecvTimeout, from, tag, timeout)
		}
	}
}

// poll drains and attempts one match, waking producers for any ring slots
// the drain freed.
func (mb *mailbox) poll(from int, k streamID) (Message, bool) {
	mb.mu.Lock()
	freed := mb.drainRingLocked(from)
	freed += mb.drainOvfLocked() // overflow may hold this stream's messages
	m, ok := mb.matchLocked(k)
	mb.mu.Unlock()
	if freed > 0 {
		mb.space.wake()
	}
	return m, ok
}

// backlog reports how many staged-but-undelivered messages the mailbox
// holds, draining first so in-ring duplicates are resolved. Test hook.
func (mb *mailbox) backlog() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.drainAllLocked()
	n := 0
	for _, l := range mb.pending {
		n += len(l)
	}
	return n
}

// reap releases every undelivered payload: no receiver will ever match
// them once the mailbox is closed. Concurrent-safe (ring takes are CAS'd,
// the rest is locked), so close and a racing post-enqueue producer can
// both sweep and each payload is released exactly once — by whichever
// sweep dequeues it.
func (mb *mailbox) reap() {
	for i := range mb.rings {
		r := mb.rings[i].Load()
		if r == nil {
			continue
		}
		for {
			m, ok := r.tryTake()
			if !ok {
				break
			}
			release(m)
		}
	}
	for _, m := range mb.takeOvf() {
		release(m)
	}
	mb.mu.Lock()
	for k, list := range mb.pending {
		for _, m := range list {
			release(m)
		}
		delete(mb.pending, k)
	}
	mb.mu.Unlock()
}

// release gives an undelivered payload back to the pool, unless it is lent:
// a lent payload is its sender's, who releases it past the fence.
func release(m Message) {
	if m.Mode != Lent {
		bufpool.Put(m.Data)
	}
}

func (mb *mailbox) close() {
	if mb.closed.Swap(true) {
		return
	}
	mb.reap()
	mb.arrival.wake()
	mb.space.wake()
}

// ChanTransport is the in-process transport: one mailbox per rank.
type ChanTransport struct {
	boxes []*mailbox
	ctr   ringCounters
}

// NewChanTransport creates an in-process transport for n ranks.
func NewChanTransport(n int) *ChanTransport {
	t := &ChanTransport{boxes: make([]*mailbox, n)}
	for i := range t.boxes {
		t.boxes[i] = newMailbox(n, &t.ctr)
	}
	return t
}

// Send implements Transport. A bulk send (payload above eagerMaxBytes) to
// a rank whose inbound ring is full blocks until the receiver drains it
// (backpressure, never loss); while blocked, the sender services its own
// inbox so mutually saturated ranks free each other. Small messages are
// eager: a full ring spills them to the overflow and Send returns at once.
//
// The payload is copied into a pooled buffer, so the sender may reuse its own
// the moment Send returns, exactly as with a real wire transport, and the
// receiver owns (and may bufpool.Put) the delivered copy. An owned or a lent
// message is the exception the copy exists to avoid: its Data is enqueued as
// it is and the receiver is handed the very slice — on a nil return; a failed
// Send leaves it with the caller. An owned slice arrives as Borrowed, the
// receiver's; a lent one arrives as Lent.
func (t *ChanTransport) Send(m Message) error {
	if m.To < 0 || m.To >= len(t.boxes) {
		return fmt.Errorf("comm: send to invalid rank %d (size %d)", m.To, len(t.boxes))
	}
	copied := m.Mode == Borrowed
	if m.Mode == Owned {
		m.Mode = Borrowed // the receiver's now, as a copy would be
	}
	if m.Data != nil && copied {
		d := bufpool.Get(len(m.Data))
		copy(d, m.Data)
		m.Data = d
	}
	var own *mailbox
	if m.From >= 0 && m.From < len(t.boxes) {
		own = t.boxes[m.From]
	}
	if err := t.boxes[m.To].putBlocking(m, own); err != nil {
		if copied {
			bufpool.Put(m.Data)
		}
		return err
	}
	return nil
}

// RingStats snapshots the transport's mailbox-path counters. Safe from
// any goroutine, including mid-run.
func (t *ChanTransport) RingStats() RingStats { return t.ctr.snapshot() }

// SetMonitor exports the transport's ring counters as comm_ring_* gauges
// on the monitor's registry. Safe to call for successive transports on a
// long-lived monitor: the gauges always reflect the most recently bound
// transport.
func (t *ChanTransport) SetMonitor(m *dsmon.Monitor) { bindRingMetrics(m, &t.ctr) }

// Recv implements Transport.
func (t *ChanTransport) Recv(to, from int, tag uint64) (Message, error) {
	if to < 0 || to >= len(t.boxes) {
		return Message{}, fmt.Errorf("comm: recv on invalid rank %d (size %d)", to, len(t.boxes))
	}
	return t.boxes[to].get(from, tag)
}

// RecvWithin implements DeadlineRecver; a timeout is final (ErrRecvTimeout).
func (t *ChanTransport) RecvWithin(to, from int, tag uint64, timeout time.Duration) (Message, error) {
	if to < 0 || to >= len(t.boxes) {
		return Message{}, fmt.Errorf("comm: recv on invalid rank %d (size %d)", to, len(t.boxes))
	}
	return t.boxes[to].getWithin(from, tag, timeout)
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	for _, b := range t.boxes {
		b.close()
	}
	return nil
}

// Endpoint is one rank's view of the transport plus its virtual-time
// accounting. All Endpoint methods must be called only from the owning
// node's goroutine.
type Endpoint struct {
	rank, size int
	tr         Transport
	clock      *vtime.Clock
	prof       vtime.Profile

	// Resilience: per-stream send sequence numbers (for receiver-side dedup
	// and reassembly), the transient-fault retry policy, and the optional
	// real-time receive deadline. All owned by the node's goroutine.
	seqs         map[streamID]uint64
	retry        RetryPolicy
	recvDeadline time.Duration

	// Statistics, local to the owning goroutine.
	sent, received           int
	bytesSent, bytesReceived int64
	sentByPeer, recvByPeer   []int

	// Observability (nil handles are no-ops).
	mon        *dsmon.Monitor
	mSent      *dsmon.Counter
	mRecv      *dsmon.Counter
	mLent      *dsmon.Counter
	mBytesOut  *dsmon.Counter
	mBytesIn   *dsmon.Counter
	mTransient *dsmon.Counter
	mSendRetry *dsmon.Counter
	mRecvRetry *dsmon.Counter
	mExhausted *dsmon.Counter
	hMsgSize   *dsmon.Histogram
	hRecvWait  *dsmon.Histogram
}

// NewEndpoint binds rank's endpoint onto tr.
func NewEndpoint(rank, size int, tr Transport, clock *vtime.Clock, prof vtime.Profile) *Endpoint {
	return &Endpoint{
		rank: rank, size: size, tr: tr, clock: clock, prof: prof,
		seqs:       make(map[streamID]uint64),
		retry:      DefaultRetryPolicy(),
		sentByPeer: make([]int, size), recvByPeer: make([]int, size),
	}
}

// SetRetryPolicy replaces the endpoint's transient-fault retry policy
// (MaxAttempts is clamped to at least one attempt).
func (e *Endpoint) SetRetryPolicy(p RetryPolicy) *Endpoint {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	e.retry = p
	return e
}

// SetRecvDeadline bounds every blocking receive in real time (0 disables,
// the default). Each attempt waits up to d; a timeout counts as a transient
// fault, so the worst-case wall-clock wait before a clean error is
// d × MaxAttempts.
func (e *Endpoint) SetRecvDeadline(d time.Duration) *Endpoint {
	e.recvDeadline = d
	return e
}

// SetMonitor attaches the observability layer: per-message counters, the
// message-size histogram, the receive-wait stall histogram, and (when the
// monitor traces) one comm-category span per Send/Recv. Metric handles are
// cached here so the per-message cost of monitoring is a few atomic adds.
func (e *Endpoint) SetMonitor(m *dsmon.Monitor) *Endpoint {
	e.mon = m
	reg := m.Registry()
	e.mSent = reg.Counter("comm_messages_sent_total", "point-to-point messages sent")
	e.mRecv = reg.Counter("comm_messages_received_total", "point-to-point messages received")
	e.mLent = reg.Counter("comm_messages_lent_total", "messages received as their sender's own memory, not a copy")
	e.mBytesOut = reg.Counter("comm_bytes_sent_total", "payload bytes sent")
	e.mBytesIn = reg.Counter("comm_bytes_received_total", "payload bytes received")
	e.mTransient = reg.Counter("comm_transient_errors_total", "transient transport faults observed (send and recv)")
	e.mSendRetry = reg.Counter("comm_send_retries_total", "point-to-point sends retried after a transient fault")
	e.mRecvRetry = reg.Counter("comm_recv_retries_total", "point-to-point receives retried after a transient fault")
	e.mExhausted = reg.Counter("comm_retries_exhausted_total", "operations that failed after spending the whole retry budget")
	e.hMsgSize = reg.Histogram("comm_message_size_bytes",
		"payload size of sent messages", dsmon.SizeBuckets)
	e.hRecvWait = reg.Histogram("comm_recv_wait_seconds",
		"virtual seconds from receive call to message arrival", dsmon.LatencyBuckets)
	return e
}

// Monitor returns the attached monitor (nil when unmonitored). The
// collective layer reads it so one machine flag lights up both layers.
func (e *Endpoint) Monitor() *dsmon.Monitor { return e.mon }

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the number of ranks.
func (e *Endpoint) Size() int { return e.size }

// Clock returns the owning node's virtual clock.
func (e *Endpoint) Clock() *vtime.Clock { return e.clock }

// Profile returns the platform cost profile.
func (e *Endpoint) Profile() vtime.Profile { return e.prof }

// Send transmits data to rank `to` under `tag`, charging the sender its
// per-message CPU overhead. Transient transport faults are retried with
// exponential virtual-time backoff; the resent message reuses its sequence
// number, so a retry whose earlier copy actually arrived is deduplicated at
// the receiver. Fatal errors, and transient ones that outlast the retry
// budget, are returned to the caller.
func (e *Endpoint) Send(to int, tag uint64, data []byte) error {
	return e.send(to, tag, e.nextSeq(to, tag), data, Borrowed)
}

// SendOwned is Send for a buffer the caller built only to send: buf came from
// bufpool and the caller gives it up. On a nil return it is gone — the
// in-process transport hands the receiver that very slice, a wire transport
// copies it into its frame and releases it — and the caller must not touch
// it again. On an error it is still the caller's, contents intact, to release
// or to send again; that is also what lets the retry loop resend it after a
// transient fault.
func (e *Endpoint) SendOwned(to int, tag uint64, buf []byte) error {
	return e.send(to, tag, e.nextSeq(to, tag), buf, Owned)
}

func (e *Endpoint) nextSeq(to int, tag uint64) uint64 {
	k := streamID{to, tag}
	e.seqs[k]++
	return e.seqs[k]
}

// SendOnce is Send for a stream that carries this one message and whose tag
// is never used again, as when the caller mints a fresh tag per operation.
// Delivery, retry and duplicate suppression are Send's; what differs is
// that neither end keeps per-stream state once the message is delivered
// (see SeqOnce). The receiver uses Recv as for any other message.
func (e *Endpoint) SendOnce(to int, tag uint64, data []byte) error {
	return e.send(to, tag, SeqOnce, data, Borrowed)
}

// SendOnceOwned is SendOnce giving up buf as SendOwned does.
func (e *Endpoint) SendOnceOwned(to int, tag uint64, buf []byte) error {
	return e.send(to, tag, SeqOnce, buf, Owned)
}

// SendOnceLent is SendOnce lending data instead of having it copied: on the
// in-process transport the receiver is handed the very slice, which RecvLent
// reports as lent; a wire transport copies it as Send does. The caller keeps
// data intact, and releases it only once its protocol has a fence past which
// the receiver no longer reads it; when data lies in the buffers of an armed
// Lease, the lease is that fence and the receiver takes a hold on it. Until
// the fence the caller cannot tell whether the receiver still holds the
// slice — a send or an exchange that fails after a lent send has returned nil
// leaves data to the garbage collector, never to bufpool.Put.
func (e *Endpoint) SendOnceLent(to int, tag uint64, data []byte) error {
	return e.send(to, tag, SeqOnce, data, Lent)
}

func (e *Endpoint) send(to int, tag, seq uint64, data []byte, mode Mode) error {
	start := e.clock.Now()
	e.clock.Advance(e.prof.SendOverhead)
	m := Message{From: e.rank, To: to, Tag: tag, Seq: seq, Data: data, Mode: mode}
	backoff := e.retry.Backoff
	var err error
	for attempt := 1; ; attempt++ {
		m.Time = e.clock.Now()
		err = e.tr.Send(m)
		if err == nil || !IsTransient(err) {
			break
		}
		e.mTransient.Inc()
		if attempt >= e.retry.MaxAttempts {
			e.mExhausted.Inc()
			err = fmt.Errorf("comm: send to %d tag %#x: retries exhausted after %d attempts: %w",
				to, tag, attempt, err)
			break
		}
		e.mSendRetry.Inc()
		e.backoffSpan(backoff)
		backoff *= 2
	}
	if err != nil {
		return err
	}
	e.sent++
	e.bytesSent += int64(len(data))
	if to >= 0 && to < len(e.sentByPeer) {
		e.sentByPeer[to]++
	}
	e.mSent.Inc()
	e.mBytesOut.Add(int64(len(data)))
	e.hMsgSize.Observe(float64(len(data)))
	if rec := e.mon.Recorder(); rec != nil {
		// One span and one edge per logical send, however many transport
		// attempts it took: the edge is keyed by the sequence number, which
		// retransmissions reuse, so the graph never doubles an edge.
		id := rec.AddSpan(e.rank, "comm", "Send", start, e.clock.Now())
		rec.FlowOut(dsmon.FlowKey{Kind: "msg", A: e.rank, B: to, Tag: tag, Seq: m.Seq}, id)
	}
	return nil
}

// backoffSpan charges one retry backoff to the clock and, when tracing,
// records it as its own span so the critical-path analyzer can attribute
// time lost to retransmission separately from useful communication.
func (e *Endpoint) backoffSpan(backoff float64) {
	rec := e.mon.Recorder()
	b0 := e.clock.Now()
	e.clock.Advance(backoff)
	if rec != nil {
		rec.Add(e.rank, "comm", "backoff", b0, e.clock.Now())
	}
}

// recvOnce performs a single receive attempt, bounded by the configured
// real-time deadline when the transport supports one.
func (e *Endpoint) recvOnce(from int, tag uint64) (Message, error) {
	if e.recvDeadline > 0 {
		if dr, ok := e.tr.(DeadlineRecver); ok {
			return dr.RecvWithin(e.rank, from, tag, e.recvDeadline)
		}
	}
	return e.tr.Recv(e.rank, from, tag)
}

// Recv blocks for the matching message and advances the local clock to the
// message's arrival time: send time + latency + transfer time. Transient
// faults (injected receive errors, deadline expiries) are retried with
// exponential virtual-time backoff before a clean error is surfaced.
//
// The returned payload is owned by the caller: it aliases nothing the sender
// still holds (it is the transport's copy of a Send, the buffer a SendOwned
// gave up, or a copy of a lent payload, which only RecvLent hands over as it
// is), may be retained indefinitely, and may be released with bufpool.Put
// once fully consumed (releasing is optional — the GC reclaims it either
// way).
func (e *Endpoint) Recv(from int, tag uint64) ([]byte, error) {
	data, lent, lease, err := e.RecvLent(from, tag)
	if lent {
		data = append(bufpool.GetCap(len(data)), data...)
		lease.Release()
	}
	return data, err
}

// RecvLent is Recv reporting whether the payload is lent (see SendOnceLent):
// the sender's own memory, which the caller reads only up to the fence its
// protocol provides and never writes or hands to bufpool.Put. When it lies
// under an armed Lease, that lease is returned with a hold taken for the
// caller, who releases it once it stops reading. A payload that is not lent
// is the caller's, as Recv's is, and comes with no lease.
func (e *Endpoint) RecvLent(from int, tag uint64) (data []byte, lent bool, lease *Lease, err error) {
	start := e.clock.Now()
	var m Message
	backoff := e.retry.Backoff
	for attempt := 1; ; attempt++ {
		m, err = e.recvOnce(from, tag)
		if err == nil || !IsTransient(err) {
			break
		}
		e.mTransient.Inc()
		if attempt >= e.retry.MaxAttempts {
			e.mExhausted.Inc()
			return nil, false, nil, fmt.Errorf("comm: recv from %d tag %#x: retries exhausted after %d attempts: %w",
				from, tag, attempt, err)
		}
		e.mRecvRetry.Inc()
		e.backoffSpan(backoff)
		backoff *= 2
	}
	if err != nil {
		return nil, false, nil, err
	}
	if m.Mode == Lent {
		e.mLent.Inc()
		if lease = leaseOf(m.Data); lease != nil {
			// Before the exchange that carried m can close, so before the
			// lender's own release.
			lease.hold()
		}
	}
	arrival := m.Time + e.prof.MsgLatency + vtime.TransferTime(int64(len(m.Data)), e.prof.MsgBW)
	e.clock.SyncTo(arrival)
	e.received++
	e.bytesReceived += int64(len(m.Data))
	if from >= 0 && from < len(e.recvByPeer) {
		e.recvByPeer[from]++
	}
	e.mRecv.Inc()
	e.mBytesIn.Add(int64(len(m.Data)))
	e.hRecvWait.Observe(e.clock.Now() - start)
	if rec := e.mon.Recorder(); rec != nil {
		id := rec.AddSpan(e.rank, "comm", "Recv", start, e.clock.Now())
		// The mailbox delivers each sequence number exactly once, so a
		// duplicated or retransmitted message can never complete a second
		// edge — the FlowKey below is consumed by exactly one FlowOut.
		if m.Seq != 0 {
			rec.FlowIn(dsmon.FlowKey{Kind: "msg", A: from, B: e.rank, Tag: tag, Seq: m.Seq}, id)
		}
	}
	return m.Data, m.Mode == Lent, lease, nil
}

// Stats is one endpoint's traffic account.
type Stats struct {
	// Sent and Received count point-to-point messages.
	Sent, Received int
	// BytesSent and BytesReceived sum payload bytes.
	BytesSent, BytesReceived int64
	// SentByPeer[r] and ReceivedByPeer[r] count messages exchanged with
	// rank r — the communication matrix row that reveals funnel hotspots
	// (everything converging on node 0) at a glance.
	SentByPeer, ReceivedByPeer []int
}

// Stats returns a snapshot of this endpoint's traffic counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		Sent: e.sent, Received: e.received,
		BytesSent: e.bytesSent, BytesReceived: e.bytesReceived,
		SentByPeer:     append([]int(nil), e.sentByPeer...),
		ReceivedByPeer: append([]int(nil), e.recvByPeer...),
	}
}
