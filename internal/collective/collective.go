// Package collective implements the group communication operations the
// d/stream library needs — barrier, broadcast, gather, allgather,
// all-to-all (vector), and reductions — on top of the comm package's
// point-to-point messages, mirroring the NX/CMMD collective calls the paper's
// implementation used on the Paragon and CM-5.
//
// SPMD discipline: every rank must invoke the same sequence of collective
// operations. Each operation consumes one slot of a per-communicator
// sequence number which is baked into the message tags, so collectives can
// never cross-talk with each other or with user point-to-point traffic.
//
// Synchronizing operations (Barrier, Bcast, Allgather, Allreduce, Alltoallv)
// equalize virtual clocks across the group: every participant that is
// waiting when the root releases the group leaves at the same virtual time,
// bit for bit — the deterministic completion time of the slowest participant
// plus the operation's communication cost. (Bcast alone is one-way: a rank
// that enters it after that instant leaves when it entered.) A communicator
// has one shape, the fan-out of the tree its rooted operations run on, fixed
// by New from the group size (see flatMax).
package collective

import (
	"encoding/binary"
	"fmt"
	"math"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/vtime"
)

// Tag layout: 8 bits op kind | 40 bits sequence | 16 bits sub-index.
const (
	kindBarrier uint64 = iota + 1
	kindBcast
	kindGather
	kindAlltoall
	kindReduce
)

func tag(kind, seq uint64, sub int) uint64 {
	return kind<<56 | (seq&0xFFFFFFFFFF)<<16 | uint64(sub)&0xFFFF
}

// Comm is one rank's handle on the collective communicator.
type Comm struct {
	ep  *comm.Endpoint
	seq uint64
	// fanout is the communicator's shape: zero is the flat exchange (the
	// tree of shard.go one level deep), k >= 2 the k-ary tree. New sets it
	// once from the group size, which every rank sees alike.
	fanout int

	// Observability. mon is inherited from the endpoint; ops caches the
	// per-operation metric handles. Like every Comm field, ops is touched
	// only by the owning node's goroutine.
	mon *dsmon.Monitor
	ops map[string]opMetrics

	// tbuf is the scratch frame for the 8-byte timestamp payloads every
	// synchronizing operation sends. Transports copy payloads before Send
	// returns, so one scratch per communicator suffices.
	tbuf [8]byte
}

// opMetrics is the cached pair of handles for one collective operation.
type opMetrics struct {
	count *dsmon.Counter
	lat   *dsmon.Histogram
}

// The shape of a communicator follows from its size. Up to flatMax ranks
// (the paper's 4-16 node machines) the root exchanges with every rank
// directly; beyond it the funnel operations run on a treeFanout-ary tree,
// which the cost model favours from 20 ranks up. DESIGN.md "Collective
// shape" has the measurements behind both numbers.
const (
	flatMax    = 16
	treeFanout = 8
)

// New wraps an endpoint in a collective communicator. If the endpoint
// carries a dsmon.Monitor, collective operations are timed into
// collective_latency_seconds{op=…} and recorded as collective-category
// spans.
func New(ep *comm.Endpoint) *Comm {
	c := &Comm{ep: ep, mon: ep.Monitor(), ops: make(map[string]opMetrics)}
	if ep.Size() > flatMax {
		c.fanout = treeFanout
	}
	return c
}

// instrument begins timing one collective operation; the returned func
// closes the measurement at the operation's exit. Composite operations
// (Allgather, Allreduce, Alltoallv's closing barrier) nest: each layer is
// accounted under its own op label, so the histogram is a cost account
// per primitive, not an exclusive-time decomposition.
func (c *Comm) instrument(op string) func() {
	f, _ := c.instrumentSpan(op)
	return f
}

// instrumentSpan is instrument plus a pre-reserved span ID (0 when the
// monitor does not trace) so the operation can publish causal edges that
// reference its own span before the span's end time is known.
func (c *Comm) instrumentSpan(op string) (func(), dsmon.SpanID) {
	if c.mon == nil {
		return func() {}, 0
	}
	m, ok := c.ops[op]
	if !ok {
		reg := c.mon.Registry()
		m = opMetrics{
			count: reg.Counter("collective_ops_total", "collective operations entered", "op", op),
			lat: reg.Histogram("collective_latency_seconds",
				"virtual seconds from operation entry to group release", dsmon.LatencyBuckets, "op", op),
		}
		c.ops[op] = m
	}
	m.count.Inc()
	start := c.ep.Clock().Now()
	rec := c.mon.Recorder()
	id := rec.NewSpanID()
	return func() {
		end := c.ep.Clock().Now()
		m.lat.Observe(end - start)
		rec.AddSpanID(id, c.Rank(), "collective", op, start, end)
	}, id
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.ep.Rank() }

// Size returns the number of ranks in the group.
func (c *Comm) Size() int { return c.ep.Size() }

// Endpoint exposes the underlying endpoint for point-to-point use.
func (c *Comm) Endpoint() *comm.Endpoint { return c.ep }

func (c *Comm) next() uint64 {
	c.seq++
	return c.seq
}

// timeFrame encodes t into the communicator's scratch frame. The result is
// valid only until the next timeFrame call — pass it straight to Send.
func (c *Comm) timeFrame(t float64) []byte {
	binary.LittleEndian.PutUint64(c.tbuf[:], math.Float64bits(t))
	return c.tbuf[:]
}

// appendTime appends t's 8-byte encoding to dst.
func appendTime(dst []byte, t float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(t))
}

func decodeTime(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// releaseTime computes the equalized exit timestamp for a root about to
// release the group with a message of size bytes: the latest arrival time
// any node of the tree will compute as the release is forwarded down.
func (c *Comm) releaseTime(size int) float64 {
	p := c.ep.Profile()
	return lastArrival(&p, 0, c.k(), c.Size(), c.ep.Clock().Now(), vtime.TransferTime(int64(size), p.MsgBW))
}

// lastArrival returns the latest instant at which a message that virtual
// rank v of the k-ary tree over n ranks holds at instant t, and forwards to
// its children at once, has reached all of v's subtree. The loop replicates,
// operation for operation, the floating-point arithmetic performed by Endpoint.Send
// (repeated Advance) and Endpoint.Recv (arrival = sendTime + latency +
// transfer), so that the timestamp carried in the release payload is exactly
// the maximum of the receivers' locally computed arrival times — bit-equal
// clock equalization, not merely approximate.
func lastArrival(p *vtime.Profile, v, k, n int, t, transfer float64) float64 {
	last := t
	first, end := children(v, k, n)
	for ch := first; ch < end; ch++ {
		t += p.SendOverhead
		last = max(last, lastArrival(p, ch, k, n, t+p.MsgLatency+transfer, transfer))
	}
	return last
}

// RootError is root's own failure as Rooted reports it on every rank: the
// same message everywhere, so the ranks fail (or carry on) together. Any
// other error from Rooted is the transport's, which ranks may see differently.
type RootError string

func (e RootError) Error() string { return string(e) }

// Rooted runs act on root alone and gives every rank its outcome: the
// payload act returned, or act's error as a RootError. One broadcast carries
// a status byte followed by the payload or the message. frame is the pooled
// buffer payload lives in on every rank, root included (nil on failure); a
// caller that is done with the payload gives it back with bufpool.Put.
func (c *Comm) Rooted(root int, act func() ([]byte, error)) (payload, frame []byte, err error) {
	var own []byte // root's message
	if c.Rank() == root {
		p, err := act()
		status := byte(1)
		if err != nil {
			status, p = 0, []byte(err.Error())
		}
		own = append(append(bufpool.GetCap(1+len(p)), status), p...)
	}
	msg, frame, err := c.bcastFrame(root, own)
	if own != nil {
		frame = own
	}
	switch {
	case err != nil:
	case len(msg) == 0 || msg[0] > 1:
		err = fmt.Errorf("collective: rooted result from %d: malformed status frame (%d bytes)", root, len(msg))
	case msg[0] == 0:
		err = RootError(msg[1:])
	default:
		return msg[1:], frame, nil
	}
	bufpool.Put(frame)
	return nil, nil, err
}

// Allgather collects every rank's data on every rank: a gather at rank 0 and
// a broadcast of the concatenation, which synchronizes everyone. The parts
// alias frame, the pooled buffer the broadcast arrived in (nil on rank 0,
// whose parts alias the concatenation it made); a caller that is done with
// them gives it back with bufpool.Put.
func (c *Comm) Allgather(data []byte) (parts [][]byte, frame []byte, err error) {
	defer c.instrument("allgather")()
	parts, err = c.Gather(0, data)
	if err != nil {
		return nil, nil, err
	}
	var flat []byte
	if c.Rank() == 0 {
		flat = flatten(parts)
		for r, p := range parts {
			if r != 0 {
				bufpool.Put(p) // gathered frames are fully copied into flat
			}
		}
	}
	flat, frame, err = c.bcastFrame(0, flat)
	if err != nil {
		return nil, nil, err
	}
	if parts, err = unflatten(flat); err != nil {
		bufpool.Put(frame)
		return nil, nil, err
	}
	return parts, frame, nil
}

// Alltoallv delivers bufs[j] from each rank to rank j; the result holds, in
// rank order, what every rank sent to the caller. len(bufs) must equal
// Size(). All ranks leave synchronized (a barrier closes the exchange, as
// with a synchronized NX exchange). Every entry of the result is the
// caller's, to bufpool.Put once consumed; on failure what had arrived goes
// back to the pool.
func (c *Comm) Alltoallv(bufs [][]byte) ([][]byte, error) {
	recv := make([][]byte, c.Size())
	if err := c.alltoallv(comm.Borrowed, bufs, recv, nil); err != nil {
		return nil, err
	}
	return recv, nil
}

// AlltoallvInto is Alltoallv delivering into recv, the caller's scratch of
// Size() entries, so that the exchange allocates nothing: on success recv[j]
// is what rank j sent, on failure every entry is nil.
func (c *Comm) AlltoallvInto(bufs, recv [][]byte) error {
	return c.alltoallv(comm.Borrowed, bufs, recv, nil)
}

// AlltoallvOwned is Alltoallv for buffers the caller filled only to send them:
// every non-nil bufs[j] is a bufpool buffer the caller gives up, as
// comm.Endpoint.SendOwned takes one, so that rank j receives the very slice
// on the in-process transport — no copy — and the caller's own entry becomes
// its own result's. Each entry is set to nil as its buffer is handed over;
// what is left in bufs when the call returns, on success or failure, is still
// the caller's to bufpool.Put.
func (c *Comm) AlltoallvOwned(bufs [][]byte) ([][]byte, error) {
	recv := make([][]byte, c.Size())
	if err := c.alltoallv(comm.Owned, bufs, recv, nil); err != nil {
		return nil, err
	}
	return recv, nil
}

// AlltoallvLent is AlltoallvInto lending every non-empty bufs[j] instead of
// having it copied (comm.Endpoint.SendOnceLent): on the in-process transport
// rank j receives the very slice, and the caller's own entry is its own
// result's. lent, of Size() entries like recv, reports per peer whether
// recv[j] is lent — another rank's memory (or the caller's own), to read and
// never to write or bufpool.Put — or, as a wire transport delivers it, a copy
// the caller owns. The exchange's closing barrier is no fence: a lender keeps
// every bufs[j] intact until its protocol has one past which no receiver
// reads them, and after a failed exchange it cannot know whether any receiver
// still holds one, so it leaves them to the garbage collector. On failure
// every entry of recv is nil.
func (c *Comm) AlltoallvLent(bufs, recv [][]byte, lent []bool) error {
	if len(lent) != c.Size() {
		return fmt.Errorf("collective: alltoallv got a lent mask of %d for %d ranks", len(lent), c.Size())
	}
	return c.alltoallv(comm.Lent, bufs, recv, lent)
}

// alltoallv is the one exchange body, for every hand-over mode; lent is nil
// unless mode is comm.Lent.
func (c *Comm) alltoallv(mode comm.Mode, bufs, recv [][]byte, lent []bool) error {
	defer c.instrument("alltoallv")()
	n := c.Size()
	if len(bufs) != n || len(recv) != n {
		return fmt.Errorf("collective: alltoallv got %d buffers and %d results for %d ranks", len(bufs), len(recv), n)
	}
	seq := c.next()
	me := c.Rank()
	t := tag(kindAlltoall, seq, 0)
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		var err error
		switch {
		case mode == comm.Owned && bufs[r] != nil:
			if err = c.ep.SendOnceOwned(r, t, bufs[r]); err == nil {
				bufs[r] = nil
			}
		case mode == comm.Lent && len(bufs[r]) > 0:
			err = c.ep.SendOnceLent(r, t, bufs[r])
		default:
			err = c.ep.SendOnce(r, t, bufs[r])
		}
		if err != nil {
			return fmt.Errorf("collective: alltoallv send to %d: %w", r, err)
		}
	}
	fail := func(err error) error {
		for r, d := range recv {
			if lent == nil || !lent[r] {
				bufpool.Put(d)
			}
			recv[r] = nil
		}
		return err
	}
	clear(recv)
	switch mode {
	case comm.Owned:
		recv[me], bufs[me] = bufs[me], nil
	case comm.Lent:
		clear(lent)
		recv[me], lent[me] = bufs[me], true
	default:
		// Receive own contribution by copy, matching wire semantics.
		recv[me] = bufpool.Get(len(bufs[me]))
		copy(recv[me], bufs[me])
	}
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		var err error
		if lent != nil {
			recv[r], lent[r], err = c.ep.RecvLent(r, t)
		} else {
			recv[r], err = c.ep.Recv(r, t)
		}
		if err != nil {
			return fail(fmt.Errorf("collective: alltoallv recv from %d: %w", r, err))
		}
	}
	if err := c.Barrier(); err != nil {
		return fail(err)
	}
	return nil
}

// ReduceOp selects the reduction operator for the float64 reductions.
type ReduceOp uint8

const (
	// OpSum adds contributions.
	OpSum ReduceOp = iota
	// OpMax keeps the maximum contribution.
	OpMax
	// OpMin keeps the minimum contribution.
	OpMin
)

func (op ReduceOp) apply(a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	}
	panic(fmt.Sprintf("collective: unknown reduce op %d", op))
}

// Allreduce combines every rank's value and returns the result everywhere.
// All ranks leave synchronized.
func (c *Comm) Allreduce(v float64, op ReduceOp) (float64, error) {
	defer c.instrument("allreduce")()
	acc, err := c.Reduce(0, v, op)
	if err != nil {
		return 0, err
	}
	var payload []byte
	if c.Rank() == 0 {
		payload = c.timeFrame(acc)
	}
	payload, frame, err := c.bcastFrame(0, payload)
	if err != nil {
		return 0, err
	}
	acc = decodeTime(payload)
	bufpool.Put(frame)
	return acc, nil
}

// flatten encodes parts as [u32 count][u32 len_i]*[bytes_i]*.
func flatten(parts [][]byte) []byte {
	total := 4 + 4*len(parts)
	for _, p := range parts {
		total += len(p)
	}
	out := make([]byte, 4, total)
	binary.LittleEndian.PutUint32(out, uint32(len(parts)))
	for _, p := range parts {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(p)))
		out = append(out, l[:]...)
	}
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func unflatten(flat []byte) ([][]byte, error) {
	if len(flat) < 4 {
		return nil, fmt.Errorf("collective: unflatten short header")
	}
	n := int(binary.LittleEndian.Uint32(flat))
	if n > (len(flat)-4)/4 {
		return nil, fmt.Errorf("collective: unflatten count %d overruns %d bytes", n, len(flat))
	}
	off := 4
	lens := make([]int, n)
	for i := 0; i < n; i++ {
		if off+4 > len(flat) {
			return nil, fmt.Errorf("collective: unflatten truncated lengths")
		}
		lens[i] = int(binary.LittleEndian.Uint32(flat[off:]))
		off += 4
	}
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if off+lens[i] > len(flat) {
			return nil, fmt.Errorf("collective: unflatten truncated payload %d", i)
		}
		out[i] = flat[off : off+lens[i] : off+lens[i]]
		off += lens[i]
	}
	if off != len(flat) {
		return nil, fmt.Errorf("collective: unflatten %d trailing bytes", len(flat)-off)
	}
	return out, nil
}
