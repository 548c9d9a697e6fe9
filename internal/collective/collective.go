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
// equalize virtual clocks across the group: every participant leaves at the
// same virtual time, the deterministic completion time of the slowest
// participant plus the operation's communication cost.
package collective

import (
	"encoding/binary"
	"fmt"
	"math"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/trace"
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
	alg Algorithm
	// fanout, when >= 2, reshapes the funnel operations onto a k-ary tree
	// (see shard.go). Must be set identically on every rank.
	fanout int
	// maxMsg, when positive, bounds one point-to-point payload inside the
	// large-vector collectives (Alltoallv): bigger contributions travel as a
	// framed chunk train. Must be set identically on every rank.
	maxMsg int

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

// New wraps an endpoint in a collective communicator. If the endpoint
// carries a dsmon.Monitor, collective operations are timed into
// collective_latency_seconds{op=…} and recorded as collective-category
// spans.
func New(ep *comm.Endpoint) *Comm {
	return &Comm{ep: ep, mon: ep.Monitor(), ops: make(map[string]opMetrics)}
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
func (c *Comm) instrumentSpan(op string) (func(), trace.SpanID) {
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
		if rec != nil {
			rec.AddSpanID(id, c.Rank(), "collective", op, start, end)
		} else {
			c.mon.Span(c.Rank(), "collective", op, start, end)
		}
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
// send n sequential release messages of size bytes each: the latest arrival
// time any receiver will compute. The loop replicates, operation for
// operation, the floating-point arithmetic performed by Endpoint.Send
// (repeated Advance) and Endpoint.Recv (arrival = sendTime + latency +
// transfer), so that the timestamp carried in the release payload is exactly
// the maximum of the receivers' locally computed arrival times — bit-equal
// clock equalization, not merely approximate.
func (c *Comm) releaseTime(n int, size int) float64 {
	p := c.ep.Profile()
	t := c.ep.Clock().Now()
	transfer := vtime.TransferTime(int64(size), p.MsgBW)
	rel := t
	for i := 0; i < n; i++ {
		t += p.SendOverhead
		if arrival := t + p.MsgLatency + transfer; arrival > rel {
			rel = arrival
		}
	}
	return rel
}

// Barrier blocks until all ranks arrive. Under the Linear algorithm every
// rank leaves at the same virtual time; the Tree (dissemination) variant
// releases ranks within O(log P) message latencies of each other.
func (c *Comm) Barrier() error {
	done, sid := c.instrumentSpan("barrier")
	defer done()
	seq := c.next()
	n := c.Size()
	if n == 1 {
		return nil
	}
	if c.sharded() {
		return c.barrierKary(seq)
	}
	if c.alg == Tree {
		return c.barrierDissemination(seq)
	}
	me := c.Rank()
	// Span-level fan-in/fan-out: each rank's barrier span is linked to the
	// root's — arrivals point at the root, releases point back out — so the
	// causal graph shows the synchronization funnel directly, on top of the
	// per-message edges the endpoint records underneath.
	rec := c.mon.Recorder()
	if me == 0 {
		for r := 1; r < n; r++ {
			if _, err := c.ep.Recv(r, tag(kindBarrier, seq, 0)); err != nil {
				return fmt.Errorf("collective: barrier gather: %w", err)
			}
			rec.FlowIn(trace.FlowKey{Kind: "barrier-arrive", A: r, B: 0, Tag: tag(kindBarrier, seq, 0)}, sid)
		}
		rel := c.releaseTime(n-1, 8)
		payload := c.timeFrame(rel)
		for r := 1; r < n; r++ {
			if err := c.ep.SendOnce(r, tag(kindBarrier, seq, 1), payload); err != nil {
				return fmt.Errorf("collective: barrier release: %w", err)
			}
			rec.FlowOut(trace.FlowKey{Kind: "barrier-release", A: 0, B: r, Tag: tag(kindBarrier, seq, 1)}, sid)
		}
		c.ep.Clock().SyncTo(rel)
		return nil
	}
	if err := c.ep.SendOnce(0, tag(kindBarrier, seq, 0), nil); err != nil {
		return fmt.Errorf("collective: barrier arrive: %w", err)
	}
	rec.FlowOut(trace.FlowKey{Kind: "barrier-arrive", A: me, B: 0, Tag: tag(kindBarrier, seq, 0)}, sid)
	d, err := c.ep.Recv(0, tag(kindBarrier, seq, 1))
	if err != nil {
		return fmt.Errorf("collective: barrier release: %w", err)
	}
	rec.FlowIn(trace.FlowKey{Kind: "barrier-release", A: 0, B: me, Tag: tag(kindBarrier, seq, 1)}, sid)
	c.ep.Clock().SyncTo(decodeTime(d))
	bufpool.Put(d)
	return nil
}

// Bcast distributes root's data to every rank and returns it (the root
// returns its own slice). All ranks leave at the same virtual time.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	defer c.instrument("bcast")()
	seq := c.next()
	n := c.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("collective: bcast root %d out of range", root)
	}
	if n == 1 {
		return data, nil
	}
	if c.sharded() {
		return c.bcastKary(seq, root, data)
	}
	if c.alg == Tree {
		return c.bcastTree(seq, root, data)
	}
	if c.Rank() == root {
		// 8-byte equalization prefix + payload, assembled in a pooled frame
		// every peer but the last is sent a copy of; the last is given the
		// frame itself.
		rel := c.releaseTime(n-1, 8+len(data))
		payload := append(appendTime(bufpool.GetCap(8+len(data)), rel), data...)
		last := n - 1
		if last == root {
			last--
		}
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			var err error
			if r == last {
				err = c.ep.SendOnceOwned(r, tag(kindBcast, seq, 0), payload)
			} else {
				err = c.ep.SendOnce(r, tag(kindBcast, seq, 0), payload)
			}
			if err != nil {
				bufpool.Put(payload)
				return nil, fmt.Errorf("collective: bcast send: %w", err)
			}
		}
		c.ep.Clock().SyncTo(rel)
		return data, nil
	}
	d, err := c.ep.Recv(root, tag(kindBcast, seq, 0))
	if err != nil {
		return nil, fmt.Errorf("collective: bcast recv: %w", err)
	}
	if len(d) < 8 {
		return nil, fmt.Errorf("collective: bcast short frame (%d bytes)", len(d))
	}
	c.ep.Clock().SyncTo(decodeTime(d[:8]))
	return d[8:], nil
}

// Gather collects each rank's data at root. At root the result has Size()
// entries in rank order (root's own entry aliases data); other ranks get
// nil. Gather does not synchronize the senders.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	defer c.instrument("gather")()
	seq := c.next()
	n := c.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("collective: gather root %d out of range", root)
	}
	if c.sharded() {
		return c.gatherKary(seq, root, data)
	}
	if c.Rank() != root {
		if err := c.ep.SendOnce(root, tag(kindGather, seq, 0), data); err != nil {
			return nil, fmt.Errorf("collective: gather send: %w", err)
		}
		return nil, nil
	}
	out := make([][]byte, n)
	out[root] = data
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		d, err := c.ep.Recv(r, tag(kindGather, seq, 0))
		if err != nil {
			return nil, fmt.Errorf("collective: gather recv from %d: %w", r, err)
		}
		out[r] = d
	}
	return out, nil
}

// Allgather collects every rank's data on every rank. The Linear algorithm
// gathers at rank 0 and broadcasts the concatenation (synchronizing
// everyone); the Tree algorithm uses recursive doubling for power-of-two
// group sizes — log P exchange rounds, no root bottleneck — and falls back
// to gather+tree-broadcast otherwise.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	defer c.instrument("allgather")()
	if c.alg == Tree && c.Size()&(c.Size()-1) == 0 && c.Size() > 1 {
		return c.allgatherRD(c.next(), data)
	}
	parts, err := c.Gather(0, data)
	if err != nil {
		return nil, err
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
	flat, err = c.Bcast(0, flat)
	if err != nil {
		return nil, err
	}
	return unflatten(flat)
}

// Scatterv delivers parts[j] from root to rank j and returns the caller's
// part. Only root supplies parts; other ranks pass nil. Receivers
// synchronize with root; ranks do not synchronize with each other (matching
// NX csend/crecv semantics).
func (c *Comm) Scatterv(root int, parts [][]byte) ([]byte, error) {
	defer c.instrument("scatterv")()
	seq := c.next()
	n := c.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("collective: scatterv root %d out of range", root)
	}
	if c.sharded() {
		return c.scattervKary(seq, root, parts)
	}
	if c.Rank() == root {
		if len(parts) != n {
			return nil, fmt.Errorf("collective: scatterv got %d parts for %d ranks", len(parts), n)
		}
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			if err := c.ep.SendOnce(r, tag(kindGather, seq, 1), parts[r]); err != nil {
				return nil, fmt.Errorf("collective: scatterv send to %d: %w", r, err)
			}
		}
		own := bufpool.Get(len(parts[root]))
		copy(own, parts[root])
		return own, nil
	}
	d, err := c.ep.Recv(root, tag(kindGather, seq, 1))
	if err != nil {
		return nil, fmt.Errorf("collective: scatterv recv: %w", err)
	}
	return d, nil
}

// SetMaxMsgBytes bounds one point-to-point payload inside the large-vector
// collectives; contributions larger than n are framed into a chunk train of
// at most n data bytes per message. Zero (the default) disables chunking.
// Every rank of the group must use the same setting — the framing is part
// of the wire protocol.
func (c *Comm) SetMaxMsgBytes(n int) *Comm {
	c.maxMsg = n
	return c
}

// MaxMsgBytes reports the active chunking bound (0 = unchunked).
func (c *Comm) MaxMsgBytes() int { return c.maxMsg }

// vecChunk returns the chunk size used for a payload of total bytes: at
// least maxMsg, raised so the chunk count fits the 16-bit sub-index space of
// the tag layout. Deterministic from (maxMsg, total), so sender and receiver
// agree without negotiation.
func (c *Comm) vecChunk(total int) int {
	chunk := c.maxMsg
	const maxChunks = 1 << 15 // sub 0 is the header frame; keep headroom
	if need := (total + maxChunks - 1) / maxChunks; chunk < need {
		chunk = need
	}
	return chunk
}

// sendVec sends one alltoallv contribution. Unchunked mode (maxMsg == 0)
// sends the payload as a single message. Chunked mode frames it: sub 0
// carries a u32 total length plus the first chunk; subsequent chunks ride
// sub 1, 2, … — so arbitrarily large contributions never exceed the
// configured message bound.
func (c *Comm) sendVec(to int, seq uint64, data []byte) error {
	if c.maxMsg <= 0 {
		return c.ep.SendOnce(to, tag(kindAlltoall, seq, 0), data)
	}
	chunk := c.vecChunk(len(data))
	first := len(data)
	if first > chunk {
		first = chunk
	}
	frame := bufpool.Get(4 + first)
	binary.LittleEndian.PutUint32(frame, uint32(len(data)))
	copy(frame[4:], data[:first])
	if err := c.ep.SendOnceOwned(to, tag(kindAlltoall, seq, 0), frame); err != nil {
		bufpool.Put(frame)
		return err
	}
	for sub, off := 1, first; off < len(data); sub++ {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if err := c.ep.SendOnce(to, tag(kindAlltoall, seq, sub), data[off:end]); err != nil {
			return err
		}
		off = end
	}
	return nil
}

// recvVec receives one alltoallv contribution, reassembling the chunk train
// when chunking is on.
func (c *Comm) recvVec(from int, seq uint64) ([]byte, error) {
	d, err := c.ep.Recv(from, tag(kindAlltoall, seq, 0))
	if err != nil {
		return nil, err
	}
	if c.maxMsg <= 0 {
		return d, nil
	}
	if len(d) < 4 {
		return nil, fmt.Errorf("collective: alltoallv header frame too short (%d bytes)", len(d))
	}
	total := int(binary.LittleEndian.Uint32(d))
	out := d[4:]
	if len(out) > total {
		return nil, fmt.Errorf("collective: alltoallv first chunk overruns total (%d > %d)", len(out), total)
	}
	if len(out) < total {
		// Reassemble into one pooled buffer, releasing the header frame and
		// each consumed chunk as soon as its bytes are copied out.
		buf := append(bufpool.GetCap(total), out...)
		bufpool.Put(d)
		out = buf
		for sub := 1; len(out) < total; sub++ {
			d, err := c.ep.Recv(from, tag(kindAlltoall, seq, sub))
			if err != nil {
				bufpool.Put(out)
				return nil, err
			}
			if len(out)+len(d) > total {
				bufpool.Put(d)
				bufpool.Put(out)
				return nil, fmt.Errorf("collective: alltoallv chunk %d overruns total", sub)
			}
			out = append(out, d...)
			bufpool.Put(d)
		}
	}
	return out, nil
}

// Alltoallv delivers bufs[j] from each rank to rank j; the result holds, in
// rank order, what every rank sent to the caller. len(bufs) must equal
// Size(). All ranks leave synchronized (a barrier closes the exchange, as
// with a synchronized NX exchange). Contributions larger than the configured
// message bound (SetMaxMsgBytes) are chunked transparently.
func (c *Comm) Alltoallv(bufs [][]byte) ([][]byte, error) {
	defer c.instrument("alltoallv")()
	n := c.Size()
	if len(bufs) != n {
		return nil, fmt.Errorf("collective: alltoallv got %d buffers for %d ranks", len(bufs), n)
	}
	seq := c.next()
	me := c.Rank()
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		if err := c.sendVec(r, seq, bufs[r]); err != nil {
			return nil, fmt.Errorf("collective: alltoallv send to %d: %w", r, err)
		}
	}
	out := make([][]byte, n)
	// Receive own contribution by copy, matching wire semantics. Every out
	// entry is owned by the caller, which may bufpool.Put it once consumed.
	own := bufpool.Get(len(bufs[me]))
	copy(own, bufs[me])
	out[me] = own
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		d, err := c.recvVec(r, seq)
		if err != nil {
			return nil, fmt.Errorf("collective: alltoallv recv from %d: %w", r, err)
		}
		out[r] = d
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return out, nil
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

// Reduce combines every rank's value at root. Non-root ranks receive the
// zero value and do not synchronize.
func (c *Comm) Reduce(root int, v float64, op ReduceOp) (float64, error) {
	defer c.instrument("reduce")()
	seq := c.next()
	n := c.Size()
	if root < 0 || root >= n {
		return 0, fmt.Errorf("collective: reduce root %d out of range", root)
	}
	if c.sharded() {
		return c.reduceKary(seq, root, v, op)
	}
	if c.alg == Tree {
		return c.reduceTree(seq, root, v, op)
	}
	if c.Rank() != root {
		if err := c.ep.SendOnce(root, tag(kindReduce, seq, 0), c.timeFrame(v)); err != nil {
			return 0, fmt.Errorf("collective: reduce send: %w", err)
		}
		return 0, nil
	}
	acc := v
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		d, err := c.ep.Recv(r, tag(kindReduce, seq, 0))
		if err != nil {
			return 0, fmt.Errorf("collective: reduce recv from %d: %w", r, err)
		}
		acc = op.apply(acc, decodeTime(d))
		bufpool.Put(d)
	}
	return acc, nil
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
	payload, err = c.Bcast(0, payload)
	if err != nil {
		return 0, err
	}
	return decodeTime(payload), nil
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
