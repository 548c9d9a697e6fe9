package collective

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/dsmon"
)

// The rooted operations — Barrier, Bcast, Gather, Reduce, and everything
// composed from them — have one body each, on a k-ary tree over virtual ranks
// (the root is virtual rank 0, heap layout). The flat exchange is that tree
// one level deep: with k = n − 1 the root is every rank's parent, and at root
// 0 each body sends and receives the flat exchange's messages in its order.
// Past flatMax ranks k is treeFanout: no node touches more than k+1 messages
// per operation, and the depth is log_k P. Gather shards the payloads too: an
// inner node sends its parent one packed frame of (u32 rank, u32 len, bytes)*
// entries for its whole subtree, while a leaf sends its contribution as it is.
//
// The tree releases the group at one bit-equal virtual instant: the root works
// out when the last copy of the release will have arrived (releaseTime) and
// sends that instant down with it.

// Fanout reports the communicator's fan-out (0 = the flat exchange).
func (c *Comm) Fanout() int { return c.fanout }

// k is the tree's fan-out; the flat exchange's root is the parent of every
// other rank.
func (c *Comm) k() int {
	if c.fanout == 0 {
		return c.Size() - 1
	}
	return c.fanout
}

// vrank remaps ranks so the root is virtual rank 0.
func vrank(rank, root, n int) int { return (rank - root + n) % n }

// prank inverts vrank.
func prank(v, root, n int) int { return (v + root) % n }

// kparent returns the virtual rank of v's parent in the k-ary heap layout.
func kparent(v, k int) int { return (v - 1) / k }

// children returns v's children in the k-ary heap layout of n ranks: the
// virtual ranks first … end−1, none when first >= end.
func children(v, k, n int) (first, end int) {
	return v*k + 1, min(v*k+k+1, n)
}

// leaf reports whether v has no children in the k-ary heap layout of n ranks.
func leaf(v, k, n int) bool { return v*k+1 >= n }

// Barrier blocks until all ranks arrive. Every rank leaves at the same
// virtual time: arrivals fan in to the root, and the release — the instant
// its last copy will arrive — fans back out.
func (c *Comm) Barrier() error {
	done, sid := c.instrumentSpan("barrier")
	defer done()
	seq := c.next()
	n, k, me := c.Size(), c.k(), c.Rank()
	if n == 1 {
		return nil
	}
	// Span-level fan-in/fan-out: each rank's barrier span is linked to its
	// parent's — arrivals point up the tree, releases point back down — so the
	// causal graph shows the synchronization funnel directly, on top of the
	// per-message edges the endpoint records underneath.
	rec := c.mon.Recorder()
	arrive, release := tag(kindBarrier, seq, 0), tag(kindBarrier, seq, 1)
	first, end := children(me, k, n)
	for ch := first; ch < end; ch++ {
		if _, err := c.ep.Recv(ch, arrive); err != nil {
			return fmt.Errorf("collective: barrier gather: %w", err)
		}
		rec.FlowIn(dsmon.FlowKey{Kind: "barrier-arrive", A: ch, B: me, Tag: arrive}, sid)
	}
	var rel []byte
	if me == 0 {
		rel = c.timeFrame(c.releaseTime(8))
	} else {
		parent := kparent(me, k)
		if err := c.ep.SendOnce(parent, arrive, nil); err != nil {
			return fmt.Errorf("collective: barrier arrive: %w", err)
		}
		rec.FlowOut(dsmon.FlowKey{Kind: "barrier-arrive", A: me, B: parent, Tag: arrive}, sid)
		var err error
		if rel, err = c.ep.Recv(parent, release); err != nil {
			return fmt.Errorf("collective: barrier release: %w", err)
		}
		rec.FlowIn(dsmon.FlowKey{Kind: "barrier-release", A: parent, B: me, Tag: release}, sid)
		defer bufpool.Put(rel)
	}
	for ch := first; ch < end; ch++ {
		if err := c.ep.SendOnce(ch, release, rel); err != nil {
			return fmt.Errorf("collective: barrier release: %w", err)
		}
		rec.FlowOut(dsmon.FlowKey{Kind: "barrier-release", A: me, B: ch, Tag: release}, sid)
	}
	c.ep.Clock().SyncTo(decodeTime(rel))
	return nil
}

// Bcast distributes root's data to every rank and returns it (the root
// returns its own slice). All ranks that were waiting for it leave at the
// same virtual time.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	d, _, err := c.bcastFrame(root, data)
	return d, err
}

// bcastFrame is Bcast, returning beside the payload the pooled frame it lives
// in (nil where the payload is the caller's own data), so that a caller which
// copies the payload out can give the frame back. The frame is the 8-byte
// release instant and the payload; every node forwards a copy of it to each
// child, except that the root gives its last child the frame itself.
func (c *Comm) bcastFrame(root int, data []byte) (payload, frame []byte, err error) {
	defer c.instrument("bcast")()
	seq := c.next()
	n, k := c.Size(), c.k()
	if root < 0 || root >= n {
		return nil, nil, fmt.Errorf("collective: bcast root %d out of range", root)
	}
	if n == 1 {
		return data, nil, nil
	}
	v := vrank(c.Rank(), root, n)
	t := tag(kindBcast, seq, 0)
	var rel float64 // read before the root's frame is given away
	if v == 0 {
		rel = c.releaseTime(8 + len(data))
		frame = append(appendTime(bufpool.GetCap(8+len(data)), rel), data...)
	} else {
		if frame, err = c.ep.Recv(prank(kparent(v, k), root, n), t); err != nil {
			return nil, nil, fmt.Errorf("collective: bcast recv: %w", err)
		}
		if len(frame) < 8 {
			bufpool.Put(frame)
			return nil, nil, fmt.Errorf("collective: bcast short frame (%d bytes)", len(frame))
		}
		rel = decodeTime(frame)
	}
	first, end := children(v, k, n)
	for ch := first; ch < end; ch++ {
		if v == 0 && ch == end-1 {
			err = c.ep.SendOnceOwned(prank(ch, root, n), t, frame)
		} else {
			err = c.ep.SendOnce(prank(ch, root, n), t, frame)
		}
		if err != nil {
			bufpool.Put(frame)
			return nil, nil, fmt.Errorf("collective: bcast send: %w", err)
		}
	}
	c.ep.Clock().SyncTo(rel)
	if v == 0 {
		return data, nil, nil
	}
	return frame[8:], frame, nil
}

// Gather collects each rank's data at root. At root the result has Size()
// entries in rank order (root's own entry aliases data; the others are the
// caller's, to bufpool.Put); other ranks get nil. Gather does not synchronize
// the senders. A leaf sends its data as it is; an inner node packs its own
// entry and its children's into one frame for its parent, and the root
// unpacks each such frame into pooled copies. On failure everything the
// root had taken goes back to the pool.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	defer c.instrument("gather")()
	seq := c.next()
	n, k := c.Size(), c.k()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("collective: gather root %d out of range", root)
	}
	v := vrank(c.Rank(), root, n)
	t := tag(kindGather, seq, 0)
	first, end := children(v, k, n)
	var out [][]byte // the root's result
	var pack []byte  // an inner node's frame for its parent
	got := 1         // contributions in hand, the caller's own included
	if v == 0 {
		out = make([][]byte, n)
		out[root] = data
	} else if !leaf(v, k, n) {
		pack = appendEntry(nil, c.Rank(), data)
	}
	fail := func(err error) ([][]byte, error) {
		for r, p := range out {
			if r != root {
				bufpool.Put(p)
			}
		}
		return nil, err
	}
	for ch := first; ch < end; ch++ {
		from := prank(ch, root, n)
		d, err := c.ep.Recv(from, t)
		if err != nil {
			return fail(fmt.Errorf("collective: gather recv from %d: %w", from, err))
		}
		switch {
		case leaf(ch, k, n) && v == 0:
			out[from], got = d, got+1
			continue
		case leaf(ch, k, n):
			pack = appendEntry(pack, from, d)
		case v == 0:
			err = walkEntries(d, n, func(r int, p []byte) {
				out[r], got = append(bufpool.GetCap(len(p)), p...), got+1
			})
		default:
			pack = append(pack, d...)
		}
		bufpool.Put(d)
		if err != nil {
			return fail(fmt.Errorf("collective: gather: %w", err))
		}
	}
	if v != 0 {
		if leaf(v, k, n) {
			pack = data
		}
		if err := c.ep.SendOnce(prank(kparent(v, k), root, n), t, pack); err != nil {
			return nil, fmt.Errorf("collective: gather send: %w", err)
		}
		return nil, nil
	}
	if got != n {
		return fail(fmt.Errorf("collective: gather missing %d of %d contributions", n-got, n))
	}
	return out, nil
}

// Reduce combines every rank's value at root, folding values up the tree.
// Children are consumed in child order, so the floating-point fold order is
// a deterministic function of (size, fan-out, root). Non-root ranks receive
// the zero value and do not synchronize.
func (c *Comm) Reduce(root int, val float64, op ReduceOp) (float64, error) {
	defer c.instrument("reduce")()
	seq := c.next()
	n, k := c.Size(), c.k()
	if root < 0 || root >= n {
		return 0, fmt.Errorf("collective: reduce root %d out of range", root)
	}
	v := vrank(c.Rank(), root, n)
	t := tag(kindReduce, seq, 0)
	acc := val
	first, end := children(v, k, n)
	for ch := first; ch < end; ch++ {
		d, err := c.ep.Recv(prank(ch, root, n), t)
		if err != nil {
			return 0, fmt.Errorf("collective: reduce recv from %d: %w", prank(ch, root, n), err)
		}
		acc = op.apply(acc, decodeTime(d))
		bufpool.Put(d)
	}
	if v == 0 {
		return acc, nil
	}
	if err := c.ep.SendOnce(prank(kparent(v, k), root, n), t, c.timeFrame(acc)); err != nil {
		return 0, fmt.Errorf("collective: reduce send: %w", err)
	}
	return 0, nil
}

// appendEntry appends one (u32 rank, u32 len, bytes) entry to a packed frame.
func appendEntry(dst []byte, rank int, p []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rank))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
	return append(dst, p...)
}

// walkEntries calls visit for every entry of a packed (u32 rank, u32 len,
// bytes)* frame of an n-rank group, in frame order; p aliases d. A frame
// that ends inside an entry, or names a rank outside the group, stops the
// walk with an error.
func walkEntries(d []byte, n int, visit func(rank int, p []byte)) error {
	for len(d) > 0 {
		if len(d) < 8 {
			return errors.New("frame truncated")
		}
		r, l := binary.LittleEndian.Uint32(d), binary.LittleEndian.Uint32(d[4:])
		d = d[8:]
		if uint64(r) >= uint64(n) || uint64(l) > uint64(len(d)) {
			return errors.New("frame corrupt")
		}
		visit(int(r), d[:l])
		d = d[l:]
	}
	return nil
}
