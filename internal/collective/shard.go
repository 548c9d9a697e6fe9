package collective

import (
	"fmt"

	"pcxxstreams/internal/bufpool"
)

// Fan-out sharding: the Linear algorithm funnels every collective through
// the root — P-1 sends or receives on one goroutine — which is exactly the
// bottleneck that flattens the scale curve past a few dozen ranks. Setting
// a fan-out k reshapes the funnel ops (Barrier, Bcast, Gather, Scatterv,
// Reduce, and everything composed from them) onto a k-ary tree over
// virtual ranks: no node touches more than k+1 messages per operation, and
// the depth is log_k P. Gather and Scatterv shard the payloads too — each
// tree edge carries one packed frame of (u32 rank, u32 len, bytes)*
// entries for the whole subtree below it, so the root handles k frames
// instead of P-1 messages.
//
// Fan-out takes precedence over SetAlgorithm for the operations it
// implements: it is an explicit opt-in, set identically on every rank.
// Like the Tree algorithm (and unlike Linear), the sharded operations
// release ranks within O(log_k P) message latencies of each other rather
// than at one bit-equal virtual instant.

// SetFanout selects the k-ary sharded collectives with fan-out k (k >= 2);
// zero restores the algorithm chosen by SetAlgorithm. Every rank of the
// group must use the same setting — the tree shape is part of the wire
// protocol. Returns the communicator for chaining.
func (c *Comm) SetFanout(k int) *Comm {
	if k == 1 {
		k = 2 // a 1-ary "tree" is a P-deep chain; never what anyone wants
	}
	c.fanout = k
	return c
}

// Fanout reports the active fan-out (0 = sharding off).
func (c *Comm) Fanout() int { return c.fanout }

// sharded reports whether the k-ary paths are active for this group size.
func (c *Comm) sharded() bool { return c.fanout >= 2 && c.Size() > 2 }

// kparent returns the virtual rank of v's parent in the k-ary heap layout.
func kparent(v, k int) int { return (v - 1) / k }

// kchild returns v's i-th child (i in [0, k)) in the k-ary heap layout,
// or -1 when it falls outside the group.
func kchild(v, i, k, n int) int {
	ch := v*k + 1 + i
	if ch >= n {
		return -1
	}
	return ch
}

// kroute returns which direct child subtree of v holds virtual rank u
// (u must be a strict descendant of v): it climbs u's ancestor chain until
// the next step up would reach v.
func kroute(v, u, k int) int {
	for kparent(u, k) != v {
		u = kparent(u, k)
	}
	return u
}

// barrierKary runs the barrier over the k-ary tree: arrivals fan in to the
// root, releases fan back out, and no rank handles more than fanout+1
// messages.
func (c *Comm) barrierKary(seq uint64) error {
	n, k := c.Size(), c.fanout
	v := vrank(c.Rank(), 0, n)
	for i := 0; i < k; i++ {
		ch := kchild(v, i, k, n)
		if ch < 0 {
			break
		}
		if _, err := c.ep.Recv(prank(ch, 0, n), tag(kindBarrier, seq, 0)); err != nil {
			return fmt.Errorf("collective: sharded barrier gather: %w", err)
		}
	}
	if v != 0 {
		parent := prank(kparent(v, k), 0, n)
		if err := c.ep.SendOnce(parent, tag(kindBarrier, seq, 0), nil); err != nil {
			return fmt.Errorf("collective: sharded barrier arrive: %w", err)
		}
		if _, err := c.ep.Recv(parent, tag(kindBarrier, seq, 1)); err != nil {
			return fmt.Errorf("collective: sharded barrier release: %w", err)
		}
	}
	for i := 0; i < k; i++ {
		ch := kchild(v, i, k, n)
		if ch < 0 {
			break
		}
		if err := c.ep.SendOnce(prank(ch, 0, n), tag(kindBarrier, seq, 1), nil); err != nil {
			return fmt.Errorf("collective: sharded barrier release: %w", err)
		}
	}
	return nil
}

// bcastKary forwards root's payload down the k-ary tree. Non-root callers
// receive a pooled buffer they own, matching the Tree algorithm's contract.
func (c *Comm) bcastKary(seq uint64, root int, data []byte) ([]byte, error) {
	n, k := c.Size(), c.fanout
	v := vrank(c.Rank(), root, n)
	if v != 0 {
		d, err := c.ep.Recv(prank(kparent(v, k), root, n), tag(kindBcast, seq, 0))
		if err != nil {
			return nil, fmt.Errorf("collective: sharded bcast recv: %w", err)
		}
		data = d
	}
	for i := 0; i < k; i++ {
		ch := kchild(v, i, k, n)
		if ch < 0 {
			break
		}
		if err := c.ep.SendOnce(prank(ch, root, n), tag(kindBcast, seq, 0), data); err != nil {
			return nil, fmt.Errorf("collective: sharded bcast send: %w", err)
		}
	}
	return data, nil
}

// reduceKary folds values up the k-ary tree onto the root. Children are
// consumed in child order, so the floating-point fold order is a
// deterministic function of (size, fanout, root).
func (c *Comm) reduceKary(seq uint64, root int, val float64, op ReduceOp) (float64, error) {
	n, k := c.Size(), c.fanout
	v := vrank(c.Rank(), root, n)
	acc := val
	for i := 0; i < k; i++ {
		ch := kchild(v, i, k, n)
		if ch < 0 {
			break
		}
		d, err := c.ep.Recv(prank(ch, root, n), tag(kindReduce, seq, 0))
		if err != nil {
			return 0, fmt.Errorf("collective: sharded reduce recv: %w", err)
		}
		acc = op.apply(acc, decodeTime(d))
		bufpool.Put(d)
	}
	if v != 0 {
		parent := prank(kparent(v, k), root, n)
		if err := c.ep.SendOnce(parent, tag(kindReduce, seq, 0), c.timeFrame(acc)); err != nil {
			return 0, fmt.Errorf("collective: sharded reduce send: %w", err)
		}
		return 0, nil
	}
	return acc, nil
}

// gatherKary funnels contributions up the k-ary tree. Each internal node
// packs its own entry plus its children's (already packed) subtree frames
// into one frame for its parent; the root unpacks k frames into the
// rank-indexed result. Entry layout: (u32 rank, u32 len, bytes)*.
func (c *Comm) gatherKary(seq uint64, root int, data []byte) ([][]byte, error) {
	n, k := c.Size(), c.fanout
	v := vrank(c.Rank(), root, n)

	var out [][]byte
	var pack Buffer2
	if v == 0 {
		out = make([][]byte, n)
		out[root] = data
	} else {
		pack.b = pack.b[:0]
		pack.u32(uint32(c.Rank()))
		pack.u32(uint32(len(data)))
		pack.raw(data)
	}
	for i := 0; i < k; i++ {
		ch := kchild(v, i, k, n)
		if ch < 0 {
			break
		}
		d, err := c.ep.Recv(prank(ch, root, n), tag(kindGather, seq, 0))
		if err != nil {
			return nil, fmt.Errorf("collective: sharded gather recv: %w", err)
		}
		if v == 0 {
			err = unpackEntries(d, out)
		} else {
			pack.raw(d)
		}
		bufpool.Put(d)
		if err != nil {
			return nil, err
		}
	}
	if v != 0 {
		parent := prank(kparent(v, k), root, n)
		if err := c.ep.SendOnce(parent, tag(kindGather, seq, 0), pack.b); err != nil {
			return nil, fmt.Errorf("collective: sharded gather send: %w", err)
		}
		return nil, nil
	}
	for r, b := range out {
		if b == nil && r != root {
			return nil, fmt.Errorf("collective: sharded gather missing rank %d", r)
		}
	}
	return out, nil
}

// unpackEntries parses a packed (u32 rank, u32 len, bytes)* frame into the
// rank-indexed slice, copying each payload into a pooled buffer the caller
// owns.
func unpackEntries(d []byte, out [][]byte) error {
	n := len(out)
	for off := 0; off < len(d); {
		if off+8 > len(d) {
			return fmt.Errorf("collective: sharded gather frame truncated")
		}
		r := int(le32(d[off:]))
		l := int(le32(d[off+4:]))
		off += 8
		if r < 0 || r >= n || off+l > len(d) {
			return fmt.Errorf("collective: sharded gather frame corrupt")
		}
		blk := bufpool.Get(l)
		copy(blk, d[off:off+l])
		out[r] = blk
		off += l
	}
	return nil
}

// scattervKary distributes parts down the k-ary tree: the root packs one
// frame per child holding every entry destined for that child's subtree;
// each child extracts its own part and repacks the remainder for the next
// level. The root's per-operation work drops from P-1 sends to fanout
// frame assemblies.
func (c *Comm) scattervKary(seq uint64, root int, parts [][]byte) ([]byte, error) {
	n, k := c.Size(), c.fanout
	v := vrank(c.Rank(), root, n)

	var own []byte
	packs := make([]Buffer2, k)
	if v == 0 {
		if len(parts) != n {
			return nil, fmt.Errorf("collective: scatterv got %d parts for %d ranks", len(parts), n)
		}
		own = bufpool.Get(len(parts[root]))
		copy(own, parts[root])
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			u := vrank(r, root, n)
			p := &packs[kroute(0, u, k)-1] // child i occupies virtual rank i+1
			p.u32(uint32(r))
			p.u32(uint32(len(parts[r])))
			p.raw(parts[r])
		}
	} else {
		parent := prank(kparent(v, k), root, n)
		d, err := c.ep.Recv(parent, tag(kindGather, seq, 1))
		if err != nil {
			return nil, fmt.Errorf("collective: sharded scatterv recv: %w", err)
		}
		me := c.Rank()
		for off := 0; off < len(d); {
			if off+8 > len(d) {
				bufpool.Put(d)
				return nil, fmt.Errorf("collective: sharded scatterv frame truncated")
			}
			r := int(le32(d[off:]))
			l := int(le32(d[off+4:]))
			off += 8
			if r < 0 || r >= n || off+l > len(d) {
				bufpool.Put(d)
				return nil, fmt.Errorf("collective: sharded scatterv frame corrupt")
			}
			if r == me {
				own = bufpool.Get(l)
				copy(own, d[off:off+l])
			} else {
				u := vrank(r, root, n)
				p := &packs[kroute(v, u, k)-1-v*k] // child index within v's block
				p.u32(uint32(r))
				p.u32(uint32(l))
				p.raw(d[off : off+l])
			}
			off += l
		}
		bufpool.Put(d)
		if own == nil {
			return nil, fmt.Errorf("collective: sharded scatterv frame missing own part")
		}
	}
	for i := 0; i < k; i++ {
		ch := kchild(v, i, k, n)
		if ch < 0 {
			break
		}
		if err := c.ep.SendOnce(prank(ch, root, n), tag(kindGather, seq, 1), packs[i].b); err != nil {
			bufpool.Put(own)
			return nil, fmt.Errorf("collective: sharded scatterv send: %w", err)
		}
	}
	return own, nil
}
