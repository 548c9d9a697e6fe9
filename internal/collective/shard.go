package collective

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pcxxstreams/internal/bufpool"
)

// The tree shape. The flat exchange funnels every collective through the
// root — P-1 sends or receives on one goroutine — which is what flattens the
// scale curve past a few dozen ranks. On a communicator with a fan-out k the
// funnel operations (Barrier, Bcast, Gather, Scatterv, Reduce, and everything
// composed from them) run on a k-ary tree over virtual ranks: no node
// touches more than k+1 messages per operation, and the depth is log_k P.
// Gather and Scatterv shard the payloads too — each tree edge carries one
// packed frame of (u32 rank, u32 len, bytes)* entries for the whole subtree
// below it, so the root handles k frames instead of P-1 messages.
//
// The tree releases the group as the flat exchange does, at one bit-equal
// virtual instant: the root works out when the last copy of the release will
// have arrived (releaseTime) and sends that instant down with it.

// Fanout reports the tree's fan-out (0 = the flat exchange).
func (c *Comm) Fanout() int { return c.fanout }

// sharded reports whether the communicator has the tree shape.
func (c *Comm) sharded() bool { return c.fanout != 0 }

// vrank remaps ranks so the root is virtual rank 0.
func vrank(rank, root, n int) int { return (rank - root + n) % n }

// prank inverts vrank.
func prank(v, root, n int) int { return (v + root) % n }

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
// root, the release — the instant its last copy will arrive, which everyone
// leaves at — fans back out, and no rank handles more than fanout+1
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
	var release []byte
	if v == 0 {
		release = c.timeFrame(c.releaseTime(8))
	} else {
		parent := prank(kparent(v, k), 0, n)
		if err := c.ep.SendOnce(parent, tag(kindBarrier, seq, 0), nil); err != nil {
			return fmt.Errorf("collective: sharded barrier arrive: %w", err)
		}
		var err error
		if release, err = c.ep.Recv(parent, tag(kindBarrier, seq, 1)); err != nil {
			return fmt.Errorf("collective: sharded barrier release: %w", err)
		}
		defer bufpool.Put(release)
	}
	for i := 0; i < k; i++ {
		ch := kchild(v, i, k, n)
		if ch < 0 {
			break
		}
		if err := c.ep.SendOnce(prank(ch, 0, n), tag(kindBarrier, seq, 1), release); err != nil {
			return fmt.Errorf("collective: sharded barrier release: %w", err)
		}
	}
	c.ep.Clock().SyncTo(decodeTime(release))
	return nil
}

// bcastKary forwards root's payload down the k-ary tree behind the 8-byte
// release instant, as the flat broadcast frames it; a non-root caller gets
// the payload and the pooled frame it is a part of.
func (c *Comm) bcastKary(seq uint64, root int, data []byte) (payload, frame []byte, err error) {
	n, k := c.Size(), c.fanout
	v := vrank(c.Rank(), root, n)
	if v == 0 {
		rel := c.releaseTime(8 + len(data))
		frame = append(appendTime(bufpool.GetCap(8+len(data)), rel), data...)
		defer bufpool.Put(frame) // the root keeps data; every child is sent a copy
	} else {
		frame, err = c.ep.Recv(prank(kparent(v, k), root, n), tag(kindBcast, seq, 0))
		if err != nil {
			return nil, nil, fmt.Errorf("collective: sharded bcast recv: %w", err)
		}
		if len(frame) < 8 {
			bufpool.Put(frame)
			return nil, nil, fmt.Errorf("collective: bcast short frame (%d bytes)", len(frame))
		}
	}
	for i := 0; i < k; i++ {
		ch := kchild(v, i, k, n)
		if ch < 0 {
			break
		}
		if err := c.ep.SendOnce(prank(ch, root, n), tag(kindBcast, seq, 0), frame); err != nil {
			return nil, nil, fmt.Errorf("collective: sharded bcast send: %w", err)
		}
	}
	c.ep.Clock().SyncTo(decodeTime(frame))
	if v == 0 {
		return data, nil, nil
	}
	return frame[8:], frame, nil
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

// gatherKary funnels contributions up the k-ary tree. Each internal node
// packs its own entry plus its children's (already packed) subtree frames
// into one frame for its parent; the root unpacks k frames into the
// rank-indexed result, each payload copied into a pooled buffer the caller
// owns.
func (c *Comm) gatherKary(seq uint64, root int, data []byte) ([][]byte, error) {
	n, k := c.Size(), c.fanout
	v := vrank(c.Rank(), root, n)

	var out [][]byte
	var pack []byte
	if v == 0 {
		out = make([][]byte, n)
		out[root] = data
	} else {
		pack = appendEntry(nil, c.Rank(), data)
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
			err = walkEntries(d, n, func(r int, p []byte) {
				out[r] = append(bufpool.GetCap(len(p)), p...)
			})
		} else {
			pack = append(pack, d...)
		}
		bufpool.Put(d)
		if err != nil {
			return nil, fmt.Errorf("collective: sharded gather: %w", err)
		}
	}
	if v != 0 {
		parent := prank(kparent(v, k), root, n)
		if err := c.ep.SendOnce(parent, tag(kindGather, seq, 0), pack); err != nil {
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

// scattervKary distributes parts down the k-ary tree: the root packs one
// frame per child holding every entry destined for that child's subtree;
// each child extracts its own part and repacks the remainder for the next
// level. The root's per-operation work drops from P-1 sends to fanout
// frame assemblies.
func (c *Comm) scattervKary(seq uint64, root int, parts [][]byte) ([]byte, error) {
	n, k := c.Size(), c.fanout
	v := vrank(c.Rank(), root, n)

	var own []byte
	packs := make([][]byte, k)
	// route files rank r's part under the child of v whose subtree holds r
	// (v's children occupy virtual ranks v*k+1 … v*k+k), or keeps it when r
	// is the caller.
	route := func(r int, p []byte) {
		if r == c.Rank() {
			own = append(bufpool.GetCap(len(p)), p...)
			return
		}
		i := kroute(v, vrank(r, root, n), k) - 1 - v*k
		packs[i] = appendEntry(packs[i], r, p)
	}
	if v == 0 {
		if len(parts) != n {
			return nil, fmt.Errorf("collective: scatterv got %d parts for %d ranks", len(parts), n)
		}
		for r, p := range parts {
			route(r, p)
		}
	} else {
		d, err := c.ep.Recv(prank(kparent(v, k), root, n), tag(kindGather, seq, 1))
		if err != nil {
			return nil, fmt.Errorf("collective: sharded scatterv recv: %w", err)
		}
		err = walkEntries(d, n, route)
		bufpool.Put(d)
		if err == nil && own == nil {
			err = errors.New("frame missing own part")
		}
		if err != nil {
			bufpool.Put(own)
			return nil, fmt.Errorf("collective: sharded scatterv: %w", err)
		}
	}
	for i := 0; i < k; i++ {
		ch := kchild(v, i, k, n)
		if ch < 0 {
			break
		}
		if err := c.ep.SendOnce(prank(ch, root, n), tag(kindGather, seq, 1), packs[i]); err != nil {
			bufpool.Put(own)
			return nil, fmt.Errorf("collective: sharded scatterv send: %w", err)
		}
	}
	return own, nil
}
