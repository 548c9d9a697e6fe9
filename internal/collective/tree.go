package collective

import (
	"fmt"
	"math/bits"

	"pcxxstreams/internal/bufpool"
)

// Algorithm selects how the collectives are realized on the wire.
type Algorithm uint8

const (
	// Linear has the root exchange directly with every rank: optimal for
	// the paper's 4-16 node machines, O(P) rounds at the root.
	Linear Algorithm = iota
	// Tree uses binomial-tree broadcast/reduce and a dissemination barrier:
	// O(log P) depth, the right choice as the simulated machine grows
	// beyond the paper's scale.
	Tree
)

func (a Algorithm) String() string {
	switch a {
	case Linear:
		return "linear"
	case Tree:
		return "tree"
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// SetAlgorithm selects the collective algorithm; every rank of the group
// must choose the same one. Returns the communicator for chaining.
func (c *Comm) SetAlgorithm(a Algorithm) *Comm {
	c.alg = a
	return c
}

// Algorithm reports the active algorithm.
func (c *Comm) Algorithm() Algorithm { return c.alg }

// vrank remaps ranks so the root is virtual rank 0.
func vrank(rank, root, n int) int { return (rank - root + n) % n }

// prank inverts vrank.
func prank(v, root, n int) int { return (v + root) % n }

// bcastTree distributes root's payload along a binomial tree: in round k
// (mask 2^k), every informed virtual rank v < mask sends to v+mask.
func (c *Comm) bcastTree(seq uint64, root int, data []byte) ([]byte, error) {
	n := c.Size()
	v := vrank(c.Rank(), root, n)
	// Receive first (non-root ranks): the sender is v with the highest set
	// bit cleared, in the round of that bit.
	if v != 0 {
		bit := highestBit(v)
		from := prank(v&^bit, root, n)
		d, err := c.ep.Recv(from, tag(kindBcast, seq, bitIndex(bit)))
		if err != nil {
			return nil, fmt.Errorf("collective: tree bcast recv: %w", err)
		}
		data = d
	}
	// Then forward to children: rounds after the one we were informed in.
	start := 1
	if v != 0 {
		start = int(highestBit(v)) << 1
	}
	for mask := start; mask < n; mask <<= 1 {
		if v >= mask {
			continue
		}
		child := v + mask
		if child >= n {
			continue
		}
		if err := c.ep.SendOnce(prank(child, root, n), tag(kindBcast, seq, bitIndex(mask)), data); err != nil {
			return nil, fmt.Errorf("collective: tree bcast send: %w", err)
		}
	}
	return data, nil
}

// reduceTree folds values up a binomial tree onto the root.
func (c *Comm) reduceTree(seq uint64, root int, val float64, op ReduceOp) (float64, error) {
	n := c.Size()
	v := vrank(c.Rank(), root, n)
	acc := val
	for mask := 1; mask < n; mask <<= 1 {
		if v&mask != 0 {
			// Send partial up and leave.
			parent := prank(v&^mask, root, n)
			if err := c.ep.SendOnce(parent, tag(kindReduce, seq, bitIndex(mask)), c.timeFrame(acc)); err != nil {
				return 0, fmt.Errorf("collective: tree reduce send: %w", err)
			}
			return 0, nil
		}
		child := v | mask
		if child < n {
			d, err := c.ep.Recv(prank(child, root, n), tag(kindReduce, seq, bitIndex(mask)))
			if err != nil {
				return 0, fmt.Errorf("collective: tree reduce recv: %w", err)
			}
			acc = op.apply(acc, decodeTime(d))
			bufpool.Put(d)
		}
	}
	return acc, nil
}

// allgatherRD is the recursive-doubling allgather for power-of-two group
// sizes: in round k every rank exchanges its accumulated block set with
// rank me XOR 2^k, so all P contributions reach everyone in log P rounds.
func (c *Comm) allgatherRD(seq uint64, mine []byte) ([][]byte, error) {
	n := c.Size()
	me := c.Rank()
	have := make([][]byte, n)
	ownCopy := bufpool.Get(len(mine))
	copy(ownCopy, mine)
	have[me] = ownCopy

	// One pack buffer serves every round; the transport copies it on Send.
	var pack Buffer2
	for k, mask := 0, 1; mask < n; k, mask = k+1, mask<<1 {
		partner := me ^ mask
		// Pack every block currently held: (u32 rank, u32 len, bytes)*.
		pack.b = pack.b[:0]
		for r, b := range have {
			if b == nil {
				continue
			}
			pack.u32(uint32(r))
			pack.u32(uint32(len(b)))
			pack.raw(b)
		}
		if err := c.ep.SendOnce(partner, tag(kindGather, seq, k), pack.b); err != nil {
			return nil, fmt.Errorf("collective: rd allgather send: %w", err)
		}
		d, err := c.ep.Recv(partner, tag(kindGather, seq, k))
		if err != nil {
			return nil, fmt.Errorf("collective: rd allgather recv: %w", err)
		}
		for off := 0; off < len(d); {
			if off+8 > len(d) {
				return nil, fmt.Errorf("collective: rd allgather frame truncated")
			}
			r := int(le32(d[off:]))
			l := int(le32(d[off+4:]))
			off += 8
			if r < 0 || r >= n || off+l > len(d) {
				return nil, fmt.Errorf("collective: rd allgather frame corrupt")
			}
			blk := bufpool.Get(l)
			copy(blk, d[off:off+l])
			have[r] = blk
			off += l
		}
		bufpool.Put(d)
	}
	for r, b := range have {
		if b == nil {
			return nil, fmt.Errorf("collective: rd allgather missing rank %d", r)
		}
	}
	return have, nil
}

// Buffer2 is a minimal append buffer local to the tree algorithms (the enc
// package is above this one in the dependency order).
type Buffer2 struct{ b []byte }

func (e *Buffer2) u32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *Buffer2) raw(p []byte) { e.b = append(e.b, p...) }

func le32(p []byte) uint32 {
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

// barrierDissemination is the log-round dissemination barrier: in round k
// every rank signals (rank+2^k) mod n and waits for (rank-2^k) mod n.
func (c *Comm) barrierDissemination(seq uint64) error {
	n := c.Size()
	me := c.Rank()
	for k, mask := 0, 1; mask < n; k, mask = k+1, mask<<1 {
		to := (me + mask) % n
		from := (me - mask + n) % n
		if err := c.ep.SendOnce(to, tag(kindBarrier, seq, k), nil); err != nil {
			return fmt.Errorf("collective: dissemination send: %w", err)
		}
		if _, err := c.ep.Recv(from, tag(kindBarrier, seq, k)); err != nil {
			return fmt.Errorf("collective: dissemination recv: %w", err)
		}
	}
	return nil
}

// highestBit returns the most significant set bit of v > 0.
func highestBit(v int) int {
	return 1 << (bits.Len(uint(v)) - 1)
}

// bitIndex returns log2 of a power-of-two mask (used as a sub-tag).
func bitIndex(mask int) int {
	return bits.Len(uint(mask)) - 1
}
