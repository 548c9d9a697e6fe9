// Package plan is the d/stream strategy planner: a closed-form cost model
// over the vtime platform profile, the pfs stripe layout, and one record's
// geometry, plus a small online controller that re-plans between records
// when observation diverges from estimate.
//
// The paper (§4.1) picks between its funnelled and parallel I/O paths with
// a static element-count threshold. The ablation grids (the write cells of
// BENCH_planner, BENCH_readahead) show no strategy dominates: the winner
// moves with the platform's per-operation latency, the stripe geometry, the
// record size, and the write-cache cliffs. This package derives the choice
// instead: it prices each strategy with the same timing laws the simulated
// platform charges (pfs/disk.go, the collective cost model), picks the
// cheapest, and keeps itself honest by comparing its estimates against the
// observed virtual cost of every record — the adaptive logical-to-physical
// mapping ViPIOS argued for, scoped to one stream.
//
// Everything here is deterministic and allocation-free per record. Planner
// inputs must be rank-identical (total record bytes, broadcast headers,
// virtual-clock deltas between synchronizing collectives); under that
// contract every rank of a stream computes the identical plan chain with no
// extra communication, which the plan signature (Signature) lets harnesses
// verify.
package plan

import (
	"math"

	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// Strategy is the planner's view of the d/stream data paths. The values
// deliberately mirror dstream's funnel/parallel/twophase triple without
// importing it (dstream imports this package).
type Strategy uint8

const (
	// Funnel: metadata gathers to node 0 and rides one parallel append
	// with every rank's data block.
	Funnel Strategy = iota
	// Parallel: metadata and data move with separate parallel appends.
	Parallel
	// TwoPhase: ranks shuffle payloads to K aggregators which move
	// stripe-aligned extents.
	TwoPhase
	numStrategies
)

// String returns the flag-friendly name of the strategy.
func (s Strategy) String() string {
	switch s {
	case Funnel:
		return "funnel"
	case Parallel:
		return "parallel"
	case TwoPhase:
		return "twophase"
	}
	return "strategy?"
}

// Geometry is one record's shape, as agreed by every rank of the stream:
// total bytes (not a single rank's share), so the planner's inputs are
// rank-identical by construction.
type Geometry struct {
	// NProcs is the machine size the record moves across.
	NProcs int
	// NElems is the element count of the record's distribution.
	NElems int
	// DataBytes is the record's whole data section, summed over ranks.
	DataBytes int64
	// MetaBytes is the record's front matter: header, distribution
	// descriptor, and size table.
	MetaBytes int64
}

// Model prices the strategies on one platform + file layout. The zero
// value is usable (every cost is 0); build one from the machine's profile
// and the stream file's layout.
type Model struct {
	Prof   vtime.Profile
	Layout pfs.Layout
}

// pos sanitizes a profile constant: negatives, NaNs, and infinities
// contribute nothing instead of poisoning the estimate — fuzzing the
// profile space must never make a cost non-finite or negative.
func pos(x float64) float64 {
	if x > 0 && !math.IsInf(x, 1) {
		return x
	}
	return 0
}

// posBytes clamps a byte count to [0, ∞).
func posBytes(n int64) int64 {
	if n < 0 {
		return 0
	}
	return n
}

// safeTransfer is TransferTime with the bandwidth sanitized.
func safeTransfer(n int64, bw float64) float64 {
	return vtime.TransferTime(posBytes(n), pos(bw))
}

// ceilDiv divides, rounding up, with a floor of 1 on the divisor.
func ceilDiv(n int64, d int) int64 {
	if d < 1 {
		d = 1
	}
	return (n + int64(d) - 1) / int64(d)
}

// log2ceil returns ⌈log₂ n⌉ (0 for n ≤ 1) — the tree depth of the
// collective algorithms.
func log2ceil(n int) int {
	d := 0
	for span := 1; span < n; span <<= 1 {
		d++
	}
	return d
}

// channels returns the storage subsystem's concurrency, as pfs derives it.
func (m Model) channels() int {
	if m.Prof.IOChannels > 0 {
		return m.Prof.IOChannels
	}
	return 1
}

// msg prices one point-to-point message of n bytes.
func (m Model) msg(n int64) float64 {
	return pos(m.Prof.MsgLatency) + pos(m.Prof.SendOverhead) + safeTransfer(n, m.Prof.MsgBW)
}

// streamIO mirrors disk.streamCost: the bandwidth term of moving n bytes,
// with the write-cache cliff applied to writes.
func (m Model) streamIO(n int64, write bool) float64 {
	n = posBytes(n)
	fast, slow := n, int64(0)
	if write && m.Prof.BlockCache > 0 && n > m.Prof.BlockCache {
		fast, slow = m.Prof.BlockCache, n-m.Prof.BlockCache
	}
	return safeTransfer(fast, m.Prof.DiskFastBW) + safeTransfer(slow, m.Prof.DiskSlowBW)
}

// parallelIO mirrors disk.parallel: a node-order collective transfer where
// nz of the nprocs ranks move per bytes each and rank 0 carries extra0
// additional bytes at the head of its block. The blocks deal onto the
// profile's I/O channels by rank; the op costs the serialized control term
// plus the heaviest channel's streaming time. Channel 0 always carries
// rank 0's block, so it is the heaviest: ⌈nz/C⌉ blocks plus the extra.
func (m Model) parallelIO(nprocs, nz int, per, extra0 int64, write bool) float64 {
	if nprocs < 1 {
		nprocs = 1
	}
	if nz < 1 {
		nz = 1
	}
	if nz > nprocs {
		nz = nprocs
	}
	c := m.channels()
	perCh := (nz + c - 1) / c
	lat := pos(m.Prof.IOOpLatency)
	load := float64(perCh)*(lat+m.streamIO(per, write)) +
		m.streamIO(per+posBytes(extra0), write) - m.streamIO(per, write)
	return float64(nprocs)*pos(m.Prof.SerialPerOp) + load
}

// gather prices a tree gather of total bytes to the root.
func (m Model) gather(nprocs int, total int64) float64 {
	return float64(log2ceil(nprocs))*pos(m.Prof.MsgLatency) +
		float64(nprocs)*pos(m.Prof.SendOverhead) + safeTransfer(total, m.Prof.MsgBW)
}

// bcast prices a tree broadcast of n bytes from the root.
func (m Model) bcast(nprocs int, n int64) float64 {
	return float64(log2ceil(nprocs)) * m.msg(n)
}

// allreduce8 prices the 8-byte scalar agreement the planner (and the
// parallel strategy's header) performs.
func (m Model) allreduce8(nprocs int) float64 {
	return 2 * float64(log2ceil(nprocs)) * m.msg(8)
}

// shuffle prices the two-phase interconnect exchange: every rank sends its
// per bytes toward at most k aggregators, each aggregator receives and
// packs an ext-byte extent. The bottleneck path is the heavier of the
// sender's and the aggregator's byte stream, plus the pack copy.
func (m Model) shuffle(nprocs, k int, per, ext int64) float64 {
	if k > nprocs {
		k = nprocs
	}
	if k < 1 {
		k = 1
	}
	peers := k
	wire := per
	if ext > wire {
		wire = ext
	}
	return float64(peers)*(pos(m.Prof.MsgLatency)+pos(m.Prof.SendOverhead)) +
		safeTransfer(wire, m.Prof.MsgBW) + safeTransfer(ext, m.Prof.MemCopyBW)
}

// clampK bounds an aggregator count to [1, nprocs].
func clampK(k, nprocs int) int {
	if nprocs < 1 {
		nprocs = 1
	}
	if k < 1 {
		k = 1
	}
	if k > nprocs {
		k = nprocs
	}
	return k
}

// WriteCost estimates the virtual seconds one record flush takes under the
// given strategy. k is the two-phase aggregator count (ignored by the
// other strategies; sanitized to [1, NProcs]). Estimates are finite,
// non-negative, and monotone in DataBytes for every strategy.
func (m Model) WriteCost(g Geometry, s Strategy, k int) float64 {
	nprocs := g.NProcs
	if nprocs < 1 {
		nprocs = 1
	}
	data := posBytes(g.DataBytes)
	meta := posBytes(g.MetaBytes)
	per := ceilDiv(data, nprocs)
	table := posBytes(4 * int64(g.NElems))
	switch s {
	case Funnel:
		// Gather the size table to node 0; one parallel append moves
		// every rank's block, node 0's with the metadata at its head.
		return m.gather(nprocs, table) + m.parallelIO(nprocs, nprocs, per, meta, true)
	case Parallel:
		// Agree on the total (8-byte allreduce), then two appends: the
		// metadata section split across ranks (header and descriptor on
		// rank 0), then the data.
		metaPer := ceilDiv(table, nprocs)
		extra0 := posBytes(meta - table)
		return m.allreduce8(nprocs) +
			m.parallelIO(nprocs, nprocs, metaPer, extra0, true) +
			m.parallelIO(nprocs, nprocs, per, 0, true)
	case TwoPhase:
		// Allgather the per-rank lengths, gather the size table, shuffle
		// payloads to K aggregators, one append of K extents (metadata on
		// aggregator 0's head).
		kk := clampK(k, nprocs)
		ext := ceilDiv(data, kk)
		return m.gather(nprocs, 8*int64(nprocs)) + m.gather(nprocs, table) +
			m.shuffle(nprocs, kk, per, ext) +
			m.parallelIO(nprocs, kk, ext, meta, true)
	}
	return math.Inf(1)
}

// ReadCost estimates the virtual seconds one record refill takes under the
// given strategy (Funnel reads are priced as Parallel — the input side has
// no funnel path). The estimate covers the data movement that follows the
// metadata broadcast, matching how the stream observes it.
func (m Model) ReadCost(g Geometry, s Strategy, k int) float64 {
	nprocs := g.NProcs
	if nprocs < 1 {
		nprocs = 1
	}
	data := posBytes(g.DataBytes)
	per := ceilDiv(data, nprocs)
	switch s {
	case TwoPhase:
		kk := clampK(k, nprocs)
		ext := ceilDiv(data, kk)
		return m.parallelIO(nprocs, kk, ext, 0, false) +
			m.shuffle(nprocs, kk, ext, per) +
			safeTransfer(per, m.Prof.MemCopyBW)
	default:
		return m.parallelIO(nprocs, nprocs, per, 0, false) +
			safeTransfer(per, m.Prof.MemCopyBW)
	}
}

// maxPlanAggregators bounds the aggregator scan; stripe factors beyond
// this see no extra modeled benefit worth the scan cost.
const maxPlanAggregators = 16

// BestWriteAggregators returns the aggregator count in [1, NProcs] that
// minimizes the modeled two-phase write cost, preferring the file's stripe
// factor on ties (one aggregator per stripe device is the natural
// operating point, and what the static strategy uses).
func (m Model) BestWriteAggregators(g Geometry) int {
	return m.bestAggregators(g, true)
}

// BestReadAggregators is the read-side mirror of BestWriteAggregators.
func (m Model) BestReadAggregators(g Geometry) int {
	return m.bestAggregators(g, false)
}

func (m Model) bestAggregators(g Geometry, write bool) int {
	nprocs := g.NProcs
	if nprocs < 1 {
		nprocs = 1
	}
	limit := nprocs
	if limit > maxPlanAggregators {
		limit = maxPlanAggregators
	}
	natural := clampK(m.Layout.StripeFactor, nprocs)
	cost := func(k int) float64 {
		if write {
			return m.WriteCost(g, TwoPhase, k)
		}
		return m.ReadCost(g, TwoPhase, k)
	}
	best, bestCost := natural, cost(natural)
	for k := 1; k <= limit; k++ {
		if k == natural {
			continue
		}
		if c := cost(k); c < bestCost {
			best, bestCost = k, c
		}
	}
	return best
}
