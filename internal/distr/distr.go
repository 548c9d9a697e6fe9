// Package distr implements HPF-style distributions and alignments for
// one-dimensional distributed arrays, the ownership model underneath pC++
// collections (paper §4: "pC++ provides facilities for specifying HPF-style
// distribution and alignment of collections").
//
// A Distribution maps each global element index of a template of N cells to
// an owning processor and a local slot on that processor. The three HPF
// modes are supported: BLOCK, CYCLIC, and BLOCK_CYCLIC(b). An Alignment maps
// a collection's element index onto a template cell (offset + stride·i), so
// collections of different sizes can share one distribution template, as in
// the paper's ALIGN(dummy[i], d[i]) examples.
package distr

import (
	"errors"
	"fmt"
)

// Mode selects the HPF distribution pattern of a template.
type Mode uint8

const (
	// Block assigns ceil(N/P) consecutive cells to each processor.
	Block Mode = iota
	// Cyclic deals cells to processors round-robin.
	Cyclic
	// BlockCyclic deals blocks of BlockSize cells round-robin.
	BlockCyclic
	// Explicit assigns each element to a processor through an owner table —
	// the escape hatch for layouts the HPF patterns cannot express:
	// multi-dimensional grid distributions (see NewGrid2D in package grid)
	// and load-balanced irregular layouts for variable-density data (see
	// NewBalanced). Explicit tables travel inside d/stream record headers
	// like any other distribution descriptor.
	Explicit
)

func (m Mode) String() string {
	switch m {
	case Block:
		return "BLOCK"
	case Cyclic:
		return "CYCLIC"
	case BlockCyclic:
		return "BLOCK_CYCLIC"
	case Explicit:
		return "EXPLICIT"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Alignment maps collection index i to template cell Offset + Stride*i.
// The zero value is not valid; use Identity for the common 1:1 case.
type Alignment struct {
	Offset int
	Stride int
}

// Identity is the 1:1 alignment used by most programs.
func Identity() Alignment { return Alignment{Offset: 0, Stride: 1} }

// Cell returns the template cell holding collection element i.
func (a Alignment) Cell(i int) int { return a.Offset + a.Stride*i }

// Distribution describes how N template cells are spread over NProcs
// processors, together with the alignment of the collection onto the
// template. Construct values with New or NewAligned; the closed-form
// ownership math assumes validated fields.
type Distribution struct {
	NProcs    int
	N         int // number of collection elements
	TemplateN int // number of template cells (>= span of the alignment)
	Mode      Mode
	BlockSize int // used by BlockCyclic; ignored otherwise
	Align     Alignment

	// owners is the Explicit-mode owner table (len N); nil otherwise.
	owners []int32

	// localCount[r] caches the number of collection elements owned by rank
	// r. For Explicit mode and non-identity alignments, localIdx and
	// perRank cache the full index maps so ownership queries stay O(1).
	localCount []int
	localIdx   []int32
	perRank    [][]int32
}

// ErrBadDistribution reports invalid constructor arguments.
var ErrBadDistribution = errors.New("distr: invalid distribution")

// New builds a distribution of n elements over nprocs processors with an
// identity alignment. For BlockCyclic, blockSize must be positive; it is
// ignored for the other modes. n may be zero (an empty collection).
func New(n, nprocs int, mode Mode, blockSize int) (*Distribution, error) {
	templateN := n
	if templateN == 0 {
		templateN = 1
	}
	return NewAligned(n, templateN, nprocs, mode, blockSize, Identity())
}

// NewAligned builds a distribution of n collection elements aligned onto a
// template of templateN cells distributed over nprocs processors.
func NewAligned(n, templateN, nprocs int, mode Mode, blockSize int, align Alignment) (*Distribution, error) {
	if n < 0 || nprocs <= 0 || templateN <= 0 {
		return nil, fmt.Errorf("%w: n=%d templateN=%d nprocs=%d", ErrBadDistribution, n, templateN, nprocs)
	}
	if mode == BlockCyclic && blockSize <= 0 {
		return nil, fmt.Errorf("%w: BLOCK_CYCLIC needs blockSize > 0, got %d", ErrBadDistribution, blockSize)
	}
	if mode != BlockCyclic {
		blockSize = 0
	}
	if align.Stride == 0 {
		return nil, fmt.Errorf("%w: alignment stride must be non-zero", ErrBadDistribution)
	}
	if n > 0 {
		lo, hi := align.Cell(0), align.Cell(n-1)
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo < 0 || hi >= templateN {
			return nil, fmt.Errorf("%w: alignment maps outside template (cells %d..%d, template %d)",
				ErrBadDistribution, lo, hi, templateN)
		}
	}
	if mode == Explicit {
		return nil, fmt.Errorf("%w: use NewExplicit for EXPLICIT distributions", ErrBadDistribution)
	}
	if mode > Explicit {
		return nil, fmt.Errorf("%w: unknown mode %s", ErrBadDistribution, mode)
	}
	d := &Distribution{
		NProcs:    nprocs,
		N:         n,
		TemplateN: templateN,
		Mode:      mode,
		BlockSize: blockSize,
		Align:     align,
	}
	d.finalize()
	return d, nil
}

// NewExplicit builds a distribution from an owner table: owners[i] is the
// rank owning element i. Local order follows global order, as with the HPF
// patterns.
func NewExplicit(owners []int, nprocs int) (*Distribution, error) {
	if nprocs <= 0 {
		return nil, fmt.Errorf("%w: nprocs=%d", ErrBadDistribution, nprocs)
	}
	tbl := make([]int32, len(owners))
	for i, o := range owners {
		if o < 0 || o >= nprocs {
			return nil, fmt.Errorf("%w: owners[%d]=%d out of [0,%d)", ErrBadDistribution, i, o, nprocs)
		}
		tbl[i] = int32(o)
	}
	n := len(owners)
	templateN := n
	if templateN == 0 {
		templateN = 1
	}
	d := &Distribution{
		NProcs:    nprocs,
		N:         n,
		TemplateN: templateN,
		Mode:      Explicit,
		Align:     Identity(),
		owners:    tbl,
	}
	d.finalize()
	return d, nil
}

// NewBalanced partitions n elements with the given per-element weights into
// nprocs contiguous chunks of near-equal total weight — the natural I/O
// distribution for variable-density data (elements stay in order; heavy
// regions get fewer elements per node). Weights must be non-negative.
func NewBalanced(weights []float64, nprocs int) (*Distribution, error) {
	if nprocs <= 0 {
		return nil, fmt.Errorf("%w: nprocs=%d", ErrBadDistribution, nprocs)
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("%w: weights[%d]=%v negative", ErrBadDistribution, i, w)
		}
		total += w
	}
	owners := make([]int, len(weights))
	acc := 0.0
	for i, w := range weights {
		// Cut so that rank r holds weight in [r·total/P, (r+1)·total/P).
		r := 0
		if total > 0 {
			r = int(acc / total * float64(nprocs))
		} else if len(weights) > 0 {
			r = i * nprocs / len(weights) // all-zero weights: balance counts
		}
		if r >= nprocs {
			r = nprocs - 1
		}
		owners[i] = r
		acc += w
	}
	return NewExplicit(owners, nprocs)
}

// Owners returns a copy of the explicit owner table, or nil for pattern
// distributions. Used to encode the distribution into a d/stream record.
func (d *Distribution) Owners() []int32 {
	if d.owners == nil {
		return nil
	}
	out := make([]int32, len(d.owners))
	copy(out, d.owners)
	return out
}

// ownerOf maps a global element index to its owning rank.
func (d *Distribution) ownerOf(i int) int {
	if d.Mode == Explicit {
		return int(d.owners[i])
	}
	return d.ownerCell(d.Align.Cell(i))
}

// finalize builds the cached count and index tables.
func (d *Distribution) finalize() {
	d.localCount = make([]int, d.NProcs)
	needTables := d.Mode == Explicit || d.Align != Identity() || d.N != d.TemplateN
	if needTables {
		d.localIdx = make([]int32, d.N)
		d.perRank = make([][]int32, d.NProcs)
	}
	for i := 0; i < d.N; i++ {
		r := d.ownerOf(i)
		if needTables {
			d.localIdx[i] = int32(d.localCount[r])
			d.perRank[r] = append(d.perRank[r], int32(i))
		}
		d.localCount[r]++
	}
}

// templateBlock returns the BLOCK-mode block length: ceil(TemplateN/NProcs).
func (d *Distribution) templateBlock() int {
	return (d.TemplateN + d.NProcs - 1) / d.NProcs
}

// ownerCell maps a template cell to its owning rank.
func (d *Distribution) ownerCell(cell int) int {
	switch d.Mode {
	case Block:
		return cell / d.templateBlock()
	case Cyclic:
		return cell % d.NProcs
	default: // BlockCyclic
		return (cell / d.BlockSize) % d.NProcs
	}
}

// Owner returns the rank owning collection element i. i must be in [0, N).
func (d *Distribution) Owner(i int) int {
	d.check(i)
	return d.ownerOf(i)
}

// LocalCount returns the number of collection elements owned by rank.
func (d *Distribution) LocalCount(rank int) int {
	if rank < 0 || rank >= d.NProcs {
		panic(fmt.Sprintf("distr: rank %d out of range [0,%d)", rank, d.NProcs))
	}
	return d.localCount[rank]
}

// LocalIndex returns the local slot of element i on its owner: its position
// among the owner's elements in increasing global-index order.
func (d *Distribution) LocalIndex(i int) int {
	d.check(i)
	if d.localIdx != nil {
		return int(d.localIdx[i])
	}
	// Closed forms for the identity-alignment pattern cases.
	owner := d.ownerOf(i)
	switch d.Mode {
	case Block:
		return i - owner*d.templateBlock()
	case Cyclic:
		return i / d.NProcs
	case BlockCyclic:
		b := d.BlockSize
		fullRounds := i / (b * d.NProcs)
		return fullRounds*b + i%b
	}
	panic("distr: LocalIndex: no table for explicit distribution")
}

// GlobalIndex is the inverse of (Owner, LocalIndex): it returns the global
// index of the local-th element owned by rank.
func (d *Distribution) GlobalIndex(rank, local int) int {
	if rank < 0 || rank >= d.NProcs {
		panic(fmt.Sprintf("distr: rank %d out of range [0,%d)", rank, d.NProcs))
	}
	if local < 0 || local >= d.localCount[rank] {
		panic(fmt.Sprintf("distr: local %d out of range [0,%d) on rank %d", local, d.localCount[rank], rank))
	}
	if d.perRank != nil {
		return int(d.perRank[rank][local])
	}
	switch d.Mode {
	case Block:
		return rank*d.templateBlock() + local
	case Cyclic:
		return local*d.NProcs + rank
	case BlockCyclic:
		b := d.BlockSize
		round := local / b
		return round*b*d.NProcs + rank*b + local%b
	}
	panic("distr: GlobalIndex internal inconsistency")
}

// LocalElements returns the global indices owned by rank, in local order.
func (d *Distribution) LocalElements(rank int) []int {
	out := make([]int, 0, d.LocalCount(rank))
	if d.perRank != nil {
		for _, g := range d.perRank[rank] {
			out = append(out, int(g))
		}
		return out
	}
	for j := 0; j < d.N; j++ {
		if d.Owner(j) == rank {
			out = append(out, j)
		}
	}
	return out
}

// SameLayout reports whether two distributions assign every element to the
// same (owner, local slot); when true, a d/stream sorted read can skip the
// redistribution phase entirely.
func (d *Distribution) SameLayout(o *Distribution) bool {
	if o == nil || d.N != o.N || d.NProcs != o.NProcs {
		return false
	}
	if d.Mode == o.Mode && d.BlockSize == o.BlockSize &&
		d.Align == o.Align && d.TemplateN == o.TemplateN &&
		d.Mode != Explicit {
		return true
	}
	for i := 0; i < d.N; i++ {
		if d.Owner(i) != o.Owner(i) || d.LocalIndex(i) != o.LocalIndex(i) {
			return false
		}
	}
	return true
}

func (d *Distribution) check(i int) {
	if i < 0 || i >= d.N {
		panic(fmt.Sprintf("distr: element %d out of range [0,%d)", i, d.N))
	}
}

func (d *Distribution) String() string {
	s := fmt.Sprintf("%s(n=%d,p=%d", d.Mode, d.N, d.NProcs)
	if d.Mode == BlockCyclic {
		s += fmt.Sprintf(",b=%d", d.BlockSize)
	}
	if d.Align != Identity() {
		s += fmt.Sprintf(",align=%d+%d·i/%d", d.Align.Offset, d.Align.Stride, d.TemplateN)
	}
	return s + ")"
}
