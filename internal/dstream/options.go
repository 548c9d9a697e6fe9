package dstream

import (
	"fmt"

	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
)

// Strategy selects the collective data path a stream uses to move record
// data between the nodes and the file. It generalizes the paper's
// funnelled-vs-parallel pair (§4.1) with the two-phase collective buffering
// of the ViPIOS/MPI-IO line of work: shuffle to a few aggregators over the
// interconnect, then issue large stripe-aligned transfers.
type Strategy uint8

const (
	// StrategyAuto hands the choice to the cost-model planner (internal/plan):
	// per record it prices funnel, parallel and two-phase on the node's
	// platform profile and the file's stripe layout, picks the cheapest with
	// its aggregator count and read-ahead depth, and re-plans when observed
	// cost diverges from the estimate.
	StrategyAuto Strategy = iota
	// StrategyFunnel routes metadata and data through node 0's per-node
	// block: one parallel append total.
	StrategyFunnel
	// StrategyParallel writes metadata and data with separate parallel
	// operations, every node hitting the PFS directly.
	StrategyParallel
	// StrategyTwoPhase shuffles encoded element payloads to K aggregator
	// ranks (K from the PFS stripe factor) which each assemble one
	// stripe-aligned contiguous extent, so the file sees K large transfers
	// instead of NProcs small ones. On input streams the aggregators refill
	// extents once and scatter slices to the consumers.
	StrategyTwoPhase
)

// String returns the flag-friendly name of the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyFunnel:
		return "funnel"
	case StrategyParallel:
		return "parallel"
	case StrategyTwoPhase:
		return "twophase"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// ParseStrategy maps a flag-friendly name back to its Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "auto", "":
		return StrategyAuto, nil
	case "funnel":
		return StrategyFunnel, nil
	case "parallel":
		return StrategyParallel, nil
	case "twophase", "two-phase":
		return StrategyTwoPhase, nil
	}
	return StrategyAuto, fmt.Errorf("dstream: unknown strategy %q (want auto|funnel|parallel|twophase)", name)
}

// Option is one functional setting for Open, OpenInput, OpenChannel and
// OpenChannelInput; each open validates the settings against its direction.
type Option func(*Options)

// WithStrategy selects the collective data path (write side: funnel,
// parallel, or two-phase; input side: two-phase enables aggregated refill).
func WithStrategy(s Strategy) Option {
	return func(o *Options) { o.Strategy = s }
}

// WithAsync turns output writes into write-behind operations: Write still
// rendezvouses but returns without waiting for the disk; Close (or Drain)
// waits for everything to land.
func WithAsync() Option {
	return func(o *Options) { o.Async = true }
}

// WithReadAhead sets the input-stream prefetch depth: up to n upcoming
// records are fetched in the background while the consumer drains the
// current one, so Read stalls only for the un-overlapped remainder of the
// transfer — the read-side mirror of WithAsync. Zero disables prefetching.
func WithReadAhead(n int) Option {
	return func(o *Options) { o.ReadAhead = n }
}

// WithAppend opens an output stream on an existing d/stream file and adds
// records after the ones already present instead of truncating.
func WithAppend() Option {
	return func(o *Options) { o.Append = true }
}

// WithStrict enforces the full Figure 2 contract on input streams: every
// array of a record must be extracted before the next read, skip, or close.
func WithStrict() Option {
	return func(o *Options) { o.Strict = true }
}

// WithAggregators overrides the aggregator count of the two-phase strategy.
// Zero (the default) takes the planner's K under StrategyAuto and the file's
// stripe factor otherwise.
func WithAggregators(k int) Option {
	return func(o *Options) { o.Aggregators = k }
}

// WithChannelWindow sets the per-consumer credit window of a
// stream-to-stream channel in bytes (DefaultChannelWindow otherwise): a
// producer keeps at most n unacknowledged frame bytes in flight toward
// each consumer before blocking for credit. Channel opens only.
func WithChannelWindow(n int) Option {
	return func(o *Options) { o.ChannelWindow = n }
}

// WithOptions applies a pre-built Options value wholesale, replacing whatever
// the options before it set.
func WithOptions(opts Options) Option {
	return func(o *Options) { *o = opts }
}

// WithFileSystem opens the stream's file on fs instead of the machine's own
// file system — the hook a daemon session uses to point a stream at remote
// storage. All ranks of the collective open must name the same file system.
func WithFileSystem(fs *pfs.FileSystem) Option {
	return func(o *Options) { o.FS = fs }
}

// openFile resolves the stream's file: the injected file system when one is
// set, the machine's otherwise. over opens it over its image (trunc is then
// beside the point).
func openFile(node *machine.Node, opts Options, name string, trunc, over bool) (*pfs.File, error) {
	switch {
	case over && opts.FS != nil:
		return opts.FS.OpenOver(name, node.Size(), node.Rank(), node.Clock())
	case over:
		return node.OpenOver(name)
	case opts.FS != nil:
		return opts.FS.Open(name, node.Size(), node.Rank(), node.Clock(), trunc)
	}
	return node.Open(name, trunc)
}

// buildOptions folds a functional-option list over the zero value.
func buildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Open opens an output d/stream for collections distributed by d, backed by
// the named file. Settings are passed as functional options:
//
//	s, err := dstream.Open(node, d, "particles",
//	    dstream.WithStrategy(dstream.StrategyTwoPhase),
//	    dstream.WithAsync())
//
// Every node of the machine must make the matching call (open is
// collective). The zero-option call gives the paper's defaults.
func Open(node *machine.Node, d *distr.Distribution, name string, opts ...Option) (*OStream, error) {
	return openOutput(node, d, name, buildOptions(opts), false)
}

// OpenOver is Open for a writer that replaces the file without truncating it
// first: the stream writes over the old image's blocks in place and cuts the
// image to the stream's end when the last rank closes it (pfs.FileSystem.
// OpenOver), where Close reports a failed cut. A stream that dies before
// that leaves the old image's tail behind its records, which a reader would
// take for more of them, so the caller must record the stream's length
// somewhere that only a finished write updates: internal/ckpt's commit
// marker does. WithAppend does not combine with it.
func OpenOver(node *machine.Node, d *distr.Distribution, name string, opts ...Option) (*OStream, error) {
	return openOutput(node, d, name, buildOptions(opts), true)
}

// OpenInput opens an input d/stream for collections distributed by d,
// backed by the named file, with functional options (notably WithStrict and
// WithStrategy(StrategyTwoPhase) for aggregated refill). As with Open, the
// call is collective.
func OpenInput(node *machine.Node, d *distr.Distribution, name string, opts ...Option) (*IStream, error) {
	return openInput(node, d, name, buildOptions(opts))
}
