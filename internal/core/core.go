// Package core marks the paper's primary contribution within the prescribed
// repository layout. The d/stream implementation itself lives in
// pcxxstreams/internal/dstream (see that package's documentation for the
// abstraction, the Figure 2 state machines, and the on-disk format); this
// package re-exports its public surface under the canonical internal/core
// path so the contribution is reachable where the repository structure
// promises it.
package core

import (
	"pcxxstreams/internal/dstream"
)

// Core d/stream types.
type (
	// OStream is an output d/stream (see dstream.OStream).
	OStream = dstream.OStream
	// IStream is an input d/stream (see dstream.IStream).
	IStream = dstream.IStream
	// Encoder is the per-element payload encoder.
	Encoder = dstream.Encoder
	// Decoder is the per-element payload decoder.
	Decoder = dstream.Decoder
	// Inserter is implemented by self-inserting element types.
	Inserter = dstream.Inserter
	// Extractor is implemented by self-extracting element types.
	Extractor = dstream.Extractor
	// Options tunes stream behaviour.
	Options = dstream.Options
	// Option is one functional stream setting for Open/OpenInput.
	Option = dstream.Option
	// Strategy selects the collective data path of a stream.
	Strategy = dstream.Strategy
	// OChannel is the sending end of a stream-to-stream channel.
	OChannel = dstream.OChannel
	// IChannel is the receiving end of a stream-to-stream channel.
	IChannel = dstream.IChannel
)

// Stream strategies.
const (
	// StrategyAuto lets the cost-model planner pick funnel, parallel or
	// two-phase (with its aggregator count and read-ahead depth) per record.
	StrategyAuto = dstream.StrategyAuto
	// StrategyFunnel routes metadata and data through node 0's block.
	StrategyFunnel = dstream.StrategyFunnel
	// StrategyParallel writes with every node hitting the PFS directly.
	StrategyParallel = dstream.StrategyParallel
	// StrategyTwoPhase shuffles to stripe-aligned aggregators first.
	StrategyTwoPhase = dstream.StrategyTwoPhase
)

// Stream constructors.
var (
	// Open opens an output d/stream with functional options.
	Open = dstream.Open
	// OpenInput opens an input d/stream with functional options.
	OpenInput = dstream.OpenInput
	// OpenChannel opens the sending end of a stream-to-stream channel.
	OpenChannel = dstream.OpenChannel
	// OpenChannelInput opens the receiving end of a stream-to-stream channel.
	OpenChannelInput = dstream.OpenChannelInput
	// WithStrategy selects the collective data path.
	WithStrategy = dstream.WithStrategy
	// WithAsync makes output writes write-behind.
	WithAsync = dstream.WithAsync
	// WithChannelWindow sets a channel's per-consumer credit window.
	WithChannelWindow = dstream.WithChannelWindow
)

// Sentinel errors.
var (
	// ErrClosed reports use of a closed stream.
	ErrClosed = dstream.ErrClosed
	// ErrNotAligned reports a collection/stream layout mismatch.
	ErrNotAligned = dstream.ErrNotAligned
	// ErrOrder reports a Figure 2 state-machine violation.
	ErrOrder = dstream.ErrOrder
	// ErrIO wraps a flush or refill that failed in the layers below.
	ErrIO = dstream.ErrIO
	// ErrEOS reports end of stream on a channel's receiving end.
	ErrEOS = dstream.ErrEOS
)
