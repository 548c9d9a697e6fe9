// Package bufpool is the shared buffer-pool layer of the d/stream stack:
// size-classed free lists of []byte that the hot paths — enc payload
// staging, the comm transports, the collective assembly buffers, and the
// dstream flush/refill paths — draw from instead of the garbage collector.
// The paper's whole argument is that buffering amortizes per-operation
// cost; this package applies the same argument to the allocator, so that
// the steady state of a d/stream program allocates (almost) nothing per
// element.
//
// # Ownership contract
//
// A buffer obtained from Get/GetCap is owned by the caller until the caller
// passes it across an API that documents a transfer (e.g. a comm.Transport
// delivers the *pool's copy* of a payload to the receiver, which then owns
// it). Exactly one owner ends the buffer's life with Put or Drop, after
// which the buffer must not be touched — not read, not written, not released
// again. Put hands it back to the pool; Drop hands it to the garbage
// collector on purpose, for an owner that cannot give it back. Put accepts
// only buffers whose capacity exactly matches a size class (anything else —
// a re-sliced buffer, a foreign allocation — is quietly dropped), so handing
// Put a buffer you merely suspect came from the pool is safe.
//
// Get returns buffers with arbitrary contents (a recycled buffer still
// holds its previous bytes, or the pooldebug poison pattern); callers must
// fully overwrite the region they asked for.
//
// # pooldebug
//
// Built with `-tags pooldebug`, every released buffer is poisoned and
// verified still-poisoned when recycled: a retained alias written after Put
// makes the next Get of that buffer panic, turning a silent
// use-after-release data race into a crash at the pool boundary. The same
// build keeps a ledger: Get records the stack that took each buffer, Put and
// Drop forget it, and Ledger groups what is left by stack; the test binaries
// of the pool-heavy packages end with that ledger empty (internal/leakcheck). The chaos and race CI jobs run with
// this tag.
package bufpool

import (
	"sync"
	"sync/atomic"
)

const (
	// minClassBits..maxClassBits bound the pooled size classes:
	// 64 B .. 4 MiB in powers of two. Larger requests fall through to the
	// allocator (counted as oversize).
	minClassBits = 6
	maxClassBits = 22
	numClasses   = maxClassBits - minClassBits + 1
	// MinClass and MaxClass are the smallest and largest pooled capacities.
	MinClass = 1 << minClassBits
	MaxClass = 1 << maxClassBits
)

// entry boxes a buffer so the pools store pointers: recycling the boxes
// through spare keeps both Get and Put allocation-free in steady state (a
// sync.Pool of raw []byte would box the slice header on every Put).
type entry struct{ b []byte }

var (
	classes [numClasses]sync.Pool // full boxes, one pool per size class
	spare   sync.Pool             // empty boxes awaiting a Put

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	discards    atomic.Int64
	oversize    atomic.Int64
	outstanding atomic.Int64
)

// classFor returns the smallest class index whose size holds n, or -1 when
// n exceeds MaxClass.
func classFor(n int) int {
	if n > MaxClass {
		return -1
	}
	c := 0
	for size := MinClass; size < n; size <<= 1 {
		c++
	}
	return c
}

// classSize returns the capacity of class c.
func classSize(c int) int { return 1 << (minClassBits + c) }

// exactClass returns the class whose size is exactly n, or -1.
func exactClass(n int) int {
	if n < MinClass || n > MaxClass || n&(n-1) != 0 {
		return -1
	}
	c := classFor(n)
	if classSize(c) != n {
		return -1
	}
	return c
}

// Get returns a buffer of length n with arbitrary contents. Buffers up to
// MaxClass come from the pool; larger ones fall through to the allocator.
func Get(n int) []byte {
	return GetCap(n)[:n]
}

// GetCap returns a zero-length buffer with capacity at least n, for
// append-style assembly. Same pooling rules as Get.
func GetCap(n int) []byte {
	c := classFor(n)
	if c < 0 {
		oversize.Add(1)
		return make([]byte, 0, n)
	}
	if x := classes[c].Get(); x != nil {
		box := x.(*entry)
		b := box.b
		box.b = nil
		spare.Put(box)
		checkPoison(b)
		track(b)
		hits.Add(1)
		outstanding.Add(1)
		return b[:0]
	}
	misses.Add(1)
	outstanding.Add(1)
	b := make([]byte, 0, classSize(c))
	track(b)
	return b
}

// Put releases b to its size class. Only buffers whose capacity exactly
// matches a class are pooled; everything else is dropped (safely — Put
// never panics on a foreign or re-sliced buffer). After Put the caller must
// not touch b again.
func Put(b []byte) {
	c := exactClass(cap(b))
	if c < 0 {
		if cap(b) > 0 {
			discards.Add(1)
		}
		return
	}
	poison(b)
	untrack(b)
	puts.Add(1)
	outstanding.Add(-1)
	box, _ := spare.Get().(*entry)
	if box == nil {
		box = new(entry)
	}
	box.b = b[:0]
	classes[c].Put(box)
}

// Drop ends the caller's ownership of b without returning it to the pool:
// the garbage collector reclaims it once nobody reads it any more. It is the
// release for a buffer the owner cannot give back: one lent to readers it
// cannot wait for, or one handed on as a sub-slice the pool would not take.
// Drop
// counts into Discards and, for a pooled buffer, out of Outstanding.
func Drop(b []byte) {
	if cap(b) == 0 {
		return
	}
	discards.Add(1)
	if exactClass(cap(b)) >= 0 {
		untrack(b)
		outstanding.Add(-1)
	}
}

// Site is one stack's share of the ledger (see Ledger): the program
// counters that took the buffers, innermost first, as runtime.Callers gives
// them, and how many of those buffers are still owed.
type Site struct {
	Stack   []uintptr
	Buffers int
}

// PoolStats is a snapshot of the pool's global counters.
type PoolStats struct {
	// Hits and Misses split Get/GetCap calls that were servable by a class:
	// a hit reused a pooled buffer, a miss allocated a fresh one.
	Hits, Misses int64
	// Puts counts buffers accepted back; Discards counts Put calls dropped
	// because the capacity matched no class (re-sliced or foreign buffers),
	// and Drop calls.
	Puts, Discards int64
	// Oversize counts requests beyond MaxClass, served by the allocator.
	Oversize int64
	// Outstanding is pooled buffers currently held by callers (Get minus
	// Put and Drop).
	Outstanding int64
}

// Stats snapshots the global pool counters.
func Stats() PoolStats {
	return PoolStats{
		Hits:        hits.Load(),
		Misses:      misses.Load(),
		Puts:        puts.Load(),
		Discards:    discards.Load(),
		Oversize:    oversize.Load(),
		Outstanding: outstanding.Load(),
	}
}
