//go:build pooldebug

package bufpool

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"unsafe"
)

// Debug reports whether the pooldebug poisoning checks and the ledger are
// compiled in.
const Debug = true

// poisonByte fills every released buffer. 0xDB is unlikely as real payload
// (the wire format's magic, lengths, and timestamps are little-endian small
// integers), so a clean poison pattern at Get really does mean nobody wrote
// through a stale alias.
const poisonByte = 0xDB

func poison(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = poisonByte
	}
}

func checkPoison(b []byte) {
	b = b[:cap(b)]
	for i, v := range b {
		if v != poisonByte {
			panic(fmt.Sprintf("bufpool: use after Put: byte %d of a released %d-byte buffer was overwritten (0x%02x != 0x%02x); some caller retained an alias past Put", i, cap(b), v, poisonByte))
		}
	}
}

// stack is the call stack a buffer was taken at, innermost caller first,
// zero-padded; deep stacks are cut at its length.
type stack [32]uintptr

// ledger maps each outstanding buffer's backing array to the stack that took
// it. Stacks are interned, so that a Get from a stack seen before allocates
// nothing. The map keeps a buffer nobody released alive; that costs a test
// binary nothing, which must end with the ledger empty.
var ledger struct {
	sync.Mutex
	stacks map[stack]*stack
	held   map[*byte]*stack
}

func track(b []byte) {
	var pc stack
	runtime.Callers(3, pc[:]) // above runtime.Callers, track and GetCap
	ledger.Lock()
	defer ledger.Unlock()
	if ledger.stacks == nil {
		ledger.stacks, ledger.held = map[stack]*stack{}, map[*byte]*stack{}
	}
	s := ledger.stacks[pc]
	if s == nil {
		interned := pc
		s = &interned
		ledger.stacks[pc] = s
	}
	ledger.held[unsafe.SliceData(b)] = s
}

func untrack(b []byte) {
	ledger.Lock()
	delete(ledger.held, unsafe.SliceData(b))
	ledger.Unlock()
}

// Ledger groups the buffers taken with Get or GetCap and neither Put nor
// Dropped since by the stack that took them, largest group first.
func Ledger() []Site {
	ledger.Lock()
	n := map[*stack]int{}
	for _, s := range ledger.held {
		n[s]++
	}
	ledger.Unlock()
	out := make([]Site, 0, len(n))
	for s, c := range n {
		pc := s[:]
		if i := slices.Index(pc, 0); i >= 0 {
			pc = pc[:i]
		}
		out = append(out, Site{Stack: slices.Clone(pc), Buffers: c})
	}
	slices.SortFunc(out, func(a, b Site) int { return cmp.Compare(b.Buffers, a.Buffers) })
	return out
}
