//go:build !pooldebug

package bufpool

// Debug reports whether the pooldebug poisoning checks and the ledger are
// compiled in.
const Debug = false

func poison(b []byte)      {}
func checkPoison(b []byte) {}
func track(b []byte)       {}
func untrack(b []byte)     {}

// Ledger is empty without pooldebug: nothing records who holds what.
func Ledger() []Site { return nil }
