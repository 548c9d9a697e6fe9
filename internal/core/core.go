// Package core marks the paper's primary contribution within the prescribed
// repository layout. The d/stream implementation itself lives in
// pcxxstreams/internal/dstream (see that package's documentation for the
// abstraction, the Figure 2 state machines, and the on-disk format); this
// package holds no code. A public name is declared in internal/dstream,
// opened through internal/session, and exported by the root façade
// (pcxxstreams.go).
package core
