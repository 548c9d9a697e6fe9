//go:build race

package pfs

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
