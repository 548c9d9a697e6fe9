//go:build !race

package pfs

// raceEnabled reports whether the race detector is compiled in; allocation
// pins stand down when it is.
const raceEnabled = false
