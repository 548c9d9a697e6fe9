package enc

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Word kernels: how a []float64 or []int64 crosses between its own memory and
// the little-endian bytes of the format. On a little-endian host the two are
// the same bytes, and Buffer.Float64Slice/Int64Slice and their Reader mirrors
// move them with one copy (a memmove, at any alignment); the per-word loops
// below are what a big-endian host runs, and the oracle the tests hold the
// copy to.

// hostLittleEndian is decided once, here, and read by the four slice methods.
// A variable and not a build tag: one binary, one source path that `go vet`
// and the tests see whole on any host, and the tests turn it off to run the
// portable loops on the machines CI has. Nothing else writes it.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// wordBytes is v's memory as bytes.
func wordBytes[T int64 | float64](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// putFloat64s encodes v into p, which holds 8·len(v) bytes.
func putFloat64s(p []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(x))
	}
}

// putInt64s encodes v into p, which holds 8·len(v) bytes.
func putInt64s(p []byte, v []int64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(p[8*i:], uint64(x))
	}
}

// getFloat64s decodes p's 8·len(out) bytes into out.
func getFloat64s(out []float64, p []byte) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

// getInt64s decodes p's 8·len(out) bytes into out.
func getInt64s(out []int64, p []byte) {
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
}
