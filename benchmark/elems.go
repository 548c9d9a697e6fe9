package main

import (
	"encoding/binary"
	"math"

	"pcxxstreams"
	"pcxxstreams/internal/scf"
)

// rng is splitmix64: the benchmark's only source of randomness, so a seed
// gives the same inputs on every Go version.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [-1, 1).
func (r *rng) float() float64 { return float64(int64(r.next()>>11))/(1<<52) - 1 }

// smallElem is ckpt_small's element: 36 to 68 encoded bytes, so the cost of
// moving it is per-element bookkeeping and hardly any copying.
type smallElem struct {
	Stamp   int64
	X, Y, Z float64
	Tags    []int64
}

func (e *smallElem) StreamInsert(enc *pcxxstreams.Encoder) {
	enc.Int64(e.Stamp)
	enc.Float64(e.X)
	enc.Float64(e.Y)
	enc.Float64(e.Z)
	enc.Int64Slice(e.Tags)
}

func (e *smallElem) StreamExtract(d *pcxxstreams.Decoder) {
	e.Stamp = d.Int64()
	e.X = d.Float64()
	e.Y = d.Float64()
	e.Z = d.Float64()
	e.Tags = d.Int64Slice()
}

// elemOps is what the cycle driver needs to know about an element type:
// how to make one from the seed, where the cycle stamp lives, and how to
// check a copy that came back. hash leaves the stamp out, so one reference
// digest per rank serves every cycle.
//
// plainEnc and plainDec are the benchmark's own encoder and decoder for the
// type, written with encoding/binary and nothing of the library: what the
// reference round trip (calib.go) runs. plainDec allocates an element's
// slices afresh, as an extract does. The round trip runs over refElems
// elements, the same count in every workload of the type.
type elemOps[T any] struct {
	gen      func(r *rng) T
	payload  func(e *T) int64 // encoded bytes
	setStamp func(e *T, v int64)
	stamp    func(e *T) int64
	hash     func(e *T) uint64
	equal    func(a, b *T) bool
	plainEnc func(src []T, b []byte) []byte
	plainDec func(b []byte, dst []T)
	refElems int
}

var le = binary.LittleEndian

const (
	hashSeed  = 0xcbf29ce484222325
	hashPrime = 0x100000001b3
)

// mix folds one 64-bit word into h (FNV-1a over words, not bytes: the check
// runs on every element of every cycle and has to stay cheap).
func mix(h, w uint64) uint64 { return (h ^ w) * hashPrime }

var smallOps = elemOps[smallElem]{
	gen: func(r *rng) smallElem {
		e := smallElem{X: r.float(), Y: r.float(), Z: r.float()}
		if k := r.intn(5); k > 0 {
			e.Tags = make([]int64, k)
			for i := range e.Tags {
				e.Tags[i] = int64(r.next())
			}
		}
		return e
	},
	payload:  func(e *smallElem) int64 { return 36 + 8*int64(len(e.Tags)) },
	setStamp: func(e *smallElem, v int64) { e.Stamp = v },
	stamp:    func(e *smallElem) int64 { return e.Stamp },
	hash: func(e *smallElem) uint64 {
		h := mix(hashSeed, math.Float64bits(e.X))
		h = mix(h, math.Float64bits(e.Y))
		h = mix(h, math.Float64bits(e.Z))
		h = mix(h, uint64(len(e.Tags)))
		for _, t := range e.Tags {
			h = mix(h, uint64(t))
		}
		return h
	},
	equal: func(a, b *smallElem) bool {
		if a.Stamp != b.Stamp || a.X != b.X || a.Y != b.Y || a.Z != b.Z || len(a.Tags) != len(b.Tags) {
			return false
		}
		for i := range a.Tags {
			if a.Tags[i] != b.Tags[i] {
				return false
			}
		}
		return true
	},
	plainEnc: func(src []smallElem, b []byte) []byte {
		for i := range src {
			e := &src[i]
			b = le.AppendUint64(b, uint64(e.Stamp))
			b = le.AppendUint64(b, math.Float64bits(e.X))
			b = le.AppendUint64(b, math.Float64bits(e.Y))
			b = le.AppendUint64(b, math.Float64bits(e.Z))
			b = le.AppendUint64(b, uint64(len(e.Tags)))
			for _, t := range e.Tags {
				b = le.AppendUint64(b, uint64(t))
			}
		}
		return b
	},
	plainDec: func(b []byte, dst []smallElem) {
		for i := range dst {
			e := &dst[i]
			e.Stamp = int64(le.Uint64(b))
			e.X = math.Float64frombits(le.Uint64(b[8:]))
			e.Y = math.Float64frombits(le.Uint64(b[16:]))
			e.Z = math.Float64frombits(le.Uint64(b[24:]))
			n := int(le.Uint64(b[32:]))
			b = b[40:]
			e.Tags = nil
			if n > 0 {
				e.Tags = make([]int64, n)
				for j := range e.Tags {
					e.Tags[j] = int64(le.Uint64(b[8*j:]))
				}
				b = b[8*n:]
			}
		}
	},
	refElems: 32768,
}

// segmentFields lists a segment's arrays in encoding order; X comes first
// and X[0] carries the stamp.
func segmentFields(s *scf.Segment) [7][]float64 {
	return [7][]float64{s.X, s.Y, s.Z, s.VX, s.VY, s.VZ, s.Mass}
}

var segmentOps = elemOps[scf.Segment]{
	gen: func(r *rng) scf.Segment {
		n := 50 + r.intn(101)
		all := make([]float64, 7*n)
		for i := range all {
			all[i] = r.float()
		}
		at := func(i int) []float64 { return all[i*n : (i+1)*n : (i+1)*n] }
		return scf.Segment{NumberOfParticles: int64(n),
			X: at(0), Y: at(1), Z: at(2), VX: at(3), VY: at(4), VZ: at(5), Mass: at(6)}
	},
	payload:  func(s *scf.Segment) int64 { return scf.EncodedBytes(len(s.X)) },
	setStamp: func(s *scf.Segment, v int64) { s.X[0] = float64(v) },
	stamp: func(s *scf.Segment) int64 {
		if len(s.X) == 0 {
			return math.MinInt64
		}
		return int64(s.X[0])
	},
	hash: func(s *scf.Segment) uint64 {
		h := mix(hashSeed, uint64(s.NumberOfParticles))
		for f, a := range segmentFields(s) {
			h = mix(h, uint64(len(a)))
			if f == 0 && len(a) > 0 {
				a = a[1:]
			}
			for _, v := range a {
				h = mix(h, math.Float64bits(v))
			}
		}
		return h
	},
	equal: func(a, b *scf.Segment) bool { return a.Equal(b) },
	plainEnc: func(src []scf.Segment, b []byte) []byte {
		for i := range src {
			b = le.AppendUint64(b, uint64(src[i].NumberOfParticles))
			for _, f := range segmentFields(&src[i]) {
				b = le.AppendUint64(b, uint64(len(f)))
				for _, v := range f {
					b = le.AppendUint64(b, math.Float64bits(v))
				}
			}
		}
		return b
	},
	plainDec: func(b []byte, dst []scf.Segment) {
		field := func() []float64 {
			f := make([]float64, le.Uint64(b))
			for i := range f {
				f[i] = math.Float64frombits(le.Uint64(b[8+8*i:]))
			}
			b = b[8+8*len(f):]
			return f
		}
		for i := range dst {
			s := &dst[i]
			s.NumberOfParticles = int64(le.Uint64(b))
			b = b[8:]
			s.X, s.Y, s.Z, s.VX, s.VY, s.VZ, s.Mass = field(), field(), field(), field(), field(), field(), field()
		}
	},
	refElems: 512,
}
