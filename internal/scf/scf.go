// Package scf reproduces the I/O skeleton of the Self Consistent Field
// (SCF) code, the Grand Challenge computational-cosmology N-body
// application the paper benchmarks (§4.3): "the primary data structure is a
// one dimensional collection of Segments where each segment stores data
// corresponding to several particles. ... Per-particle information includes
// the x, y, and z coordinates of the particles, their x, y, and z
// velocities, and their masses."
//
// The paper's I/O sizes derive from this layout: ~5.6 KB per segment at the
// default 100 particles, so 256 segments ≈ 1.4 MB, 1000 ≈ 5.6 MB,
// 20000 ≈ 112 MB — exactly the columns of Tables 1–4.
package scf

import "math"

// DefaultParticles is the particles-per-segment count that reproduces the
// paper's bytes-per-segment (≈5.6 KB).
const DefaultParticles = 100

//go:generate go run pcxxstreams/cmd/streamgen -types Segment scf.go

// Segment is the element type of the SCF particle collection. Its
// StreamInsert/StreamExtract pair is generated into scf_streams.go.
type Segment struct {
	NumberOfParticles int64
	X, Y, Z           []float64
	VX, VY, VZ        []float64
	Mass              []float64
}

// EncodedBytes returns the segment's d/stream payload size: an int64 count
// plus seven length-prefixed float64 arrays.
func EncodedBytes(particles int) int64 {
	return 8 + 7*(4+8*int64(particles))
}

// RawBytes returns the segment's size in the baselines' fixed layout (no
// length prefixes — the "programmer computes the sizes" assumption the
// paper makes for manual buffering).
func RawBytes(particles int) int64 {
	return 8 + 7*8*int64(particles)
}

// Fill populates the segment with n particles of deterministic
// pseudo-random phase-space data derived from the segment's global index,
// so any node (and any later run) can verify content without communication.
func (s *Segment) Fill(global, n int) {
	s.NumberOfParticles = int64(n)
	s.X = fillSeries(global, 1, n)
	s.Y = fillSeries(global, 2, n)
	s.Z = fillSeries(global, 3, n)
	s.VX = fillSeries(global, 4, n)
	s.VY = fillSeries(global, 5, n)
	s.VZ = fillSeries(global, 6, n)
	s.Mass = fillSeries(global, 7, n)
}

// fillSeries is a cheap deterministic value generator (splitmix64-derived)
// producing floats in (-1, 1).
func fillSeries(global, field, n int) []float64 {
	out := make([]float64, n)
	seed := uint64(global)*1_000_003 + uint64(field)*7919
	for i := range out {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		out[i] = float64(int64(z))/math.MaxInt64*0.5 + 0.25
	}
	return out
}

// Checksum folds every field into one float64 so integrity can be verified
// after a round trip with a single Allreduce.
func (s *Segment) Checksum() float64 {
	sum := float64(s.NumberOfParticles)
	for _, a := range [][]float64{s.X, s.Y, s.Z, s.VX, s.VY, s.VZ, s.Mass} {
		for i, v := range a {
			sum += v * float64(i+1)
		}
	}
	return sum
}

// Equal reports whether two segments hold identical data.
func (s *Segment) Equal(o *Segment) bool {
	if s.NumberOfParticles != o.NumberOfParticles {
		return false
	}
	pairs := [][2][]float64{
		{s.X, o.X}, {s.Y, o.Y}, {s.Z, o.Z},
		{s.VX, o.VX}, {s.VY, o.VY}, {s.VZ, o.VZ},
		{s.Mass, o.Mass},
	}
	for _, p := range pairs {
		if len(p[0]) != len(p[1]) {
			return false
		}
		for i := range p[0] {
			if p[0][i] != p[1][i] {
				return false
			}
		}
	}
	return true
}

// KineticEnergy returns ½·Σ m·v² over the segment's particles — the
// diagnostic the SCF analysis pipeline computes from the saved frames.
func (s *Segment) KineticEnergy() float64 {
	e := 0.0
	for i := range s.VX {
		v2 := s.VX[i]*s.VX[i] + s.VY[i]*s.VY[i] + s.VZ[i]*s.VZ[i]
		e += 0.5 * s.Mass[i] * v2
	}
	return e
}

// PotentialEnergy returns Σ m·Φ(r) under the same toy central potential
// Step integrates (Φ = -1/r, softened).
func (s *Segment) PotentialEnergy() float64 {
	e := 0.0
	for i := range s.X {
		r2 := s.X[i]*s.X[i] + s.Y[i]*s.Y[i] + s.Z[i]*s.Z[i] + 1e-6
		e += s.Mass[i] * (-1.0 / math.Sqrt(r2))
	}
	return e
}

// Step advances the segment's particles by dt under a toy self-consistent
// central potential — enough real dynamics for the examples to checkpoint a
// program that is actually computing, as the SCF code does between saves.
func (s *Segment) Step(dt float64) {
	for i := range s.X {
		r2 := s.X[i]*s.X[i] + s.Y[i]*s.Y[i] + s.Z[i]*s.Z[i] + 1e-6
		inv := -1.0 / (r2 * math.Sqrt(r2))
		ax, ay, az := s.X[i]*inv, s.Y[i]*inv, s.Z[i]*inv
		s.VX[i] += ax * dt
		s.VY[i] += ay * dt
		s.VZ[i] += az * dt
		s.X[i] += s.VX[i] * dt
		s.Y[i] += s.VY[i] * dt
		s.Z[i] += s.VZ[i] * dt
	}
}
