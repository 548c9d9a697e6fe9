// Code generated by streamgen from scf.go; DO NOT EDIT.

package scf

import dstream "pcxxstreams/internal/dstream"

// StreamInsert implements dstream.Inserter for Segment.
func (v *Segment) StreamInsert(e *dstream.Encoder) {
	e.Int64(v.NumberOfParticles)
	e.Float64Slice(v.X)
	e.Float64Slice(v.Y)
	e.Float64Slice(v.Z)
	e.Float64Slice(v.VX)
	e.Float64Slice(v.VY)
	e.Float64Slice(v.VZ)
	e.Float64Slice(v.Mass)
}

// StreamExtract implements dstream.Extractor for Segment.
func (v *Segment) StreamExtract(d *dstream.Decoder) {
	v.NumberOfParticles = d.Int64()
	v.X = d.AppendFloat64Slice(v.X[:0])
	v.Y = d.AppendFloat64Slice(v.Y[:0])
	v.Z = d.AppendFloat64Slice(v.Z[:0])
	v.VX = d.AppendFloat64Slice(v.VX[:0])
	v.VY = d.AppendFloat64Slice(v.VY[:0])
	v.VZ = d.AppendFloat64Slice(v.VZ[:0])
	v.Mass = d.AppendFloat64Slice(v.Mass[:0])
}
