// Code generated by streamgen from main.go; DO NOT EDIT.

package main

import dstream "pcxxstreams"

// StreamInsert implements dstream.Inserter for Position.
func (v *Position) StreamInsert(e *dstream.Encoder) {
	e.Float64(v.X)
	e.Float64(v.Y)
	e.Float64(v.Z)
}

// StreamExtract implements dstream.Extractor for Position.
func (v *Position) StreamExtract(d *dstream.Decoder) {
	v.X = d.Float64()
	v.Y = d.Float64()
	v.Z = d.Float64()
}

// StreamInsert implements dstream.Inserter for ParticleList.
func (v *ParticleList) StreamInsert(e *dstream.Encoder) {
	e.Int64(v.NumberOfParticles)
	e.Float64Slice(v.Mass)
	e.Uint32(uint32(len(v.Position)))
	for _, x := range v.Position {
		x.StreamInsert(e)
	}
}

// StreamExtract implements dstream.Extractor for ParticleList.
func (v *ParticleList) StreamExtract(d *dstream.Decoder) {
	v.NumberOfParticles = d.Int64()
	v.Mass = d.AppendFloat64Slice(v.Mass[:0])
	v.Position = make([]Position, int(d.Uint32()))
	for i := range v.Position {
		v.Position[i].StreamExtract(d)
	}
}
