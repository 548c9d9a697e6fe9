// Code generated by streamgen from main.go; DO NOT EDIT.

package main

import dstream "pcxxstreams"

// StreamInsert implements dstream.Inserter for Reading.
func (v *Reading) StreamInsert(e *dstream.Encoder) {
	e.Int64(v.Station)
	e.Float64Slice(v.Samples)
}

// StreamExtract implements dstream.Extractor for Reading.
func (v *Reading) StreamExtract(d *dstream.Decoder) {
	v.Station = d.Int64()
	v.Samples = d.AppendFloat64Slice(v.Samples[:0])
}
