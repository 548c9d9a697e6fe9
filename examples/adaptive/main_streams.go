// Code generated by streamgen from main.go; DO NOT EDIT.

package main

import dstream "pcxxstreams"

// StreamInsert implements dstream.Inserter for cell.
func (v *cell) StreamInsert(e *dstream.Encoder) {
	e.Int32(v.Row)
	e.Int32(v.Col)
	e.Float64Slice(v.Masses)
}

// StreamExtract implements dstream.Extractor for cell.
func (v *cell) StreamExtract(d *dstream.Decoder) {
	v.Row = d.Int32()
	v.Col = d.Int32()
	v.Masses = d.AppendFloat64Slice(v.Masses[:0])
}
