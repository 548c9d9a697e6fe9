// Code generated by streamgen from pipeline.go; DO NOT EDIT.

package bench

import dstream "pcxxstreams/internal/dstream"

// StreamInsert implements dstream.Inserter for blob.
func (v *blob) StreamInsert(e *dstream.Encoder) {
	e.Bytes32(v.data)
}

// StreamExtract implements dstream.Extractor for blob.
func (v *blob) StreamExtract(d *dstream.Decoder) {
	v.data = d.Bytes32()
}
