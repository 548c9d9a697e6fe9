// Package dsinfo walks d/stream file images and reports their structure:
// the file header, each record's distribution descriptor, and per-element
// size statistics. It is the engine behind cmd/dsdump and is also used by
// tests to assert on-disk layout properties without re-implementing the
// format.
package dsinfo

import (
	"fmt"

	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/enc"
)

// Record describes one write() record of a d/stream file.
type Record struct {
	// Index is the record's ordinal in the file.
	Index int
	// Offset is the record's byte offset (header start).
	Offset int64
	// Header is the raw distribution descriptor.
	Header enc.RecordHeader
	// Dist is the writer's reconstructed distribution.
	Dist *distr.Distribution
	// Sizes holds the per-element payload sizes in file (node-block) order.
	Sizes []uint32
	// DataOffset is the byte offset of the record's data section.
	DataOffset int64
}

// MinSize returns the smallest element payload (0 for empty records).
func (r *Record) MinSize() uint32 {
	if len(r.Sizes) == 0 {
		return 0
	}
	m := r.Sizes[0]
	for _, s := range r.Sizes[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

// MaxSize returns the largest element payload.
func (r *Record) MaxSize() uint32 {
	var m uint32
	for _, s := range r.Sizes {
		if s > m {
			m = s
		}
	}
	return m
}

// TotalBytes returns the sum of the element payload sizes.
func (r *Record) TotalBytes() uint64 {
	var t uint64
	for _, s := range r.Sizes {
		t += uint64(s)
	}
	return t
}

// ElementRange returns the byte range [off, off+n) of element i's payload
// within the file, where i indexes file (node-block) order.
func (r *Record) ElementRange(i int) (off int64, n int, err error) {
	if i < 0 || i >= len(r.Sizes) {
		return 0, 0, fmt.Errorf("dsinfo: element %d out of range [0,%d)", i, len(r.Sizes))
	}
	off = r.DataOffset
	for j := 0; j < i; j++ {
		off += int64(r.Sizes[j])
	}
	return off, int(r.Sizes[i]), nil
}

// FileInfo is the parsed structure of a whole d/stream file.
type FileInfo struct {
	Bytes   int64
	Records []Record
}

// Parse walks a complete d/stream file image. It fails on a bad file
// header, a corrupt record header, truncation, a size table that
// contradicts the record header, or trailing bytes (too few to be a record
// header, or not one): a record never runs past the image, so the walk ends
// exactly at its end.
func Parse(data []byte) (*FileInfo, error) {
	if err := enc.CheckFileHeader(data); err != nil {
		return nil, err
	}
	info := &FileInfo{Bytes: int64(len(data))}
	off := int64(enc.FileHeaderLen)
	for off < int64(len(data)) {
		rec, next, err := parseRecord(data, off, len(info.Records))
		if err != nil {
			return nil, err
		}
		info.Records = append(info.Records, rec)
		off = next
	}
	return info, nil
}

// parseRecord lists the record at off. What makes its front matter valid is
// enc's to say (ReadRecordHeader, Distribution, TableOffsets), as it is for
// an input stream; this adds the per-element listing.
func parseRecord(data []byte, off int64, index int) (Record, int64, error) {
	fail := func(err error) (Record, int64, error) {
		return Record{}, 0, fmt.Errorf("dsinfo: record %d at offset %d: %w", index, off, err)
	}
	if off+enc.RecordHeaderLen > int64(len(data)) {
		return fail(fmt.Errorf("truncated header"))
	}
	h, err := enc.ReadRecordHeader(data[off:off+enc.RecordHeaderLen], off, int64(len(data)))
	if err != nil {
		return fail(err)
	}
	tblOff := off + enc.RecordHeaderLen + int64(h.DescBytes)
	dataOff := tblOff + h.SizeTableBytes()
	d, err := h.Distribution(data[off+enc.RecordHeaderLen : tblOff])
	if err != nil {
		return fail(err)
	}
	var total [1]int64
	if err := h.TableOffsets(data[tblOff:dataOff], []int{int(h.NElems)}, total[:]); err != nil {
		return fail(err)
	}
	sizes, err := enc.DecodeSizeTable(data[tblOff:dataOff], int(h.NElems))
	if err != nil {
		return fail(err)
	}
	return Record{Index: index, Offset: off, Header: h, Dist: d, Sizes: sizes, DataOffset: dataOff}, off + h.TotalBytes(), nil
}
