package enc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// File and record framing of the d/stream on-disk format:
//
//	file   := fileHeader record*
//	record := recordHeader descriptor sizeTable dataSection
//
// The fileHeader is written once when an output d/stream opens its file.
// Each write() emits one record. The recordHeader carries the writer's
// distribution descriptor; pattern distributions (BLOCK/CYCLIC/
// BLOCK_CYCLIC) fit entirely in the fixed header and have an empty
// descriptor section, while EXPLICIT distributions store their owner table
// (one u32 per element) as the descriptor. The sizeTable holds one u32 per
// element, in node-block order (writer's rank order, local order within a
// rank); the dataSection holds the element payloads in the same order.
// Because the metadata precedes the data, an input d/stream needs nothing
// from the programmer to read the file back (§4.1: "the library does the
// paperwork involved in determining the structure of the data that was
// written").

// FileMagic begins every d/stream file.
var FileMagic = [8]byte{'D', 'S', 'T', 'R', 'M', '1', 0, 0}

// FileHeaderLen is the size of the file header in bytes.
const FileHeaderLen = 16

// EncodeFileHeader renders the 16-byte file header.
func EncodeFileHeader() []byte {
	var e Buffer
	e.Raw(FileMagic[:])
	e.Uint64(0) // reserved flags
	return e.Bytes()
}

// CheckFileHeader validates a file header.
func CheckFileHeader(b []byte) error {
	if len(b) < FileHeaderLen {
		return fmt.Errorf("enc: file header truncated (%d bytes)", len(b))
	}
	for i, c := range FileMagic {
		if b[i] != c {
			return fmt.Errorf("enc: bad magic %q — not a d/stream file", b[:8])
		}
	}
	return nil
}

// RecordMagic begins every record header.
const RecordMagic uint32 = 0x52545344 // "DSTR" little-endian

// RecordHeaderLen is the fixed size of a record header in bytes.
const RecordHeaderLen = 56

// RecordHeader is the distribution descriptor stored ahead of each record.
type RecordHeader struct {
	NArrays     uint32 // inserts interleaved in this record
	NElems      uint32 // global element count of the writing collection
	NProcs      uint32 // writer's node count
	Mode        uint8  // distr.Mode of the writer
	BlockSize   uint32 // BLOCK_CYCLIC block, 0 otherwise
	AlignOffset int32
	AlignStride int32
	TemplateN   uint32
	DescBytes   uint32 // descriptor section length (EXPLICIT owner table)
	DataBytes   uint64 // total payload bytes in the data section
}

// SizeTableBytes returns the byte length of the record's size table.
func (h *RecordHeader) SizeTableBytes() int64 { return int64(h.NElems) * 4 }

// TotalBytes returns the full record length including the header.
func (h *RecordHeader) TotalBytes() int64 {
	return RecordHeaderLen + int64(h.DescBytes) + h.SizeTableBytes() + int64(h.DataBytes)
}

// EncodeOwnerTable renders an EXPLICIT distribution's owner table as the
// record's descriptor section.
func EncodeOwnerTable(owners []int32) []byte {
	var e Buffer
	for _, o := range owners {
		e.Uint32(uint32(o))
	}
	return e.Bytes()
}

// DecodeOwnerTable parses a descriptor section of n owners.
func DecodeOwnerTable(b []byte, n int) ([]int, error) {
	if len(b) < 4*n {
		return nil, fmt.Errorf("enc: owner table truncated: %d bytes for %d entries", len(b), n)
	}
	d := NewReader(b)
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.Uint32())
	}
	return out, d.Err()
}

// Encode renders the fixed-size header.
func (h *RecordHeader) Encode() []byte {
	return h.AppendTo(nil)
}

// AppendTo appends the fixed-size header encoding to dst — the
// allocation-free form for callers assembling a record block in a reused or
// pooled buffer.
func (h *RecordHeader) AppendTo(dst []byte) []byte {
	e := Buffer{b: dst}
	mark := e.Len()
	e.Uint32(RecordMagic)
	e.Uint32(h.NArrays)
	e.Uint32(h.NElems)
	e.Uint32(h.NProcs)
	e.Uint32(uint32(h.Mode))
	e.Uint32(h.BlockSize)
	e.Int32(h.AlignOffset)
	e.Int32(h.AlignStride)
	e.Uint32(h.TemplateN)
	e.Uint32(h.DescBytes)
	e.Uint64(h.DataBytes)
	e.Uint64(0) // reserved
	if e.Len()-mark != RecordHeaderLen {
		panic(fmt.Sprintf("enc: record header encoded to %d bytes, want %d", e.Len()-mark, RecordHeaderLen))
	}
	return e.Bytes()
}

// DecodeRecordHeader parses a fixed-size record header.
func DecodeRecordHeader(b []byte) (RecordHeader, error) {
	var h RecordHeader
	d := NewReader(b)
	if magic := d.Uint32(); magic != RecordMagic {
		if d.Err() != nil {
			return h, fmt.Errorf("enc: record header truncated: %w", d.Err())
		}
		return h, fmt.Errorf("enc: bad record magic %#x", magic)
	}
	h.NArrays = d.Uint32()
	h.NElems = d.Uint32()
	h.NProcs = d.Uint32()
	mode := d.Uint32()
	h.Mode = uint8(mode)
	h.BlockSize = d.Uint32()
	h.AlignOffset = d.Int32()
	h.AlignStride = d.Int32()
	h.TemplateN = d.Uint32()
	h.DescBytes = d.Uint32()
	h.DataBytes = d.Uint64()
	d.Uint64() // reserved
	if err := d.Err(); err != nil {
		return h, fmt.Errorf("enc: record header truncated: %w", err)
	}
	if h.NProcs == 0 || h.NProcs > MaxWriterProcs {
		return h, fmt.Errorf("enc: record header has %d writer procs, outside 1..%d", h.NProcs, MaxWriterProcs)
	}
	if mode > 0xff {
		return h, fmt.Errorf("enc: record header has distribution mode %#x, past one byte", mode)
	}
	// Bound the declared data section: readers size buffers and skip records
	// with TotalBytes, so a corrupt header claiming ~2^64 payload bytes must
	// be rejected here rather than overflow the int64 offset arithmetic.
	if h.DataBytes > 1<<56 {
		return h, fmt.Errorf("enc: record header declares unreasonable data section (%d bytes)", h.DataBytes)
	}
	return h, nil
}

// EncodeSizeTable renders per-element sizes as u32s.
func EncodeSizeTable(sizes []uint32) []byte {
	return AppendSizeTable(nil, sizes)
}

// AppendSizeTable appends the size-table encoding of sizes to dst.
func AppendSizeTable(dst []byte, sizes []uint32) []byte {
	e := Buffer{b: dst}
	for _, s := range sizes {
		e.Uint32(s)
	}
	return e.Bytes()
}

// SumSizeTable validates that b is a size table of exactly n entries and
// returns the sum of the entries — what a record flush needs from the
// gathered table, without materializing a []uint32.
func SumSizeTable(b []byte, n int) (uint64, error) {
	if len(b) != 4*n {
		return 0, fmt.Errorf("enc: size table is %d bytes, want %d for %d entries", len(b), 4*n, n)
	}
	var total uint64
	for off := 0; off < len(b); off += 4 {
		total += uint64(uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24)
	}
	return total, nil
}

// SizeAt returns entry i of the raw size table b.
func SizeAt(b []byte, i int) int {
	return int(binary.LittleEndian.Uint32(b[4*i:]))
}

// SizeTableOffsets validates that b is a size table of exactly n entries and
// samples its prefix sum: offs[k] becomes the byte offset, within the data
// section, of the payload at position cuts[k], for cuts ascending from 0 to n
// — so the last is the sum of every entry. It is what a reader needs of the
// table before the data moves, without materializing the other n offsets.
func SizeTableOffsets(b []byte, n int, cuts []int, offs []int64) error {
	if len(b) != 4*n {
		return fmt.Errorf("enc: size table is %d bytes, want %d for %d entries", len(b), 4*n, n)
	}
	var sum uint64
	at := 0
	for k, c := range cuts {
		seg := b[at : 4*c]
		at = 4 * c
		// Two entries a load: every rank walks the whole table once a record.
		for ; len(seg) >= 8; seg = seg[8:] {
			v := binary.LittleEndian.Uint64(seg)
			sum += v&math.MaxUint32 + v>>32
		}
		if len(seg) >= 4 {
			sum += uint64(binary.LittleEndian.Uint32(seg))
		}
		offs[k] = int64(sum)
	}
	return nil
}

// DecodeSizeTable parses a size table of n entries into a slice of its own
// (for tools that list a record; a stream reads the raw table in place).
func DecodeSizeTable(b []byte, n int) ([]uint32, error) {
	if len(b) < 4*n {
		return nil, fmt.Errorf("enc: size table truncated: %d bytes for %d entries", len(b), n)
	}
	d := NewReader(b)
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.Uint32()
	}
	return out, d.Err()
}
