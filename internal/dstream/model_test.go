package dstream

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pcxxstreams/internal/distr"
)

// The reference d/stream: a sequential writer and reader of the DSTRM1 file
// format, written from DESIGN.md "File format" alone. It is the executable
// statement of the format, and the oracle FuzzStreamVsModel holds the real
// stack to. It takes the element ownership arithmetic from distr, which has
// bijection property tests of its own, and nothing else of the library: no
// enc record code, no machine, no pfs, no collectives.
//
//	file       := fileHeader record*
//	fileHeader := magic "DSTRM1\0\0" (8 bytes) | flags u64, reserved, 0
//	record     := recordHeader desc sizeTable data
//	recordHeader (56 bytes, every field little-endian):
//	    magic u32 "DSTR" | nArrays u32 | nElems u32 | nProcs u32 | mode u32
//	    | blockSize u32 | alignOffset i32 | alignStride i32 | templateN u32
//	    | descBytes u32 | dataBytes u64 | reserved u64, 0
//	desc       := u32 owner per element for EXPLICIT, empty otherwise
//	sizeTable  := u32 payload size per element, in file (node-block) order
//	data       := the payloads in file order; each element's payload is the
//	              encodings of the record's inserts for it, in insert order
//
// File order is the writer's node blocks: rank 0's elements in local order,
// then rank 1's, and so on.

const (
	refFileHeaderLen   = 16
	refRecordHeaderLen = 56
	refRecordMagic     = 0x52545344 // "DSTR"
	refMaxWriterProcs  = 1 << 16
	refMaxDataBytes    = 1 << 56
	refModeExplicit    = 3
)

var refFileMagic = [8]byte{'D', 'S', 'T', 'R', 'M', '1', 0, 0}

// refHeader is a record header, field by field.
type refHeader struct {
	arrays, nElems, nProcs, mode, blockSize uint32
	alignOffset, alignStride                int32
	templateN, descBytes                    uint32
	dataBytes, reserved                     uint64
}

// total is the record's length, header included.
func (h refHeader) total() int64 {
	return refRecordHeaderLen + int64(h.descBytes) + 4*int64(h.nElems) + int64(h.dataBytes)
}

// refFile is the image of a file that holds no record yet.
func refFile() []byte {
	return binary.LittleEndian.AppendUint64(append([]byte(nil), refFileMagic[:]...), 0)
}

// refFileOrder returns the global element stored at each file position of a
// record written under d.
func refFileOrder(d *distr.Distribution) []int {
	order := make([]int, 0, d.N)
	for r := 0; r < d.NProcs; r++ {
		for l := 0; l < d.LocalCount(r); l++ {
			order = append(order, d.GlobalIndex(r, l))
		}
	}
	return order
}

// refAppend appends to img the record a write under d makes of a group of
// inserts: inserts[a][g] is what insert a encoded for global element g.
func refAppend(img []byte, d *distr.Distribution, inserts [][][]byte) []byte {
	le := binary.LittleEndian
	var desc, table, data []byte
	if d.Mode == distr.Explicit {
		for g := 0; g < d.N; g++ {
			desc = le.AppendUint32(desc, uint32(d.Owner(g)))
		}
	}
	for _, g := range refFileOrder(d) {
		n := len(data)
		for a := range inserts {
			data = append(data, inserts[a][g]...)
		}
		table = le.AppendUint32(table, uint32(len(data)-n))
	}
	for _, v := range []uint32{refRecordMagic, uint32(len(inserts)), uint32(d.N), uint32(d.NProcs),
		uint32(d.Mode), uint32(d.BlockSize), uint32(int32(d.Align.Offset)), uint32(int32(d.Align.Stride)),
		uint32(d.TemplateN), uint32(len(desc))} {
		img = le.AppendUint32(img, v)
	}
	img = le.AppendUint64(le.AppendUint64(img, uint64(len(data))), 0)
	return append(append(append(img, desc...), table...), data...)
}

// refHeaderAt decodes the record header at offset at and applies the checks a
// reader makes before it reads or sizes anything by it: the magic, one to
// 65 536 writer nodes, a mode that fits a byte, a data section under 2^56
// bytes, a record that ends inside the file, and a descriptor of 4·nElems
// bytes for EXPLICIT and none otherwise.
func refHeaderAt(img []byte, at int64) (refHeader, error) {
	var h refHeader
	if at+refRecordHeaderLen > int64(len(img)) {
		return h, errors.New("model: record header past the end of the file")
	}
	b := img[at:]
	u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(b[4*i:]) }
	h = refHeader{arrays: u32(1), nElems: u32(2), nProcs: u32(3), mode: u32(4), blockSize: u32(5),
		alignOffset: int32(u32(6)), alignStride: int32(u32(7)), templateN: u32(8), descBytes: u32(9),
		dataBytes: binary.LittleEndian.Uint64(b[40:]), reserved: binary.LittleEndian.Uint64(b[48:])}
	want := uint64(0)
	if h.mode == refModeExplicit {
		want = 4 * uint64(h.nElems)
	}
	switch {
	case u32(0) != refRecordMagic:
		return h, errors.New("model: bad record magic")
	case h.nProcs == 0 || h.nProcs > refMaxWriterProcs:
		return h, fmt.Errorf("model: %d writer nodes", h.nProcs)
	case h.mode > 0xff:
		return h, fmt.Errorf("model: mode %#x past a byte", h.mode)
	case h.dataBytes > refMaxDataBytes:
		return h, fmt.Errorf("model: %d data bytes", h.dataBytes)
	case at+h.total() > int64(len(img)):
		return h, errors.New("model: record runs past the end of the file")
	case uint64(h.descBytes) != want:
		return h, fmt.Errorf("model: %d-byte descriptor", h.descBytes)
	}
	return h, nil
}

// refRecord is a record as a reader that loads it sees it.
type refRecord struct {
	h       refHeader
	w       *distr.Distribution // the writer's, as the header describes it
	payload [][]byte            // by file position
}

// refRecordAt reads the record at offset at for a reader of n elements: its
// header, the writer's distribution from header and descriptor, and the size
// table, which must sum to the data section.
func refRecordAt(img []byte, at int64, n int) (refRecord, error) {
	h, err := refHeaderAt(img, at)
	if err != nil {
		return refRecord{}, err
	}
	if int(h.nElems) != n {
		return refRecord{}, fmt.Errorf("model: record of %d elements, reader of %d", h.nElems, n)
	}
	rec := refRecord{h: h}
	desc := img[at+refRecordHeaderLen:][:h.descBytes]
	switch {
	case h.mode == refModeExplicit:
		owners := make([]int, n)
		for g := range owners {
			owners[g] = int(binary.LittleEndian.Uint32(desc[4*g:]))
		}
		rec.w, err = distr.NewExplicit(owners, int(h.nProcs))
	case h.mode < refModeExplicit:
		rec.w, err = distr.NewAligned(n, int(h.templateN), int(h.nProcs), distr.Mode(h.mode), int(h.blockSize),
			distr.Alignment{Offset: int(h.alignOffset), Stride: int(h.alignStride)})
	default:
		err = fmt.Errorf("model: unknown mode %d", h.mode)
	}
	if err != nil {
		return refRecord{}, err
	}
	table := img[at+refRecordHeaderLen+int64(h.descBytes):][:4*n]
	data := img[at+refRecordHeaderLen+int64(h.descBytes)+int64(4*n):][:h.dataBytes]
	var off uint64
	for p := 0; p < n; p++ {
		size := uint64(binary.LittleEndian.Uint32(table[4*p:]))
		if off+size > h.dataBytes {
			return refRecord{}, errors.New("model: size table runs past the data section")
		}
		rec.payload = append(rec.payload, data[off:off+size])
		off += size
	}
	if off != h.dataBytes {
		return refRecord{}, errors.New("model: size table short of the data section")
	}
	return rec, nil
}

// refClass is what a primitive's error comes to: nil, an ErrOrder, a clean
// refusal of what the file holds, or — on a channel, whose consumer cannot ask
// More — ErrEOS, a read after every producer closed.
type refClass int

const (
	refNil refClass = iota
	refOrder
	refRefused
	refEOS
)

func (c refClass) String() string { return [...]string{"nil", "ErrOrder", "refusal", "ErrEOS"}[c] }

// refInput is the model of one input stream over an image: the primitives'
// state machine (Figure 2, Strict, the sticky error) and the placement of the
// current record's payloads on the reader's ranks.
type refInput struct {
	img    []byte
	rd     *distr.Distribution
	strict bool
	cursor int64
	failed refClass // refNil while the stream is healthy

	have             bool
	arrays, extracts int
	at               int64 // offset of the current record
	rec              refRecord
	place            [][]int // [rank][local] → file position in rec
}

func newRefInput(img []byte, rd *distr.Distribution, strict bool) *refInput {
	return &refInput{img: img, rd: rd, strict: strict, cursor: refFileHeaderLen}
}

func (m *refInput) fail(c refClass) refClass {
	if m.failed == refNil {
		m.failed = c
	}
	return c
}

// leave is the check a read or a skip makes before leaving the current
// record.
func (m *refInput) leave() refClass {
	if m.failed != refNil {
		return m.failed
	}
	if m.strict && m.have && m.extracts < m.arrays {
		return m.fail(refOrder)
	}
	if m.cursor >= int64(len(m.img)) {
		return m.fail(refOrder)
	}
	return refNil
}

// read loads the next record. Sorted, rank r's local element l is the
// reader's global element GlobalIndex(r, l), found at its writer's file
// position; unsorted, rank r takes file positions starts[r]..starts[r+1] in
// order, where starts are the reader's per-rank counts summed.
func (m *refInput) read(sorted bool) refClass {
	if c := m.leave(); c != refNil {
		return c
	}
	rec, err := refRecordAt(m.img, m.cursor, m.rd.N)
	if err != nil {
		return m.fail(refRefused)
	}
	pos := make([]int, rec.w.N) // writer's file position of each global
	for p, g := range refFileOrder(rec.w) {
		pos[g] = p
	}
	m.place = make([][]int, m.rd.NProcs)
	start := 0
	for r := range m.place {
		for l := 0; l < m.rd.LocalCount(r); l++ {
			p := start + l
			if sorted {
				p = pos[m.rd.GlobalIndex(r, l)]
			}
			m.place[r] = append(m.place[r], p)
		}
		start += m.rd.LocalCount(r)
	}
	m.have, m.arrays, m.extracts, m.at, m.rec = true, int(rec.h.arrays), 0, m.cursor, rec
	m.cursor += rec.h.total()
	return refNil
}

// skip passes over the next record on its header alone.
func (m *refInput) skip() refClass {
	if c := m.leave(); c != refNil {
		return c
	}
	h, err := refHeaderAt(m.img, m.cursor)
	if err != nil {
		return m.fail(refRefused)
	}
	m.cursor += h.total()
	m.have = false
	return refNil
}

// nextElems peeks at the next record's element count; the end of the file is
// an order error that does not stick.
func (m *refInput) nextElems() (int, refClass) {
	if m.failed != refNil {
		return 0, m.failed
	}
	if m.cursor >= int64(len(m.img)) {
		return 0, refOrder
	}
	h, err := refHeaderAt(m.img, m.cursor)
	if err != nil {
		return 0, m.fail(refRefused)
	}
	return int(h.nElems), refNil
}

// more reports whether a healthy stream has a record left.
func (m *refInput) more() bool { return m.failed == refNil && m.cursor < int64(len(m.img)) }

// extract takes the next array of the current record.
func (m *refInput) extract() refClass {
	if m.failed != refNil {
		return m.failed
	}
	if !m.have || m.extracts >= m.arrays {
		return m.fail(refOrder)
	}
	m.extracts++
	return refNil
}

// close ends the stream: an order error under Strict with a record partly
// extracted.
func (m *refInput) close() refClass {
	if m.strict && m.have && m.extracts < m.arrays {
		return refOrder
	}
	return refNil
}
