package enc

import (
	"fmt"

	"pcxxstreams/internal/distr"
)

// The front matter of a record — header, distribution descriptor, size table:
// the "paperwork" of §4.1 — has one reader, in the three steps below, which a
// stream takes with a broadcast between them and a tool takes over an image
// it holds whole. What one refuses the other refuses, in the same words.

// MaxWriterProcs bounds the writer node count a record header may name. The
// format stores nothing per node, so no file length bounds it, yet a reader
// sizes tables by it; the largest machine the repo runs is 1024 nodes.
const MaxWriterProcs = 1 << 16

// ReadRecordHeader decodes the record header found at offset off of a file
// of size bytes, and holds it to what can be checked before anything else
// is read or sized by it: the record ends inside the file, and the
// descriptor section is as long as the distribution mode says — an owner per
// element for EXPLICIT, nothing otherwise.
func ReadRecordHeader(hdr []byte, off, size int64) (RecordHeader, error) {
	h, err := DecodeRecordHeader(hdr)
	if err != nil {
		return h, err
	}
	if end := off + h.TotalBytes(); end > size {
		return h, fmt.Errorf("enc: record at offset %d is truncated: it runs to %d, past the end of the file (%d bytes)", off, end, size)
	}
	want := int64(0)
	if distr.Mode(h.Mode) == distr.Explicit {
		want = 4 * int64(h.NElems)
	}
	if int64(h.DescBytes) != want {
		return h, fmt.Errorf("enc: record header has a %d-byte descriptor, its distribution takes %d", h.DescBytes, want)
	}
	return h, nil
}

// Distribution reconstructs the writer's distribution from the header and
// the descriptor section it announced (§4.1: "the library does the paperwork
// involved in determining the structure of the data that was written").
func (h *RecordHeader) Distribution(desc []byte) (d *distr.Distribution, err error) {
	if distr.Mode(h.Mode) == distr.Explicit {
		owners, oerr := DecodeOwnerTable(desc, int(h.NElems))
		if oerr != nil {
			return nil, oerr
		}
		d, err = distr.NewExplicit(owners, int(h.NProcs))
	} else {
		d, err = distr.NewAligned(int(h.NElems), int(h.TemplateN), int(h.NProcs),
			distr.Mode(h.Mode), int(h.BlockSize),
			distr.Alignment{Offset: int(h.AlignOffset), Stride: int(h.AlignStride)})
	}
	if err != nil {
		return nil, fmt.Errorf("enc: record carries invalid distribution: %w", err)
	}
	return d, nil
}

// TableOffsets holds the size table to the header — an entry per element,
// summing to the data section's length — and samples its prefix sum at cuts
// as SizeTableOffsets does; cuts must end at the element count.
func (h *RecordHeader) TableOffsets(table []byte, cuts []int, offs []int64) error {
	if err := SizeTableOffsets(table, int(h.NElems), cuts, offs); err != nil {
		return err
	}
	if total := offs[len(cuts)-1]; uint64(total) != h.DataBytes {
		return fmt.Errorf("enc: size table sums to %d but record claims %d data bytes", total, h.DataBytes)
	}
	return nil
}
