package dstream

import (
	"fmt"

	"pcxxstreams/internal/enc"
)

// recordView is the input half of the record pipeline, the right side of
// Figure 2 and the mirror of assembler: the current record as one decoder per
// local element, and everything about read → extract* → close that does not
// depend on where a record came from. An input end is a source plus a view:
// IStream's source refills from a file and redistributes, IChannel's receives
// frames. A source points decoders(n) at the element payloads and calls
// loaded; the payloads stay the source's to hold and release.
type recordView struct {
	stream
	// strict enforces Options.Strict: a record is left — by the next read or
	// skip, or by close — only with every array extracted.
	strict bool

	decs []Decoder // one per local element, in local order
	// slab is where every decoder of the view carves the slices it decodes
	// (DESIGN.md "Extract path"): what an extractor keeps is never the
	// source's pooled bytes, and outlives the record, the stream and Close.
	slab     enc.Slab
	arrays   int // arrays in the current record
	haveRec  bool
	extracts int
}

// decoders returns the view's n element decoders for the source to point at
// the next record: one allocation on the first record, none after.
func (v *recordView) decoders(n int) []Decoder {
	if len(v.decs) != n {
		v.decs = make([]Decoder, n)
		for i := range v.decs {
			v.slab.Attach(&v.decs[i])
		}
	}
	return v.decs
}

// loaded makes the record the source has just pointed the decoders at the
// current one, and settles the refill accounts: bytes is what this node took
// in, start when the read began. It returns the instant the read ended, for
// the source's span.
func (v *recordView) loaded(arrays int, bytes int64, start float64) float64 {
	v.arrays, v.haveRec, v.extracts = arrays, true, 0
	// The slab sizes its chunks by what is left to decode: the whole words
	// of the payloads the decoders now hold.
	words := 0
	for i := range v.decs {
		words += v.decs[i].Remaining() / 8
	}
	v.slab.Limit(words)
	end := v.node.Clock().Now()
	v.met.reads.Inc()
	v.met.refillBytes.Observe(float64(bytes))
	v.met.refillStall.Observe(end - start)
	return end
}

// ExtractFunc is the low-level extract primitive: take is called once per
// locally owned element, in local order, with that element's decoder
// positioned at the next array of the record. Each call to ExtractFunc
// consumes one insert's worth of data, in insertion order.
func (v *recordView) ExtractFunc(take func(local int, d *Decoder)) error {
	if err := v.checkOpen(); err != nil {
		return err
	}
	if !v.haveRec {
		return v.fail(fmt.Errorf("%w: extract before read", ErrOrder))
	}
	if v.extracts >= v.arrays {
		return v.fail(fmt.Errorf("%w: record has %d arrays, extract #%d requested",
			ErrOrder, v.arrays, v.extracts+1))
	}
	for l := range v.decs {
		d := &v.decs[l]
		take(l, d)
		if err := d.Err(); err != nil {
			return v.fail(fmt.Errorf("dstream: extract element (local %d): %w", l, err))
		}
	}
	v.extracts++
	v.met.extracts.Inc()
	v.node.Compute(float64(len(v.decs)) * v.node.Profile().PerElemCost)
	return nil
}

// Arrays returns the number of arrays in the current record (0 before the
// first read).
func (v *recordView) Arrays() int {
	if !v.haveRec {
		return 0
	}
	return v.arrays
}

// Extracted returns how many arrays of the current record have been
// extracted.
func (v *recordView) Extracted() int { return v.extracts }

// unextracted is the Strict-mode verdict on leaving the current record
// through op: an order error while arrays remain, nil otherwise.
func (v *recordView) unextracted(op string) error {
	if !v.strict || !v.haveRec || v.extracts >= v.arrays {
		return nil
	}
	return fmt.Errorf("%w: %s with %d of %d arrays unextracted (Strict)",
		ErrOrder, op, v.arrays-v.extracts, v.arrays)
}

// checkFullyExtracted enforces Strict mode before a read or a skip: the
// current record must be fully drained before moving on.
func (v *recordView) checkFullyExtracted(op string) error {
	return v.fail(v.unextracted(op))
}

// closeView is the tail of an input end's Close: in Strict mode, closing with
// a partially extracted record is an error, surfaced unless err, what closing
// the source returned, already reports something.
func (v *recordView) closeView(err error) error {
	if err == nil {
		err = v.unextracted("close")
	}
	v.haveRec, v.decs = false, nil
	return err
}
