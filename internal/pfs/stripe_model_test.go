package pfs

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// The differential interpreter: a script of WriteAt / Truncate / ReadAt steps
// runs on a striped backend and on one flat MemBackend, and after every step
// the two must agree on Size and on the whole image, read into dirtied buffers
// so that a byte neither side supplied shows. A step is four script bytes:
// what to do, which stripe cell, where against that cell's boundary, how long.

const (
	stripeStepBytes = 4
	stripeMaxSteps  = 48 // a fuzz input runs at most this many steps
)

var (
	stripeModelKs    = []int{1, 2, 3, 4, 7}
	stripeModelUnits = []int64{1, 2, 16, 64 << 10}
)

// errClass folds an error to what the two sides must agree on: none, the bare
// io.EOF of the ReaderAt contract, or a refusal.
func errClass(err error) int {
	switch err {
	case nil:
		return 0
	case io.EOF:
		return 1
	}
	return 2
}

// stripePos places an offset against cell boundaries: on one, one short of it
// (−1 at cell 0: both sides must refuse), one past it, or inside the cell.
func stripePos(k int, unit int64, cell, fine byte) int64 {
	base := int64(int(cell)%(2*k+2)) * unit
	switch fine % 4 {
	case 0:
		return base
	case 1:
		return base - 1
	case 2:
		return base + 1
	}
	return base + int64(fine>>2)*unit/64
}

// stripeLen picks a transfer length: a few bytes (zero included), several
// cells and a ragged end, one cell exactly, or one cell and a byte.
func stripeLen(k int, unit int64, l byte) int {
	switch l % 4 {
	case 0:
		return int(l >> 2)
	case 1:
		return int(int64(int(l>>2)%(k+2))*unit) + int(l>>5)
	case 2:
		return int(unit)
	}
	return int(unit) + 1
}

func dirty(n int) []byte { return bytes.Repeat([]byte{0xA5}, n) }

// runStripeScript interprets script on both backends and fails t at the first
// step they disagree on.
func runStripeScript(t *testing.T, striped, flat Backend, k int, unit int64, script []byte) {
	t.Helper()
	for step := 0; step < stripeMaxSteps && (step+1)*stripeStepBytes <= len(script); step++ {
		b := script[step*stripeStepBytes:]
		pos := stripePos(k, unit, b[1], b[2])
		var what string
		switch b[0] % 4 {
		case 0:
			data := make([]byte, stripeLen(k, unit, b[3]))
			for i := range data {
				data[i] = byte(step*31+i*7) | 1 // never zero: a lost byte shows against a hole
			}
			what = fmt.Sprintf("WriteAt(%d bytes, %d)", len(data), pos)
			ns, es := striped.WriteAt(data, pos)
			nf, ef := flat.WriteAt(data, pos)
			if ns != nf || errClass(es) != errClass(ef) {
				t.Fatalf("step %d %s: striped (%d, %v), flat (%d, %v)", step, what, ns, es, nf, ef)
			}
		case 1:
			if (b[0]>>2)%8 == 0 {
				pos = 0
			}
			what = fmt.Sprintf("Truncate(%d)", pos)
			es, ef := striped.Truncate(pos), flat.Truncate(pos)
			if errClass(es) != errClass(ef) {
				t.Fatalf("step %d %s: striped %v, flat %v", step, what, es, ef)
			}
		default:
			n := stripeLen(k, unit, b[3])
			what = fmt.Sprintf("ReadAt(%d bytes, %d)", n, pos)
			sameRead(t, fmt.Sprintf("step %d %s", step, what), striped, flat, n, pos)
		}
		if ss, fs := striped.Size(), flat.Size(); ss != fs {
			t.Fatalf("step %d %s: striped size %d, flat %d", step, what, ss, fs)
		}
		// The whole image and three bytes past it, so the EOF edge is read too.
		sameRead(t, fmt.Sprintf("image after step %d %s", step, what), striped, flat, int(flat.Size())+3, 0)
	}
}

// sameRead reads n bytes at off from both sides into dirtied buffers and
// requires the same count, error class and buffer — past the count too, where
// neither side may have written.
func sameRead(t *testing.T, what string, striped, flat Backend, n int, off int64) {
	t.Helper()
	ps, pf := dirty(n), dirty(n)
	ns, es := striped.ReadAt(ps, off)
	nf, ef := flat.ReadAt(pf, off)
	if ns != nf || errClass(es) != errClass(ef) {
		t.Fatalf("%s: striped (%d, %v), flat (%d, %v)", what, ns, es, nf, ef)
	}
	if !bytes.Equal(ps, pf) {
		i := 0
		for ps[i] == pf[i] {
			i++
		}
		t.Fatalf("%s: first difference at byte %d: striped %#x, flat %#x", what, i, ps[i], pf[i])
	}
}

// TestStripedMatchesFlatModel: seeded random scripts of writes, truncates
// (shrink, grow, to a cell boundary and one byte either side of it, to zero)
// and reads leave a striped backend and a flat one indistinguishable after
// every step, over every stripe geometry of the grid and, on a few of its
// rows, over real files.
func TestStripedMatchesFlatModel(t *testing.T) {
	const seeds = 4
	script := make([]byte, stripeMaxSteps*stripeStepBytes)
	run := func(kind string, k int, unit int64) {
		t.Run(fmt.Sprintf("%s/k=%d/unit=%d", kind, k, unit), func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				rand.New(rand.NewSource(seed*1000 + int64(k)*100 + unit)).Read(script)
				runStripeScript(t, stripeKinds[kind](t, k, unit), NewMemBackend(), k, unit, script)
			}
		})
	}
	for _, k := range stripeModelKs {
		for _, unit := range stripeModelUnits {
			run("mem", k, unit)
		}
	}
	run("os", 2, 1)
	run("os", 3, 16)
	run("os", 4, 64<<10)
}

// FuzzStripedVsFlat: the same interpreter over mutated scripts; the first two
// bytes pick the geometry from the test's grid, the rest are the steps. The
// corpus under testdata/fuzz holds the scripts the two defects this target was
// written against fail on (a hole read into a dirty buffer, a zero-length read
// on a cell boundary) and one for each truncate shape.
func FuzzStripedVsFlat(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		k := stripeModelKs[int(in[0])%len(stripeModelKs)]
		unit := stripeModelUnits[int(in[1])%len(stripeModelUnits)]
		runStripeScript(t, stripedOverMem(t, k, unit), NewMemBackend(), k, unit, in[2:])
	})
}
