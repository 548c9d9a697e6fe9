package dstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/server"
	"pcxxstreams/internal/vtime"
)

// The differential interpreter. A byte script decodes into a setup — writer
// and reader machine sizes, the element count, the writer's and the reader's
// layout, a store — and a list of steps of four bytes each: open an output
// (strategy, aggregators, write-behind, append or over the old image) and insert, write, or skew
// the ranks' clocks; open an input (read-ahead, two-phase refill or direct,
// Strict) and read, read unsorted, skip, peek, extract raw or typed into
// fresh or refilled elements, close early; or flip one bit in a record's
// front matter. The steps run on the reference d/stream (model_test.go) and,
// one machine run per stream, on the real stack; after every step each rank
// must see what the model predicts: the error class, More, Arrays and
// NextElems' count, every extracted element as bytes and as typed values,
// the stored image after each write and after each run. Besides the model,
// every rank must hold the same PlanSignature and plan origin after every
// step (a planned stream re-plans from both, so a rank that differs splits
// the group's collective schedule), and a script
// run on two stores must give both the same NodeTimes and IO. A panic, a
// hang (RecvDeadline turns one into an error) or any run error fails it.

const (
	scriptSetupBytes = 8
	scriptStepBytes  = 4
	scriptMaxSteps   = 48
	// bigElemWords is the Int64Slice of the element that crosses pool size
	// classes: 8 804 bytes, past the 4 KiB and 8 KiB classes.
	bigElemWords = 1100
	// scriptFile is the file every script's streams share.
	scriptFile = "f"
)

// Step codes: a step's first byte, modulo 16, picks its operation from the
// table of the stream the script has open, an output's or an input's; codes
// from 11 up mean the same in both. A step whose last byte has its top four
// bits set is taken literally. Any other step that the model says could only
// fail on order becomes the step that moves the script on: a write with
// nothing inserted an insert, an extract with nothing to extract a read, a
// read, skip or peek past the last record (or on a failed stream) an insert
// on an output that appends, and under Strict, leaving a record with arrays
// unextracted an extract.
const (
	cInsert   = 0  // output; a: insert shape
	cWrite    = 6  // output
	cRead     = 0  // input; a: extract every array after unless a%4 == 0; b: extract mode
	cUnsorted = 5  // input; as cRead
	cSkip     = 7  // input
	cNext     = 8  // input
	cExtract  = 9  // input; a: extract mode
	cSkew     = 11 // a: skew pattern
	cOpenIn   = 12 // a: read-ahead (bits 0-2), refill (3-4), aggregators (5-6); b: Strict when b&3 == 3
	cOpenOut  = 13 // a: strategy; b: aggregators, write-behind, append unless b&0x18 == 0, else over the old image when b&0x20 != 0
	cFlip     = 15 // a: record; b: header field, or when odd a descriptor or size-table byte; c: bit, applied when c&0x70 == 0
)

var (
	outOps = [16]xop{xInsert, xInsert, xInsert, xInsert, xInsert, xInsert, xWrite, xWrite, xWrite, xWrite, xWrite,
		xSkew, xOpenIn, xOpenOut, xOpenIn, xFlip}
	inOps = [16]xop{xRead, xRead, xRead, xRead, xRead, xUnsorted, xUnsorted, xSkip, xNext, xExtract, xExtract,
		xSkew, xOpenIn, xOpenOut, xOpenOut, xFlip}
)

// Stores a script can run on (setup byte 7, modulo 4).
const (
	storeMemAndOS = iota // MemFS and OS files, one run each, compared
	storeStriped         // striped memory, three devices of 64 bytes
	storeDaemon          // a dstreamd client
	storeMem             // MemFS alone
)

type xop uint8

const (
	xOpenOut xop = iota
	xOpenIn
	xInsert
	xWrite
	xSkew
	xRead
	xUnsorted
	xSkip
	xNext
	xExtract
	xClose
	xFlip
	xCloseOut // a channel's producer end; xClose is its consumer end
)

func (o xop) String() string {
	return [...]string{"open-out", "open-in", "insert", "write", "skew", "read", "unsorted-read", "skip",
		"next-elems", "extract", "close", "flip", "producer-close"}[o]
}

// Extract modes.
const (
	extractRaw    = iota // Raw of each insert's bytes
	extractFresh         // typed, slices decoded into fresh memory
	extractRefill        // typed, slices refilled with AppendFloat64Slice / AppendInt64Slice
)

// item is one value an insert encodes for an element.
type item struct {
	kind byte
	i    int64
	f    float64
	s    string
	fs   []float64
	is   []int64
}

const (
	itemInt = iota
	itemFloat
	itemString
	itemFloats
	itemInts
)

// mix is splitmix64's finalizer: the interpreter's one source of values.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func newItem(h uint64) item {
	it := item{kind: byte(h % 5)}
	n := int(h>>8) % 6
	switch it.kind {
	case itemInt:
		it.i = int64(mix(h))
	case itemFloat:
		it.f = float64(int64(mix(h))>>12) / 1024
	case itemString:
		it.s = strings.Repeat(string(rune('a'+h>>16%26)), n+int(h>>24)%4)
	case itemFloats:
		for k := 0; k < n; k++ {
			it.fs = append(it.fs, float64(int64(mix(h+uint64(k)))>>12)/4096)
		}
	case itemInts:
		for k := 0; k < n; k++ {
			it.is = append(it.is, int64(mix(h^uint64(k)<<32)))
		}
	}
	return it
}

// scriptItems is what insert a of the seq-th record written puts in global
// element g of n, for insert shape k: zero to four typed items; under shape 2
// every third element empty; under shape 3 one element of bigElemWords.
func scriptItems(seq, a, g, n int, k byte) []item {
	h := mix(uint64(seq)<<40 ^ uint64(a)<<32 ^ uint64(g)<<8 ^ uint64(k))
	switch k % 4 {
	case 2:
		if (g+int(k>>2))%3 == 0 {
			return nil
		}
	case 3:
		if g == int(k>>2)%n {
			big := make([]int64, bigElemWords)
			for i := range big {
				big[i] = int64(mix(h + uint64(i)))
			}
			return []item{{kind: itemInts, is: big}}
		}
	}
	items := make([]item, h%5)
	for i := range items {
		h = mix(h)
		items[i] = newItem(h)
	}
	return items
}

// put inserts the item through the real encoder.
func (it item) put(e *Encoder) {
	switch it.kind {
	case itemInt:
		e.Int64(it.i)
	case itemFloat:
		e.Float64(it.f)
	case itemString:
		e.String(it.s)
	case itemFloats:
		e.Float64Slice(it.fs)
	case itemInts:
		e.Int64Slice(it.is)
	}
}

// itemBytes is the element encoding of items, spelled out: little-endian
// words, strings and slices behind a u32 length.
func itemBytes(items []item) []byte {
	le := binary.LittleEndian
	var b []byte
	for _, it := range items {
		switch it.kind {
		case itemInt:
			b = le.AppendUint64(b, uint64(it.i))
		case itemFloat:
			b = le.AppendUint64(b, math.Float64bits(it.f))
		case itemString:
			b = append(le.AppendUint32(b, uint32(len(it.s))), it.s...)
		case itemFloats:
			b = le.AppendUint32(b, uint32(len(it.fs)))
			for _, v := range it.fs {
				b = le.AppendUint64(b, math.Float64bits(v))
			}
		case itemInts:
			b = le.AppendUint32(b, uint32(len(it.is)))
			for _, v := range it.is {
				b = le.AppendUint64(b, uint64(v))
			}
		}
	}
	return b
}

// elemExp is what one reader element must yield: by insert, the items and
// their bytes.
type elemExp struct {
	items [][]item
	raws  [][]byte
}

// array returns the items and bytes insert a put in the element; past the
// last insert, none.
func (e elemExp) array(a int) ([]item, []byte) {
	if a >= len(e.raws) {
		return nil, nil
	}
	return e.items[a], e.raws[a]
}

// left is how many payload bytes remain when insert a's turn comes.
func (e elemExp) left(a int) int {
	n := 0
	for _, r := range e.raws[min(a, len(e.raws)):] {
		n += len(r)
	}
	return n
}

// xstep is one expanded step with what the model predicts for it.
type xstep struct {
	op     xop
	arg    byte
	class  refClass
	ins    [][]item    // xInsert: by global element
	img    []byte      // xWrite: the image the write leaves
	n      int         // xNext: the element count; xWrite: the records this stream wrote
	more   bool        // input steps: More after the step
	arrays int         // xRead, xUnsorted: Arrays after the step
	elems  [][]elemExp // xRead, xUnsorted: [rank][local]
	array  int         // xExtract: the array it takes

	pending int  // a channel's producer step: Pending after it
	eof     bool // a channel's consumer step: EOF after it
}

// xrun is one machine run: an output or input stream's life, or a flip.
type xrun struct {
	op     xop // xOpenOut, xOpenIn or xFlip
	opts   []Option
	what   string
	steps  []xstep
	flipAt int64
	flipB  byte
	img    []byte // the image after the run
	over   bool   // an output opened over the old image (OpenOver)
}

// recLog is what the script wrote in one record: the global element at each
// file position and, by insert and global element, the items.
type recLog struct {
	order []int
	ins   [][][]item
}

// interp is one decoded script with the model's predictions.
type interp struct {
	script    []byte
	wp, rp, n int
	wd, rd    *distr.Distribution
	store     int
	runs      []*xrun

	// Model state while decoding.
	img     []byte
	logs    map[int64]*recLog
	seq     int // records written by the script
	wrote   int // records written by the current output
	pending [][][]item
	out     refClass // the output stream's sticky class
	in      *refInput
}

// scriptLayout builds layout kind of n elements over p ranks: BLOCK, CYCLIC,
// BLOCK-CYCLIC, EXPLICIT, NewBalanced or an aligned pattern.
func scriptLayout(kind, a byte, n, p int) *distr.Distribution {
	var d *distr.Distribution
	var err error
	switch kind % 6 {
	case 0:
		d, err = distr.New(n, p, distr.Block, 0)
	case 1:
		d, err = distr.New(n, p, distr.Cyclic, 0)
	case 2:
		d, err = distr.New(n, p, distr.BlockCyclic, 1+int(a%4))
	case 3:
		owners := make([]int, n)
		for g := range owners {
			owners[g] = int(mix(uint64(a)<<16|uint64(g)) % uint64(p))
		}
		d, err = distr.NewExplicit(owners, p)
	case 4:
		weights := make([]float64, n)
		for g := range weights {
			weights[g] = float64(mix(uint64(a)<<16|uint64(g)) % 5)
		}
		d, err = distr.NewBalanced(weights, p)
	default:
		if n == 0 {
			return scriptLayout(0, a, n, p)
		}
		stride := []int{1, 2, 3, -1}[a%4]
		off := int(a>>2) % 3
		if stride < 0 {
			off += n - 1
		}
		templateN := max(off, off+stride*(n-1)) + 1 + int(a>>4)%3
		d, err = distr.NewAligned(n, templateN, p, distr.Mode(a>>6%3), 2, distr.Alignment{Offset: off, Stride: stride})
	}
	if err != nil {
		panic(fmt.Sprintf("script layout %d/%d of %d over %d: %v", kind, a, n, p, err))
	}
	return d
}

// decodeScript decodes script and runs the model over it.
func decodeScript(script []byte) *interp {
	s := script[:scriptSetupBytes]
	x := &interp{script: bytes.Clone(script), wp: 1 + int(s[0])%6, rp: 1 + int(s[1])%6, n: int(s[2]) % 41, store: int(s[7]) % 4}
	x.wd = scriptLayout(s[3], s[4], x.n, x.wp)
	x.rd = scriptLayout(s[5], s[6], x.n, x.rp)
	// Every script begins with an output stream on a fresh file, so that the
	// file exists for whatever comes next.
	x.openOut(s[4]%4, s[6], false)
	steps := script[scriptSetupBytes:]
	for k := 0; k < scriptMaxSteps && (k+1)*scriptStepBytes <= len(steps); k++ {
		b := steps[k*scriptStepBytes:]
		x.step(b[0], b[1], b[2], b[3])
	}
	x.endRun()
	return x
}

func (x *interp) cur() *xrun { return x.runs[len(x.runs)-1] }

// step applies one script step to the model, opening a run of the step's
// direction when the current one is of the other.
func (x *interp) step(code, a, b, c byte) {
	ops := &inOps
	if x.cur().op == xOpenOut {
		ops = &outOps
	}
	op := ops[code%16]
	if c&0xf0 != 0xf0 {
		op = x.adapt(op)
	}
	switch op {
	case xOpenOut:
		x.endRun()
		x.openOut(a, b, b&0x18 != 0)
	case xOpenIn:
		x.endRun()
		x.openIn(a, b)
	case xFlip:
		if c&0x70 == 0 {
			x.flip(a, b, c)
		}
	case xSkew:
		if x.cur().op == xFlip {
			x.openIn(0, 0)
		}
		x.cur().steps = append(x.cur().steps, xstep{op: xSkew, arg: a, more: x.in != nil && x.in.more()})
	case xInsert, xWrite:
		if x.cur().op != xOpenOut {
			x.endRun()
			x.openOut(c, c>>2, true)
		}
		x.outStep(op, a)
	default:
		if x.cur().op != xOpenIn {
			x.endRun()
			x.openIn(c, 0)
		}
		x.inStep(op, a, b)
	}
}

// adapt is the step that moves the script on in place of one that could
// only fail on order.
func (x *interp) adapt(op xop) xop {
	m := x.in
	switch op {
	case xWrite:
		if x.cur().op != xOpenOut || len(x.pending) == 0 {
			return xInsert
		}
		return op
	case xExtract:
		if m != nil && m.have && m.extracts < m.arrays {
			return op
		}
		op = xRead
	case xRead, xUnsorted, xSkip, xNext:
	default:
		return op
	}
	if m == nil {
		if int64(len(x.img)) <= refFileHeaderLen {
			return xInsert
		}
		return op
	}
	if !m.more() {
		return xInsert
	}
	if op != xNext && m.strict && m.have && m.extracts < m.arrays {
		return xExtract
	}
	return op
}

// openNone leaves the script between runs: a flip stands in as the current
// run, whatever comes next opens its own.
func (x *interp) openNone() { x.runs = append(x.runs, &xrun{op: xFlip, flipAt: -1}) }

func (x *interp) openOut(a, b byte, appendTo bool) {
	r := &xrun{op: xOpenOut}
	strat := Strategy(a % 4)
	r.opts = append(r.opts, WithStrategy(strat))
	r.what = fmt.Sprintf("output %s", strat)
	if strat == StrategyTwoPhase {
		k := []int{1, 2, 4}[b&3%3]
		r.opts = append(r.opts, WithAggregators(k))
		r.what += fmt.Sprintf(" K=%d", k)
	}
	if b&4 != 0 {
		r.opts = append(r.opts, WithAsync())
		r.what += " async"
	}
	if appendTo && x.img != nil {
		r.opts = append(r.opts, WithAppend())
		r.what += " append"
	} else {
		// Over the old image or truncating it, the model starts a new file.
		if r.over = b&0x20 != 0 && x.img != nil; r.over {
			r.what += " over"
		}
		x.img, x.logs = refFile(), map[int64]*recLog{}
	}
	x.out, x.pending, x.wrote = refNil, nil, 0
	x.runs = append(x.runs, r)
}

func (x *interp) openIn(a, b byte) {
	r := &xrun{op: xOpenIn}
	depth := []int{0, 1, 2, 4, 8}[a&7%5]
	strat := []Strategy{StrategyAuto, StrategyParallel, StrategyTwoPhase}[a>>3&3%3]
	r.opts = append(r.opts, WithStrategy(strat), WithReadAhead(depth))
	r.what = fmt.Sprintf("input %s read-ahead=%d", strat, depth)
	if k := []int{0, 1, 2, x.rp}[a>>5&3]; strat == StrategyTwoPhase && k > 0 {
		r.opts = append(r.opts, WithAggregators(k))
		r.what += fmt.Sprintf(" K=%d", k)
	}
	if b&3 == 3 {
		r.opts = append(r.opts, WithStrict())
		r.what += " strict"
	}
	x.in = newRefInput(x.img, x.rd, b&3 == 3)
	x.runs = append(x.runs, r)
}

// endRun closes the current run's stream: an output writes what it holds
// unwritten first.
func (x *interp) endRun() {
	if len(x.runs) == 0 {
		return
	}
	r := x.cur()
	switch r.op {
	case xOpenOut:
		if len(x.pending) > 0 {
			x.outStep(xWrite, 0)
		}
		r.steps = append(r.steps, xstep{op: xClose})
	case xOpenIn:
		r.steps = append(r.steps, xstep{op: xClose, class: x.in.close()})
		x.in = nil
	}
	r.img = bytes.Clone(x.img)
}

func (x *interp) outStep(op xop, a byte) {
	st := xstep{op: op, arg: a, class: x.out}
	switch {
	case st.class != refNil:
	case op == xInsert:
		st.ins = make([][]item, x.n)
		for g := range st.ins {
			st.ins[g] = scriptItems(x.seq, len(x.pending), g, x.n, a)
		}
		x.pending = append(x.pending, st.ins)
	case len(x.pending) == 0:
		st.class, x.out = refOrder, refOrder
	default:
		at := int64(len(x.img))
		x.img = refAppend(x.img, x.wd, encodeInserts(x.pending))
		x.logs[at] = &recLog{order: refFileOrder(x.wd), ins: x.pending}
		x.pending = nil
		x.seq++
		x.wrote++
		st.img = bytes.Clone(x.img)
	}
	if op == xWrite {
		st.n = x.wrote
	}
	x.cur().steps = append(x.cur().steps, st)
}

// encodeInserts is a group of inserts as refAppend takes it: by insert and
// global element, the element's bytes.
func encodeInserts(pending [][][]item) [][][]byte {
	enc := make([][][]byte, len(pending))
	for k, ins := range pending {
		for _, items := range ins {
			enc[k] = append(enc[k], itemBytes(items))
		}
	}
	return enc
}

func (x *interp) inStep(op xop, a, b byte) {
	m := x.in
	st := xstep{op: op, arg: a}
	switch op {
	case xRead, xUnsorted:
		st.class = m.read(op == xRead)
		if st.class == refNil {
			st.arrays = m.arrays
			st.elems = x.placed()
		}
	case xSkip:
		st.class = m.skip()
	case xNext:
		st.n, st.class = m.nextElems()
	case xExtract:
		st.arg, st.array = a%3, m.extracts
		st.class = m.extract()
	}
	st.more = m.more()
	x.cur().steps = append(x.cur().steps, st)
	if (op == xRead || op == xUnsorted) && st.class == refNil && a%4 != 0 {
		for k := 0; k < min(m.arrays, 6); k++ {
			x.inStep(xExtract, b, 0)
		}
	}
}

// placed is what every reader element of the model's current record must
// yield: the inserts of the element the script wrote at its file position.
func (x *interp) placed() [][]elemExp { return placedOf(x.in, x.logs[x.in.at]) }

// placedOf is what every reader element of m's current record must yield,
// the record log says was written.
func placedOf(m *refInput, log *recLog) [][]elemExp {
	out := make([][]elemExp, len(m.place))
	for r, ps := range m.place {
		for _, p := range ps {
			var e elemExp
			for _, ins := range log.ins {
				e.items = append(e.items, ins[log.order[p]])
				e.raws = append(e.raws, itemBytes(ins[log.order[p]]))
			}
			if !bytes.Equal(bytes.Join(e.raws, nil), m.rec.payload[p]) {
				panic(fmt.Sprintf("model: position %d of the record at %d is not what the script inserted", p, m.at))
			}
			out[r] = append(out[r], e)
		}
	}
	return out
}

// flip flips one bit of a record's front matter in the model's image; the
// run that follows does the same to the store. a's low four bits pick the
// record. An even b flips a header field, the (b>>1)%14-th u32: its low byte,
// or when c&8 is set its byte a>>4%4. An odd b flips a descriptor or
// size-table byte, at (b>>1 | a>>4<<7) modulo their length. c's low three bits
// pick the bit.
func (x *interp) flip(a, b, c byte) {
	var recs []int64
	for at := range x.logs {
		recs = append(recs, at)
	}
	if len(recs) == 0 {
		return
	}
	slices.Sort(recs)
	x.endRun()
	at := recs[int(a&15)%len(recs)]
	off := int64(b>>1) % (refRecordHeaderLen / 4) * 4
	if c&8 != 0 {
		off += int64(a>>4) % 4
	}
	if front := int64(len(x.logs[at].order)) * 4; b&1 != 0 && front > 0 {
		if x.wd.Mode == distr.Explicit {
			front *= 2
		}
		off = refRecordHeaderLen + (int64(b>>1)|int64(a>>4)<<7)%front
	}
	r := &xrun{op: xFlip, flipAt: at + off, flipB: 1 << (c % 8), what: fmt.Sprintf("flip bit %d of byte %d of the record at %d", c%8, off, at)}
	x.img = bytes.Clone(x.img)
	x.img[r.flipAt] ^= r.flipB
	r.img = bytes.Clone(x.img)
	x.runs = append(x.runs, r)
	x.openNone()
}

// skewOf is the virtual seconds a skew step computes on rank of size.
func skewOf(rank, size int, arg byte) float64 {
	return float64((rank*int(arg|1)+int(arg>>4))%size) * 5e-3
}

// scriptStores returns the file systems a script of store kind runs on; a
// dstreamd is started for the script and shut down when t ends.
func scriptStores(t *testing.T, kind int) []*pfs.FileSystem {
	prof := vtime.Paragon()
	switch kind {
	case storeMemAndOS:
		return []*pfs.FileSystem{pfs.NewMemFS(prof), pfs.NewFileSystem(prof, pfs.OSFactory(t.TempDir()))}
	case storeStriped:
		return []*pfs.FileSystem{pfs.NewFileSystem(prof, pfs.StripedMemFactory(3, 64))}
	case storeDaemon:
		srv, err := server.Start("127.0.0.1:0", server.Config{Tenants: []server.Tenant{{Name: "model"}}, StripeFactor: 3, StripeUnit: 128})
		if err != nil {
			t.Fatal(err)
		}
		c, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "model"})
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() {
			c.Close()
			srv.Close()
		})
		return []*pfs.FileSystem{pfs.NewFileSystem(prof, c.Factory())}
	}
	return []*pfs.FileSystem{pfs.NewMemFS(prof)}
}

// runScript runs script on the model and on the real stack and fails t at
// the first run they disagree on.
func runScript(t *testing.T, script []byte) {
	t.Helper()
	if len(script) < scriptSetupBytes {
		return
	}
	x := decodeScript(script)
	var results [][]machine.Result
	for _, fs := range scriptStores(t, x.store) {
		var res []machine.Result
		for i, r := range x.runs {
			got, bad := x.exec(fs, r)
			if len(bad) > 0 {
				t.Fatalf("%s\nrun %d (%s) disagrees with the model:\n%s", x, i, r.what, strings.Join(bad, "\n"))
			}
			res = append(res, got)
		}
		results = append(results, res)
	}
	for i := 0; len(results) == 2 && i < len(x.runs); i++ {
		a, b := results[0][i], results[1][i]
		if !slices.Equal(a.NodeTimes, b.NodeTimes) || a.IO != b.IO {
			t.Fatalf("%s\nrun %d (%s): the two stores differ:\nNodeTimes %v\n       vs %v\nIO %+v\n vs %+v", x, i, x.runs[i].what, a.NodeTimes, b.NodeTimes, a.IO, b.IO)
		}
	}
}

func (x *interp) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "script %x: %d elements, writer %d ranks %s, reader %d ranks %s, store %d",
		x.script, x.n, x.wp, x.wd.Mode, x.rp, x.rd.Mode, x.store)
	for i, r := range x.runs {
		fmt.Fprintf(&b, "\n  run %d: %s:", i, r.what)
		for _, st := range r.steps {
			fmt.Fprintf(&b, " %s", st.op)
			if st.class != refNil {
				fmt.Fprintf(&b, "(%s)", st.class)
			}
		}
	}
	return b.String()
}

// mismatches collects what ranks saw differ from the model.
type mismatches struct {
	mu  sync.Mutex
	bad []string
}

func (m *mismatches) add(rank, step int, format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.bad) < 12 {
		m.bad = append(m.bad, fmt.Sprintf("  rank %d step %d: %s", rank, step, fmt.Sprintf(format, args...)))
	}
}

// classOf folds a real error to its class.
func classOf(err error) refClass {
	switch {
	case err == nil:
		return refNil
	case errors.Is(err, ErrOrder):
		return refOrder
	case errors.Is(err, ErrEOS):
		return refEOS
	}
	return refRefused
}

// check compares a step's error with the model's class; a receive that
// outlasted its deadline is a hang whatever the class. It reports whether the
// step went as the model says.
func (m *mismatches) check(rank, step int, st xstep, err error) bool {
	if errors.Is(err, comm.ErrRecvTimeout) {
		m.add(rank, step, "%s hung: %v", st.op, err)
		return false
	}
	if c := classOf(err); c != st.class {
		m.add(rank, step, "%s: %v, the model's %s", st.op, err, st.class)
		return false
	}
	return true
}

// exec runs r on the real stack over fs and returns the run's result and
// every disagreement with the model.
func (x *interp) exec(fs *pfs.FileSystem, r *xrun) (machine.Result, []string) {
	var bad mismatches
	nprocs, body := 1, func(n *machine.Node) error { return x.flipBody(n, r) }
	var sigs []planSeen
	switch r.op {
	case xOpenOut:
		nprocs = x.wp
		body = func(n *machine.Node) error { return x.outBody(n, fs, r, sigs, &bad) }
	case xOpenIn:
		nprocs = x.rp
		body = func(n *machine.Node) error { return x.inBody(n, r, sigs, &bad) }
	}
	if r.op == xFlip && r.flipAt < 0 {
		return machine.Result{}, nil
	}
	sigs = make([]planSeen, len(r.steps))
	for i := range sigs {
		sigs[i] = planSeen{make([]uint64, nprocs), make([]float64, nprocs)}
	}
	res, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Paragon(), FS: fs, RecvDeadline: 5 * time.Second}, body)
	if err != nil {
		bad.add(-1, -1, "run failed: %v", err)
	}
	for i, s := range sigs {
		if slices.Min(s.sig) != slices.Max(s.sig) || slices.Min(s.origin) != slices.Max(s.origin) {
			bad.add(-1, i, "plan signatures %x, origins %v differ across ranks", s.sig, s.origin)
		}
	}
	if img, err := fs.Image(scriptFile); err != nil || !bytes.Equal(img, r.img) {
		bad.add(-1, -1, "image after the run: %s", imageDiff(img, r.img, err))
	}
	return res, bad.bad
}

func imageDiff(got, want []byte, err error) string {
	if err != nil {
		return err.Error()
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Sprintf("%d bytes, the model's %d; first difference at byte %d", len(got), len(want), i)
	}
	return "equal"
}

func (x *interp) flipBody(n *machine.Node, r *xrun) error {
	f, err := n.Open(scriptFile, false)
	if err != nil {
		return err
	}
	defer f.Close()
	b := make([]byte, 1)
	if err := f.ReadAt(b, r.flipAt); err != nil {
		return err
	}
	b[0] ^= r.flipB
	return f.WriteAt(b, r.flipAt)
}

// planSeen is what every rank's stream held of its plan after one step.
type planSeen struct {
	sig    []uint64
	origin []float64
}

func (p planSeen) set(rank int, s *planState) {
	p.sig[rank], p.origin[rank] = s.PlanSignature(), s.planStart
}

func (x *interp) outBody(n *machine.Node, fs *pfs.FileSystem, r *xrun, sigs []planSeen, bad *mismatches) error {
	rank := n.Rank()
	open := Open
	if r.over {
		open = OpenOver
	}
	out, err := open(n, x.wd, scriptFile, r.opts...)
	if err != nil {
		bad.add(rank, -1, "open: %v", err)
		return nil
	}
	for i, st := range r.steps {
		switch st.op {
		case xInsert:
			err = out.InsertFunc(func(l int, e *Encoder) {
				for _, it := range st.ins[x.wd.GlobalIndex(rank, l)] {
					it.put(e)
				}
			})
		case xWrite:
			err = out.Write()
			if out.Records() != st.n {
				bad.add(rank, i, "Records = %d, the model's %d", out.Records(), st.n)
			}
			if err == nil && st.class == refNil && rank == 0 {
				if img, ierr := fs.Image(scriptFile); ierr != nil || !bytes.Equal(img, st.img) {
					bad.add(rank, i, "image after the write: %s", imageDiff(img, st.img, ierr))
				}
			}
		case xSkew:
			n.Compute(skewOf(rank, n.Size(), st.arg))
			err = nil
		case xClose:
			err = out.Close()
		}
		bad.check(rank, i, st, err)
		sigs[i].set(rank, &out.planState)
	}
	return nil
}

func (x *interp) inBody(n *machine.Node, r *xrun, sigs []planSeen, bad *mismatches) error {
	rank := n.Rank()
	in, err := OpenInput(n, x.rd, scriptFile, r.opts...)
	if err != nil {
		bad.add(rank, -1, "open: %v", err)
		return nil
	}
	defer in.Close()
	if in.LocalLen() != x.rd.LocalCount(rank) {
		bad.add(rank, -1, "LocalLen = %d, the layout's %d", in.LocalLen(), x.rd.LocalCount(rank))
	}
	var cur []elemExp
	held := newKept(x.rd.LocalCount(rank))
	for i, st := range r.steps {
		var k int
		switch st.op {
		case xRead:
			err = in.Read()
		case xUnsorted:
			err = in.UnsortedRead()
		case xSkip:
			err = in.Skip()
		case xNext:
			k, err = in.NextElems()
			if err == nil && k != st.n {
				bad.add(rank, i, "NextElems = %d, the model's %d", k, st.n)
			}
		case xExtract:
			err = in.ExtractFunc(held.check(bad, rank, i, st, cur))
		case xSkew:
			n.Compute(skewOf(rank, n.Size(), st.arg))
			err = nil
		case xClose:
			err = in.Close()
		}
		if bad.check(rank, i, st, err) && (st.op == xRead || st.op == xUnsorted) && err == nil {
			cur = st.elems[rank]
			if in.Arrays() != st.arrays {
				bad.add(rank, i, "Arrays = %d, the model's %d", in.Arrays(), st.arrays)
			}
		}
		if st.op != xClose && in.More() != st.more {
			bad.add(rank, i, "More = %v after %s, the model's %v", in.More(), st.op, st.more)
		}
		sigs[i].set(rank, &in.planState)
	}
	held.recheck(bad, rank)
	return nil
}

// kept is what one rank holds of the elements it extracted: by local element
// the slices it refills, and a re-check of every slice it decoded fresh. A
// fresh slice is the program's: it must still hold its values after later
// reads and the stream's Close have released every buffer it came through.
type kept struct {
	fs    [][]float64
	is    [][]int64
	fresh []func() string
}

func newKept(n int) *kept { return &kept{fs: make([][]float64, n), is: make([][]int64, n)} }

// check is the ExtractFunc callback of extract step st, step i of rank: every
// local element's next array, as bytes or typed, against cur, the model's
// record on this rank.
func (k *kept) check(bad *mismatches, rank, i int, st xstep, cur []elemExp) func(int, *Decoder) {
	return func(l int, d *Decoder) {
		if l >= len(cur) {
			bad.add(rank, i, "extract of local %d: no element %d in the model's record", l, l)
			return
		}
		want, raw := cur[l].array(st.array)
		if left := cur[l].left(st.array); d.Remaining() != left {
			bad.add(rank, i, "local %d array %d: %d bytes left before the extract, the model's %d", l, st.array, d.Remaining(), left)
			return
		}
		if st.arg == extractRaw {
			if got := d.Raw(len(raw)); !bytes.Equal(got, raw) {
				bad.add(rank, i, "local %d array %d: raw bytes % x, the model's % x", l, st.array, got, raw)
			}
		} else {
			for j, it := range want {
				if msg := k.take(d, it, st.arg == extractRefill, l); msg != "" {
					bad.add(rank, i, "local %d array %d item %d: %s", l, st.array, j, msg)
					return
				}
			}
		}
		if left := cur[l].left(st.array) - len(raw); d.Remaining() != left {
			bad.add(rank, i, "local %d array %d: %d bytes left after the extract, the model's %d", l, st.array, d.Remaining(), left)
		}
	}
}

// recheck runs every fresh slice's re-check again, at the end of the run.
func (k *kept) recheck(bad *mismatches, rank int) {
	for _, f := range k.fresh {
		if msg := f(); msg != "" {
			bad.add(rank, -1, "a fresh slice at the end of the run: %s", msg)
			return
		}
	}
}

// take decodes one item of local element l through the real decoder and
// compares it with it, bit for bit; refill decodes slices into the element's
// kept ones. A slice decoded fresh must be non-nil, empty or not, and exactly
// as long as its capacity, so that an append reallocates instead of writing
// over a neighbour; it is kept for the end-of-run re-check.
func (k *kept) take(d *Decoder, it item, refill bool, l int) string {
	switch it.kind {
	case itemInt:
		if v := d.Int64(); v != it.i {
			return fmt.Sprintf("Int64 %d, want %d", v, it.i)
		}
	case itemFloat:
		if v := d.Float64(); math.Float64bits(v) != math.Float64bits(it.f) {
			return fmt.Sprintf("Float64 %v, want %v", v, it.f)
		}
	case itemString:
		if v := d.String(); v != it.s {
			return fmt.Sprintf("String %q, want %q", v, it.s)
		}
	case itemFloats:
		var v []float64
		if refill {
			v = d.AppendFloat64Slice(k.fs[l][:0])
			k.fs[l] = v
		} else {
			v = d.Float64Slice()
		}
		same := func() string {
			if !slices.EqualFunc(v, it.fs, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				return fmt.Sprintf("Float64Slice %v, want %v", v, it.fs)
			}
			return ""
		}
		if msg := k.keep(v == nil, len(v), cap(v), refill, same); msg != "" {
			return msg
		}
	case itemInts:
		var v []int64
		if refill {
			v = d.AppendInt64Slice(k.is[l][:0])
			k.is[l] = v
		} else {
			v = d.Int64Slice()
		}
		same := func() string {
			if !slices.Equal(v, it.is) {
				return fmt.Sprintf("Int64Slice of %d, want %d", len(v), len(it.is))
			}
			return ""
		}
		if msg := k.keep(v == nil, len(v), cap(v), refill, same); msg != "" {
			return msg
		}
	}
	if err := d.Err(); err != nil {
		return err.Error()
	}
	return ""
}

// keep checks a decoded slice with same, and one decoded fresh for being
// non-nil with no spare capacity, keeping same for the re-check.
func (k *kept) keep(isNil bool, n, c int, refill bool, same func() string) string {
	if msg := same(); msg != "" || refill {
		return msg
	}
	if isNil || n != c {
		return fmt.Sprintf("a fresh slice of length %d has capacity %d (nil %v)", n, c, isNil)
	}
	k.fresh = append(k.fresh, same)
	return ""
}

// TestStreamVsModel is the interpreter's campaign: seeds 1 to 200, scripts of
// the full length.
func TestStreamVsModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runScript(t, randomScript(seed)) })
	}
}

// FuzzStreamVsModel runs the interpreter over mutated scripts, seeded with
// the first stream shape of every name in scriptShapes: one per table the
// interpreter subsumed, and the seeds filed for the fuzzer alone.
func FuzzStreamVsModel(f *testing.F) {
	addShapeSeeds(f, false)
	f.Fuzz(runScript)
}
