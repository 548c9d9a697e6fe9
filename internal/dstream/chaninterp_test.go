package dstream

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/vtime"
)

// The differential interpreter's channel half: a channel is a file that never
// lands. A channel script decodes into a setup — M producers and N consumers
// on one machine of P ranks, max(M,N) ≤ P ≤ M+N, so that the groups overlap
// when P < M+N; the element count; the producers' and the consumers' layout;
// a credit window, the default or one below most frames — and steps of four
// bytes each: insert, write, close the producer end; read, extract raw or
// typed into fresh or refilled elements, close the consumer end early; open
// both ends anew under the same name, the consumer Strict or not. The
// reference for a record is the model's: the sorted read, under the consumer
// layout, of the record the same inserts write under the producer layout
// (refAppend, then refInput).
//
// A script's channels run one after another on one machine.Run. Within a
// channel the producer ranks and the consumer ranks run their steps
// concurrently; a rank in both groups runs its steps in script order. After
// every step each rank must see what the model predicts: the error class,
// Records and Pending on a producer; Records, EOF and Arrays on a consumer,
// and every extracted element as bytes and as typed values. Between channels
// the pool's outstanding count must be the model's count of stranded credits;
// after the run the channel metrics must be its frame arithmetic, and every
// slice decoded fresh must still hold its values.

// Channel step codes: a step's first byte, modulo 16, picks its operation
// from chanOps.
const (
	chInsert   = 0  // a: insert shape
	chWrite    = 3  // the pending group
	chRead     = 7  // a: extract every array after unless a%4 == 0; b: extract mode
	chExtract  = 11 // a: extract mode
	chClose    = 13 // the consumer end
	chCloseOut = 14 // the producer end
	chOpen     = 15 // both ends anew; a: Strict when a&3 == 3
)

var chanOps = [16]xop{xInsert, xInsert, xInsert, xWrite, xWrite, xWrite, xWrite, xRead, xRead, xRead,
	xRead, xExtract, xExtract, xClose, xCloseOut, xOpenIn}

const (
	// chanSmallWindow is the credit window of a script whose setup byte 7 has
	// bit 3 set: below every frame that carries a few elements.
	chanSmallWindow = 64
	// refChanHeaderLen is a frame's front matter: flags, arrays and element
	// count, a u32 each. An element follows as its global index and its
	// length, a u32 each, then its payload.
	refChanHeaderLen = 12
	chanName         = "chan"
)

// strandedCredits counts the credits TestChannelVsModel's 200 scripts
// strand, each measured as a pooled buffer still out between two channels
// of a machine: a consumer credits its last frames when it leaves them, by
// Close, after their producer stopped listening, and the credit waits in
// the producer's mailbox until the machine stops. Asserted as it stands,
// like chaos's silent*Accepted counts; ROADMAP item 4 (channel epochs) must
// bring it to 0.
const strandedCredits = 7416

// chanPair is one (producer, consumer) pair of the frame plan, with the
// producer's side of its credit window in the current channel.
type chanPair struct {
	p, c  int
	elems []int   // global elements its frames carry
	lens  []int64 // its frames' bytes, by record
	recvd int     // frames whose credit the producer took
}

// credit returns how many of q's frames must have been credited before a
// frame of l bytes goes out: while any are outstanding and l does not fit
// beside them, the producer takes the next credit.
func (q *chanPair) credit(l, window int64) int {
	r, out := q.recvd, int64(0)
	for _, f := range q.lens[r:] {
		out += f
	}
	for out > 0 && out+l > window {
		out -= q.lens[r]
		r++
	}
	return r
}

// chanRec is a record as every consumer must extract it.
type chanRec struct {
	arrays int
	elems  [][]elemExp // [consumer][local]
}

// chanCycle is one channel's life: both ends opened, the steps, both closed.
type chanCycle struct {
	strict   bool
	first    int     // the script step its first step is
	steps    []xstep // n is Records after a step, arrays Arrays
	stranded int     // credits stranded when it is over, with its predecessors'
}

// chanInterp is one decoded channel script with the model's predictions.
type chanInterp struct {
	script      []byte
	m, nc, p, n int
	pd, cd      *distr.Distribution
	window      int64
	pairs       []chanPair
	cycles      []*chanCycle
	steps       int

	// What the run's metrics must read: frame bytes, those that crossed
	// ranks, those that consumers drained, and sends the window held back.
	bytes, redist, drained int64
	stalls, stranded       int

	// The current channel.
	seq                int // records written by the script
	pending            [][][]item
	recs               []chanRec
	read, retired      int // records read, and credited back
	have               bool
	arrays, extracts   int
	prodOpen, consOpen bool
	eos                bool
	closedAt           int // records read when the consumers closed before the end of the stream; -1 otherwise
}

func producerOp(op xop) bool { return op == xInsert || op == xWrite || op == xCloseOut }

// decodeChanScript decodes script and runs the model over it.
func decodeChanScript(script []byte) *chanInterp {
	s := script[:scriptSetupBytes]
	x := &chanInterp{script: bytes.Clone(script), m: 1 + int(s[0])%4, nc: 1 + int(s[1])%4, n: int(s[2]) % 41, window: DefaultChannelWindow}
	x.p = max(x.m, x.nc) + int(s[7]&7)%(min(x.m, x.nc)+1)
	if s[7]&8 != 0 {
		x.window = chanSmallWindow
	}
	x.pd = scriptLayout(s[3], s[4], x.n, x.m)
	x.cd = scriptLayout(s[5], s[6], x.n, x.nc)
	x.route()
	x.open(false)
	steps := script[scriptSetupBytes:]
	for k := 0; k < scriptMaxSteps && (k+1)*scriptStepBytes <= len(steps); k++ {
		b := steps[k*scriptStepBytes:]
		x.step(chanOps[b[0]%16], b[1], b[2])
	}
	x.end()
	return x
}

// route builds the frame plan: a pair for every consumer that owns one of a
// producer's elements, and one from producer 0 to every consumer that owns
// none, which paces its reads with empty frames.
func (x *chanInterp) route() {
	for p := 0; p < x.m; p++ {
		at := map[int]int{}
		for l := 0; l < x.pd.LocalCount(p); l++ {
			g := x.pd.GlobalIndex(p, l)
			c := x.cd.Owner(g)
			if _, ok := at[c]; !ok {
				at[c] = len(x.pairs)
				x.pairs = append(x.pairs, chanPair{p: p, c: c})
			}
			x.pairs[at[c]].elems = append(x.pairs[at[c]].elems, g)
		}
	}
	for c := 0; c < x.nc; c++ {
		if x.cd.LocalCount(c) == 0 {
			x.pairs = append(x.pairs, chanPair{p: 0, c: c})
		}
	}
}

// overlaps reports whether consumer c's rank is a producer's too.
func (x *chanInterp) overlaps(c int) bool { return x.p-x.nc+c < x.m }

func (x *chanInterp) cur() *chanCycle { return x.cycles[len(x.cycles)-1] }

func (x *chanInterp) open(strict bool) {
	x.cycles = append(x.cycles, &chanCycle{strict: strict, first: x.steps})
	for i := range x.pairs {
		x.pairs[i].lens, x.pairs[i].recvd = nil, 0
	}
	x.pending, x.recs, x.read, x.retired = nil, nil, 0, 0
	x.have, x.arrays, x.extracts, x.eos = false, 0, 0, false
	x.prodOpen, x.consOpen, x.closedAt = true, true, -1
}

// end closes what the current channel has open, the producer end first, and
// settles its accounts: a consumer that closed early drained every frame it
// had not read, and every credit a producer did not take is stranded.
func (x *chanInterp) end() {
	if x.prodOpen {
		x.prodStep(xCloseOut, 0)
	}
	if x.consOpen {
		x.consStep(xClose, 0, 0)
	}
	for _, q := range x.pairs {
		if x.closedAt >= 0 {
			for _, l := range q.lens[x.closedAt:] {
				x.drained += l
			}
		}
		x.stranded += len(q.lens) - q.recvd
	}
	x.cur().stranded = x.stranded
}

// step applies one script step to the model. A step for an end the channel
// has closed is one for the other end while that one has work left: once
// the producers closed, a read, until the consumers reached the end of the
// stream; once the consumers closed, a write, which their drain takes.
// Otherwise it opens the next channel first.
func (x *chanInterp) step(op xop, a, b byte) {
	switch {
	case op == xOpenIn:
		x.end()
		x.open(a&3 == 3)
		return
	case producerOp(op) && !x.prodOpen && x.consOpen && !x.eos:
		op = xRead
	case !producerOp(op) && !x.consOpen && x.prodOpen:
		op = xWrite
	}
	if producerOp(op) && !x.prodOpen || !producerOp(op) && !x.consOpen {
		x.end()
		x.open(false)
	}
	if op = x.adapt(op); producerOp(op) {
		x.prodStep(op, a)
	} else {
		x.consStep(op, a, b)
	}
}

// adapt is the step that moves the script on in place of one that could only
// fail on order, or that would make a rank wait on what nobody will send it:
// a write with nothing inserted becomes an insert; an extract with nothing to
// extract a read; a read of a record not yet written, while the producers
// could still write it, the write or the insert that makes it; under Strict,
// leaving a record with arrays unextracted an extract. Where the groups
// overlap, a rank must not wait on itself, or on another rank waiting on it:
// a write whose window waits on a credit that a consumer rank also producing
// has not sent becomes the read that sends it, or when there is none the
// producers' close; and a consumer close, whose drain waits for every
// producer's end of stream, becomes the producers' close while they are open.
func (x *chanInterp) adapt(op xop) xop {
	switch op {
	case xWrite:
		if len(x.pending) == 0 {
			return xInsert
		}
		if !x.creditsSent() {
			if x.consOpen && x.read < len(x.recs) {
				return x.adapt(xRead)
			}
			return xCloseOut
		}
	case xExtract:
		if !x.have || x.extracts >= x.arrays {
			return x.adapt(xRead)
		}
	case xRead:
		if x.cur().strict && x.have && x.extracts < x.arrays {
			return xExtract
		}
		if x.read == len(x.recs) && x.prodOpen {
			if len(x.pending) > 0 {
				return x.adapt(xWrite)
			}
			return xInsert
		}
	case xClose:
		if x.prodOpen && x.p < x.m+x.nc {
			return xCloseOut
		}
	}
	return op
}

// creditsSent reports whether a write now finds, on every pair whose
// consumer's rank also produces, the credits its window waits on sent.
func (x *chanInterp) creditsSent() bool {
	lens := x.frameLens()
	for i := range x.pairs {
		if q := &x.pairs[i]; x.overlaps(q.c) && q.credit(lens[i], x.window) > x.retired {
			return false
		}
	}
	return true
}

// frameLens is each pair's frame of the pending group, in bytes.
func (x *chanInterp) frameLens() []int64 {
	size := make([]int, x.n)
	for _, ins := range x.pending {
		for g, items := range ins {
			size[g] += len(itemBytes(items))
		}
	}
	lens := make([]int64, len(x.pairs))
	for i, q := range x.pairs {
		lens[i] = refChanHeaderLen
		for _, g := range q.elems {
			lens[i] += 8 + int64(size[g])
		}
	}
	return lens
}

func (x *chanInterp) add(st xstep) {
	x.cur().steps = append(x.cur().steps, st)
	x.steps++
}

func (x *chanInterp) prodStep(op xop, a byte) {
	st := xstep{op: op, arg: a}
	switch op {
	case xInsert:
		st.ins = make([][]item, x.n)
		for g := range st.ins {
			st.ins[g] = scriptItems(x.seq, len(x.pending), g, x.n, a)
		}
		x.pending = append(x.pending, st.ins)
	case xWrite:
		x.write()
	case xCloseOut:
		if len(x.pending) > 0 {
			st.class = refOrder
		}
		x.pending, x.prodOpen = nil, false
	}
	st.n, st.pending = len(x.recs), len(x.pending)
	x.add(st)
}

// write sends the pending group as one frame per pair, each once its window
// has room for it, and records what the consumers must extract of it.
func (x *chanInterp) write() {
	lens := x.frameLens()
	for i := range x.pairs {
		q := &x.pairs[i]
		if r := q.credit(lens[i], x.window); r > q.recvd {
			x.stalls++
			q.recvd = r
		}
		q.lens = append(q.lens, lens[i])
		x.bytes += lens[i]
		if q.p != x.p-x.nc+q.c {
			x.redist += lens[i]
		}
	}
	m := newRefInput(refAppend(refFile(), x.pd, encodeInserts(x.pending)), x.cd, false)
	m.read(true)
	x.recs = append(x.recs, chanRec{m.arrays, placedOf(m, &recLog{order: refFileOrder(x.pd), ins: x.pending})})
	x.pending = nil
	x.seq++
}

func (x *chanInterp) consStep(op xop, a, b byte) {
	st := xstep{op: op, arg: a}
	switch op {
	case xRead:
		x.retired = x.read
		if x.read < len(x.recs) {
			rec := x.recs[x.read]
			x.read++
			x.have, x.arrays, x.extracts = true, rec.arrays, 0
			st.elems = rec.elems
		} else {
			st.class, x.have, x.eos = refEOS, false, true
		}
	case xExtract:
		st.arg, st.array = a%3, x.extracts
		x.extracts++
	case xClose:
		if x.cur().strict && x.have && x.extracts < x.arrays {
			st.class = refOrder
		}
		if !x.eos {
			x.closedAt = x.read
		}
		x.retired, x.consOpen, x.have, x.eos = math.MaxInt, false, false, true
	}
	st.n, st.eof = x.read, x.eos
	if x.have {
		st.arrays = x.arrays
	}
	x.add(st)
	if op == xRead && st.class == refNil && a%4 != 0 {
		for k := 0; k < min(x.arrays, 6); k++ {
			x.consStep(xExtract, b, 0)
		}
	}
}

func (x *chanInterp) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "channel script %x: %d elements, %d producers %s, %d consumers %s, %d ranks, window %d",
		x.script, x.n, x.m, x.pd.Mode, x.nc, x.cd.Mode, x.p, x.window)
	for i, cy := range x.cycles {
		fmt.Fprintf(&b, "\n  channel %d from step %d, strict %v:", i, cy.first, cy.strict)
		for _, st := range cy.steps {
			fmt.Fprintf(&b, " %s", st.op)
			if st.class != refNil {
				fmt.Fprintf(&b, "(%s)", st.class)
			}
		}
	}
	return b.String()
}

// gate is the run's barrier between channels, in real time; the last rank to
// arrive runs last before any leaves.
type gate struct {
	mu   sync.Mutex
	n, k int
	open chan struct{}
}

func (g *gate) wait(last func()) bool {
	g.mu.Lock()
	ch := g.open
	if g.k++; g.k == g.n {
		last()
		g.k, g.open = 0, make(chan struct{})
		close(ch)
	}
	g.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

var chanMetricNames = [...]string{"dstream_chan_credits", "dstream_chan_bytes_total", "dstream_chan_redistribute_bytes_total",
	"dstream_chan_drained_bytes_total", `dstream_chan_stall_seconds{phase="credit"} count`}

// chanCounts reads a run's channel metrics, in chanMetricNames' order.
func chanCounts(mon *dsmon.Monitor) [len(chanMetricNames)]int64 {
	reg := mon.Registry()
	c := func(name string) int64 { return reg.Counter(name, "").Value() }
	return [...]int64{int64(reg.Gauge(chanMetricNames[0], "").Value()), c(chanMetricNames[1]), c(chanMetricNames[2]), c(chanMetricNames[3]),
		reg.Histogram("dstream_chan_stall_seconds", "", dsmon.LatencyBuckets, "phase", "credit").Count()}
}

// exec runs the script's channels on one machine and returns every
// disagreement with the model.
func (x *chanInterp) exec() []string {
	var bad mismatches
	g := &gate{n: x.p, open: make(chan struct{})}
	var base int64
	mon := dsmon.New()
	_, err := machine.Run(machine.Config{NProcs: x.p, Profile: vtime.Paragon(), Monitor: mon, RecvDeadline: 5 * time.Second}, func(n *machine.Node) error {
		held := newKept(x.cd.LocalCount(max(0, n.Rank()-(x.p-x.nc))))
		for i := 0; i <= len(x.cycles); i++ {
			ok := g.wait(func() {
				out := bufpool.Stats().Outstanding
				if i == 0 {
					base = out
				} else if want := int64(x.cycles[i-1].stranded); out-base != want {
					bad.add(-1, -1, "after channel %d: %d pooled buffers out, the model's %d stranded credits", i-1, out-base, want)
				}
			})
			if !ok {
				bad.add(n.Rank(), -1, "channel %d: the other ranks never came", i)
				return nil
			}
			if i < len(x.cycles) {
				x.runCycle(n, x.cycles[i], held, &bad)
			}
		}
		if n.Rank() >= x.p-x.nc {
			held.recheck(&bad, n.Rank())
		}
		return nil
	})
	if err != nil {
		bad.add(-1, -1, "run failed: %v", err)
	}
	want := [len(chanMetricNames)]int64{0, x.bytes, x.redist, x.drained, int64(x.stalls)}
	for i, v := range chanCounts(mon) {
		if v != want[i] {
			bad.add(-1, -1, "%s is %d after the run, the model's %d", chanMetricNames[i], v, want[i])
		}
	}
	return bad.bad
}

// runCycle runs one channel's steps on rank n: its producer end's, its
// consumer end's, or both in script order.
func (x *chanInterp) runCycle(n *machine.Node, cy *chanCycle, held *kept, bad *mismatches) {
	rank, cons := n.Rank(), n.Rank()-(x.p-x.nc)
	var out *OChannel
	var in *IChannel
	var err error
	if rank < x.m {
		out, err = OpenChannel(n, x.pd, x.cd, chanName, WithChannelWindow(int(x.window)))
	}
	if err == nil && cons >= 0 {
		in, err = OpenChannelInput(n, x.cd, x.pd, chanName, map[bool][]Option{true: {WithStrict()}}[cy.strict]...)
	}
	if err != nil {
		bad.add(rank, cy.first, "open: %v", err)
		return
	}
	var cur []elemExp
	for j, st := range cy.steps {
		i := cy.first + j
		if producerOp(st.op) {
			if out == nil {
				continue
			}
			switch st.op {
			case xInsert:
				err = out.InsertFunc(func(l int, e *Encoder) {
					for _, it := range st.ins[x.pd.GlobalIndex(rank, l)] {
						it.put(e)
					}
				})
			case xWrite:
				err = out.Write()
			case xCloseOut:
				err = out.Close()
			}
			if bad.check(rank, i, st, err) && (out.Records() != st.n || out.Pending() != st.pending) {
				bad.add(rank, i, "Records %d, Pending %d after %s, the model's %d and %d", out.Records(), out.Pending(), st.op, st.n, st.pending)
			}
			continue
		}
		if in == nil {
			continue
		}
		switch st.op {
		case xRead:
			err = in.Read()
		case xExtract:
			err = in.ExtractFunc(held.check(bad, rank, i, st, cur))
		case xClose:
			err = in.Close()
		}
		if bad.check(rank, i, st, err) && st.op == xRead && err == nil {
			cur = st.elems[cons]
		}
		if in.Records() != st.n || in.EOF() != st.eof || in.Arrays() != st.arrays {
			bad.add(rank, i, "Records %d, EOF %v, Arrays %d after %s, the model's %d, %v and %d",
				in.Records(), in.EOF(), in.Arrays(), st.op, st.n, st.eof, st.arrays)
		}
	}
}

// runChanScript runs script on the model and on the real channels, fails t
// at the first disagreement, and returns the credits the script stranded.
func runChanScript(t *testing.T, script []byte) int {
	t.Helper()
	if len(script) < scriptSetupBytes {
		return 0
	}
	x := decodeChanScript(script)
	if bad := x.exec(); len(bad) > 0 {
		t.Fatalf("%s\ndisagrees with the model:\n%s", x, strings.Join(bad, "\n"))
	}
	return x.stranded
}

// TestChannelVsModel is the channel interpreter's campaign: seeds 1 to 200,
// scripts of the full length, and the credits they strand all told.
func TestChannelVsModel(t *testing.T) {
	ran, stranded := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ran++
			stranded += runChanScript(t, randomScript(seed))
		})
	}
	if ran == 200 && !t.Failed() && stranded != strandedCredits {
		t.Errorf("seeds 1-200 stranded %d credits, %d committed: what a closed channel leaves behind changed", stranded, strandedCredits)
	}
}

// FuzzChannelVsModel runs the channel interpreter over mutated scripts,
// seeded with the first channel shape of every name in scriptShapes.
func FuzzChannelVsModel(f *testing.F) {
	addShapeSeeds(f, true)
	f.Fuzz(func(t *testing.T, script []byte) { runChanScript(t, script) })
}
