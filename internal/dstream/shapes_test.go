package dstream

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// scriptShapes are the interpreter's named scripts: FuzzStreamVsModel's seeds,
// and the shapes the hand-written round-trip and byte-identity tables held
// before the interpreter subsumed them. A shape named Test…[/sub] is what that
// test runs (runShapes); the names are the ones the suite has long reported.
var scriptShapes = buildShapes()

type shape struct {
	name    string
	script  []byte
	channel bool // a channel script (chaninterp_test.go)
}

// addShapeSeeds adds the first shape of every name in scriptShapes, of
// channels or of streams, to f's seeds.
func addShapeSeeds(f *testing.F, channel bool) {
	seen := map[string]bool{}
	for _, s := range scriptShapes {
		if name, _, _ := strings.Cut(s.name, "/"); s.channel == channel && !seen[name] {
			seen[name] = true
			f.Add(s.script)
		}
	}
}

// runShapes runs every shape filed under the calling test's name, the shapes
// with a subtest name as that subtest, in the order they were filed.
func runShapes(t *testing.T) {
	var subs []string
	shapes := map[string][]shape{}
	for _, s := range scriptShapes {
		name, sub, _ := strings.Cut(s.name, "/")
		if name != t.Name() {
			continue
		}
		if shapes[sub] == nil {
			subs = append(subs, sub)
		}
		shapes[sub] = append(shapes[sub], s)
	}
	if len(subs) == 0 {
		t.Fatal("no script shape filed under", t.Name())
	}
	for _, sub := range subs {
		run := func(t *testing.T) {
			for _, s := range shapes[sub] {
				if s.channel {
					runChanScript(t, s.script)
				} else {
					runScript(t, s.script)
				}
			}
		}
		if sub == "" {
			run(t)
		} else {
			t.Run(sub, run)
		}
	}
}

// Tests that were hand-written tables of round trips and byte identities:
// each is now its shapes, and what it asserted is what the interpreter
// checks after every step.
func TestCrossStrategyByteIdentity(t *testing.T)           { runShapes(t) }
func TestTwoPhaseRoundTrip(t *testing.T)                   { runShapes(t) }
func TestTwoPhaseFlatBackend(t *testing.T)                 { runShapes(t) }
func TestRoundTripSameLayout(t *testing.T)                 { runShapes(t) }
func TestRoundTripChangedDistribution(t *testing.T)        { runShapes(t) }
func TestRoundTripChangedProcs(t *testing.T)               { runShapes(t) }
func TestUnsortedReadPreservesMultiset(t *testing.T)       { runShapes(t) }
func TestFunnelAndParallelMetaIdenticalFiles(t *testing.T) { runShapes(t) }
func TestMultipleRecords(t *testing.T)                     { runShapes(t) }
func TestRoundTripRandomized(t *testing.T)                 { runShapes(t) }
func TestZeroSizeElements(t *testing.T)                    { runShapes(t) }
func TestMoreProcsThanElements(t *testing.T)               { runShapes(t) }
func TestExplicitDistributionRoundTrip(t *testing.T)       { runShapes(t) }
func TestExplicitReaderRoundTrip(t *testing.T)             { runShapes(t) }
func TestBalancedDistributionRoundTrip(t *testing.T)       { runShapes(t) }
func TestFuzzRecordSequences(t *testing.T)                 { runShapes(t) }
func TestFuzzUnsortedConsumesExactBytes(t *testing.T)      { runShapes(t) }
func TestFuzzOptionCombos(t *testing.T)                    { runShapes(t) }
func TestSkipPastEndRejected(t *testing.T)                 { runShapes(t) }
func TestEmptyCollectionRoundTrip(t *testing.T)            { runShapes(t) }
func TestAppendMode(t *testing.T)                          { runShapes(t) }
func TestReadAheadByteIdentity(t *testing.T)               { runShapes(t) }
func TestTwoPhaseRefillMatchesDirectRead(t *testing.T)     { runShapes(t) }
func TestBackendsProduceIdenticalImages(t *testing.T)      { runShapes(t) }
func TestInterleaving(t *testing.T)                        { runShapes(t) }
func TestVirtualTimeDeterministic(t *testing.T)            { runShapes(t) }
func TestExplicitDescriptorInFile(t *testing.T)            { runShapes(t) }
func TestSkipInvalidatesPendingExtracts(t *testing.T)      { runShapes(t) }
func TestAlignedCollectionRoundTrip(t *testing.T)          { runShapes(t) }
func TestReadAheadStrict(t *testing.T)                     { runShapes(t) }
func TestSortedReadTable(t *testing.T)                     { runShapes(t) }
func TestExtractedSlicesOutliveTheRecord(t *testing.T)     { runShapes(t) }

// Tests that were hand-written channel tables: each is now its channel
// shapes.
func TestChannelGrid(t *testing.T)                            { runShapes(t) }
func TestChannelSameLayout(t *testing.T)                      { runShapes(t) }
func TestChannelSmallWindow(t *testing.T)                     { runShapes(t) }
func TestChannelEarlyConsumerClose(t *testing.T)              { runShapes(t) }
func TestChannelConsumerWithoutElements(t *testing.T)         { runShapes(t) }
func TestChannelLoopback(t *testing.T)                        { runShapes(t) }
func TestChannelNameReuse(t *testing.T)                       { runShapes(t) }
func TestChannelDeliversWhatTheFileStores(t *testing.T)       { runShapes(t) }
func TestChannelExtractedSlicesOutliveTheRecord(t *testing.T) { runShapes(t) }

// Shape spelling: layout kinds (scriptLayout), strategies, and one helper per
// step code.
const (
	lBlock = iota
	lCyclic
	lBlockCyclic
	lExplicit
	lBalanced
	lAligned
)

const (
	auto, funnel, parallel, twoPhase = 0, 1, 2, 3 // output strategies
	direct                           = 1          // input refill: 0 auto, 2 two-phase
)

// seed spells a script out: machine sizes, element count, the writer's and
// the reader's layout kind and argument, the store, then the steps.
func seed(wp, rp, n int, wl, wa, rl, ra, store byte, steps ...[4]byte) []byte {
	b := []byte{byte(wp - 1), byte(rp - 1), byte(n), wl, wa, rl, ra, store}
	for _, s := range steps {
		b = append(b, s[:]...)
	}
	return b
}

// output opens an output stream: strategy, two-phase aggregators (index into
// 1, 2, 4), write-behind, append.
func output(strat, k byte, async, app bool) [4]byte {
	b := k
	if async {
		b |= 4
	}
	if app {
		b |= 8
	}
	return [4]byte{cOpenOut, strat, b}
}

// over opens an output stream over the old image: strategy, aggregators,
// write-behind.
func over(strat, k byte, async bool) [4]byte {
	o := output(strat, k, async, false)
	o[2] |= 0x20
	return o
}

// input opens an input stream: read-ahead (index into 0, 1, 2, 4, 8), refill,
// aggregators (index into default, 1, 2, P), Strict.
func input(depth, refill, k byte, strict bool) [4]byte {
	var b byte
	if strict {
		b = 3
	}
	return [4]byte{cOpenIn, depth | refill<<3 | k<<5, b}
}

func ins(shape byte) [4]byte    { return [4]byte{cInsert, shape} }
func skew(arg byte) [4]byte     { return [4]byte{cSkew, arg} }
func rd(mode byte) [4]byte      { return [4]byte{cRead, 1, mode} }     // read, extract every array
func unsrt(mode byte) [4]byte   { return [4]byte{cUnsorted, 1, mode} } // unsorted read, extract every array
func ext(mode byte) [4]byte     { return [4]byte{cExtract, mode} }     // one extract
func literal(s [4]byte) [4]byte { s[3] = 0xf0; return s }

// flipField flips bit of the low byte of header field (a u32 index) of
// record rec.
func flipField(rec, field, bit byte) [4]byte { return [4]byte{cFlip, rec, field << 1, bit} }

var (
	wr       = [4]byte{cWrite}
	readOnly = [4]byte{cRead} // read, no extract
	skipStep = [4]byte{cSkip}
	nextStep = [4]byte{cNext}
	dflt     = input(0, 0, 0, false)
)

// chanSeed spells a channel script out: producers, consumers, element count,
// the producers' and the consumers' layout kind and argument, the machine
// size, the small window or the default, then the steps.
func chanSeed(m, c, n int, pl, pa, cl, ca byte, p int, small bool, steps ...[4]byte) []byte {
	s7 := byte(p - max(m, c))
	if small {
		s7 |= 8
	}
	return seed(m, c, n, pl, pa, cl, ca, s7, steps...)
}

func chIns(shape byte) [4]byte { return [4]byte{chInsert, shape} }
func chRd(mode byte) [4]byte   { return [4]byte{chRead, 1, mode} } // read, extract every array

var (
	chWr      = [4]byte{chWrite}
	chEnd     = [4]byte{chClose}    // the consumer end
	chEndOut  = [4]byte{chCloseOut} // the producer end
	chReopen  = [4]byte{chOpen}
	chPastEnd = [4]byte{chRead} // a read the model answers ErrEOS
)

// repeat spells steps k times over.
func repeat(k int, steps ...[4]byte) [][4]byte {
	var all [][4]byte
	for range k {
		all = append(all, steps...)
	}
	return all
}

// randomScript is a full-length script drawn from seed.
func randomScript(seed int64) []byte {
	b := make([]byte, scriptSetupBytes+scriptMaxSteps*scriptStepBytes)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func buildShapes() []shape {
	var all []shape
	add := func(name string, script []byte) { all = append(all, shape{name, script, false}) }
	addChan := func(name string, script []byte) { all = append(all, shape{name, script, true}) }
	modes := []struct {
		name string
		kind byte
	}{{"BLOCK", lBlock}, {"CYCLIC", lCyclic}, {"BLOCK_CYCLIC", lBlockCyclic}}

	// Funnel, parallel, two-phase (K = stripes, K = 2, write-behind) and
	// write-behind funnel each write an interleaved pair and a record with
	// empty elements: every image the model's, so all one image.
	for _, c := range []struct {
		p, n int
		mode byte
		name string
	}{{4, 23, lBlock, "BLOCK"}, {4, 23, lCyclic, "CYCLIC"}, {4, 23, lBlockCyclic, "BLOCK_CYCLIC"}, {3, 7, lBlock, "BLOCK"}} {
		var steps [][4]byte
		for _, o := range [][4]byte{output(funnel, 0, false, false), output(parallel, 0, false, false), output(twoPhase, 0, false, false),
			output(twoPhase, 0, true, false), output(twoPhase, 1, false, false), output(funnel, 0, true, false)} {
			steps = append(steps, o, ins(0), ins(0), wr, ins(2), wr)
		}
		add(fmt.Sprintf("TestCrossStrategyByteIdentity/%s-n%d-p%d", c.name, c.n, c.p),
			seed(c.p, c.p, c.n, c.mode, 2, c.mode, 2, storeStriped, append(steps, dflt, rd(extractFresh), rd(extractRaw))...))
	}
	for _, c := range []struct {
		name   string
		mode   byte
		open   [4]byte
		sorted bool
	}{
		{"same-layout-twophase", lBlock, input(0, twoPhase, 0, false), true},
		{"cyclic-reader-twophase", lCyclic, input(0, twoPhase, 0, false), true},
		{"cyclic-reader-direct", lCyclic, input(0, direct, 0, false), true},
		{"unsorted-twophase", lBlock, input(0, twoPhase, 0, false), false},
	} {
		read := rd(extractFresh)
		if !c.sorted {
			read = unsrt(extractFresh)
		}
		add("TestTwoPhaseRoundTrip/"+c.name, seed(4, 4, 23, lBlock, 0, c.mode, 0, storeStriped, output(twoPhase, 0, false, false), ins(0), wr, c.open, read))
	}
	add("TestTwoPhaseFlatBackend", seed(6, 6, 17, lBlock, 0, lBlock, 0, storeMem, output(twoPhase, 0, false, false), ins(0), wr, dflt, rd(extractFresh)))
	for _, m := range modes {
		add("TestRoundTripSameLayout/"+m.name, seed(4, 4, 23, m.kind, 2, m.kind, 2, storeMem, ins(0), wr, dflt, rd(extractFresh)))
	}
	add("TestRoundTripChangedDistribution", seed(4, 4, 30, lCyclic, 0, lBlock, 0, storeMem, ins(0), wr, dflt, rd(extractFresh)))
	for _, p := range []int{1, 3, 6} {
		add(fmt.Sprintf("TestRoundTripChangedProcs/readers=%d", p), seed(4, p, 25, lBlockCyclic, 1, lCyclic, 0, storeMem, ins(0), wr, dflt, rd(extractFresh)))
	}
	add("TestUnsortedReadPreservesMultiset", seed(3, 3, 17, lCyclic, 0, lBlock, 0, storeMem, ins(0), wr, dflt, unsrt(extractFresh)))
	add("TestFunnelAndParallelMetaIdenticalFiles", seed(3, 3, 11, lCyclic, 0, lCyclic, 0, storeMem,
		output(funnel, 0, false, false), ins(0), wr, output(parallel, 0, false, false), ins(0), wr))
	add("TestMultipleRecords", seed(2, 2, 8, lCyclic, 0, lCyclic, 0, storeMem, ins(0), wr, ins(1), wr, ins(0), wr, ins(1), wr,
		dflt, rd(extractFresh), rd(extractFresh), rd(extractFresh), rd(extractFresh), literal(nextStep)))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		read := rd(extractFresh)
		if rng.Intn(2) == 0 {
			read = unsrt(extractFresh)
		}
		add("TestRoundTripRandomized", seed(rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(40)+1, byte(rng.Intn(3)), byte(rng.Intn(4)),
			byte(rng.Intn(3)), byte(rng.Intn(4)), storeMem, ins(0), wr, dflt, read))
	}
	add("TestZeroSizeElements", seed(2, 2, 6, lCyclic, 0, lCyclic, 0, storeMem, ins(2), wr, dflt, rd(extractFresh)))
	add("TestMoreProcsThanElements", seed(6, 6, 3, lBlock, 0, lBlock, 0, storeMem, ins(0), wr, dflt, rd(extractFresh)))
	add("TestExplicitDistributionRoundTrip", seed(3, 3, 12, lExplicit, 5, lBlock, 0, storeMem, ins(0), wr, dflt, rd(extractFresh)))
	add("TestExplicitReaderRoundTrip", seed(2, 2, 9, lCyclic, 0, lExplicit, 9, storeMem, ins(0), wr, dflt, rd(extractFresh)))
	add("TestBalancedDistributionRoundTrip", seed(3, 3, 24, lBalanced, 3, lCyclic, 0, storeMem, ins(0), wr, dflt, rd(extractFresh)))
	for i := 0; i < 25; i++ {
		add(fmt.Sprintf("TestFuzzRecordSequences/seed=%d", i), randomScript(10_000+int64(i)))
	}
	for s := int64(100); s < 110; s++ {
		rng := rand.New(rand.NewSource(s))
		p := rng.Intn(3) + 1
		add("TestFuzzUnsortedConsumesExactBytes", seed(p, p, rng.Intn(20)+1, lCyclic, 0, lCyclic, 0, storeMem, ins(byte(rng.Intn(4))), wr, dflt, unsrt(extractRaw)))
	}
	for _, strat := range []byte{auto, funnel, parallel, twoPhase} {
		for _, async := range []bool{false, true} {
			for _, strict := range []bool{false, true} {
				add(fmt.Sprintf("TestFuzzOptionCombos/strategy=%v_async=%v_strict=%v", Strategy(strat), async, strict),
					seed(3, 3, 13, lCyclic, 0, lCyclic, 0, storeMem, output(strat, 0, async, false), ins(0), wr, output(strat, 0, async, true), ins(1), wr,
						input(0, 0, 0, strict), rd(extractFresh), rd(extractFresh)))
			}
		}
	}
	add("TestSkipPastEndRejected", seed(1, 1, 4, lBlock, 0, lBlock, 0, storeMem, ins(0), wr, dflt, skipStep, literal(skipStep)))
	add("TestEmptyCollectionRoundTrip", seed(3, 3, 0, lBlock, 0, lBlock, 0, storeMem, ins(0), wr, dflt, rd(extractFresh), literal(nextStep)))
	add("TestAppendMode", seed(2, 2, 6, lCyclic, 0, lCyclic, 0, storeMem, ins(0), wr, output(auto, 0, false, true), ins(0), wr,
		output(auto, 0, false, true), ins(0), wr, dflt, rd(extractFresh), rd(extractFresh), rd(extractFresh)))
	for _, strat := range []struct {
		name string
		code byte
	}{{"parallel", direct}, {"twophase", twoPhase}} {
		for _, m := range modes[:2] {
			for _, sorted := range []bool{true, false} {
				for depth, d := range []int{1, 2, 4, 8} {
					steps := [][4]byte{ins(0), wr, ins(0), wr, ins(0), wr, ins(0), wr, ins(0), wr, input(byte(depth+1), strat.code, 0, false)}
					for r := 0; r < 5; r++ {
						if sorted {
							steps = append(steps, rd(extractFresh))
						} else {
							steps = append(steps, unsrt(extractFresh))
						}
					}
					add(fmt.Sprintf("TestReadAheadByteIdentity/%s-%s-sorted=%v-depth=%d", strat.name, m.name, sorted, d),
						seed(4, 4, 23, lBlock, 0, m.kind, 0, storeStriped, append(steps, literal(nextStep))...))
				}
			}
		}
	}
	for _, p := range []int{3, 4, 5} {
		for _, m := range modes[:2] {
			for _, depth := range []byte{0, 2} { // read-ahead index = depth
				for k, kn := range []int{1, 2, p} {
					add(fmt.Sprintf("TestTwoPhaseRefillMatchesDirectRead/P=%d/%s/K=%d/depth=%d", p, m.name, kn, depth),
						seed(p, p, 7*p+3, lCyclic, 0, m.kind, 0, storeStriped, output(parallel, 0, false, false), ins(0), wr, ins(1), wr, ins(0), wr,
							input(depth, twoPhase, byte(k+1), false), rd(extractRaw), rd(extractRaw), rd(extractRaw)))
				}
			}
		}
	}
	add("TestBackendsProduceIdenticalImages", seed(3, 3, 14, lCyclic, 0, lBlock, 0, storeMemAndOS, ins(0), wr, dflt, rd(extractFresh)))
	add("TestInterleaving", seed(2, 2, 6, lBlock, 0, lBlock, 0, storeMem, ins(0), ins(1), wr, dflt, rd(extractFresh)))
	add("TestVirtualTimeDeterministic", seed(4, 4, 40, lCyclic, 0, lBlock, 0, storeMemAndOS, ins(0), wr, dflt, rd(extractFresh)))
	add("TestExplicitDescriptorInFile", seed(2, 2, 10, lExplicit, 0, lCyclic, 0, storeMem, ins(0), wr, dflt, rd(extractRaw)))
	add("TestSkipInvalidatesPendingExtracts", seed(1, 1, 4, lBlock, 0, lBlock, 0, storeMem, ins(0), wr, ins(0), wr, dflt, readOnly, skipStep, literal(ext(extractRaw))))
	add("TestAlignedCollectionRoundTrip", seed(3, 3, 10, lAligned, 0x45, lBlock, 0, storeMem, ins(0), wr, dflt, rd(extractFresh)))
	add("TestReadAheadStrict", seed(4, 4, 23, lBlock, 0, lBlock, 0, storeStriped, ins(0), wr, ins(0), wr, ins(0), wr,
		input(2, 0, 0, true), readOnly, literal(skipStep)))
	// Sorted reads across writer layout × writer P × reader layout × reader P
	// × refill (direct, two-phase, each with read-ahead, planned), for more
	// elements than either machine and for fewer (empty shares and frames).
	sortedLayouts := []struct {
		name string
		kind byte
		arg  byte
	}{{"BLOCK", lBlock, 0}, {"CYCLIC", lCyclic, 0}, {"BLOCK_CYCLIC(3)", lBlockCyclic, 2}, {"EXPLICIT", lExplicit, 7}, {"ALIGNED", lAligned, 0x81}}
	for _, n := range []int{29, 3} {
		for _, w := range sortedLayouts {
			for _, wp := range []int{1, 3, 4} {
				for _, r := range sortedLayouts {
					for _, rp := range []int{1, 4, 5} {
						steps := [][4]byte{ins(0), ins(1), wr, ins(0), ins(1), wr, ins(0), ins(1), wr}
						for i, open := range [][4]byte{input(0, direct, 0, false), input(0, twoPhase, 0, false), input(2, direct, 0, false), input(1, twoPhase, 0, false), dflt} {
							steps = append(steps, open, rd(byte(i)), rd(byte(i+1)), rd(byte(i+2)))
						}
						add(fmt.Sprintf("TestSortedReadTable/N=%d/%s/P=%d", n, w.name, wp), seed(wp, rp, n, w.kind, w.arg, r.kind, r.arg, storeStriped, steps...))
					}
				}
			}
		}
	}

	// Slices decoded fresh outlive their record, a skip and Close, on a
	// same-layout and a redistributing read, on every refill path.
	for _, rk := range []struct {
		name string
		p    int
		kind byte
	}{{"same layout", 3, lCyclic}, {"redistributed", 4, lBlock}} {
		for _, rf := range []struct {
			name string
			open [4]byte
		}{{"sync", input(0, direct, 0, false)}, {"twophase", input(0, twoPhase, 0, false)}, {"readahead", input(2, direct, 0, false)},
			{"readahead-twophase", input(1, twoPhase, 0, false)}, {"auto", dflt}} {
			add("TestExtractedSlicesOutliveTheRecord/"+rk.name+"/"+rf.name, seed(3, rk.p, 37, lCyclic, 0, rk.kind, 0, storeStriped,
				ins(0), wr, ins(1), wr, ins(0), wr, ins(1), wr, rf.open, rd(extractFresh), rd(extractFresh), skipStep, readOnly))
		}
	}

	// Channels. An M→N grid redistributing between layouts, each record a
	// group of two inserts; the same layout on both ends.
	for _, c := range []struct{ m, n int }{{1, 1}, {2, 2}, {4, 2}, {2, 4}, {1, 3}, {3, 1}} {
		addChan(fmt.Sprintf("TestChannelGrid/%dto%d", c.m, c.n), chanSeed(c.m, c.n, 23, lBlock, 0, lCyclic, 0, c.m+c.n, false,
			slices.Concat(repeat(3, chIns(0), chIns(1), chWr), [][4]byte{chEndOut}, repeat(3, chRd(extractFresh)), [][4]byte{chPastEnd})...))
	}
	addChan("TestChannelSameLayout", chanSeed(2, 2, 16, lBlock, 0, lBlock, 0, 4, false, slices.Concat(repeat(3, chIns(0), chIns(1), chWr), repeat(3, chRd(extractRaw)))...))
	// A window below a frame: every write after the first waits for credit.
	addChan("TestChannelSmallWindow", chanSeed(2, 2, 23, lBlock, 0, lCyclic, 0, 4, true,
		slices.Concat(repeat(4, chIns(0), chIns(1), chWr), repeat(4, chRd(extractRefill)), [][4]byte{chEndOut, chPastEnd})...))
	// A consumer that closes after one record drains the rest, crediting the
	// producers the window holds back.
	addChan("TestChannelEarlyConsumerClose", chanSeed(2, 2, 23, lBlock, 0, lBlock, 0, 4, true,
		append([][4]byte{chIns(0), chWr, chRd(extractFresh), chEnd}, append(repeat(5, chIns(0), chWr), chEndOut)...)...))
	// One element on two consumers: the one that owns none paces on empty
	// frames from producer 0, and sees the end of the stream.
	addChan("TestChannelConsumerWithoutElements", chanSeed(2, 2, 1, lBlock, 0, lBlock, 0, 4, false,
		slices.Concat(repeat(3, chIns(0), chWr), [][4]byte{chEndOut}, repeat(3, chRd(extractFresh)), [][4]byte{chPastEnd})...))
	// Overlapping groups, each rank producing and consuming, writes then
	// reads record by record.
	addChan("TestChannelLoopback", chanSeed(2, 2, 12, lBlock, 0, lCyclic, 0, 2, false,
		append(repeat(3, chIns(0), chWr, chRd(extractFresh)), chEndOut, chPastEnd, chEnd)...))
	// One name carries four channels in a row, each leaving its last credit
	// in the producer's mailbox, under a window that makes every write after
	// the first wait for one.
	var reuse [][4]byte
	for k := range 4 {
		reuse = append(append(reuse, repeat(3, chIns(byte(k)), chWr, chRd(extractRaw))...), chEndOut, chPastEnd, chReopen)
	}
	addChan("TestChannelNameReuse", chanSeed(1, 1, 8, lBlock, 0, lBlock, 0, 2, true, reuse[:len(reuse)-1]...))
	// Groups of one, two and five inserts, empty elements and one element
	// across pool classes among them: what a 2→2 channel's consumers
	// extract is the model's read of the file the inserts write.
	for _, group := range [][][4]byte{{chIns(3)}, {chIns(2), chIns(3)}, {chIns(0), chIns(2), chIns(3), chIns(1), chIns(7)}} {
		addChan("TestChannelDeliversWhatTheFileStores", chanSeed(2, 2, 11, lBlock, 0, lCyclic, 0, 4, false,
			slices.Concat(repeat(2, append(group, chWr)...), repeat(2, chRd(extractRaw)))...))
	}
	addChan("TestChannelExtractedSlicesOutliveTheRecord", chanSeed(2, 2, 37, lBlock, 0, lCyclic, 0, 4, false,
		slices.Concat(repeat(3, chIns(0), chWr), [][4]byte{chEndOut}, repeat(3, chRd(extractFresh)), [][4]byte{chPastEnd})...))

	// Seeds of FuzzStreamVsModel alone. A dstreamd client; an element that
	// crosses pool classes; an aligned writer.
	add("daemon", seed(3, 2, 14, lCyclic, 0, lBlock, 0, storeDaemon, output(twoPhase, 1, false, false), ins(0), ins(2), wr,
		dflt, rd(extractFresh), input(1, direct, 0, false), rd(extractRefill)))
	add("big-element", seed(3, 2, 9, lBlock, 0, lCyclic, 0, storeMem, ins(3), ins(7), wr, dflt, rd(extractRefill), input(1, twoPhase, 0, false), rd(extractRaw)))
	add("aligned", seed(3, 3, 10, lAligned, 0x45, lBlock, 0, storeMem, ins(0), wr, dflt, rd(extractFresh)))
	// Buffers back on every refill path (direct, two-phase, each with
	// read-ahead, planned): a sorted read then a skip then an unsorted read,
	// close after one read, and a read-ahead stream closed with prefetches
	// queued. The test binary's leak check holds them to it.
	steps := [][4]byte{ins(0), wr, ins(0), wr, ins(0), wr}
	for _, open := range [][4]byte{input(0, direct, 0, false), input(0, twoPhase, 0, false), input(2, direct, 0, false), input(1, twoPhase, 0, false), dflt} {
		steps = append(steps, open, rd(extractRaw), skipStep, unsrt(extractRaw), open, readOnly)
	}
	add("buffers", seed(4, 4, 29, lCyclic, 0, lBlock, 0, storeMem, steps...))
	// A planned reader whose rank 0 arrives first at every read, the others
	// skewed: plan origins and signatures equal. The records are empty, so the
	// planner prefetches nothing and each read plans after its skew.
	add("skew", seed(4, 4, 0, lCyclic, 0, lBlock, 0, storeMem, ins(0), wr, ins(0), wr, ins(0), wr, ins(0), wr, dflt,
		skew(0x03), rd(extractFresh), skew(0x01), rd(extractFresh), skew(0x02), rd(extractFresh), skew(0x03), rd(extractFresh)))
	// Outputs opened over a larger image, one of each write shape, each
	// replacing it with one record, on memory and OS files and on a dstreamd.
	big := [][4]byte{ins(0), ins(1), wr, ins(0), wr, ins(3), wr}
	var overs [][4]byte
	for _, o := range [][4]byte{over(funnel, 0, false), over(parallel, 0, false), over(twoPhase, 0, false),
		over(twoPhase, 0, true), over(twoPhase, 1, false), over(funnel, 0, true), over(parallel, 2, true)} {
		overs = append(overs, o, ins(2), wr, dflt, rd(extractFresh))
	}
	add("over", seed(3, 2, 13, lCyclic, 0, lBlock, 0, storeMemAndOS, slices.Concat(big, overs)...))
	add("over-daemon", seed(3, 2, 13, lBlock, 0, lCyclic, 0, storeDaemon, slices.Concat(big, overs[:15])...))
	// A bit flipped in the mode (an unknown mode), in the element count, in
	// NArrays, and in an EXPLICIT owner table.
	add("flip-mode", seed(2, 2, 7, lBlock, 0, lBlock, 0, storeMem, ins(0), wr, ins(0), wr, flipField(1, 4, 2), dflt, rd(extractFresh), dflt, skipStep, rd(extractFresh)))
	add("flip-count", seed(2, 2, 7, lCyclic, 0, lCyclic, 0, storeMem, ins(0), wr, ins(0), wr, flipField(0, 2, 1), dflt, rd(extractFresh), input(1, 0, 0, false), skipStep, nextStep, rd(extractFresh)))
	add("flip-arrays", seed(2, 2, 7, lCyclic, 0, lCyclic, 0, storeMem, ins(0), ins(1), wr, flipField(0, 1, 1), dflt, rd(extractFresh), literal(ext(extractRaw))))
	add("flip-owner", seed(2, 2, 7, lExplicit, 1, lCyclic, 0, storeMem, ins(0), wr, [4]byte{cFlip, 0, 3, 5}, dflt, rd(extractFresh), dflt, nextStep, skipStep))
	return all
}
