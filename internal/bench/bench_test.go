package bench

import (
	"fmt"
	"strings"
	"testing"

	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/vtime"
)

// TestTablesReproduceShape regenerates every table (with data verification)
// and asserts the DESIGN.md shape criteria.
func TestTablesReproduceShape(t *testing.T) {
	for _, spec := range Tables() {
		spec := spec
		t.Run(spec.Title, func(t *testing.T) {
			res, err := RunTable(spec, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.CheckShape(); err != nil {
				var b strings.Builder
				res.Format(&b)
				t.Fatalf("%v\n%s", err, b.String())
			}
		})
	}
}

// TestTablesWithinFactorOfPaper: every regenerated cell is within 2× of the
// published number — we reproduce shape, but the absolute levels should not
// drift wildly either.
func TestTablesWithinFactorOfPaper(t *testing.T) {
	const factor = 2.0
	for _, spec := range Tables() {
		res, err := RunTable(spec, false)
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string, got, paper []float64) {
			for i := range got {
				lo, hi := paper[i]/factor, paper[i]*factor
				if got[i] < lo || got[i] > hi {
					t.Errorf("table %d %s col %d: %.2f outside [%.2f, %.2f] (paper %.2f)",
						spec.ID, label, i, got[i], lo, hi, paper[i])
				}
			}
		}
		check("unbuffered", res.Unbuffered, spec.PaperUnbuffered)
		check("manual", res.Manual, spec.PaperManual)
		check("streams", res.Streams, spec.PaperStreams)
	}
}

func TestTableByID(t *testing.T) {
	for id := 1; id <= 4; id++ {
		spec, err := TableByID(id)
		if err != nil || spec.ID != id {
			t.Fatalf("TableByID(%d) = %+v, %v", id, spec.ID, err)
		}
	}
	if _, err := TableByID(9); err == nil {
		t.Fatal("TableByID(9) succeeded")
	}
}

func TestSecondsUnknownVariant(t *testing.T) {
	if _, err := Seconds(Run{Profile: vtime.Challenge(), NProcs: 1, Segments: 4, Variant: Variant(99)}); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestVariantStrings(t *testing.T) {
	for v, want := range map[Variant]string{
		Unbuffered:    "Unbuffered I/O",
		ManualBuf:     "Manual Buffering",
		Streams:       "pC++/streams",
		StreamsSorted: "pC++/streams (sorted read)",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q", v, v.String())
		}
	}
}

// TestAblationTable runs every row of the table the two drivers iterate, once,
// at its committed cell: unique names, a label for every value, a listing.
func TestAblationTable(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Ablations() {
		if a.Name == "" || seen[a.Name] {
			t.Errorf("ablation name %q is empty or appears twice", a.Name)
		}
		seen[a.Name] = true
		v, err := a.Measure(a.Cell)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if len(v) != len(a.Labels) || len(v) < 2 {
			t.Fatalf("%s: %d values for labels %v", a.Name, len(v), a.Labels)
		}
		for i, sec := range v {
			if sec <= 0 {
				t.Errorf("%s: %s = %v virtual seconds", a.Name, a.Labels[i], sec)
			}
		}
		if !strings.HasSuffix(a.Report(a.Cell, v), "\n") {
			t.Errorf("%s: report does not end its line", a.Name)
		}
	}
}

func TestAblationSortedVsUnsorted(t *testing.T) {
	v, err := sortedVsUnsorted(Run{Profile: vtime.Paragon(), NProcs: 4, Segments: 512})
	if err != nil {
		t.Fatal(err)
	}
	if sorted, unsorted := v[0], v[1]; unsorted >= sorted {
		t.Fatalf("unsortedRead (%v) not faster than read (%v)", unsorted, sorted)
	}
}

func TestAblationMetadataPath(t *testing.T) {
	// Small collection: funnel should win (that's why the paper funnels).
	v, err := metadataPath(Run{Profile: vtime.Paragon(), NProcs: 8, Segments: 64})
	if err != nil {
		t.Fatal(err)
	}
	if funnel, parallel := v[0], v[1]; funnel > parallel {
		t.Errorf("small collection: funnel (%v) slower than parallel (%v)", funnel, parallel)
	}
}

func TestAblationInterleave(t *testing.T) {
	v, err := interleave(Run{Profile: vtime.Paragon(), NProcs: 4, Segments: 256})
	if err != nil {
		t.Fatal(err)
	}
	if inter, sep := v[0], v[1]; inter >= sep {
		t.Fatalf("interleaved single record (%v) not cheaper than %v separate records (%v)",
			inter, 5, sep)
	}
}

func TestAblationFlushGranularity(t *testing.T) {
	cell := Run{Profile: vtime.Paragon(), NProcs: 4, Segments: 512}
	v, err := each(cell, []int{1, 8}, flushSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if one, many := v[0], v[1]; one >= many {
		t.Fatalf("1 flush (%v) not cheaper than 8 flushes (%v)", one, many)
	}
	cell.Segments = 10
	if _, err := flushSeconds(cell, 3); err == nil {
		t.Fatal("non-divisible flush count accepted")
	}
}

func TestAblationRedistribute(t *testing.T) {
	v, err := redistribute(Run{Profile: vtime.Paragon(), NProcs: 4, Segments: 256})
	if err != nil {
		t.Fatal(err)
	}
	if same, changed := v[0], v[1]; same >= changed {
		t.Fatalf("same-layout restart (%v) not cheaper than redistributing restart (%v)", same, changed)
	}
}

func TestAblationTransportVirtualTimesEqual(t *testing.T) {
	v, err := transports(Run{Profile: vtime.Challenge(), NProcs: 4, Segments: 64})
	if err != nil {
		t.Fatal(err)
	}
	if chanS, tcpS := v[0], v[1]; chanS != tcpS {
		t.Fatalf("virtual time differs by transport: chan %v, tcp %v", chanS, tcpS)
	}
}

// TestStreamOptsPlumbed: explicit strategies produce a working run.
func TestStreamOptsPlumbed(t *testing.T) {
	for _, strat := range []dstream.Strategy{dstream.StrategyAuto, dstream.StrategyFunnel, dstream.StrategyParallel} {
		if _, err := Seconds(Run{
			Profile: vtime.Challenge(), NProcs: 2, Segments: 16,
			Variant: Streams, StreamOpts: dstream.Options{Strategy: strat}, Verify: true,
		}); err != nil {
			t.Fatalf("strategy %v: %v", strat, err)
		}
	}
}

// TestSortedVariantVerifies: the sorted-read variant round-trips data too.
func TestSortedVariantVerifies(t *testing.T) {
	if _, err := Seconds(Run{
		Profile: vtime.Challenge(), NProcs: 3, Segments: 30,
		Variant: StreamsSorted, Verify: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOpProfileStory: the mechanism behind every table — unbuffered issues
// thousands of small calls; the buffered variants a handful of parallel
// ones; streams adds only metadata ops over manual buffering.
func TestOpProfileStory(t *testing.T) {
	const nprocs, segments = 4, 256
	measure := func(v Variant) Measurement {
		m, err := Measure(Run{Profile: vtime.Paragon(), NProcs: nprocs, Segments: segments, Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	unbuf := measure(Unbuffered)
	manual := measure(ManualBuf)
	streams := measure(Streams)

	// Unbuffered: 8 calls per segment per phase (count + 7 arrays).
	wantSmall := int64(segments * 8)
	if unbuf.IO.IndependentWrites != wantSmall || unbuf.IO.IndependentReads != wantSmall {
		t.Fatalf("unbuffered small ops = %d/%d, want %d each",
			unbuf.IO.IndependentWrites, unbuf.IO.IndependentReads, wantSmall)
	}
	if unbuf.IO.ParallelAppends != 0 || unbuf.IO.ParallelReads != 0 {
		t.Fatal("unbuffered used parallel ops")
	}
	// Manual: exactly one parallel op per phase, zero small data ops.
	if manual.IO.ParallelAppends != 1 || manual.IO.ParallelReads != 1 {
		t.Fatalf("manual parallel ops = %d/%d, want 1/1",
			manual.IO.ParallelAppends, manual.IO.ParallelReads)
	}
	if manual.IO.IndependentWrites != 0 || manual.IO.IndependentReads != 0 {
		t.Fatal("manual buffering issued small ops")
	}
	// Streams: same parallel op count, plus a handful of metadata calls.
	if streams.IO.ParallelAppends != 1 || streams.IO.ParallelReads != 1 {
		t.Fatalf("streams parallel ops = %d/%d, want 1/1",
			streams.IO.ParallelAppends, streams.IO.ParallelReads)
	}
	metaOps := streams.IO.IndependentWrites + streams.IO.IndependentReads
	if metaOps == 0 || metaOps > 8 {
		t.Fatalf("streams metadata ops = %d, want a small handful", metaOps)
	}
	// Streams' extra file bytes are exactly the bookkeeping: the file and
	// record headers, the size table (4 B/element), and the length prefixes
	// of the seven variable arrays plus the wider count (28 B/element) that
	// make the format self-describing.
	extra := streams.IO.BytesWritten - manual.IO.BytesWritten
	wantExtra := int64(16 + 56 + segments*4 + segments*28)
	if extra != wantExtra {
		t.Fatalf("streams metadata bytes = %d, want %d", extra, wantExtra)
	}
	// Manual moves exactly the raw payload.
	wantBytes := int64(segments) * scf.RawBytes(scf.DefaultParticles)
	if manual.IO.BytesWritten != wantBytes {
		t.Fatalf("manual bytes = %d, want %d", manual.IO.BytesWritten, wantBytes)
	}
	// Messages: streams needs collectives for its metadata (size gather,
	// header broadcast) on top of the harness's own barrier; manual
	// buffering needs only that barrier.
	if streams.MessagesSent <= manual.MessagesSent {
		t.Fatalf("streams messages (%d) not above manual's (%d) — metadata collectives missing",
			streams.MessagesSent, manual.MessagesSent)
	}
}

// TestPlatformSweepOrdering: on every platform, at benchmark scale,
// buffered beats unbuffered and manual is the floor.
func TestPlatformSweepOrdering(t *testing.T) {
	results, err := RunPlatformSweep(Run{NProcs: 4, Segments: 512})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, r := range results {
		byKey[fmt.Sprintf("%s/%d", r.Profile, r.Variant)] = r.Seconds
	}
	for _, p := range []string{"paragon", "cm5", "challenge"} {
		u := byKey[fmt.Sprintf("%s/%d", p, Unbuffered)]
		m := byKey[fmt.Sprintf("%s/%d", p, ManualBuf)]
		s := byKey[fmt.Sprintf("%s/%d", p, Streams)]
		if u == 0 || m == 0 || s == 0 {
			t.Fatalf("%s: missing results", p)
		}
		if u <= m {
			t.Errorf("%s: unbuffered (%v) not slower than manual (%v)", p, u, m)
		}
		if s <= m {
			t.Errorf("%s: streams (%v) not slower than manual (%v)", p, s, m)
		}
	}
}

func TestOpProfileFormats(t *testing.T) {
	var b strings.Builder
	if err := OpProfile(&b, Run{Profile: vtime.Challenge(), NProcs: 2, Segments: 16}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Unbuffered I/O", "Manual Buffering", "pC++/streams", "opens"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
}

// TestAblationAsyncOverlap: with real computation between writes, the
// write-behind stream overlaps I/O and compute; the synchronous stream
// serializes them. The async elapsed time must be materially shorter and
// bounded below by both the total compute and the total I/O.
func TestAblationAsyncOverlap(t *testing.T) {
	const rounds, compute = 4, 0.5
	v, err := asyncOverlap(Run{Profile: vtime.Paragon(), NProcs: 4, Segments: 512, Records: rounds, Compute: compute})
	if err != nil {
		t.Fatal(err)
	}
	syncT, asyncT := v[0], v[1]
	if asyncT >= syncT {
		t.Fatalf("async (%v) not faster than sync (%v)", asyncT, syncT)
	}
	if asyncT < rounds*compute {
		t.Fatalf("async (%v) finished before its own computation (%v)", asyncT, float64(rounds)*compute)
	}
	// The saving should be a significant share of the I/O time.
	if syncT-asyncT < 0.2 {
		t.Fatalf("overlap saved only %v seconds", syncT-asyncT)
	}
}

// TestScalingSweep: the extension strong-scaling sweep runs, shows speedup
// from 1 to 4 nodes, and reports the shape each size ran: flat through 16
// nodes, the tree at 32 — which, on this I/O-bound workload, must not cost a
// meaningful margin over the flat 16-node point beside it.
func TestScalingSweep(t *testing.T) {
	pts, err := RunScalingSweep(Run{Profile: vtime.Challenge(), Segments: 1024}, []int{1, 4, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[1].Seconds >= pts[0].Seconds {
		t.Fatalf("no speedup 1→4 nodes: %v → %v", pts[0].Seconds, pts[1].Seconds)
	}
	for _, p := range pts {
		if (p.Fanout != 0) != (p.NProcs > 16) {
			t.Fatalf("%d nodes report fan-out %d", p.NProcs, p.Fanout)
		}
	}
	if pts[3].Seconds > pts[2].Seconds*1.25 {
		t.Fatalf("tree collectives at 32 nodes (%v) far off the flat 16-node point (%v)", pts[3].Seconds, pts[2].Seconds)
	}
}

// TestTreeCollectivesFullPipeline: the whole streams pipeline works (and
// verifies) at a size whose collectives take the tree shape.
func TestTreeCollectivesFullPipeline(t *testing.T) {
	m, err := Measure(Run{
		Profile: vtime.Paragon(), NProcs: 24, Segments: 96,
		Variant: StreamsSorted, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Fanout == 0 {
		t.Fatal("24 nodes ran the flat collectives")
	}
}

// TestWeakScalingSweep: with segments growing proportionally to nodes, the
// time per node grows far slower than the data (the disk-bound baseline on
// challenge's multiple channels keeps per-node time near-flat up to the
// channel count).
func TestWeakScalingSweep(t *testing.T) {
	pts, err := RunWeakScalingSweep(Run{Profile: vtime.Challenge(), Segments: 256}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	// 4x the data on 4x the nodes: time should grow far less than 4x.
	if pts[1].Seconds > pts[0].Seconds*2.5 {
		t.Fatalf("weak scaling broke down: 1 node %v, 4 nodes (4x data) %v",
			pts[0].Seconds, pts[1].Seconds)
	}
}
