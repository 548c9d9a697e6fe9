package critpath

import (
	"math"
	"strings"
	"testing"

	"pcxxstreams/internal/dsmon"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestAnalyzeSynthetic pins the analyzer's three views on a hand-built
// graph: exclusive decomposition with innermost-wins nesting, inclusive
// stall accounts, and the backward walk following a causal edge across
// ranks.
func TestAnalyzeSynthetic(t *testing.T) {
	rec := dsmon.NewRecorder()
	// Rank 0: a write span [1, 5] containing a comm send [2, 3]; idle before 1.
	w := rec.AddSpan(0, "dstream", "ostream.Write f", 1, 5)
	snd := rec.AddSpan(0, "comm", "Send", 2, 3)
	// Rank 1: a receive [2.5, 6] enabled by the send, then a refill stall [6, 8].
	rcv := rec.AddSpan(1, "comm", "Recv", 2.5, 6)
	rd := rec.AddSpan(1, "dstream", "istream.Read f", 6, 8)
	rec.AddFlow(snd, rcv, "msg")

	rep := Analyze(rec)
	if !approx(rep.Makespan, 8) {
		t.Fatalf("makespan = %v, want 8", rep.Makespan)
	}
	if len(rep.Ranks) != 2 {
		t.Fatalf("got %d rank rows, want 2", len(rep.Ranks))
	}
	r0 := rep.Ranks[0].Seconds
	// [0,1] gap → compute; [1,5] write minus the nested comm [2,3]; [5,8] gap.
	if !approx(r0[CatFlush], 3) || !approx(r0[CatComm], 1) || !approx(r0[CatCompute], 4) {
		t.Fatalf("rank 0 decomposition = %v", r0)
	}
	r1 := rep.Ranks[1].Seconds
	if !approx(r1[CatComm], 3.5) || !approx(r1[CatRefill], 2) || !approx(r1[CatCompute], 2.5) {
		t.Fatalf("rank 1 decomposition = %v", r1)
	}
	for _, b := range rep.Ranks {
		if f := b.Named(); !approx(f, 1) {
			t.Fatalf("rank %d named fraction = %v, want 1 (decomposition is exhaustive)", b.Rank, f)
		}
	}
	if !approx(rep.Stalls[CatRefill], 2) || !approx(rep.Stalls[CatFlush], 4) {
		t.Fatalf("stall accounts = %v", rep.Stalls)
	}

	// Backward walk: istream.Read ← Recv ← (msg edge) Send ← same-rank
	// predecessor write? The write [1,5] overlaps the send's start, so the
	// walk ends at the send after charging its start as compute.
	wantPath := []dsmon.SpanID{snd, rcv, rd}
	if len(rep.Steps) != len(wantPath) {
		t.Fatalf("path = %+v, want 3 steps", rep.Steps)
	}
	names := []string{"Send", "Recv", "istream.Read f"}
	for i, st := range rep.Steps {
		if st.Name != names[i] {
			t.Fatalf("path step %d = %+v, want %q", i, st, names[i])
		}
	}
	_ = w
}

// TestQuantileHelpers pins the histogram quantile interpolation the report
// uses: exact bucket math on a known distribution, nil safety, and clamping.
func TestQuantileHelpers(t *testing.T) {
	h := dsmon.NewRegistry().Histogram("q", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 0.5, 1.5, 1.5, 3, 3, 3, 3, 10, 10} {
		h.Observe(v)
	}
	// cum = [2, 4, 8, 10]; p50 → rank 5 inside (2,4]: 2 + (5-4)/4*2 = 2.5.
	if got := h.Quantile(0.5); !approx(got, 2.5) {
		t.Fatalf("p50 = %v, want 2.5", got)
	}
	// p95 → rank 9.5 lands in the +Inf bucket → last finite bound.
	if got := h.Quantile(0.95); !approx(got, 4) {
		t.Fatalf("p95 = %v, want 4 (clamped to last finite bound)", got)
	}
	if got := h.Quantile(0); !approx(got, 0) {
		t.Fatalf("p0 = %v, want 0", got)
	}
	var nilH *dsmon.Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v", got)
	}
}

// TestAnalyzeEmpty: nil and empty recorders yield a well-formed empty report.
func TestAnalyzeEmpty(t *testing.T) {
	for _, rep := range []*Report{Analyze(nil), Analyze(dsmon.NewRecorder())} {
		if rep.Makespan != 0 || len(rep.Ranks) != 0 || len(rep.Steps) != 0 {
			t.Fatalf("non-empty report from empty recorder: %+v", rep)
		}
		var sb strings.Builder
		if err := rep.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "no spans recorded") {
			t.Fatalf("empty-report text = %q", sb.String())
		}
	}
}

// TestPublish: the per-category gauges land in the registry under
// critpath_seconds{category=…} and sum over ranks.
func TestPublish(t *testing.T) {
	rec := dsmon.NewRecorder()
	rec.AddSpan(0, "dstream", "istream.Read f", 0, 2)
	rec.AddSpan(1, "dstream", "istream.Read f", 1, 2)
	rep := Analyze(rec)
	reg := dsmon.NewRegistry()
	rep.Publish(reg)
	if got := reg.Gauge("critpath_seconds", "", "category", CatRefill).Value(); !approx(got, 3) {
		t.Fatalf("critpath_seconds{category=refill} = %v, want 3", got)
	}
	if got := reg.Gauge("critpath_seconds", "", "category", CatCompute).Value(); !approx(got, 1) {
		t.Fatalf("critpath_seconds{category=compute} = %v, want 1", got)
	}
}

// TestNamedIsOrderIndependent pins Named() to one summation order: with
// values whose sum depends on the order they are added in (1e16 + 1 - 1e16
// is 0 or 1), a map-iteration-order sum flips between calls; the sorted-key
// sum cannot. BENCH_critpath.json's named_fraction_min depends on it.
func TestNamedIsOrderIndependent(t *testing.T) {
	b := RankBreakdown{Total: 1, Seconds: map[string]float64{"a": 1e16, "b": 1, "c": -1e16}}
	first := b.Named()
	for i := 0; i < 200; i++ {
		if got := b.Named(); got != first {
			t.Fatalf("call %d: Named() = %v, first call returned %v", i, got, first)
		}
	}
}
