package dsmon

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "help")
	g := r.Gauge("x", "help")
	h := r.Histogram("x_seconds", "help", LatencyBuckets)
	c.Add(3)
	c.Inc()
	g.Set(1)
	g.Add(-2)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles not inert")
	}
	var m *Monitor
	m.Recorder().Add(0, "comm", "Send", 0, 1)
	if m.Registry() != nil || m.Recorder() != nil {
		t.Fatal("nil monitor leaked state")
	}
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
}

func TestGetOrCreateShares(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ops_total", "ops", "op", "write")
	b := r.Counter("ops_total", "ops", "op", "write")
	other := r.Counter("ops_total", "ops", "op", "read")
	if a != b {
		t.Fatal("same name+labels did not share a handle")
	}
	if a == other {
		t.Fatal("different labels shared a handle")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatalf("shared counter = %d", b.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sz_bytes", "sizes", []float64{10, 100})
	for _, v := range []float64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1022 {
		t.Fatalf("sum = %v", h.Sum())
	}
	// Cumulative: le=10 → 2 (1 and 10 inclusive), le=100 → 3, +Inf → 4.
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	want := []int64{2, 3, 4}
	for i, w := range want {
		if hs.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, hs.Buckets[i], w, hs.Buckets)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("comm_messages_sent_total", "messages sent").Add(7)
	r.Gauge("dstream_buffer_fill_bytes", "bytes buffered").Set(42)
	h := r.Histogram("collective_latency_seconds", "latency", []float64{0.001, 1}, "op", "barrier")
	h.Observe(0.0005)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP comm_messages_sent_total messages sent",
		"# TYPE comm_messages_sent_total counter",
		"comm_messages_sent_total 7",
		"# TYPE dstream_buffer_fill_bytes gauge",
		"dstream_buffer_fill_bytes 42",
		"# TYPE collective_latency_seconds histogram",
		`collective_latency_seconds_bucket{op="barrier",le="0.001"} 1`,
		`collective_latency_seconds_bucket{op="barrier",le="1"} 1`,
		`collective_latency_seconds_bucket{op="barrier",le="+Inf"} 2`,
		`collective_latency_seconds_sum{op="barrier"} 2.0005`,
		`collective_latency_seconds_count{op="barrier"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJSONSnapshotRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("pfs_ops_total", "ops", "op", "parallel_append").Add(3)
	r.Histogram("comm_message_size_bytes", "sizes", SizeBuckets).Observe(500)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 3 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.Counters[0].Labels["op"] != "parallel_append" {
		t.Fatalf("labels = %v", snap.Counters[0].Labels)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
}

// Concurrent hammering of every metric kind; run under -race this proves
// the handles are safe from many node goroutines at once.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c_total", "c")
			g := r.Gauge("g", "g")
			h := r.Histogram("h_seconds", "h", LatencyBuckets)
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "c").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g", "g").Value(); got != workers*per {
		t.Fatalf("gauge = %v", got)
	}
	if got := r.Histogram("h_seconds", "h", LatencyBuckets).Count(); got != workers*per {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestMonitorSpans(t *testing.T) {
	m := NewTracing()
	m.Recorder().Add(1, "dstream", "ostream.Write", 0.5, 1.5)
	evs := m.Recorder().Events()
	if len(evs) != 1 || evs[0].Cat != "dstream" || evs[0].Node != 1 {
		t.Fatalf("events = %+v", evs)
	}
	var b strings.Builder
	if err := m.WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"cat": "dstream"`) {
		t.Fatalf("chrome JSON missing category:\n%s", b.String())
	}
	// A non-tracing monitor silently drops spans.
	plain := New()
	plain.Recorder().Add(0, "comm", "Send", 0, 1)
	if plain.Recorder() != nil {
		t.Fatal("New() should not trace")
	}
}
