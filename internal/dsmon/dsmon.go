// Package dsmon is the observability layer of the d/stream stack: one
// per-run metrics registry (atomic counters, gauges, and fixed-bucket
// histograms) plus the span Recorder that keeps the run's virtual-time
// timeline and its causal edges. The paper's whole argument is quantitative — its tables explain
// buffered vs. unbuffered I/O by counting operations and accounting where
// virtual time goes — and dsmon makes the same accounting available for
// every layer at run time: message sizes and receive waits in comm,
// collective latencies, PFS operation sizes and durations, and the
// d/stream buffer behaviour itself (fill levels, flush/refill stalls, and
// the blocked-vs-overlapped split of asynchronous write-behind).
//
// Everything is nil-safe: a nil *Registry hands out nil metric handles
// whose methods are no-ops, and a nil *Monitor records nothing, so
// instrumented code needs no conditionals and an unmonitored run pays only
// a nil check per operation.
//
// Three expositions are provided: Prometheus-style text (WritePrometheus),
// a JSON snapshot (WriteJSON), and — through the monitor's Recorder —
// Chrome trace-viewer JSON whose events carry the io, comm, collective and
// dstream categories.
package dsmon

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// desc identifies one metric: a family name, a help line shared by the
// family, and an optional set of label pairs rendered Prometheus-style.
type desc struct {
	name   string
	help   string
	labels string // rendered `key="value",…` in key order; "" when unlabeled
}

// key is the registry map key: name plus rendered labels.
func (d desc) key() string { return d.name + "{" + d.labels + "}" }

// renderLabels turns variadic key, value, key, value… pairs into the
// canonical rendered form. Panics on an odd count (a programming error at
// an instrumentation site, not a runtime condition).
func renderLabels(kv []string) string {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("dsmon: odd label list %q", kv))
	}
	n := len(kv) / 2
	pairs := make([]string, n)
	for i := 0; i < n; i++ {
		pairs[i] = kv[2*i] + `="` + kv[2*i+1] + `"`
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// Counter is a monotonically increasing integer metric. The zero value is
// usable; a nil *Counter is a no-op.
type Counter struct {
	d desc
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move both ways (buffer fill levels).
// A nil *Gauge is a no-op.
type Gauge struct {
	d    desc
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by d (negative to decrease), atomically.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// bucket i counts observations ≤ bounds[i]; one implicit +Inf bucket). A
// nil *Histogram is a no-op.
type Histogram struct {
	d       desc
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values — e.g. the total virtual
// seconds stalled, when the histogram observes stall durations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Default bucket boundaries. Sizes are bytes (message payloads, I/O
// transfers, buffer flushes); latencies are virtual seconds.
var (
	// SizeBuckets spans one cache line to multi-megabyte parallel transfers.
	SizeBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20}
	// LatencyBuckets spans sub-microsecond overheads to multi-second stalls.
	LatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 30}
)

// Registry holds one run's metrics. Handles are get-or-create: two sites
// asking for the same name and labels share one metric, so e.g. every
// stream's flush histogram aggregates into a single family. All methods
// are safe for concurrent use; a nil *Registry returns nil handles.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func()
}

// AddCollector registers a hook that runs at the start of every gather —
// before WritePrometheus, WriteJSON, or Snapshot reads the metrics. It is
// the place to refresh gauges whose source of truth lives elsewhere (e.g.
// the buffer-pool statistics, which are process-global atomics rather than
// per-event instrument calls). Collectors run outside the registry lock and
// may therefore create or set metrics.
func (r *Registry) AddCollector(f func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. labels are
// key, value pairs baked into the metric's identity.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	d := desc{name: name, help: help, labels: renderLabels(labels)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[d.key()]; ok {
		return c
	}
	c := &Counter{d: d}
	r.counters[d.key()] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	d := desc{name: name, help: help, labels: renderLabels(labels)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[d.key()]; ok {
		return g
	}
	g := &Gauge{d: d}
	r.gauges[d.key()] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending) on first use. Later calls reuse the first
// call's buckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	d := desc{name: name, help: help, labels: renderLabels(labels)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[d.key()]; ok {
		return h
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	if !sort.Float64sAreSorted(b) {
		panic(fmt.Sprintf("dsmon: histogram %q bounds not ascending: %v", name, bounds))
	}
	h := &Histogram{d: d, bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
	r.hists[d.key()] = h
	return h
}
