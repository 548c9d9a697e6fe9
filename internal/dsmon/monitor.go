package dsmon

import (
	"io"

	"pcxxstreams/internal/bufpool"
)

// Monitor is a run's one observability handle: the metrics Registry and an
// optional Recorder for virtual-time spans. One Monitor serves one machine
// run; hand it to machine.Config.Monitor and every layer — comm,
// collective, pfs, dstream — lights up. Layers that trace take the
// recorder once (Recorder()) and call its nil-safe methods.
//
// A nil *Monitor is a valid no-op sink, as a nil *Recorder is.
type Monitor struct {
	reg *Registry
	rec *Recorder
}

// New creates a monitor with a metrics registry but no span recorder —
// counters, gauges and histograms only.
func New() *Monitor { return &Monitor{reg: poolRegistry()} }

// NewTracing creates a monitor that also records spans into a fresh
// Recorder, for Chrome-trace / Gantt output.
func NewTracing() *Monitor { return &Monitor{reg: poolRegistry(), rec: NewRecorder()} }

// poolRegistry is a monitor's registry: a fresh one that exports the buffer
// pool's statistics, process-global atomics, as bufpool_* gauges refreshed
// at every gather. The registry alone holds its collector, so a monitor that
// is dropped takes both with it.
func poolRegistry() *Registry {
	reg := NewRegistry()
	hits := reg.Gauge("bufpool_hits_total", "Buffer pool Gets served from the pool.")
	misses := reg.Gauge("bufpool_misses_total", "Buffer pool Gets that allocated a fresh buffer.")
	puts := reg.Gauge("bufpool_puts_total", "Buffers returned to the pool.")
	discards := reg.Gauge("bufpool_discards_total", "Put buffers rejected (non-class capacity) and left to the GC.")
	oversize := reg.Gauge("bufpool_oversize_total", "Gets above the largest size class, served by plain allocation.")
	outstanding := reg.Gauge("bufpool_outstanding", "Pool-backed buffers currently held by callers.")
	reg.SetCollector("bufpool", func() {
		st := bufpool.Stats()
		hits.Set(float64(st.Hits))
		misses.Set(float64(st.Misses))
		puts.Set(float64(st.Puts))
		discards.Set(float64(st.Discards))
		oversize.Set(float64(st.Oversize))
		outstanding.Set(float64(st.Outstanding))
	})
	return reg
}

// Registry returns the metrics registry (nil on a nil monitor; the
// registry's handle constructors are nil-safe in turn).
func (m *Monitor) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Recorder returns the span recorder, nil when the monitor does not trace.
func (m *Monitor) Recorder() *Recorder {
	if m == nil {
		return nil
	}
	return m.rec
}

// WritePrometheus renders the metrics in Prometheus text format.
func (m *Monitor) WritePrometheus(w io.Writer) error {
	return m.Registry().WritePrometheus(w)
}

// WriteJSON renders the metrics snapshot as JSON.
func (m *Monitor) WriteJSON(w io.Writer) error {
	return m.Registry().WriteJSON(w)
}

// WriteChromeJSON renders the span timeline in Chrome trace-viewer format
// (empty timeline when the monitor does not trace).
func (m *Monitor) WriteChromeJSON(w io.Writer) error {
	return m.Recorder().WriteChromeJSON(w)
}
