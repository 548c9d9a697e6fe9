package dsmon

import "io"

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
func New() *Monitor { return &Monitor{reg: NewRegistry()} }

// NewTracing creates a monitor that also records spans into a fresh
// Recorder, for Chrome-trace / Gantt output.
func NewTracing() *Monitor { return &Monitor{reg: NewRegistry(), rec: NewRecorder()} }

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
