// Package telemetry serves a machine run's live observability surface over
// HTTP. Endpoints:
//
//	/healthz       liveness probe ("ok")
//	/metrics       Prometheus text exposition of the monitor's registry
//	/trace         Chrome trace-event JSON (load in chrome://tracing or Perfetto)
//	/critpath      critical-path attribution report (text; ?format=json)
//	/debug/vars    JSON snapshot of runtime stats plus all metrics
//	/debug/pprof/  the process's pprof profiles (net/http/pprof's handlers)
//
// All endpoints are safe to hit mid-run: expositions take consistent deep
// snapshots under the registry and recorder locks, so a scrape races with
// rank goroutines without torn reads. A program serves a run by calling Serve
// with the run's monitor before machine.Run and Close after it.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dsmon/critpath"
)

// Server is a live telemetry endpoint bound to one primary monitor, plus
// any number of attached registries (see Attach): one /metrics page covers
// them all, each attached registry's samples stamped with a registry label.
type Server struct {
	mon *dsmon.Monitor
	ln  net.Listener
	srv *http.Server

	mu       sync.Mutex
	closed   bool
	attached []attachment
}

// attachment is one extra registry exposed under a registry="<name>" label.
type attachment struct {
	name string
	mon  *dsmon.Monitor
}

// Attach adds another monitor's registry to the /metrics and /debug/vars
// expositions. Its samples are stamped with a registry="<name>" label, so a
// multi-tenant daemon serves every tenant's metrics from one port instead of
// one server per registry. Attaching the same name again replaces the
// earlier registry; safe to call while the server is serving.
func (s *Server) Attach(name string, mon *dsmon.Monitor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, a := range s.attached {
		if a.name == name {
			s.attached[i].mon = mon
			return
		}
	}
	s.attached = append(s.attached, attachment{name: name, mon: mon})
}

// Detach removes a previously attached registry. Unknown names are no-ops.
func (s *Server) Detach(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, a := range s.attached {
		if a.name == name {
			s.attached = append(s.attached[:i], s.attached[i+1:]...)
			return
		}
	}
}

// registries snapshots the exposition set: the primary registry unlabeled,
// attached registries under their registry label.
func (s *Server) registries() []dsmon.LabeledRegistry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]dsmon.LabeledRegistry, 0, 1+len(s.attached))
	out = append(out, dsmon.LabeledRegistry{Reg: s.mon.Registry()})
	for _, a := range s.attached {
		out = append(out, dsmon.LabeledRegistry{Reg: a.mon.Registry(), Labels: []string{"registry", a.name}})
	}
	return out
}

// Serve starts an HTTP server on addr (":0" picks a free port) exposing
// mon's metrics and trace. It returns once the listener is bound; requests
// are served on a background goroutine until Close.
func Serve(addr string, mon *dsmon.Monitor) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{mon: mon, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/trace", s.trace)
	mux.HandleFunc("/critpath", s.critpath)
	mux.HandleFunc("/debug/vars", s.vars)
	// On this mux, not http.DefaultServeMux, which nothing here serves.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.srv.Close()
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	regs := s.registries()
	if len(regs) == 1 {
		s.mon.WritePrometheus(w) //nolint:errcheck // client went away
		return
	}
	dsmon.WritePrometheusMerged(w, regs...) //nolint:errcheck // client went away
}

func (s *Server) trace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.mon.WriteChromeJSON(w) //nolint:errcheck
}

func (s *Server) critpath(w http.ResponseWriter, r *http.Request) {
	rep := critpath.Analyze(s.mon.Recorder())
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		rep.WriteJSON(w) //nolint:errcheck
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rep.WriteText(w) //nolint:errcheck
}

func (s *Server) vars(w http.ResponseWriter, _ *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := map[string]any{
		"goroutines":  runtime.NumGoroutine(),
		"heap_alloc":  ms.HeapAlloc,
		"total_alloc": ms.TotalAlloc,
		"num_gc":      ms.NumGC,
		"metrics":     s.mon.Registry().Snapshot(),
		"trace_spans": 0,
	}
	s.mu.Lock()
	attached := append([]attachment(nil), s.attached...)
	s.mu.Unlock()
	if len(attached) > 0 {
		reg := make(map[string]dsmon.Snapshot, len(attached))
		for _, a := range attached {
			reg[a.name] = a.mon.Registry().Snapshot()
		}
		out["attached"] = reg
	}
	if rec := s.mon.Recorder(); rec != nil {
		out["trace_spans"] = rec.Len()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(out) //nolint:errcheck
}
