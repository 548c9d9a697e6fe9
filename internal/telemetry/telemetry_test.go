package telemetry_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/telemetry"
	"pcxxstreams/internal/vtime"
)

func get(addr, path string) (int, string, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

func jsonKeys(body string, keys ...string) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		return err
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return fmt.Errorf("missing key %q", k)
		}
	}
	return nil
}

// TestServeMidRun serves a run's monitor around machine.Run and scrapes
// every endpoint while the run is still in flight: rank 0 parks after the
// write phase until the scraper goroutine has seen all five endpoints, so
// each GET races against live metric and span mutation — which is exactly
// what -race is checking here.
func TestServeMidRun(t *testing.T) {
	mon := dsmon.NewTracing()
	srv, err := telemetry.Serve("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	midRun := make(chan struct{})
	scraped := make(chan struct{})

	go func() {
		defer close(scraped)
		<-midRun

		if code, body, err := get(addr, "/healthz"); err != nil || code != 200 || body != "ok\n" {
			t.Errorf("/healthz = %d %q (%v)", code, body, err)
		}
		code, body, err := get(addr, "/metrics")
		if err != nil || code != 200 {
			t.Errorf("/metrics = %d (%v)", code, err)
		}
		if !strings.Contains(body, "# TYPE ") || !strings.Contains(body, "comm_messages_sent_total") {
			t.Errorf("/metrics missing expected exposition lines:\n%.400s", body)
		}
		code, body, err = get(addr, "/trace")
		if err != nil || code != 200 {
			t.Errorf("/trace = %d (%v)", code, err)
		}
		if err := jsonKeys(body, "traceEvents"); err != nil {
			t.Errorf("/trace body: %v", err)
		}
		code, body, err = get(addr, "/critpath")
		if err != nil || code != 200 {
			t.Errorf("/critpath = %d (%v)", code, err)
		}
		if !strings.HasPrefix(body, "critical-path analysis:") {
			t.Errorf("/critpath body = %.120q", body)
		}
		code, body, err = get(addr, "/critpath?format=json")
		if err != nil || code != 200 {
			t.Errorf("/critpath?format=json = %d (%v)", code, err)
		}
		if err := jsonKeys(body, "makespan", "ranks"); err != nil {
			t.Errorf("/critpath json body: %v", err)
		}
		code, body, err = get(addr, "/debug/vars")
		if err != nil || code != 200 {
			t.Errorf("/debug/vars = %d (%v)", code, err)
		}
		if err := jsonKeys(body, "goroutines", "metrics", "trace_spans"); err != nil {
			t.Errorf("/debug/vars body: %v", err)
		}
	}()

	_, err = machine.Run(machine.Config{NProcs: 2, Profile: vtime.CM5(), Monitor: mon}, func(n *machine.Node) error {
		d, err := distr.New(8, 2, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		c, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		c.Apply(func(g int, s *scf.Segment) { s.Fill(g, 8) })
		s, err := dstream.Open(n, d, "t", dstream.WithStrategy(dstream.StrategyFunnel))
		if err != nil {
			return err
		}
		if err := dstream.Insert[scf.Segment](s, c); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}
		// Park rank 0 until the scraper has hit every endpoint so the GETs
		// observe a run that is genuinely still in progress.
		if n.Rank() == 0 {
			close(midRun)
			<-scraped
		}
		return nil
	})
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := get(addr, "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// TestServePprof: the pprof handlers are on the server's own mux.
func TestServePprof(t *testing.T) {
	srv, err := telemetry.Serve("127.0.0.1:0", dsmon.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		if code, body, err := get(srv.Addr(), path); err != nil || code != 200 || !strings.Contains(body, "goroutine") {
			t.Errorf("%s = %d (%v):\n%.200s", path, code, err, body)
		}
	}
}

// TestServeAddrAndClose pins the standalone server lifecycle: ":0" binds a
// real port, Addr reports it, and Close is idempotent and actually stops
// the listener.
func TestServeAddrAndClose(t *testing.T) {
	srv, err := telemetry.Serve("127.0.0.1:0", dsmon.NewTracing())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if !strings.HasPrefix(addr, "127.0.0.1:") || strings.HasSuffix(addr, ":0") {
		t.Fatalf("Addr() = %q, want a bound port", addr)
	}
	if code, body, err := get(addr, "/healthz"); err != nil || code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q (%v)", code, body, err)
	}
	srv.Close()
	srv.Close() // idempotent
	if _, _, err := get(addr, "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// TestAttachMultiRegistry pins the multi-registry exposition: one /metrics
// page covers the primary registry plus every attached one, attached samples
// stamped with registry="<name>", colliding family names emitting exactly
// one # TYPE header, and Detach removing a tenant's rows again.
func TestAttachMultiRegistry(t *testing.T) {
	primary := dsmon.New()
	primary.Registry().Counter("daemon_up", "daemon liveness").Inc()

	srv, err := telemetry.Serve("127.0.0.1:0", primary)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	monA, monB := dsmon.New(), dsmon.New()
	// The same family in both registries — and in the primary — must merge
	// under a single # TYPE header.
	primary.Registry().Counter("shared_ops_total", "ops").Add(1)
	monA.Registry().Counter("shared_ops_total", "ops").Add(2)
	monB.Registry().Counter("shared_ops_total", "ops", "op", "read").Add(3)
	srv.Attach("tenant-a", monA)
	srv.Attach("tenant-b", monB)

	code, body, err := get(srv.Addr(), "/metrics")
	if err != nil || code != 200 {
		t.Fatalf("/metrics = %d (%v)", code, err)
	}
	for _, want := range []string{
		"daemon_up 1",
		"shared_ops_total 1",
		`shared_ops_total{registry="tenant-a"} 2`,
		`shared_ops_total{op="read",registry="tenant-b"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE shared_ops_total"); n != 1 {
		t.Errorf("family header for shared_ops_total appears %d times, want 1:\n%s", n, body)
	}

	// /debug/vars carries the attached snapshots too.
	code, body, err = get(srv.Addr(), "/debug/vars")
	if err != nil || code != 200 {
		t.Fatalf("/debug/vars = %d (%v)", code, err)
	}
	if err := jsonKeys(body, "attached"); err != nil {
		t.Errorf("/debug/vars body: %v", err)
	}

	srv.Detach("tenant-b")
	_, body, err = get(srv.Addr(), "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(body, "tenant-b") {
		t.Errorf("detached registry still exposed:\n%s", body)
	}
	if !strings.Contains(body, "tenant-a") {
		t.Errorf("remaining attachment lost on Detach of a sibling:\n%s", body)
	}
}

// TestServeBadAddr: an unbindable address surfaces as an error, not a panic.
func TestServeBadAddr(t *testing.T) {
	if _, err := telemetry.Serve("256.256.256.256:1", dsmon.NewTracing()); err == nil {
		t.Fatal("expected an error for an unbindable address")
	}
}
