// Command dstreamd runs the d/stream I/O daemon: a ViPIOS-style server in
// which dedicated I/O ranks own the parallel file system while many
// independent client programs open, append, and read streams over TCP
// through tenant-scoped sessions (see pcxxstreams.Connect). Bound to a
// loopback address, it also serves same-host clients on an abstract unix
// socket, which they pick on their own; it prints the socket's name.
//
// Usage:
//
//	dstreamd -addr :7030 -tenants "alice:104857600:4,bob"
//	dstreamd -addr :7030 -tenants alice -dir /var/lib/dstreamd
//	dstreamd -smoke                                  # self-test and exit
//
// Each -tenants entry is name[:quotaBytes[:maxSessions]]; zero (or absent)
// means unlimited. With -dir the tenant namespaces persist as flattened
// files under that directory; by default storage is an in-memory stripe.
//
// The -telemetry endpoint serves the daemon's live metrics — every tenant
// labeled on one /metrics page — plus /healthz for probes.
//
// -smoke runs the daemon's self-test: an in-process instance with two
// tenants, concurrent client sessions writing and reading streams
// byte-identically, a quota tenant whose breach must fail cleanly, and a
// telemetry scrape — exiting zero only if all of it holds. It runs twice:
// over the same-host unix socket, where the payload must cross in shared
// chunks, and over TCP, where it must cross in the frames; it prints which
// each used. CI runs it via `make dstreamd-smoke`.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	pcxx "pcxxstreams"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/telemetry"
)

func main() {
	var (
		addr    = flag.String("addr", ":7030", "listen address for client sessions")
		tele    = flag.String("telemetry", "", "serve live telemetry (/metrics /healthz /debug/vars) on this address (':0' picks a free port)")
		tenants = flag.String("tenants", "", "comma-separated tenant specs: name[:quotaBytes[:maxSessions]]")
		dir     = flag.String("dir", "", "back tenant storage with real files under this directory (default: in-memory stripe)")
		stripeK = flag.Int("stripe-factor", 4, "stripe factor of the default in-memory store")
		stripeU = flag.Int64("stripe-unit", 64<<10, "stripe unit bytes of the default in-memory store")
		grace   = flag.Duration("grace", 30*time.Second, "how long a disconnected session stays resumable")
		smoke   = flag.Bool("smoke", false, "run the self-test against an in-process daemon and exit")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "dstreamd smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("dstreamd smoke: PASS")
		return
	}

	tens, err := parseTenants(*tenants)
	if err != nil {
		fatal(err)
	}
	if len(tens) == 0 {
		fatal(fmt.Errorf("no tenants configured (use -tenants \"name[:quota[:sessions]],…\")"))
	}
	mon := dsmon.New()
	cfg := pcxx.DaemonConfig{
		Tenants:      tens,
		StripeFactor: *stripeK,
		StripeUnit:   *stripeU,
		Grace:        *grace,
		Monitor:      mon,
	}
	if *dir != "" {
		cfg.Factory = pcxx.OSFactory(*dir)
	}
	srv, err := pcxx.StartDaemon(*addr, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dstreamd: serving %d tenant(s) on %s\n", len(tens), srv.Addr())
	if host, _, _ := net.SplitHostPort(srv.Addr()); runtime.GOOS == "linux" && net.ParseIP(host).IsLoopback() {
		// The name internal/server gives the socket (sameHostSocket).
		fmt.Printf("dstreamd: same-host clients on unix @dstreamd/%s\n", srv.Addr())
	}
	var ts *telemetry.Server
	if *tele != "" {
		ts, err = telemetry.Serve(*tele, mon)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dstreamd: telemetry on http://%s/metrics\n", ts.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("dstreamd: shutting down")
	if ts != nil {
		ts.Close()
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

// parseTenants decodes "name[:quotaBytes[:maxSessions]],…".
func parseTenants(spec string) ([]pcxx.DaemonTenant, error) {
	var out []pcxx.DaemonTenant
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		parts := strings.Split(field, ":")
		if len(parts) > 3 {
			return nil, fmt.Errorf("tenant spec %q: want name[:quotaBytes[:maxSessions]]", field)
		}
		t := pcxx.DaemonTenant{Name: parts[0]}
		if len(parts) > 1 && parts[1] != "" {
			q, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad quota %q: %v", t.Name, parts[1], err)
			}
			t.QuotaBytes = q
		}
		if len(parts) > 2 && parts[2] != "" {
			s, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad session limit %q: %v", t.Name, parts[2], err)
			}
			t.MaxSessions = s
		}
		out = append(out, t)
	}
	return out, nil
}

// runSmoke is the CI self-test, once over each path: a daemon bound to a
// loopback address serves its same-host socket, which the sessions take; one
// bound to every interface serves none, so they take TCP.
func runSmoke() error {
	for _, path := range []struct {
		name, listen string
		chunks       bool
	}{
		{"unix socket", "127.0.0.1:0", true},
		{"tcp", ":0", false},
	} {
		if err := smokeOver(path.name, path.listen, path.chunks); err != nil {
			return fmt.Errorf("over %s: %w", path.name, err)
		}
	}
	return nil
}

// smokeOver is one pass of the self-test: daemon + telemetry up, two tenants
// through full stream round-trips concurrently, quota breach fails cleanly,
// metrics and health scrape correctly, the payload crossed in shared chunks
// or in the frames as chunks says, everything shuts down.
func smokeOver(path, listen string, chunks bool) error {
	mon := dsmon.New()
	srv, err := pcxx.StartDaemon(listen, pcxx.DaemonConfig{
		Tenants: []pcxx.DaemonTenant{
			{Name: "smoke-a"},
			{Name: "smoke-b"},
			{Name: "smoke-tiny", QuotaBytes: 4 << 10},
		},
		Monitor: mon,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	_, port, err := net.SplitHostPort(srv.Addr())
	if err != nil {
		return err
	}
	addr := net.JoinHostPort("127.0.0.1", port)
	ts, err := telemetry.Serve("127.0.0.1:0", mon)
	if err != nil {
		return err
	}
	defer ts.Close()

	// Two tenants write and read concurrently, byte-identically, through
	// the same daemon — under the same file name, so any cross-tenant leak
	// breaks the seeded-fill verification.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i, tenant := range []string{"smoke-a", "smoke-b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := smokeRun(addr, tenant, 1000*(i+1)); err != nil {
				errs <- fmt.Errorf("tenant %s: %w", tenant, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}

	// The quota tenant must fail cleanly, and promptly.
	quotaDone := make(chan error, 1)
	go func() { quotaDone <- smokeRun(addr, "smoke-tiny", 7) }()
	select {
	case err := <-quotaDone:
		if err == nil {
			return fmt.Errorf("over-quota run succeeded")
		}
	case <-time.After(60 * time.Second):
		return fmt.Errorf("over-quota run hung instead of failing cleanly")
	}

	// Scrape health and per-tenant metrics.
	if body, err := get(ts.Addr(), "/healthz"); err != nil || body != "ok\n" {
		return fmt.Errorf("/healthz = %q, %v", body, err)
	}
	body, err := get(ts.Addr(), "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		`dstreamd_requests_total{tenant="smoke-a"}`,
		`dstreamd_requests_total{tenant="smoke-b"}`,
		`dstreamd_quota_rejects_total{tenant="smoke-tiny"}`,
		`dstreamd_chunk_transfers_total`,
		`dstreamd_inline_transfers_total{reason="no_mapping"}`,
	} {
		if !strings.Contains(body, want) {
			return fmt.Errorf("/metrics missing %s", want)
		}
	}

	// Which way the payload crossed.
	reg := mon.Registry()
	chunked := reg.Counter("dstreamd_chunk_transfers_total", "").Value()
	noChunk := reg.Counter("dstreamd_inline_transfers_total", "", "reason", "no_chunk").Value()
	noMapping := reg.Counter("dstreamd_inline_transfers_total", "", "reason", "no_mapping").Value()
	fmt.Printf("dstreamd smoke: over %s: %d transfers in shared chunks, %d framed (%d with no chunk free, %d with no chunks)\n",
		path, chunked, noChunk+noMapping, noChunk, noMapping)
	if chunks != (chunked > 0) || chunks != (noMapping == 0) {
		return fmt.Errorf("the payload took the wrong path: %d transfers in shared chunks, %d framed without any", chunked, noMapping)
	}

	if err := ts.Close(); err != nil {
		return err
	}
	return srv.Close()
}

// smokeRun drives one tenant session through a full stream write/read with
// seeded data and verifies every element.
func smokeRun(addr, tenant string, seed int) error {
	sess, err := pcxx.Connect(addr, tenant)
	if err != nil {
		return err
	}
	defer sess.Close()
	const (
		nprocs = 4
		nelems = 32
	)
	_, err = sess.Run(pcxx.Config{NProcs: nprocs, Profile: pcxx.Paragon()}, func(n *pcxx.Node) error {
		d, err := pcxx.NewDistribution(nelems, nprocs, pcxx.Cyclic, 0)
		if err != nil {
			return err
		}
		c, err := pcxx.NewCollection[scf.Segment](n, d)
		if err != nil {
			return err
		}
		rec := scf.Records{N: 1, Particles: scf.DefaultParticles, Base: seed}
		s, err := sess.Open(n, d, "data", pcxx.WithStrategy(pcxx.StrategyTwoPhase))
		if err != nil {
			return err
		}
		if err := rec.Write(s, c); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}

		in, err := sess.OpenInput(n, d, "data")
		if err != nil {
			return err
		}
		defer in.Close()
		got, err := pcxx.NewCollection[scf.Segment](n, d)
		if err != nil {
			return err
		}
		return rec.Read(in, got, nil)
	})
	return err
}

func get(addr, path string) (string, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %d", path, resp.StatusCode)
	}
	return string(body), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dstreamd:", err)
	os.Exit(1)
}
