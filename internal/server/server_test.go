package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/server"
)

func startDaemon(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dial(t *testing.T, srv *server.Server, tenant string) *server.Client {
	t.Helper()
	cli, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: tenant})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// TestBackendRoundTrip pins the wire protocol end to end: open, write, read
// (including chunked transfers larger than one frame's chunk), size,
// truncate, EOF semantics, and the advertised stripe geometry.
func TestBackendRoundTrip(t *testing.T) {
	srv := startDaemon(t, server.Config{
		Tenants:      []server.Tenant{{Name: "a"}},
		StripeFactor: 3, StripeUnit: 4096,
	})
	cli := dial(t, srv, "a")
	b, err := cli.OpenBackend("data")
	if err != nil {
		t.Fatal(err)
	}
	lp, ok := b.(pfs.LayoutProvider)
	if !ok {
		t.Fatal("remote backend does not expose its layout")
	}
	if l := lp.Layout(); l.StripeFactor != 3 || l.StripeUnit != 4096 {
		t.Fatalf("layout = %+v, want {4096 3}", l)
	}

	// 3 MiB spans multiple chunks and stripe cells.
	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if n, err := b.WriteAt(big, 0); err != nil || n != len(big) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if got := b.Size(); got != int64(len(big)) {
		t.Fatalf("Size = %d, want %d", got, len(big))
	}
	back := make([]byte, len(big))
	if n, err := b.ReadAt(back, 0); err != nil || n != len(big) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(big, back) {
		t.Fatal("round-trip bytes differ")
	}
	// Reading past the end yields the short count and io.EOF.
	tail := make([]byte, 100)
	n, err := b.ReadAt(tail, int64(len(big))-10)
	if n != 10 || !errors.Is(err, io.EOF) {
		t.Fatalf("past-end ReadAt = %d, %v; want 10, EOF", n, err)
	}
	if !bytes.Equal(tail[:10], big[len(big)-10:]) {
		t.Fatal("tail bytes differ")
	}
	if err := b.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if got := b.Size(); got != 5 {
		t.Fatalf("Size after truncate = %d, want 5", got)
	}
}

// TestTenantIsolation writes different bytes to the *same file name* from
// two tenants and asserts neither observes the other's data.
func TestTenantIsolation(t *testing.T) {
	srv := startDaemon(t, server.Config{
		Tenants: []server.Tenant{{Name: "a"}, {Name: "b"}},
	})
	payload := func(tenant string) []byte {
		return bytes.Repeat([]byte(tenant), 64<<10)
	}
	var wg sync.WaitGroup
	for _, tenant := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: tenant})
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			b, err := cli.OpenBackend("data")
			if err != nil {
				t.Error(err)
				return
			}
			want := payload(tenant)
			if _, err := b.WriteAt(want, 0); err != nil {
				t.Error(err)
				return
			}
			got := make([]byte, len(want))
			if _, err := b.ReadAt(got, 0); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(want, got) {
				t.Errorf("tenant %s read back foreign or corrupt bytes", tenant)
			}
		}()
	}
	wg.Wait()
}

// TestQuota pins the quota regime: a breach is a clean ErrQuota (not a
// hang), usage tracks reserved bytes, truncate releases them, and the freed
// budget is spendable again.
func TestQuota(t *testing.T) {
	srv := startDaemon(t, server.Config{
		Tenants: []server.Tenant{{Name: "a", QuotaBytes: 1 << 20}},
	})
	cli := dial(t, srv, "a")
	b, err := cli.OpenBackend("data")
	if err != nil {
		t.Fatal(err)
	}
	half := make([]byte, 512<<10)
	if _, err := b.WriteAt(half, 0); err != nil {
		t.Fatal(err)
	}
	if used, quota, err := cli.Usage(); err != nil || used != 512<<10 || quota != 1<<20 {
		t.Fatalf("Usage = %d/%d, %v", used, quota, err)
	}
	// Second half fits exactly; one more byte breaches.
	if _, err := b.WriteAt(half, 512<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte{1}, 1<<20); !errors.Is(err, server.ErrQuota) {
		t.Fatalf("over-quota write = %v, want ErrQuota", err)
	}
	// Rewriting bytes already reserved is not a breach (idempotent resends).
	if _, err := b.WriteAt(half, 0); err != nil {
		t.Fatalf("rewrite within reservation = %v", err)
	}
	// Truncating releases budget; the freed bytes are writable again.
	if err := b.Truncate(256 << 10); err != nil {
		t.Fatal(err)
	}
	if used, _, _ := cli.Usage(); used != 256<<10 {
		t.Fatalf("usage after truncate = %d, want %d", used, 256<<10)
	}
	if _, err := b.WriteAt(half, 256<<10); err != nil {
		t.Fatal(err)
	}
	if err := b.Truncate(2 << 20); !errors.Is(err, server.ErrQuota) {
		t.Fatalf("over-quota truncate = %v, want ErrQuota", err)
	}
}

// TestAdmission pins hello-time control: unknown tenants are refused with
// ErrUnknownTenant, the MaxSessions limit returns ErrBusy, and an explicit
// Close frees the slot immediately (no grace wait).
func TestAdmission(t *testing.T) {
	srv := startDaemon(t, server.Config{
		Tenants: []server.Tenant{{Name: "a", MaxSessions: 1}},
		Grace:   time.Hour, // a leaked slot would hang the retry below
	})
	if _, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "nobody"}); !errors.Is(err, server.ErrUnknownTenant) {
		t.Fatalf("unknown tenant Dial = %v, want ErrUnknownTenant", err)
	}
	first, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "a"}); !errors.Is(err, server.ErrBusy) {
		t.Fatalf("second Dial = %v, want ErrBusy", err)
	}
	first.Close()
	// Bye frees the admission slot synchronously on the server, but the
	// client does not wait for the response; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		second, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "a"})
		if err == nil {
			second.Close()
			break
		}
		if !errors.Is(err, server.ErrBusy) || time.Now().After(deadline) {
			t.Fatalf("Dial after Close = %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReconnectResume kills every connection mid-stream and asserts the
// client transparently resumes the same server-side session: no new
// admission slot, data written across the cut reads back byte-identical,
// and the reconnect is visible in the daemon's metrics. The connection cut,
// and the one resumed on, are the daemon's same-host unix socket.
func TestReconnectResume(t *testing.T) {
	mon := dsmon.New()
	srv := startDaemon(t, server.Config{
		Tenants: []server.Tenant{{Name: "a", MaxSessions: 1}},
		Grace:   time.Hour,
		Monitor: mon,
	})
	cli := dial(t, srv, "a")
	b, err := cli.OpenBackend("data")
	if err != nil {
		t.Fatal(err)
	}
	part := make([]byte, 128<<10)
	for i := range part {
		part[i] = byte(i)
	}
	if _, err := b.WriteAt(part, 0); err != nil {
		t.Fatal(err)
	}
	if n := cli.Network(); n != "unix" {
		t.Fatalf("connected over %s, want the same-host unix socket", n)
	}
	if n := srv.KillConnections(); n != 1 {
		t.Fatalf("KillConnections = %d, want 1", n)
	}
	// The next operation rides the reconnect; MaxSessions=1 proves it
	// resumed rather than admitted a second session.
	if _, err := b.WriteAt(part, int64(len(part))); err != nil {
		t.Fatalf("write after cut = %v", err)
	}
	if got := srv.SessionCount("a"); got != 1 {
		t.Fatalf("SessionCount = %d, want 1 (resumed, not re-admitted)", got)
	}
	if n := cli.Network(); n != "unix" {
		t.Fatalf("resumed over %s, want the same-host unix socket", n)
	}
	back := make([]byte, 2*len(part))
	if _, err := b.ReadAt(back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back[:len(part)], part) || !bytes.Equal(back[len(part):], part) {
		t.Fatal("data across the reconnect differs")
	}
	reconnects := mon.Registry().Counter("dstreamd_reconnects_total",
		"sessions resumed after a disconnect", "tenant", "a")
	if reconnects.Value() == 0 {
		t.Fatal("reconnect not counted in dstreamd_reconnects_total")
	}
}

// TestSameHostSocket pins which socket a client picks. Dialing the loopback
// literal its daemon is bound to, it gets the daemon's same-host unix socket;
// dialing a TCP proxy's address, or a daemon bound to every interface, which
// serves no unix socket, it falls back to TCP.
func TestSameHostSocket(t *testing.T) {
	cfg := server.Config{Tenants: []server.Tenant{{Name: "a"}}}
	srv := startDaemon(t, cfg)
	if n := dial(t, srv, "a").Network(); n != "unix" {
		t.Errorf("dialing the daemon's loopback address: %s, want unix", n)
	}
	proxied, err := server.Dial(startRelay(t, srv.Addr()).addr(), server.ClientConfig{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer proxied.Close()
	if n := proxied.Network(); n != "tcp" {
		t.Errorf("dialing a proxy: %s, want tcp", n)
	}

	every, err := server.Start(":0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer every.Close()
	_, port, err := net.SplitHostPort(every.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli, err := server.Dial(net.JoinHostPort("127.0.0.1", port), server.ClientConfig{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if n := cli.Network(); n != "tcp" {
		t.Errorf("dialing a daemon bound to every interface: %s, want tcp", n)
	}
}

// flakyFactory wraps a factory so every k-th write fails transiently.
type flakyBackend struct {
	pfs.Backend
	mu    sync.Mutex
	n     int
	every int
}

func (f *flakyBackend) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.n++
	fail := f.n%f.every == 0
	f.mu.Unlock()
	if fail {
		return 0, fmt.Errorf("%w: injected", pfs.ErrTransient)
	}
	return f.Backend.WriteAt(p, off)
}

// TestTransientPropagation: a transient fault under the daemon surfaces on
// the client as pfs.ErrTransient — the contract the client-side retry layer
// depends on.
func TestTransientPropagation(t *testing.T) {
	srv := startDaemon(t, server.Config{
		Factory: func(name string) (pfs.Backend, error) {
			return &flakyBackend{Backend: pfs.NewMemBackend(), every: 1}, nil
		},
		Tenants: []server.Tenant{{Name: "a"}},
	})
	cli := dial(t, srv, "a")
	b, err := cli.OpenBackend("data")
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.WriteAt([]byte("x"), 0)
	if !pfs.IsTransient(err) {
		t.Fatalf("WriteAt = %v, want a pfs.ErrTransient", err)
	}
}

// TestServerClose: shutting the daemon down fails outstanding client work
// with a clean error instead of hanging, and Close is idempotent.
func TestServerClose(t *testing.T) {
	srv := startDaemon(t, server.Config{
		Tenants: []server.Tenant{{Name: "a"}},
	})
	cli, err := server.Dial(srv.Addr(), server.ClientConfig{
		Tenant:          "a",
		ReconnectBudget: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	b, err := cli.OpenBackend("data")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.WriteAt(make([]byte, 1024), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write against a closed daemon succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("write against a closed daemon hung")
	}
}
