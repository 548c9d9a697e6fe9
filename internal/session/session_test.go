package session_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/server"
	"pcxxstreams/internal/session"
	"pcxxstreams/internal/vtime"
)

const (
	nprocs    = 4
	nelems    = 32
	particles = 8
)

// tenantRun writes a tenant-seeded collection through a remote session and
// reads it back, returning an error on any mismatch. Every tenant uses the
// SAME file name, so byte-identity doubles as a cross-tenant isolation
// check: leaking another tenant's bytes cannot reproduce this tenant's
// seeded fill.
func tenantRun(addr, tenant string, seed int, opts ...dstream.Option) error {
	sess, err := session.Connect(addr, tenant)
	if err != nil {
		return err
	}
	defer sess.Close()
	_, err = sess.Run(machine.Config{NProcs: nprocs, Profile: vtime.Paragon()}, func(n *machine.Node) error {
		d, err := distr.New(nelems, nprocs, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		c, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		c.Apply(func(g int, s *scf.Segment) { s.Fill(g+seed, particles) })
		s, err := sess.Open(n, d, "data", opts...)
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

		in, err := sess.OpenInput(n, d, "data")
		if err != nil {
			return err
		}
		defer in.Close()
		got, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		if err := in.Read(); err != nil {
			return err
		}
		if err := dstream.Extract[scf.Segment](in, got); err != nil {
			return err
		}
		var mismatch error
		got.Apply(func(g int, have *scf.Segment) {
			var want scf.Segment
			want.Fill(g+seed, particles)
			if !have.Equal(&want) && mismatch == nil {
				mismatch = fmt.Errorf("tenant %s: element %d differs from its seeded fill", tenant, g)
			}
		})
		return mismatch
	})
	return err
}

// TestConcurrentTenantsByteIdentical is the tentpole acceptance test: two
// independent tenant sessions concurrently write and read streams through
// one running dstreamd, each seeing exactly its own bytes, with per-tenant
// metrics visible on the daemon's monitor.
func TestConcurrentTenantsByteIdentical(t *testing.T) {
	mon := dsmon.New()
	srv, err := server.Start("127.0.0.1:0", server.Config{
		Tenants: []server.Tenant{{Name: "tenant-a"}, {Name: "tenant-b"}},
		Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i, tenant := range []string{"tenant-a", "tenant-b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tenantRun(srv.Addr(), tenant, 1000*(i+1),
				dstream.WithStrategy(dstream.StrategyTwoPhase)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	var sb strings.Builder
	if err := mon.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dstreamd_requests_total{tenant="tenant-a"}`,
		`dstreamd_requests_total{tenant="tenant-b"}`,
		`dstreamd_bytes_in_total{tenant="tenant-a"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("daemon metrics missing %s", want)
		}
	}
}

// TestQuotaCleanError: a stream whose writes breach the tenant quota fails
// with a clean error on every rank — the run terminates, never hangs.
func TestQuotaCleanError(t *testing.T) {
	srv, err := server.Start("127.0.0.1:0", server.Config{
		Tenants: []server.Tenant{{Name: "small", QuotaBytes: 4 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		// The seeded fill writes far more than 4 KiB.
		done <- tenantRun(srv.Addr(), "small", 7)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("over-quota stream run succeeded")
		}
		if !errors.Is(err, server.ErrQuota) && !errors.Is(err, dstream.ErrIO) {
			t.Fatalf("over-quota run = %v, want ErrQuota (or ErrIO wrapping it)", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("over-quota stream run hung instead of failing cleanly")
	}
}

// TestReconnectMidRun cuts every daemon connection in the middle of a
// stream run; the session resumes and the run completes byte-identically.
func TestReconnectMidRun(t *testing.T) {
	mon := dsmon.New()
	srv, err := server.Start("127.0.0.1:0", server.Config{
		Tenants: []server.Tenant{{Name: "a", MaxSessions: 1}},
		Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var chopper sync.WaitGroup
	chopper.Add(1)
	go func() {
		defer chopper.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				srv.KillConnections()
			}
		}
	}()
	err = tenantRun(srv.Addr(), "a", 42)
	close(stop)
	chopper.Wait()
	if err != nil {
		t.Fatalf("run under connection chopping failed: %v", err)
	}
	if got := mon.Registry().Counter("dstreamd_sessions_total", "", "tenant", "a").Value(); got > 1 {
		t.Fatalf("%d sessions admitted across the reconnects, want ≤1 (resume, not re-admit)", got)
	}
}

// TestLocalSessionUnchanged: the local session is the embedded path — no
// daemon, the machine's own file system, same bytes as ever.
func TestLocalSessionUnchanged(t *testing.T) {
	sess := session.Local()
	if sess.Remote() {
		t.Fatal("Local session claims to be remote")
	}
	if used, quota, err := sess.Usage(); used != 0 || quota != 0 || err != nil {
		t.Fatalf("Local Usage = %d/%d, %v", used, quota, err)
	}
	_, err := sess.Run(machine.Config{NProcs: 2, Profile: vtime.CM5()}, func(n *machine.Node) error {
		d, err := distr.New(8, 2, distr.Block, 0)
		if err != nil {
			return err
		}
		s, err := sess.Open(n, d, "f")
		if err != nil {
			return err
		}
		if err := s.InsertFunc(func(l int, e *dstream.Encoder) { e.Int64(int64(l)) }); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		return s.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDefaultSession: SetDefault swaps the session the one-line API routes
// through and returns the previous one; nil restores Local.
func TestDefaultSession(t *testing.T) {
	if session.Default() != session.Local() {
		t.Fatal("default session is not Local at start")
	}
	srv, err := server.Start("127.0.0.1:0", server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := session.Connect(srv.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	prev := session.SetDefault(remote)
	if prev != session.Local() {
		t.Fatal("SetDefault did not return the previous (local) session")
	}
	if session.Default() != remote {
		t.Fatal("Default() does not reflect SetDefault")
	}
	if prev := session.SetDefault(nil); prev != remote {
		t.Fatal("SetDefault(nil) did not return the remote session")
	}
	if session.Default() != session.Local() {
		t.Fatal("SetDefault(nil) did not restore Local")
	}
}

// TestRunRejectsConflictingFS: a remote session refuses a machine config
// that already pins a different file system — the ambiguity would silently
// split storage between two domains.
func TestRunRejectsConflictingFS(t *testing.T) {
	srv, err := server.Start("127.0.0.1:0", server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sess, err := session.Connect(srv.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, err = sess.Run(machine.Config{NProcs: 1, Profile: vtime.CM5(), FS: pfs.NewMemFS(vtime.CM5())}, func(n *machine.Node) error { return nil })
	if err == nil {
		t.Fatal("Run accepted a conflicting explicit FS")
	}
}
