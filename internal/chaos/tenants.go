package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/server"
	"pcxxstreams/internal/session"
	"pcxxstreams/internal/vtime"
)

// TenantsConfig describes one multi-tenant oracle run: N independent tenant
// programs, each a full SPMD machine, sharing one dstreamd daemon whose
// storage is fault-injected, while a chopper kills every client connection
// at seeded moments mid-run.
type TenantsConfig struct {
	// Tenants is the number of concurrent tenant programs (default 3).
	Tenants int
	// Pipeline shapes each tenant's program (defaults: 2 ranks, 2·NProcs+1
	// segments of 8 particles, 2 records) and the daemon's chaotic striped
	// store (default 2 × 4096).
	Pipeline
	// Budget's Rates apply both to the daemon's storage backends and to
	// every tenant machine's transport; its Watchdog bounds the whole seed.
	Budget
	// Disconnects is how many times the chopper severs every client
	// connection mid-run (default 3); the moments are seeded.
	Disconnects int
	// ReconnectBudget bounds each session's redial window — exhausting it
	// must yield a clean error, never a hang (default 10s).
	ReconnectBudget time.Duration
}

func (c TenantsConfig) withDefaults() TenantsConfig {
	if c.Tenants <= 0 {
		c.Tenants = 3
	}
	if c.StripeFactor <= 0 {
		c.StripeFactor = 2
	}
	c.Pipeline = c.Pipeline.withDefaults(2, 8)
	c.Budget = c.Budget.withDefaults(120 * time.Second)
	if c.Disconnects < 0 {
		c.Disconnects = 0
	} else if c.Disconnects == 0 {
		c.Disconnects = 3
	}
	if c.ReconnectBudget <= 0 {
		c.ReconnectBudget = 10 * time.Second
	}
	return c
}

// tenantName names tenant i of a run.
func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i) }

// tenantSeedBase offsets each tenant's deterministic fill so that every
// tenant's bytes are distinct: a daemon that ever serves tenant A bytes
// written by tenant B fails A's in-band verification, because B's fill
// cannot reproduce A's.
func tenantSeedBase(i int) int { return 100_000 * (i + 1) }

// tenantFile is the file every tenant writes. Deliberately the SAME name
// for all tenants: namespace isolation, not naming discipline, must keep
// their bytes apart.
const tenantFile = "data"

// TenantsReference runs every tenant's pipeline fault-free against a local
// file system and returns the per-tenant file images — the byte-identity
// baseline for OK runs (data content is additionally verified in-band every
// run, faulted or not).
func TenantsReference(cfg TenantsConfig) ([][]byte, error) {
	cfg = cfg.withDefaults()
	refs := make([][]byte, cfg.Tenants)
	for i := range refs {
		var err error
		refs[i], err = referenceImage(machine.Config{NProcs: cfg.NProcs},
			cfg.body(session.Local(), tenantFile, tenantSeedBase(i), 0, nil, nil), tenantFile)
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// tenantsScenario is TenantsConfig as a Scenario: one part per tenant.
type tenantsScenario struct {
	cfg  TenantsConfig
	refs [][]byte
}

// Scenario returns the multi-tenant campaign over cfg: a daemon over
// fault-injected striped storage, cfg.Tenants concurrent tenant machines
// with fault-injected transports, and seeded mid-run connection cuts. Every
// tenant must end byte-identical (in-band verification, plus file image
// equality against its reference) or with a clean error; a hang or a
// cross-tenant byte leak is a forbidden outcome.
func (c TenantsConfig) Scenario() Scenario { return &tenantsScenario{cfg: c.withDefaults()} }

func (s *tenantsScenario) Parts() int              { return s.cfg.Tenants }
func (s *tenantsScenario) Watchdog() time.Duration { return s.cfg.Watchdog }

func (s *tenantsScenario) Reference() (err error) {
	s.refs, err = TenantsReference(s.cfg)
	return err
}

func (s *tenantsScenario) Run(seed int64, mon *dsmon.Monitor) []error {
	cfg := s.cfg
	errs := make([]error, cfg.Tenants)
	tenants := make([]server.Tenant, cfg.Tenants)
	for i := range tenants {
		tenants[i] = server.Tenant{Name: tenantName(i)}
	}
	gate := &cutGate{entered: make(chan struct{}), cut: make(chan struct{})}
	factory := StripedChaosFactory(cfg.StripeFactor, cfg.StripeUnit, seed, cfg.Rates, mon)
	if cfg.Disconnects > 0 {
		factory = gate.wrap(factory)
	}
	srv, err := server.Start("127.0.0.1:0", server.Config{
		Factory: factory,
		Tenants: tenants,
		// Short grace: expired sessions must free slots fast enough for a
		// campaign of hundreds of seeds not to accumulate daemon state.
		Grace:   2 * time.Second,
		Monitor: mon,
	})
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	defer srv.Close()

	// The chopper: sever every client connection — first while the run's
	// first store write, whose data is in a shared chunk the daemon holds,
	// waits at the gate, so that every seed cuts a transfer in flight; then
	// at seeded moments, each held until the daemon holds a chunk (a few
	// milliseconds at most). The sessions must resume (within grace and
	// budget) or fail cleanly; the daemon must drain a severed connection's
	// transfers before it unmaps its chunks.
	stop := make(chan struct{})
	cuts, cutsHeld := connPlane.counter(mon, "cut"), connPlane.counter(mon, "cut_held")
	held := mon.Registry().Gauge("dstreamd_chunks_held", "")
	var chopWG sync.WaitGroup
	chopWG.Add(1)
	go func() {
		defer chopWG.Done()
		defer gate.open()
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < cfg.Disconnects; i++ {
			// Sub-millisecond-to-few-millisecond delays: the pipelines are
			// short, and a cut only exercises the resume path if it lands
			// while requests are in flight.
			delay := time.Duration(200+rng.Intn(4000)) * time.Microsecond
			if i == 0 {
				select {
				case <-stop:
					return
				case <-gate.entered:
				}
			} else {
				select {
				case <-stop:
					return
				case <-time.After(delay):
				}
			}
			for deadline := time.Now().Add(5 * time.Millisecond); held.Value() == 0 && time.Now().Before(deadline); {
				time.Sleep(20 * time.Microsecond)
			}
			mid := held.Value() > 0
			n := int64(srv.KillConnections())
			gate.open()
			cuts.Add(n)
			if mid {
				cutsHeld.Add(n)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < cfg.Tenants; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = runOneTenant(cfg, srv.Addr(), i, seed, s.refs[i], mon)
		}()
	}
	wg.Wait()
	close(stop)
	chopWG.Wait()
	return errs
}

// cutGate holds the first write to reach the daemon's store until the
// chopper has cut every connection (open); writes after it pass.
type cutGate struct {
	entered, cut chan struct{}
	enter, once  sync.Once
}

func (g *cutGate) open() { g.once.Do(func() { close(g.cut) }) }

// wrap gates the writes of every backend f makes that reports its stripe
// geometry — which the daemon passes on to its clients, so the wrapper keeps
// it.
func (g *cutGate) wrap(f pfs.BackendFactory) pfs.BackendFactory {
	return func(name string) (pfs.Backend, error) {
		b, err := f(name)
		if s, ok := b.(stripedStore); ok && err == nil {
			return gatedWrites{s, g}, nil
		}
		return b, err
	}
}

type stripedStore interface {
	pfs.Backend
	pfs.LayoutProvider
}

type gatedWrites struct {
	stripedStore
	g *cutGate
}

func (w gatedWrites) WriteAt(p []byte, off int64) (int, error) {
	w.g.enter.Do(func() {
		close(w.g.entered)
		<-w.g.cut
	})
	return w.stripedStore.WriteAt(p, off)
}

// runOneTenant connects one tenant session, runs its pipeline under a
// fault-injected transport, and — when the run succeeds — verifies the
// daemon-resident file image against the tenant's fault-free reference.
// Transport injections are counted on the shared run monitor so the
// campaign's fault-space coverage check sees them alongside the daemon's
// storage faults.
func runOneTenant(cfg TenantsConfig, addr string, i int, seed int64, ref []byte, mon *dsmon.Monitor) error {
	// The client's reconnect budget covers established sessions; a chopper
	// cut landing during the initial hello surfaces as a Connect error.
	// Retry it within the same budget, as a real client would.
	var sess *session.Session
	var err error
	deadline := time.Now().Add(cfg.ReconnectBudget)
	for {
		sess, err = session.ConnectConfig(addr, server.ClientConfig{
			Tenant:          tenantName(i),
			ReconnectBudget: cfg.ReconnectBudget,
		})
		if err == nil {
			break
		}
		if errors.Is(err, server.ErrUnknownTenant) || errors.Is(err, server.ErrBusy) ||
			errors.Is(err, server.ErrQuota) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer sess.Close()
	// Each tenant machine gets its own transport fault schedule, derived
	// from the seed and the tenant index so schedules differ across tenants
	// but replay identically for a given seed.
	tseed := seed*1000 + int64(i)
	_, err = sess.Run(machine.Config{
		NProcs:  cfg.NProcs,
		Profile: vtime.Paragon(),
		WrapTransport: func(tr comm.Transport) comm.Transport {
			return NewTransport(tr, cfg.NProcs, tseed, cfg.Rates, mon)
		},
		RecvDeadline: cfg.RecvDeadline,
	}, cfg.body(sess, tenantFile, tenantSeedBase(i), 0, nil, nil))
	if err != nil {
		return err
	}
	// The run verified content in-band; for a completed run the stored
	// image must also be byte-identical to the fault-free reference.
	return checkImage(sess.FS(vtime.Paragon()), tenantFile, ref)
}
