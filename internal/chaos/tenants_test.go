package chaos

import (
	"testing"
	"time"
)

// TestTenantChaosOracle is the multi-tenant acceptance campaign: at least
// three tenant programs concurrently write and read streams through one
// dstreamd whose storage and transports run seeded fault schedules, while a
// chopper severs every client connection at seeded moments mid-run. All
// tenants share one file NAME, so namespace isolation is verified in-band:
// every byte a tenant reads must reproduce its own seeded fill, which
// another tenant's bytes cannot. Each tenant ends byte-identical to its
// fault-free reference or with a clean error; a hang or a cross-tenant leak
// fails the suite.
func TestTenantChaosOracle(t *testing.T) {
	// Multi-tenant seeds pay for a real TCP daemon plus three machines, so
	// the campaign runs half the flat oracle's seed count — but never below
	// the 100-seed acceptance floor.
	n := *chaosN / 2
	if n < 100 {
		n = 100
	}
	if testing.Short() {
		n = 20
	}
	rep := campaign(t, TenantsConfig{}.Scenario(), n)
	if rep.SeedsAllOK == 0 {
		t.Error("no seed completed with every tenant OK — default rates should mostly be survivable")
	}
	requireChunks(t, rep)
	// The chopper must have landed at least one connection cut — the
	// reconnect path is what this campaign is for.
	requireInjected(t, rep, connPlane)
	// The campaign must provably have exercised both fault planes: storage
	// faults under the daemon and transport faults inside tenant machines.
	requireInjected(t, rep, pfsPlane)
	var comm int64
	for _, k := range commPlane.kinds {
		comm += rep.Injects["comm:"+k]
	}
	if comm == 0 {
		t.Error("no seed injected any transport fault inside a tenant machine")
	}
}

// TestTenantChaosDisconnectStorm cranks the chopper: many seeded cuts per
// run against sessions with a tight reconnect budget. Most runs may fail —
// but every failure must be clean, on every rank of every tenant; a session
// that hangs waiting for a connection that will never resume fails here.
func TestTenantChaosDisconnectStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("disconnect storm skipped in -short mode")
	}
	rep := campaign(t, TenantsConfig{
		Disconnects:     12,
		ReconnectBudget: 2 * time.Second,
	}.Scenario(), 25)
	requireInjected(t, rep, connPlane)
	requireChunks(t, rep)
}

// requireChunks asserts that every seed of a tenant campaign moved data in
// shared chunks — the tenants speak over the daemon's same-host socket — and
// severed connections while the daemon held some.
func requireChunks(t *testing.T, rep Report) {
	t.Helper()
	for _, sr := range rep.Results {
		if sr.Injects["dstreamd:chunk_transfers"] == 0 || sr.Injects["conn:cut_held"] == 0 {
			t.Errorf("seed %d: %d chunk transfers, %d connections cut while the daemon held a chunk; want both above 0",
				sr.Seed, sr.Injects["dstreamd:chunk_transfers"], sr.Injects["conn:cut_held"])
		}
	}
	t.Logf("chunk transfers %d; connections cut %d, %d of them while the daemon held a chunk",
		rep.Injects["dstreamd:chunk_transfers"], rep.Injects["conn:cut"], rep.Injects["conn:cut_held"])
}

// TestTenantsReferenceDistinct: the per-tenant fault-free references are
// pairwise distinct — the precondition for the shared-file-name isolation
// oracle. If two tenants' references coincided, a cross-tenant leak between
// them would be invisible.
func TestTenantsReferenceDistinct(t *testing.T) {
	refs, err := TenantsReference(TenantsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		if len(refs[i]) == 0 {
			t.Fatalf("tenant %d reference image is empty", i)
		}
		for j := i + 1; j < len(refs); j++ {
			if string(refs[i]) == string(refs[j]) {
				t.Fatalf("tenants %d and %d have identical reference images — isolation oracle is blind", i, j)
			}
		}
	}
}
