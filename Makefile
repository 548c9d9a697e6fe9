# Build/verify entry points. `make check` is the full tier-1 verify:
# vet + the whole suite under the race detector (the machine runs one
# goroutine per simulated node, so -race is load-bearing, not optional).

GO ?= go

.PHONY: build test vet race check bench tables chaos fuzz api-golden bench-twophase bench-planner bench-readahead bench-critpath bench-pipeline chaos-twophase chaos-readahead chaos-tenants chaos-planner chaos-pipeline bench-alloc alloc-check race-pooldebug telemetry-smoke dstreamd-smoke bench-scale bench-scale-full bench-wall

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

check: build vet race

# Regenerate the paper's tables (shape-checked against the published data).
tables:
	$(GO) run ./cmd/dstream-bench -all

bench:
	$(GO) test -bench . -benchtime 1x ./internal/bench

# The two-phase vs funnel vs parallel strategy ablation. Emits the grid as
# BENCH_twophase.json and fails if two-phase never beats both classic paths.
bench-twophase:
	$(GO) run ./cmd/dstream-bench -twophase -twophase-json BENCH_twophase.json

# The planner-vs-oracle grid: every cell of the two-phase write ablation
# plus a read workload grid, replayed under each static choice and under
# StrategyAuto's cost-model planner. Emits BENCH_planner.json and fails
# unless Auto is within 10% of the best static choice on ≥90% of the cells
# with byte-identical data in every cell.
bench-planner:
	$(GO) run ./cmd/dstream-bench -planner -planner-json BENCH_planner.json

# The read-ahead prefetch ablation. Emits the grid as BENCH_readahead.json
# and fails unless prefetching lowers the refill stall on at least half the
# cells with byte-identical data.
bench-readahead:
	$(GO) run ./cmd/dstream-bench -readahead -readahead-json BENCH_readahead.json

# The pipeline-vs-file grid: stream-to-stream channels against writing and
# re-reading the same records through the file system. Emits the grid as
# BENCH_pipeline.json and fails unless the pipeline wins at least half the
# cells with the consumed bytes identical to the file path in every cell.
bench-pipeline:
	$(GO) run ./cmd/dstream-bench -pipeline -pipeline-json BENCH_pipeline.json

# The critical-path attribution sweep. Emits the grid as BENCH_critpath.json
# and fails unless every rank's wall time is fully attributed and the
# span-graph stall sums agree with the stall histograms within 5%.
bench-critpath:
	$(GO) run ./cmd/dstream-bench -critpath -critpath-json BENCH_critpath.json

# Start scf-sim with the live telemetry endpoint and scrape /healthz,
# /metrics, /trace and /critpath mid-run, verifying well-formed output.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# The dstreamd self-test: an in-process daemon, concurrent tenant sessions
# through full stream round trips, a quota breach failing cleanly, and a
# per-tenant telemetry scrape.
dstreamd-smoke:
	$(GO) run ./cmd/dstreamd -smoke

# The runtime scale curve: real per-message wall cost of the mailbox rings
# as the simulated machine doubles from 4 ranks up, gated at 1.5x the
# 8-rank cell. `bench-scale` is the CI smoke (4..128, no artifact);
# `bench-scale-full` regenerates the committed 4..1024 BENCH_scale.json.
bench-scale:
	$(GO) run ./cmd/dstream-bench -scale -scale-max 128

bench-scale-full:
	$(GO) run ./cmd/dstream-bench -scale -scale-json BENCH_scale.json

# The wall-clock benchmark (BENCHMARK.json): every workload through
# benchmark/run.sh, a short measured stretch each. The program checks what
# it reads back on every cycle and exits non-zero when any cycle fails, which
# fails the target; the numbers are for reading, not gated here (compare two
# commits with `go run ./benchmark -compare a.json b.json`, see
# benchmark/README.md).
BENCH_WALL_SECONDS ?= 2

bench-wall:
	for w in ckpt_small ckpt_large restart_redist pipe_chan daemon_ckpt; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds $(BENCH_WALL_SECONDS) --trace 0 || exit 1; \
	done

# The allocation benchmark: real allocs/op on the pooled hot paths, emitted
# as BENCH_alloc.json. `make alloc-check` re-measures and fails on a >10%
# regression against the committed BENCH_alloc_baseline.json — the CI gate
# that keeps the hot paths allocation-free.
bench-alloc:
	$(GO) run ./cmd/dstream-bench -alloc -alloc-json BENCH_alloc.json

alloc-check:
	$(GO) run ./cmd/dstream-bench -alloc -alloc-check BENCH_alloc_baseline.json

# The race suite again with pooldebug poisoning on the pool-heavy packages:
# a retained alias written after Put panics at the next Get instead of
# corrupting a record silently.
race-pooldebug:
	$(GO) test -race -tags pooldebug ./internal/bufpool/ ./internal/enc/ ./internal/comm/ ./internal/collective/ ./internal/pfs/ ./internal/dstream/ ./internal/chaos/

# Regenerate the public API surface golden after an intentional API change.
# `make check` diffs the façade against testdata/api_surface.golden.
api-golden:
	$(GO) test . -run TestAPISurface -update

# The chaos oracle: the full SCF write→read pipeline under seeded fault
# schedules. Override the campaign with e.g.
#   make chaos CHAOS_SEED=1000 CHAOS_N=2000
CHAOS_SEED ?= 1
CHAOS_N    ?= 200

chaos:
	$(GO) test ./internal/chaos/ -v -run TestChaos -chaos.seed $(CHAOS_SEED) -chaos.n $(CHAOS_N)

# Same oracle with the two-phase collective strategy on both stream ends.
chaos-twophase:
	$(GO) test ./internal/chaos/ -v -run TestChaosOracleTwoPhase -chaos.seed $(CHAOS_SEED) -chaos.n $(CHAOS_N)

# Same oracle with read-ahead prefetching over a striped, fault-injected store.
chaos-readahead:
	$(GO) test ./internal/chaos/ -v -run TestChaosOracleReadAhead -chaos.seed $(CHAOS_SEED) -chaos.n $(CHAOS_N)

# Same oracle with the cost-model planner active (full-auto streams) and a
# striped store: seeded faults skew the planner's observations mid-stream,
# and every successful seed must show rank-identical plan-decision chains.
chaos-planner:
	$(GO) test ./internal/chaos/ -v -run TestChaosOraclePlanner -chaos.seed $(CHAOS_SEED) -chaos.n $(CHAOS_N)

# The channel oracle: the M→N pipeline under seeded transport faults plus a
# seeded mid-stream consumer stall. Every seed must end with the pipeline's
# consumed bytes identical to the fault-free file path or a clean error —
# never a hang, never corruption.
chaos-pipeline:
	$(GO) test ./internal/chaos/ -v -run TestChaosPipeline -chaos.seed $(CHAOS_SEED) -chaos.n $(CHAOS_N)

# The multi-tenant daemon oracle: ≥3 concurrent tenant programs through one
# dstreamd over fault-injected storage and transports, with every client
# connection severed at seeded moments mid-run. Byte-identity or clean
# error per tenant; hangs and cross-tenant leaks fail.
chaos-tenants:
	$(GO) test ./internal/chaos/ -v -run 'TestTenantChaos|TestTenantsReference' -chaos.seed $(CHAOS_SEED) -chaos.n $(CHAOS_N)

# Short fuzz pass over the wire codec and the schema decoder (the committed
# corpora under testdata/fuzz replay in every plain `go test` run).
fuzz:
	$(GO) test ./internal/enc/ -fuzz FuzzRoundTrip -fuzztime 30s
	$(GO) test ./internal/enc/ -fuzz FuzzReaderNeverPanics -fuzztime 30s
	$(GO) test ./internal/enc/ -fuzz FuzzRecordHeader -fuzztime 30s
	$(GO) test ./internal/dschema/ -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/dschema/ -fuzz FuzzDecodeElement -fuzztime 30s
	$(GO) test ./internal/dschema/ -fuzz FuzzSchemaRoundTrip -fuzztime 30s
	$(GO) test ./internal/plan/ -fuzz FuzzCostModel -fuzztime 30s
	$(GO) test ./internal/plan/ -fuzz FuzzPlannerChain -fuzztime 30s
