# Build/verify entry points. `make check` is the full tier-1 verify:
# gofmt + vet + the whole suite under the race detector (the machine runs one
# goroutine per simulated node, so -race is load-bearing, not optional).

GO ?= go

.PHONY: build test fmt-check vet race check bench tables chaos fuzz api-golden alloc-check race-pooldebug telemetry-smoke dstreamd-smoke bench-scale bench-scale-full bench-wall count

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fails, naming them, while any file is not as gofmt would write it.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

check: build fmt-check vet race

# Regenerate the paper's tables (shape-checked against the published data).
tables:
	$(GO) run ./cmd/dstream-bench -all

bench:
	$(GO) test -bench . -benchtime 1x ./internal/bench

# One gated virtual-time sweep: `make bench-<name>` for <name> in planner,
# readahead, critpath, pipeline (and alloc, below). Each prints its grid,
# rewrites the committed BENCH_<name>.json — byte for byte when nothing
# changed, since virtual time is deterministic — and fails unless its gate
# holds:
#   planner    StrategyAuto within 10% of the best static choice on ≥90% of
#              the cells, byte-identical data in every cell; and, over the
#              write cells (BENCH_planner.json .write, which time every static
#              strategy), two-phase beats both funnel and parallel outright
#              on ≥1 cell
#   readahead  prefetching lowers the refill stall on at least half the cells
#              with byte-identical data
#   critpath   every rank's wall time fully attributed, span-graph stall sums
#              within 5% of the stall histograms
#   pipeline   stream-to-stream channels beat write-then-read on at least half
#              the cells, consumed bytes identical to the file path in all
# The rows live in internal/bench/sweeps.go.
bench-%:
	$(GO) run ./cmd/dstream-bench -sweep $* -json BENCH_$*.json

# Start scf-sim with the live telemetry endpoint and scrape /healthz,
# /metrics, /trace and /critpath mid-run, verifying well-formed output.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# The dstreamd self-test: an in-process daemon, concurrent tenant sessions
# through full stream round trips, a quota breach failing cleanly, and a
# per-tenant telemetry scrape; once over the same-host socket (shared
# chunks), once over TCP (frames).
dstreamd-smoke:
	$(GO) run ./cmd/dstreamd -smoke

# The runtime scale curve: real per-message wall cost of the mailbox rings
# as the simulated machine doubles from 4 ranks up, gated at 1.5x the
# 8-rank cell. `bench-scale` is the CI smoke (4..128, no artifact);
# `bench-scale-full` regenerates the committed 4..1024 BENCH_scale.json.
bench-scale:
	$(GO) run ./cmd/dstream-bench -sweep scale -scale-max 128

bench-scale-full:
	$(GO) run ./cmd/dstream-bench -sweep scale -json BENCH_scale.json

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

# The allocation benchmark: real allocs/op on the pooled hot paths.
# `make bench-alloc` (the pattern rule above) emits it as BENCH_alloc.json;
# `make alloc-check` re-measures and fails on a >10% regression against the
# committed BENCH_alloc_baseline.json — the CI gate that keeps the hot paths
# allocation-free.
alloc-check:
	$(GO) run ./cmd/dstream-bench -sweep alloc -alloc-check BENCH_alloc_baseline.json

# The race suite again with pooldebug on the pool-heavy packages, twice:
# a retained alias written after Put panics at the next Get instead of
# corrupting a record silently, and each package's test binary ends with
# every pooled buffer back and every goroutine gone (internal/leakcheck,
# called from the package's TestMain), naming a leak by the stack that took
# the buffer. The daemon moves a framed chunk through a pooled buffer an I/O
# rank releases and poisons a shared chunk it hands back, so its package and
# the layers over it are on the list.
race-pooldebug:
	$(GO) test -race -tags pooldebug -count 2 ./internal/bufpool/ ./internal/enc/ ./internal/comm/ ./internal/collective/ ./internal/pfs/ ./internal/dstream/ ./internal/chaos/ ./internal/server/ ./internal/session/ ./internal/replicated/ ./internal/ckpt/

# Counted non-test lines, per package and in all: lines of non-test .go files
# that are neither blank nor only a // comment. The figure a simplicity PR
# reports before and after in CHANGES.md.
count:
	@$(GO) list -f '{{.Dir}}' ./... | while read d; do \
		ls $$d/*.go | grep -v '_test\.go$$' | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l | tr '\n' ' '; \
		echo .$${d#$(CURDIR)}; \
	done | awk '{ printf "%6d %s\n", $$1, $$2; n += $$1 } END { printf "%6d total\n", n }'

# Regenerate the public API surface golden after an intentional API change.
# `make check` diffs the public surface against testdata/api_surface.golden:
# the façade's declarations, and the exported methods and fields of every
# type of this module the façade reaches (go/types, from source).
api-golden:
	$(GO) test . -run TestAPISurface -update

# The chaos oracles: seeded fault schedules through one campaign runner
# (internal/chaos/runner.go), every seed ending byte-identical to a
# fault-free run or with a clean error — never a hang, never corruption.
# CHAOS_RUN is the `go test -run` regex that picks the campaigns:
#   TestChaos                  (default) the full SCF write→read pipeline with
#                              every fault kind, and every campaign below but
#                              the daemon's
#   TestChaosOracleTCP         ... over real loopback sockets
#   TestChaosOracleTwoPhase    ... with two-phase on both stream ends, over a flat
#                              store and over three fault-injected stripes
#   TestChaosOracleParallel    ... with the all-ranks parallel path
#   TestChaosOracleReadAhead   ... with read-ahead over a striped faulty store
#   TestChaosOraclePlanner     ... full-auto: faults skew the planner's
#                              observations, plan chains must stay rank-identical
#   TestChaosPipeline          the M→N channel under transport faults plus a
#                              seeded mid-stream consumer stall
#   'TestTenantChaos|TestTenantsReference'
#                              ≥3 tenant programs through one dstreamd over
#                              faulty storage and transports, every connection
#                              severed at seeded moments; no cross-tenant leak
# e.g. make chaos CHAOS_RUN=TestChaosPipeline CHAOS_SEED=1000 CHAOS_N=2000
CHAOS_RUN  ?= TestChaos
CHAOS_SEED ?= 1
CHAOS_N    ?= 200

chaos:
	$(GO) test ./internal/chaos/ -v -run '$(CHAOS_RUN)' -chaos.seed $(CHAOS_SEED) -chaos.n $(CHAOS_N)

# Short fuzz pass: every Fuzz target in the tree, as `go test -list` finds
# them, 30 s each, its name printed as it starts — the wire codec, the
# schema decoder, the planner, the daemon's two frame decoders, the two
# readers of a d/stream file against each other, Segment's extractor into
# fresh and into filled elements, the striped backend against a flat one,
# and whole stream scripts and channel scripts against the reference
# d/stream (their f.Add seeds and the committed corpora under testdata/fuzz
# replay in every plain `go test` run).
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { f[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
	while read pkg name; do \
		echo "fuzz: $$name ($$pkg)"; \
		$(GO) test $$pkg -fuzz "^$$name\$$" -fuzztime 30s || exit 1; \
	done
