# BISRAMGEN build/test entry points.
#
#   make check — the default pre-merge gate: vet (gofmt included),
#                build, race-enabled tests, the benchmark module's vet
#                and tests, the serve-smoke + obs-smoke + sweep-smoke +
#                chaos-smoke + cluster-smoke + obs-fleet-smoke +
#                mc-smoke end-to-end daemon checks, and the bench-delta
#                soft benchmark-regression gate.
#   make ci    — everything the tree must pass before merging: check
#                plus a short fuzz smoke pass on each parser and the
#                adversarial-input fault campaign.

GO       ?= go
FUZZTIME ?= 5s
# BENCH_OUT names the checked-in benchmark evidence file; bump the
# numeral with the PR that re-measures (schema in EXPERIMENTS.md).
BENCH_OUT  ?= results/BENCH_21.json
BENCHCOUNT ?= 3
# NPROC drives the -cpu pass over the parallelism-sensitive
# benchmarks; on a single-core box the pass degenerates to the serial
# measurement and merges with the main run.
NPROC ?= $(shell nproc 2>/dev/null || echo 2)
# BENCH_PKGS is every package whose benchmarks land in BENCH_OUT.
BENCH_PKGS = . ./internal/mcyield/ ./internal/floorplan/ ./internal/cjson/ ./internal/canon/ ./internal/store/ ./internal/compiler/
# BENCH_CPU_PATTERN selects the benchmarks whose scaling the -cpu pass
# measures; their highest-proc rows are what benchjson keeps.
BENCH_CPU_PATTERN = 'BenchmarkCompileRefine|BenchmarkCompileCold|BenchmarkMCYieldParallel'
# BENCH_BASELINE is the newest checked-in evidence file other than
# BENCH_OUT itself — what `make bench` and the bench-delta gate diff
# fresh numbers against. Empty on a tree with no prior evidence, in
# which case the -baseline flag is simply omitted.
BENCH_BASELINE ?= $(shell ls results/BENCH_*.json 2>/dev/null | grep -vx '$(BENCH_OUT)' | sort -V | tail -1)

.PHONY: all check build vet test race bisrbench-check serve-smoke obs-smoke sweep-smoke chaos-smoke cluster-smoke obs-fleet-smoke mc-smoke fuzz-smoke campaign serve ci bench bench-smoke bench-delta

all: check

check: vet build race bisrbench-check serve-smoke obs-smoke sweep-smoke chaos-smoke cluster-smoke obs-fleet-smoke mc-smoke bench-smoke bench-delta

build:
	$(GO) build ./...

# vet also gates on gofmt: any file needing reformatting fails the
# target and is listed.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need reformatting:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# cmd/bisrbench is its own Go module, so the root build, vet and test
# skip it; this compiles it against the current server and cluster
# packages and runs its tests.
bisrbench-check:
	cd cmd/bisrbench && $(GO) vet ./... && $(GO) test ./...

# End-to-end daemon check: builds the bisramgend binary, starts it on
# a free port, POSTs the same compile twice and asserts the second is
# a cache hit (visible in /metrics and >= 10x faster), then SIGTERMs
# the daemon and requires a clean drain with exit 0.
serve-smoke:
	$(GO) test -race -run TestServeSmoke -count=1 ./cmd/bisramgend/

# End-to-end observability check: boots the daemon with -pprof and a
# 1ns slow-compile threshold, POSTs one compile, asserts the
# Prometheus exposition parses with nonzero
# compile_stage_duration_seconds buckets, fetches the job's Chrome
# trace JSON from /v1/debug/traces/{id}, and requires the slow-compile
# span tree on stderr.
obs-smoke:
	$(GO) test -race -run TestObsSmoke -count=1 -v ./cmd/bisramgend/

# End-to-end persistence + batch check: a daemon over -store-dir
# compiles, drains, restarts and serves the same request from the disk
# store (cache_tier "hit-disk", >= 10x faster, counters say warm); a
# truncated object is quarantined and recompiled, never served. Then
# the sweep API: a spares x defects sweep expands/dedups/completes, an
# identical repeat sweep runs zero new compiles, and the experiments
# growth-factor tables built from service-fetched factors are
# byte-identical to locally compiled ones.
sweep-smoke:
	$(GO) test -race -run 'TestStoreRestartSmoke|TestSweepSmoke' -count=1 ./cmd/bisramgend/

# End-to-end resilience drill, three staged failures against the real
# binary: (1) kill -9 a daemon mid-sweep and require the restart to
# resume the sweep from its write-ahead journal with byte-identical
# rows and zero recompiles of finished points; (2) inject a store.read
# bit-flip via -chaos-spec and require quarantine + recompile, never a
# corrupt response; (3) stall a one-worker daemon and require the
# overload burst to shed with 429 + Retry-After while the retrying
# client completes. Also runs the sim.batch chaos point in-process:
# a fault injected into the bit-parallel evaluator's lane packing
# must be caught by the scalar differential, proving the batch
# coverage path is actually cross-checked.
chaos-smoke:
	$(GO) test -race -run TestChaosSmoke -count=1 ./cmd/bisramgend/
	$(GO) test -race -run TestBatchChaos -count=1 ./internal/experiments/

# End-to-end federation drill: a bisramgate gateway in front of three
# federated bisramgend shards next to one standalone reference daemon.
# Requires (1) a compile through the cluster returns the same key and
# byte-identical artifact as the single daemon; (2) async compiles of
# distinct geometries through the gateway land on at least two shards
# with distinct job ids, and each job's result read through the
# gateway is its own key's report; (3) fresh and repeat sweeps through
# the cluster return results documents byte-identical to the single
# daemon's, with the repeat running zero compiles on any shard; (4)
# kill -9 of one shard mid-sweep still completes the sweep via
# ring-successor failover with byte-identical rows, and the gateway
# marks the dead shard down.
cluster-smoke:
	$(GO) test -race -run TestClusterSmoke -count=1 ./cmd/bisramgate/

# Fleet observability drill: a gateway over two federated shards must
# (1) merge a routed compile's spans from both processes into one
# Chrome trace with the shard's compile spans parented under the
# gateway's proxy.route span; (2) deliver every sweep point exactly
# once over the SSE progress stream with a terminal summary matching
# the results document; (3) serve /metrics?scope=fleet with counters
# equal to the sum of the shard scrapes, surviving a kill -9 of one
# shard as a counted scrape error rather than a failure.
obs-fleet-smoke:
	$(GO) test -race -run TestObsFleetSmoke -count=1 ./cmd/bisramgate/

# Statistical-yield drill against the real binaries: (1) a seeded
# Monte-Carlo sweep through a daemon returns byte-identical results
# documents when submitted twice; (2) the same sweep through a
# bisramgate gateway over federated shards matches the daemon's
# document byte for byte; (3) kill -9 of the daemon mid-MC-sweep
# resumes from the journal and completes under the original sweep ID.
mc-smoke:
	$(GO) test -race -run TestMCSmoke -count=1 ./cmd/bisramgate/

# Full benchmark sweep: every Fig/Table experiment benchmark plus the
# substrate micro-benchmarks and the mcyield engine,
# -count=$(BENCHCOUNT) with -benchmem, then a second -cpu $(NPROC)
# pass over the parallelism-sensitive benchmarks so their scaling is
# measured at real core counts (benchjson records the proc count per
# benchmark and keeps the highest). The averaged results render to
# $(BENCH_OUT) via cmd/benchjson (schema documented in
# EXPERIMENTS.md). When $(BENCH_BASELINE) exists the run also prints
# the per-benchmark ns/op and allocs/op ratio table against it —
# skipping pairs whose proc counts differ — and fails on any >2x
# regression, the authoritative form of the bench-delta gate below.
bench:
	@mkdir -p results
	( $(GO) test -run '^$$' -bench . -benchmem -count=$(BENCHCOUNT) $(BENCH_PKGS) ; \
	  $(GO) test -run '^$$' -bench $(BENCH_CPU_PATTERN) -benchmem -count=$(BENCHCOUNT) -cpu $(NPROC) $(BENCH_PKGS) ) \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(BENCH_OUT) $(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE))

# One-iteration pass over the compile benchmarks: a fast gate that the
# benchmark harness itself still compiles and runs (wired into
# `make check`; it measures nothing).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkCompile(64kbyte|Refine|Untraced|Traced)' -benchtime=1x -count=1 .
	$(GO) test -run '^$$' -bench 'BenchmarkMCYield$$' -benchtime=1x -count=1 ./internal/mcyield/

# Soft regression gate wired into `make check`: one iteration of every
# benchmark, diffed by cmd/benchjson -baseline against the newest
# checked-in results/BENCH_*.json. Single-iteration numbers are far
# too noisy to block a merge, so -tolerate prints any >2x ns/op or
# allocs/op regression as a warning and always exits 0; `make bench`
# runs the same comparison at full -count and does fail.
bench-delta:
	@if [ -z "$(BENCH_BASELINE)" ]; then echo "bench-delta: no checked-in results/BENCH_*.json baseline; skipping"; exit 0; fi
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem -count=1 $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) -tolerate -o /dev/null

# Run the compile daemon locally with the documented defaults.
serve:
	$(GO) run ./cmd/bisramgend

# Brief coverage-guided pass over every fuzz target. Seed corpora are
# checked in under each package's testdata/fuzz/; anything the fuzzer
# minimises lands there too and should be committed. FuzzDecodeObject's
# inputs are object images of a few hundred bytes, and
# FuzzMergeSpanSets's are records of up to 64 spans rendered three
# ways; minimising either would take the whole budget, so their passes
# cap it.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseDeck -fuzztime=$(FUZZTIME) ./internal/tech/
	$(GO) test -run='^$$' -fuzz=FuzzMarchNotation -fuzztime=$(FUZZTIME) ./internal/march/
	$(GO) test -run='^$$' -fuzz=FuzzPLAPlanes -fuzztime=$(FUZZTIME) ./internal/bist/
	$(GO) test -run='^$$' -fuzz=FuzzParseRequest -fuzztime=$(FUZZTIME) ./internal/canon/
	$(GO) test -run='^$$' -fuzz=FuzzMCParams -fuzztime=$(FUZZTIME) ./internal/canon/
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/sweep/
	$(GO) test -run='^$$' -fuzz=FuzzBatchEvaluator -fuzztime=$(FUZZTIME) ./internal/sram/
	$(GO) test -run='^$$' -fuzz=FuzzRefineDifferential -fuzztime=$(FUZZTIME) ./internal/floorplan/
	$(GO) test -run='^$$' -fuzz=FuzzCanonicalDifferential -fuzztime=$(FUZZTIME) ./internal/cjson/
	$(GO) test -run='^$$' -fuzz=FuzzGDSDifferential -fuzztime=$(FUZZTIME) ./internal/gds/
	$(GO) test -run='^$$' -fuzz=FuzzExpositionRoundTrip -fuzztime=$(FUZZTIME) ./internal/obs/
	$(GO) test -run='^$$' -fuzz=FuzzMergeSpanSets -fuzztime=$(FUZZTIME) -fuzzminimizetime=1000x ./internal/obs/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeObject -fuzztime=$(FUZZTIME) -fuzzminimizetime=1000x ./internal/store/

# Adversarial-input campaign against the full compile pipeline: exits
# non-zero on any panic, hang or untyped error.
campaign:
	$(GO) run ./cmd/bisrsim faultcampaign

ci: check fuzz-smoke campaign
