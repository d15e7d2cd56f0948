GO ?= go

# SWEEP_BENCH selects the sweep/planner hot-path benchmarks (shared
# calibration, uncached throughput, fabric binding, schedule campaigns,
# per-schedule synthesis, strategy-labeled plan search) shared by bench and
# bench-diff.
SWEEP_BENCH = BenchmarkSweep_SharedCalibration$$|BenchmarkSweepThroughput$$|BenchmarkReplayEngine|BenchmarkSweep_FabricCampaign|BenchmarkSweep_ScheduleCampaign|BenchmarkSweep_DiskCacheWarmStart|BenchmarkSynthesize|BenchmarkPlan_Strategies|BenchmarkPlan_BranchAndBound

.PHONY: check fmt vet build test bench-module race alloc-guard fuzz-smoke bench bench-diff benchsmoke experiments-smoke plan-smoke schedule-smoke serve-smoke obs-smoke

# check is the CI gate: formatting, static analysis, full build, tests,
# the benchmark module's vet and tests, the race detector on the concurrent
# service/cache/replay/core packages, the compiled-engine, synthesis,
# plan-search and what-if allocation budgets, a short fuzz run, a one-iteration
# benchmark smoke pass, a quick run of the paper harness's ablations, and the
# planner, schedule, planning-service and observability acceptance smokes.
check: fmt vet build test bench-module race alloc-guard fuzz-smoke benchsmoke experiments-smoke plan-smoke schedule-smoke serve-smoke obs-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-module vets and tests the end-to-end benchmark (benchmark/, its own
# Go module). It builds against this checkout through its replace
# directive, so a change to the public API it calls fails here.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# race runs the packages with real request-level concurrency — the lumosd
# service, the shared disk cache, the replay engine, the
# batch-evaluating planner, and the campaign engine whose structural
# entries, pooled timings buffers and pooled replay scratches concurrent
# sweep fabric rows, plan points and kernel what-ifs share — under the
# race detector.
race:
	$(GO) test -race ./internal/server/ ./internal/scache/ ./internal/replay/ ./internal/planner/ ./internal/obs/ ./internal/core/

# alloc-guard enforces the compiled replay engine's zero-allocation
# contract: a retimed run on warm scratch must stay within a fixed
# allocation budget (testing.AllocsPerRun), so interface boxing or map
# churn sneaking back into the hot loop fails CI, not a profile.
# ALLOC_GUARD_BUDGET mirrors the TestReplayAllocBudget constant and is
# archived into BENCH_sweep.json so bench-diff fails if the budget is ever
# raised (e.g. to absorb observability overhead) without regenerating the
# committed archive. It also holds one jittered fig7 synthesis and one
# deterministic, price-classed TP2×PP2×DP4 synthesis under their byte
# budgets (TestSynthesizeAllocBudget), so per-rank program rebuilds or
# predictions that simulate every DP replica cannot return unnoticed, and
# one serve-plan-shaped branch-and-bound search under its
# byte budget (TestPlanSearchAllocBudget), so memory estimates or reason
# strings for points a plan never returns cannot creep back, and fifteen
# kernel what-ifs on the fig7 base under a per-what-if byte budget
# (TestWhatIfAllocBudget), so what-ifs keep replaying pooled duration
# columns on pooled scratches instead of allocating fresh columns.
ALLOC_GUARD_BUDGET ?= 8
alloc-guard:
	$(GO) test -run TestReplayAllocBudget -count 1 ./internal/replay/
	$(GO) test -run TestSynthesizeAllocBudget -count 1 ./internal/cluster/
	$(GO) test -run TestPlanSearchAllocBudget -count 1 ./internal/planner/
	$(GO) test -run TestWhatIfAllocBudget -count 1 ./internal/core/

# fuzz-smoke runs each fuzz target for 10 s beyond its seed corpus
# (testdata/fuzz/<target>, which plain go test replays). FuzzFabricPricing:
# no fabric preset or degrade factor the resolvers accept may price a
# collective below its launch overhead or wrap past trace.Dur's range.
# FuzzRequestBuilders: no lumosd sweep or plan body may panic the campaign
# builders the API and the CLI share, or get a campaign past the admission
# limits. FuzzDecodeTrace: no rank lumosd accepts inline in a profile body
# may panic trace decoding, graph construction or either replay engine.
# Their seeds include a 34 KB body and a 16 KB trace rank, so interesting
# inputs are not minimized: minimizing one would take most of the 10 s.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFabricPricing$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzRequestBuilders$$' -fuzztime 10s -fuzzminimizetime 1x ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTrace$$' -fuzztime 10s -fuzzminimizetime 1x ./internal/server/

# benchsmoke runs every benchmark once as a regression canary.
benchsmoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# bench measures the sweep hot path (shared-calibration campaign, raw
# uncached throughput, and per-fabric binding) with allocation stats,
# archiving the results as machine-readable JSON in BENCH_sweep.json —
# fabric-parameterized entries carry a "fabric" label so numbers are
# comparable across topologies. The bench output lands in a file first so a
# benchmark failure fails the target (no pipeline masking).
bench:
	$(GO) test -run xxx -bench '$(SWEEP_BENCH)' \
		-benchmem -benchtime 20x -count 1 . > BENCH_sweep.txt
	$(GO) run ./cmd/benchjson -alloc-guard $(ALLOC_GUARD_BUDGET) < BENCH_sweep.txt > BENCH_sweep.json

# bench-diff re-measures the sweep benchmarks and compares them against the
# last archived BENCH_sweep.json: it prints Δns/op and Δallocs/op per benchmark
# and exits non-zero when any regresses beyond 10% (override with
# BENCH_DIFF_THRESHOLD), so perf changes land with their receipts.
BENCH_DIFF_THRESHOLD ?= 10
bench-diff:
	$(GO) test -run xxx -bench '$(SWEEP_BENCH)' \
		-benchmem -benchtime 20x -count 1 . > BENCH_new.txt
	$(GO) run ./cmd/benchjson -alloc-guard $(ALLOC_GUARD_BUDGET) < BENCH_new.txt > BENCH_new.json
	$(GO) run ./cmd/benchjson diff -threshold $(BENCH_DIFF_THRESHOLD) BENCH_sweep.json BENCH_new.json

# experiments-smoke runs the paper-evaluation harness (cmd/experiments) on its
# quick ablations (~2 s), so the harness keeps building and running: every
# ablation row replays, predicts or simulates through the same packages the
# toolkit uses. It fails when the gap-heuristic or the coupling on/off pair
# prints one iteration, since such a pair shows nothing about its option.
experiments-smoke:
	$(GO) run ./cmd/experiments -quick ablations

# plan-smoke is the deployment-planner acceptance gate: examples/autotune
# exits non-zero unless branch-and-bound finds the same best configuration
# as an exhaustive sweep of the fig7/fig8 spaces while simulating strictly
# fewer points.
plan-smoke:
	$(GO) run ./examples/autotune

# schedule-smoke is the pipeline-schedule acceptance gate: examples/schedules
# exits non-zero unless interleaved 1F1B strictly beats flat 1F1B's bubble
# time on the fig7/fig8 configs and ZB-H1's analytic peak memory matches
# 1F1B's within tolerance.
schedule-smoke:
	$(GO) run ./examples/schedules

# serve-smoke is the planning-service acceptance gate: examples/serveplan
# starts lumosd over a shared disk cache, uploads the fig7 traces, plans
# twice (two server instances, no shared memory), and exits non-zero
# unless the second run reports disk-cache hits and a byte-identical plan
# with the same best point.
serve-smoke:
	$(GO) run ./examples/serveplan

# obs-smoke is the observability acceptance gate: examples/observe runs a
# traced branch-and-bound plan and exits non-zero unless the exported
# Chrome trace covers every pipeline stage and per-round search event, a
# live lumosd's GET /metrics parses under the Prometheus text grammar with
# counter values identical to GET /v1/stats, and the flight recorder
# round-trips — a traced plan's trace is retrieved by id, parses, and its
# explain report's simulated/pruned totals equal the response stats.
obs-smoke:
	$(GO) run ./examples/observe
