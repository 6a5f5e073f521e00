GO ?= go

.PHONY: build test test-short verify bench bench-ab serve bench-pair bench-mesh bench-setup profile trace ledger

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Static analysis, the race detector over every package, the long
# concurrency tests, and the benchmark's own gate (see scripts/verify.sh).
verify:
	sh scripts/verify.sh

# The one producer of performance numbers: the four workloads and the
# named end-to-end and per-layer metrics of BENCHMARK.json, behind a
# correctness gate (see bench/README.md).
bench:
	bash bench/run.sh

# Paired runs of the working tree against a parent ref on one workload,
# alternated (see scripts/benchpair.go): per end-to-end metric the paired
# median difference, the parent's quartile spread and the change's wins.
PARENT ?= HEAD
WORKLOAD ?= small_mono
N ?= 10
bench-ab:
	$(GO) run scripts/benchpair.go -parent $(PARENT) -workload $(WORKLOAD) -n $(N)

# Run the simulation daemon with durable job state under ./antond-state.
# Submit jobs with curl (see README "Service quickstart"); kill and rerun
# this target to watch interrupted jobs resume from their checkpoints.
serve:
	$(GO) run ./cmd/antond -listen localhost:8780 -state antond-state

# Instrumented demo run: per-phase metrics to metrics.json plus a live
# pprof endpoint, then the measured-vs-predicted profile experiment.
profile:
	$(GO) run ./cmd/antonsim -system small -steps 200 \
		-metrics metrics.json -pprof localhost:6060
	$(GO) run ./cmd/antonbench -experiment profile

# Step-level timeline: run an instrumented simulation with the health
# watchdogs reported, validate the export, and leave trace.json ready to
# load at https://ui.perfetto.dev.
trace:
	$(GO) run ./cmd/antonsim -system small -steps 200 \
		-trace trace.json -watch
	$(GO) run scripts/validate_trace.go trace.json

# The pair-kernel microbenchmarks (the recorded numbers are
# ppip.evaluate_ns, htis.pairforce_ns and the dhfr_mono workload of
# `make bench`): one PPIP table lookup, one batched pair, then the
# range-limited evaluation at one and two workers (workers follow
# GOMAXPROCS), so its worker scaling is read off one command.
bench-pair:
	$(GO) test -run '^$$' -bench 'BenchmarkTableEvaluate$$' ./internal/ppip
	$(GO) test -run '^$$' -bench 'BenchmarkPairForceBatch$$' ./internal/htis
	$(GO) test -run '^$$' -bench 'BenchmarkRangeLimitedForces$$' -cpu 1,2 \
		-benchtime 3x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkStepDHFRScale' \
		-benchtime 3x ./internal/core

# The mesh/FFT hot-path benchmarks: every one must report 0 allocs/op on
# the steady-state path (plans, tiles, worker buffers preallocated).
bench-mesh:
	$(GO) test -run '^$$' -bench 'BenchmarkFFT3D|BenchmarkDistFFT' \
		-benchtime 100x ./internal/fft
	$(GO) test -run '^$$' -bench 'BenchmarkMeshForces' \
		-benchtime 3x ./internal/core

# The set-up benchmarks: one cold PPIP table fit (ppip.build_ms in
# `make bench`) and a warm `small` construction plus first step, the
# repeats behind small_mono's setup_s once the tables are cached.
bench-setup:
	$(GO) test -run '^$$' -bench 'BenchmarkBuild$$' -benchtime 10x ./internal/ppip
	$(GO) test -run '^$$' -bench 'BenchmarkNewEngineSmall' -benchtime 20x ./internal/core

# Provenance demo: run with a hash-chained ledger attached, then audit
# it offline — verify the chain, locate the checkpoint, and replay the
# run bitwise against its own recorded digests.
ledger:
	$(GO) run ./cmd/antonsim -system small -steps 200 \
		-checkpoint run.ckpt -ledger run.ledger
	$(GO) run ./cmd/antonaudit -ledger run.ledger -replay -1
