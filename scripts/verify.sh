#!/bin/sh
# Verification gate: formatting, static analysis, the race detector over
# every package, the long concurrency tests the short pass skips, a
# repeated determinism pass, the trace export, the cheap paper
# experiments, and the benchmark's own gate. Run before merging; `make
# bench` is where performance numbers come from.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
# Every Go file in the tree, bench/ included, must be gofmt-clean: a
# wide deletion easily leaves runs of blank lines behind.
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
# Optional gate: run staticcheck when the binary is on PATH, skip quietly
# otherwise (the container image does not ship it and the repo adds no
# tool dependencies).
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping"
fi

echo "== race: every package, short =="
# Everything that does not skip under -short, raced: the engine's
# parallel sections and reductions, the process-global FFT plan cache,
# the parallel PPIP table fit and the process-wide table cache (engines
# constructed at once fit each table exactly once), the ledger writer
# and its tamper matrix, both fault planes, and the service's
# queue/store/auth/admission units.
go test -race -short ./...

echo "== race: long concurrency tests =="
# The multi-second tests that skip or shrink themselves under -short get
# one raced run here. They are found, not listed: the scan below names
# every test in core, service and cmd whose body calls skipShort or
# testing.Short, and all of them but the exemptions run. Among them, in
# core: the sharded pipeline (one goroutine per shard exchanging messages
# every step) at its densest interleavings — invariance across shard
# counts, checkpoint restore across shard counts, the chaos campaigns at
# 8 and 64 shards through crash, rollback and replay, migration landing
# on a refresh step, empty shards, the measured traffic and wire bytes;
# in service: the HTTP surface, cancel, kill/restart and graceful-stop
# durability, per-job ledgers, worker metrics, telemetry retention and
# the hostile-disk campaign; in cmd: antonsim in process against an
# antond job and an antonaudit replay, and its stop/resume.
#
# Exemptions, each with its reason:
# - TestConstraintCounters, TestConstraintHoistBitwise, TestMeshRowsBitwise
#   and TestPrefilterBitwiseInvisible run in the -short pass above; -short
#   only drops their DHFR case.
# - TestPairKernelWorkerInvarianceConstrained and
#   TestPairKernelWorkerInvarianceOddCounts repeat, at more steps and odd
#   worker counts (~100 s raced), the parallel sections the -short pass
#   races through TestPairKernelWorkerInvarianceLong.
# - TestPairScheduleBalanceDeterministic (the 23,558-atom DHFR system),
#   TestMTSIntervalKeepsStability and TestSoakNVEDriftQuality (hundreds of
#   steps) check schedule balance and physics on one engine, through the
#   same parallel sections the -short pass races.
# - TestShardedBuildDHFR times DHFR builds against each other (raced, the
#   ratio would time the detector's instrumentation); the sharded
#   pipeline it steps is raced on the small system by the tests above.
exempt='TestConstraintCounters|TestConstraintHoistBitwise|TestMeshRowsBitwise|TestPrefilterBitwiseInvisible|TestPairKernelWorkerInvarianceConstrained|TestPairKernelWorkerInvarianceOddCounts|TestPairScheduleBalanceDeterministic|TestMTSIntervalKeepsStability|TestSoakNVEDriftQuality|TestShardedBuildDHFR'
long="$(awk '
	/^func Test[A-Za-z0-9_]*\(/ { name = $2; sub(/\(.*/, "", name); next }
	/^func / { name = "" }
	name != "" && /skipShort\(|testing\.Short\(\)/ { print name; name = "" }
' internal/core/*_test.go internal/service/*_test.go cmd/*/*_test.go |
	grep -vxE "($exempt)" | sort -u | paste -sd '|' -)"
if [ -z "$long" ]; then
	echo "verify: the scan found no test that skips under -short"
	exit 1
fi
go test -race -timeout 30m -run "^($long)\$" ./internal/core ./internal/service ./cmd/...

echo "== determinism: repeated runs =="
# -count=2 executes each determinism-sensitive test twice in one process,
# which is what exposes map-iteration-order bugs and state leaking
# between runs (the Comm() importer traversal was one): a single run can
# pass by luck, two rarely agree. Covers the self-contained wire codecs
# and the byte counts, Merkle roots, both fault planes' replay and
# liveness, the chaos
# campaign replay, every worker/shard/observer invariance test, and the
# bitwise equivalences of the table lookup, the rounding, the pair
# pipeline, the minimum-image fast path, the mesh rows, the hoisted
# constraint sweeps, the parallel table fit and the subbox pair walk
# against their reference implementations. Also the static topology
# index (two builds give equal exclusion, skip and bonded-term tables)
# and the reference engine, whose force, energy and trajectory bits
# must repeat across engines at one pair worker. And the system builder
# (TestBuildBitwise pins its positions, terms and exclusions), so a
# builder that depends on map order shows as two runs that disagree.
det='TestCodecRoundTrip|TestCodecFramesSelfContained|TestFSLiveness|Deterministic|Determinism|Bitwise|Invariance'
go test -count=2 -timeout 30m -run "$det" ./internal/core ./internal/fft \
	./internal/torus ./internal/obs ./internal/ledger ./internal/faults \
	./internal/ppip ./internal/fixp ./internal/htis ./internal/vec \
	./internal/nt ./internal/ff ./internal/refmd ./internal/system

echo "== fuzz: every decoder of untrusted bytes and the table lookup, 5 s per target =="
# A short native-fuzz burst from each seeded corpus catches a decoder
# that panics, stops rejecting truncated/trailing bytes, or mutates state
# on a rejection: the shard frame codecs, checkpoint restore, the ledger
# reader + chain verifier, both fault-spec grammars, the job spec, the
# store's status.json recovery scan, and the PPIP table reader (which must
# write back what it accepted). The last two targets are not decoders:
# one hunts for an x the table index locates differently from the
# divide-based reference, the other for a table location the float64
# Horner evaluates differently from the integer reference. Minimizing a
# new input is capped at 1 s so that a burst fuzzes: the default 60 s
# would spend it shrinking one 13 KB table.
for target in core:FuzzPosFrame core:FuzzForceFrame core:FuzzRestoreCheckpoint \
	ledger:FuzzReadVerify faults:FuzzParseSpecs \
	service:FuzzJobSpec service:FuzzStatusScan \
	ppip:FuzzReadTable ppip:FuzzLocateMatchesReference \
	ppip:FuzzEvaluateAtMatchesReference; do
	go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime 5s -fuzzminimizetime 1s "./internal/${target%%:*}"
done

echo "== trace export and watchdog: generate + validate =="
# Drive a short instrumented run, monolithic and at 8 shards, then
# validate each exported Chrome trace: parses, round-trips through
# encoding/json, monotonic ts, every phase span inside its step span, and
# no overlap on the step or the phase lane. A third run at 8 shards
# crashes a shard and rolls back to step 0; recovery drops the trace
# spans of the steps it abandons, so its trace validates too, with each
# replayed step drawn once. Every run's watchdog must stay silent:
# the crash campaign once raised a false migration-slack alert measured
# against a drift reference from before the rollback. The three runs'
# checkpoints must be byte-identical: the state and the long-range energy
# they carry do not depend on the execution mode, on faults or on the
# host's worker count. So must their hardware statistics blocks.
tmpdir="$(mktemp -d /tmp/anton-verify-XXXXXX)"
trap 'rm -rf "$tmpdir"' EXIT
watchdog_ok() {
	if ! grep -qF 'watchdog: worst severity ok (0 warn, 0 critical alerts)' "$1"; then
		echo "verify: watchdog verdict of $1:"
		grep -F 'watchdog:' "$1" || echo "(no watchdog line)"
		exit 1
	fi
}
go run ./cmd/antonsim -system small -steps 30 -report 30 \
	-trace "$tmpdir/trace.json" -watch -checkpoint "$tmpdir/mono.ckpt" >"$tmpdir/mono.out"
watchdog_ok "$tmpdir/mono.out"
go run scripts/validate_trace.go "$tmpdir/trace.json"
go run ./cmd/antonsim -system small -shards 8 -steps 30 -report 30 \
	-trace "$tmpdir/trace.json" -watch -checkpoint "$tmpdir/shard8.ckpt" >"$tmpdir/shard8.out"
watchdog_ok "$tmpdir/shard8.out"
go run scripts/validate_trace.go "$tmpdir/trace.json"
go run ./cmd/antonsim -system small -shards 8 -steps 30 -report 30 \
	-chaos 'seed=7,crashes=1,horizon=30' -trace "$tmpdir/trace.json" -watch \
	-checkpoint "$tmpdir/chaos8.ckpt" >"$tmpdir/chaos8.out"
watchdog_ok "$tmpdir/chaos8.out"
grep -qF 'recoveries: 1 ' "$tmpdir/chaos8.out" || { echo "verify: the crash campaign did not roll back"; exit 1; }
go run scripts/validate_trace.go "$tmpdir/trace.json"
cmp "$tmpdir/mono.ckpt" "$tmpdir/shard8.ckpt"
cmp "$tmpdir/mono.ckpt" "$tmpdir/chaos8.ckpt"
# The hardware statistics count the trajectory's work: the same block in
# every layout, and under a rollback each replayed step counts once.
for run in mono shard8 chaos8; do
	sed -n '/^hardware statistics/,/unconverged/p' "$tmpdir/$run.out" >"$tmpdir/$run.stats"
done
grep -qF 'hardware statistics over 30 steps:' "$tmpdir/mono.stats" || { echo "verify: no 30-step statistics block in mono.out"; exit 1; }
cmp "$tmpdir/mono.stats" "$tmpdir/shard8.stats"
cmp "$tmpdir/mono.stats" "$tmpdir/chaos8.stats"

echo "== antonbench: the cheap experiments, twice =="
# README's first experiment command: every model-only table and figure.
# The reports are deterministic (seeded sampling, no wall clock), so two
# runs must print the same bytes.
go build -o "$tmpdir/antonbench" ./cmd/antonbench
"$tmpdir/antonbench" -experiment cheap >"$tmpdir/cheap1.out"
"$tmpdir/antonbench" -experiment cheap >"$tmpdir/cheap2.out"
cmp "$tmpdir/cheap1.out" "$tmpdir/cheap2.out"

echo "== bench: registry + harness at a tiny scale =="
# bench/ is a nested module the root ./... never compiles, so a rename
# in core or service would break the benchmark with everything above
# green. Check BENCHMARK.json against the harness registry, then run the
# harness's own tests: every workload and probe, scaled down.
bash bench/run.sh -validate-only
(cd bench && go test ./...)

echo "verify: OK"
