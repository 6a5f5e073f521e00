#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ at the checkout root
# (build cache included, so nothing is written outside the checkout) and
# runs it from there with the arguments given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
go build -C bench -o ../.bench_build/antonbench .
exec .bench_build/antonbench "$@"
