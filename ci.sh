#!/bin/sh
# Pre-merge check: tier-1 (build + unit/property tests + golden
# snapshots) then tier-2 (fixed-seed differential fuzz smoke and the
# perf, fault, obs and contract gates).
# See TESTING.md.
set -eu

echo "== tier 1: dune build && dune runtest"
dune build
dune runtest

echo "== tier 2: fuzz smoke (@fuzz-smoke)"
dune build @fuzz-smoke

echo "== tier 2: perf smoke (@perf-smoke)"
dune build @perf-smoke

echo "== tier 2: fault smoke (@fault-smoke)"
dune build @fault-smoke

echo "== tier 2: obs smoke (@obs-smoke)"
dune build @obs-smoke

echo "== tier 2: contract smoke (@contract-smoke)"
dune build @contract-smoke

echo "CI OK"
