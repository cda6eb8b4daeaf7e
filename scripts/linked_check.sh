#!/usr/bin/env bash
# linked_check.sh — every internal package must be linked into something
# that runs: a cmd/* binary or the benchmarks/fleetbench harness.
#
# A package that only its own tests, an example or a root benchmark
# imports is periphery: it costs maintenance and proves nothing about
# the served system. PR 21 deleted six of them; CI failing here is how
# the tree keeps that shape. Uses `go list -deps` only.
set -euo pipefail
cd "$(dirname "$0")/.."

linked=$({
  go list -deps ./cmd/...
  (cd benchmarks/fleetbench && go list -deps ./...)
} | grep '^repro/internal/' | sort -u)

orphans=$(comm -23 <(go list ./internal/... | sort) <(echo "$linked"))
if [ -n "$orphans" ]; then
  echo "internal packages linked into no cmd/* binary and not into benchmarks/fleetbench:" >&2
  echo "$orphans" >&2
  echo "FAIL: call the package from a binary, or delete it." >&2
  exit 1
fi
echo "linked check passed: every internal package is reachable from a binary."
