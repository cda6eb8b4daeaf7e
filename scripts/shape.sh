#!/usr/bin/env bash
# shape.sh — the numbers docs/adr/006-one-replica-type.md's before/after
# table tracks, so a new column is quoted instead of counted by hand:
# non-test Go outside benchmarks/ (everything, and per package for the
# five the table follows), packages under internal/, and the types that
# assert search.Searcher.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' | xargs cat | wc -l; }

echo "non-test Go lines outside benchmarks/: $(lines .)"
for pkg in social durable server shard fleet; do
  echo "lines, internal/$pkg: $(lines "internal/$pkg")"
done
echo "packages under internal/: $(ls internal | wc -l)"
searchers=$(grep -rhoE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmarks \
  'search\.Searcher += +\(\*[A-Za-z]+\)' . | grep -oE '[A-Za-z]+\)$' | tr -d ')' | sort | paste -sd' ')
echo "types asserting search.Searcher: $(wc -w <<<"$searchers") ($searchers)"
