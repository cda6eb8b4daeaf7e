#!/usr/bin/env bash
# shape.sh — the numbers docs/adr/006-one-replica-type.md's before/after
# table tracks, so a new column is quoted instead of counted by hand:
# non-test Go outside benchmarks/ (everything, and per package for the
# ten the table follows), packages under internal/, the types that
# assert search.Searcher, and the settings an operator or embedder can
# set: friendserve flags and the independently settable values of
# social.ServiceConfig (a field of struct type counts its fields, a
# func-typed field counts none).
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' | xargs cat | wc -l; }

echo "non-test Go lines outside benchmarks/: $(lines .)"
for pkg in social durable server shard fleet qcache overlay tagstore search admission; do
  echo "lines, internal/$pkg: $(lines "internal/$pkg")"
done
echo "packages under internal/: $(ls internal | wc -l)"
searchers=$(grep -rhoE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmarks \
  'search\.Searcher += +\(\*[A-Za-z]+\)' . | grep -oE '[A-Za-z]+\)$' | tr -d ')' | sort | paste -sd' ')
echo "types asserting search.Searcher: $(wc -w <<<"$searchers") ($searchers)"

echo "friendserve flags: $(grep -cE 'flag\.(String|Bool|Int|Int64|Uint|Float64|Duration)\("' cmd/friendserve/main.go)"

# fields FILE TYPE prints the type of each field of struct TYPE in FILE.
fields() {
  awk -v t="$2" '$1 == "type" && $2 == t && $3 == "struct" { in_struct = 1; next }
    in_struct && /^}/ { exit }
    in_struct && /^\t[A-Z][A-Za-z0-9]* / { print $2 }' "$1"
}
settable=0
for ty in $(fields internal/social/social.go ServiceConfig); do
  file=""
  if [[ $ty == *.* ]]; then
    file=$(grep -l "^type ${ty#*.} struct" "internal/${ty%%.*}"/*.go 2>/dev/null || true)
  fi
  if [[ $ty == func* ]]; then
    continue
  elif [[ -n $file ]]; then
    settable=$((settable + $(fields "$file" "${ty#*.}" | grep -vc '^func' || true)))
  else
    settable=$((settable + 1))
  fi
done
echo "independently settable social.ServiceConfig values: $settable"
