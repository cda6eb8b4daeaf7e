#!/usr/bin/env bash
# Paired comparison of two checkouts on one fleetbench workload, the way
# a performance claim has to be measured on a machine whose speed drifts:
# each pair runs both checkouts back to back, alternating which goes
# first, each through its own unmodified benchmarks/fleetbench/run.sh
# (so each builds and benchmarks its own source) with --trace 0 and the
# run length BENCHMARK.json fixes. Every pair uses the same seed on both
# sides.
#
#   scripts/fleetbench_pairs.sh <parent-checkout> <change-checkout> <workload> [pairs] [seed]
#
# pairs defaults to 10, seed to 1. Prints, per end-to-end metric, every
# run's value, each side's median and quartiles, and how many pairs the
# change won (ties count for neither side). Exits non-zero when a run
# fails, answers incorrectly or reports a failed operation.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
  sed -n '2,15p' "$0" >&2
  exit 2
fi

exec python3 - "$@" <<'EOF'
import json, statistics, subprocess, sys

parent, change, workload = sys.argv[1:4]
pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 10
seed = sys.argv[5] if len(sys.argv) > 5 else "1"
spec = json.load(open(change + "/BENCHMARK.json"))
seconds = str(spec["run_seconds"])

def run(side, checkout):
    p = subprocess.run(["bash", checkout + "/benchmarks/fleetbench/run.sh", "--workload", workload,
                        "--seed", seed, "--seconds", seconds, "--trace", "0"], capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{side} exited {p.returncode}:\n{p.stderr[-2000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{side}: correct={res['correct']} failed={res['failed']}")
    return {k: v["value"] for k, v in res["metrics"].items()}

sides = [("parent", parent), ("change", change)]
values = {"parent": [], "change": []}
for i in range(pairs):
    for side, checkout in sides if i % 2 == 0 else sides[::-1]:
        values[side].append(run(side, checkout))
    print(f"pair {i + 1}/{pairs} done", file=sys.stderr)

def summary(v):
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return f"median {statistics.median(v):.4g} (quartiles {q[0]:.4g}..{q[2]:.4g})"

print(f"{workload}, seed {seed}, {pairs} pairs, {seconds} s runs")
for m in spec["end_to_end"]:
    name, sign = m["name"], 1 if m["better"] == "higher" else -1
    p = [r[name] for r in values["parent"]]
    c = [r[name] for r in values["change"]]
    won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    lost = sum(sign * (b - a) < 0 for a, b in zip(p, c))
    print(f"\n{name} [{m['unit']}, {m['better']} is better, bound {m['bound']}]")
    print("  parent " + " ".join(f"{x:.4g}" for x in p))
    print("  change " + " ".join(f"{x:.4g}" for x in c))
    print(f"  parent {summary(p)}")
    print(f"  change {summary(c)}")
    ratio = f"{statistics.median(c) / statistics.median(p):.3f}" if statistics.median(p) else "n/a"
    print(f"  change/parent medians {ratio}, change won {won} of {pairs} pairs, lost {lost}")
EOF
