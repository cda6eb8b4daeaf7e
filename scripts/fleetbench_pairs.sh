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
#
# fleetbench reports reference time: wall time times a scale S it reads
# off in-process bursts of a reference kernel, which drifts with the
# machine. The script reads each run's S from the "reference kernel: …
# wall times × S" line of its output, prints every run's S and each
# side's spread, and then, for the throughput, the read p50 and the CPU
# per operation, the same summary in wall time (S taken back out). A
# verdict on a hot path wants both to agree.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
  sed -n '2,23p' "$0" >&2
  exit 2
fi

exec python3 - "$@" <<'EOF'
import json, re, statistics, subprocess, sys

parent, change, workload = sys.argv[1:4]
pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 10
seed = sys.argv[5] if len(sys.argv) > 5 else "1"
spec = json.load(open(change + "/BENCHMARK.json"))
seconds = str(spec["run_seconds"])
SCALE = "reference scale"

def run(side, checkout):
    p = subprocess.run(["bash", checkout + "/benchmarks/fleetbench/run.sh", "--workload", workload,
                        "--seed", seed, "--seconds", seconds, "--trace", "0"], capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{side} exited {p.returncode}:\n{p.stderr[-2000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{side}: correct={res['correct']} failed={res['failed']}")
    scale = re.search(r"^reference kernel: .* wall times × ([0-9.]+)", p.stdout, re.M)
    if not scale:
        sys.exit(f"{side}: no reference kernel scale in the output")
    values = {k: v["value"] for k, v in res["metrics"].items()}
    values[SCALE] = float(scale.group(1))
    return values

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
def compare(p, c, sign):
    won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    lost = sum(sign * (b - a) < 0 for a, b in zip(p, c))
    print("  parent " + " ".join(f"{x:.4g}" for x in p))
    print("  change " + " ".join(f"{x:.4g}" for x in c))
    print(f"  parent {summary(p)}")
    print(f"  change {summary(c)}")
    ratio = f"{statistics.median(c) / statistics.median(p):.3f}" if statistics.median(p) else "n/a"
    print(f"  change/parent medians {ratio}, change won {won} of {pairs} pairs, lost {lost}")

for m in spec["end_to_end"]:
    name, sign = m["name"], 1 if m["better"] == "higher" else -1
    print(f"\n{name} [{m['unit']}, {m['better']} is better, bound {m['bound']}]")
    compare([r[name] for r in values["parent"]], [r[name] for r in values["change"]], sign)

print(f"\n{SCALE} S [wall times × S are reference times]")
for side in ("parent", "change"):
    v = [r[SCALE] for r in values[side]]
    print(f"  {side} " + " ".join(f"{x:.4g}" for x in v) + f"; spread {min(v):.4g}..{max(v):.4g}, {summary(v)}")

# Reference time is wall time × S, so a reference rate is the wall rate ÷ S.
metrics = {m["name"]: m for m in spec["end_to_end"]}
for name in ("throughput_ops_s", "read_p50_ms", "cpu_us_per_op"):
    m = metrics[name]
    wall = (lambda r: r[name] * r[SCALE]) if m["unit"] == "1/s" else (lambda r: r[name] / r[SCALE])
    print(f"\n{name}, wall time [{m['unit']}, {m['better']} is better]")
    compare([wall(r) for r in values["parent"]], [wall(r) for r in values["change"]],
            1 if m["better"] == "higher" else -1)
EOF
