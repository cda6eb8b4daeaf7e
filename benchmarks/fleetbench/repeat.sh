#!/usr/bin/env bash
# Repeatability check: runs SETS independent sets (default 2) of RUNS
# untraced runs (default 10, each with another seed) of every workload,
# and holds the sets against the bounds in BENCHMARK.json the way the
# benchmark driver does. It exits non-zero when, for any workload and
# end-to-end metric,
#   - a set's spread (distance between the quartiles of its runs, as a
#     share of their median) exceeds the metric's bound (setup_s exempt), or
#   - a later set's median is worse than the set before by more than the
#     bound.
#
#   bash benchmarks/fleetbench/repeat.sh [-n RUNS] [-s SETS] [-o results.json]
#
# -o keeps every run's values, the input REPEATABILITY.md was written from.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=10 sets=2 out=""
while getopts "n:s:o:" opt; do
  case "$opt" in
    n) runs="$OPTARG" ;;
    s) sets="$OPTARG" ;;
    o) out="$OPTARG" ;;
    *) exit 2 ;;
  esac
done

exec python3 - "$here" "$runs" "$sets" "$out" <<'EOF'
import json, statistics, subprocess, sys

here, runs, sets, out = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
spec = json.load(open(here + "/../../BENCHMARK.json"))
seconds = str(spec["run_seconds"])
metrics = spec["end_to_end"]

def run(workload, seed):
    p = subprocess.run(["bash", here + "/run.sh", "--workload", workload, "--seed", str(seed),
                        "--seconds", seconds, "--trace", "0"], capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr[-2000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}")
    return {k: v["value"] for k, v in res["metrics"].items()}

# values[workload][metric][set] = the runs' values
values = {w["name"]: {m["name"]: [[] for _ in range(sets)] for m in metrics} for w in spec["workloads"]}
for s in range(sets):
    for w in values:
        for r in range(runs):
            for name, v in run(w, 1000 * (s + 1) + r + 1).items():
                values[w][name][s].append(v)
        print(f"set {s + 1}: {w} done", file=sys.stderr)

if out:
    json.dump(values, open(out, "w"), indent=1)

bad = 0
print(f"{'workload':12s} {'metric':18s} {'bound':>6s}  " +
      "  ".join(f"{'median ' + str(s + 1):>12s} {'spread':>6s}" for s in range(sets)) + "  worst step")
for w, per_metric in values.items():
    for m in metrics:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        medians = [statistics.median(v) for v in per_metric[name]]
        spreads = []
        for v, med in zip(per_metric[name], medians):
            q = statistics.quantiles(v, n=4)
            spreads.append((q[2] - q[0]) / med)
        # How much worse each set's median is than the one before.
        steps = [sign * (b - a) / a for a, b in zip(medians, medians[1:])]
        worst = max(steps, default=0.0)
        flags = []
        if name != "setup_s" and max(spreads) > bound:
            flags.append("SPREAD")
        if worst > bound:
            flags.append("MEDIAN")
        bad += len(flags)
        print(f"{w:12s} {name:18s} {bound:6.2f}  " +
              "  ".join(f"{med:12.4f} {sp:6.3f}" for med, sp in zip(medians, spreads)) +
              f"  {worst:+.3f} {' '.join(flags)}")
if bad:
    sys.exit(f"{bad} check(s) beyond their bound")
print("every spread and every median step is within its bound")
EOF
