"""Run the benchmark in two sets of ten seeds and report each metric's spread and drift.

    python3 perfbench/steady.py [workload ...]

For each workload (all of ``BENCHMARK.json`` by default) it makes two sets of
``RUNS`` untraced runs, one set after the other, both on the seeds
``FIRST_SEED`` to ``FIRST_SEED + RUNS - 1``.  For every end-to-end metric it
prints each set's median and the distance between the set's first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of its median,
then how much worse the second set's median is than the first's, next to the
metric's bound from ``BENCHMARK.json``.  It stores the runs and figures in
``steadiness.json``, the evidence the bounds were chosen from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 101
RUNS = 10
SETS = 2
RUN_TIMEOUT_S = 900


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(metric, sets):
    values = [[run[metric["name"]] for run in runs] for runs in sets]
    medians = [statistics.median(v) for v in values]
    change = (medians[-1] - medians[0]) / medians[0]
    return {
        "bound": metric["bound"],
        "median": medians,
        "spread": [spread(v) for v in values],
        "worse_by": change if metric["better"] == "lower" else -change,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
    evidence_path = HERE / "steadiness.json"
    evidence = json.loads(evidence_path.read_text()) if evidence_path.is_file() else {}
    evidence = {k: v for k, v in evidence.items() if k in names}
    for workload in args.workloads or names:
        sets = []
        for number in range(1, SETS + 1):
            runs = []
            for seed in seeds:
                runs.append(run_once(spec, workload, seed))
                print(f"{workload} set {number} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr, flush=True)
            sets.append(runs)
        summary = {m["name"]: summarise(m, sets) for m in spec["end_to_end"]}
        for name, s in summary.items():
            bound = s["bound"]
            flags = []
            if max(s["spread"]) >= bound / 3:
                flags.append("spread above bound/3")
            if s["worse_by"] > bound:
                flags.append("drift above bound")
            print(f"{workload:16} {name:12} median " + " / ".join(f"{m:.6g}" for m in s["median"])
                  + "  spread " + " / ".join(f"{x:.4f}" for x in s["spread"])
                  + f"  worse by {s['worse_by']:+.4f}  bound {bound}"
                  + ("  <-- " + ", ".join(flags) if flags else ""))
        evidence[workload] = {"seeds": seeds, "sets": sets, "summary": summary}
        evidence_path.write_text(json.dumps(evidence, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
