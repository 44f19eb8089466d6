"""Repeat the benchmark over seeds, check its steadiness, and write a baseline.

Usage (from the repository root):

    python3 bench/baseline.py [--out bench/baseline.json]

For each workload this runs the command of BENCHMARK.json 10 times untraced
(seeds 1..10) and 3 times traced, then prints, per end-to-end metric, the
median, the quartiles, and the spread: the distance between the quartiles as
a share of the median, next to a third of the metric's bound.  It exits
non-zero if a run fails, if a metric is missing or has another unit than
BENCHMARK.json gives, or if a spread exceeds a third of its bound.

With ``--out`` it writes every metric's median, quartiles and sample count per
workload, ``failed_frac``, and the traced stage table (per job: level, P^1
size, dimension, Hecke primes, and inclusive P1List, build_space,
eigensymbol and boundary seconds, as medians over the traced runs).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
TRACED_RUNS = 3


def run_once(workload: str, seed: int, trace: int):
    """Result line and stage table of one run; prints the run's duration."""
    argv = [*CONFIG["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(CONFIG["run_seconds"]), "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    print(f"  ({workload} seed {seed} trace {trace}: run took {time.perf_counter() - start:.1f} s)", flush=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(argv)}\n{proc.stderr}")
    result = json.loads(lines[-1])
    stages = next((json.loads(l)["stages"] for l in lines if l.startswith('{"stages"')), None)
    return result, stages


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def check_units(metrics: dict, declared: list) -> list:
    problems = []
    for entry in declared:
        got = metrics.get(entry["name"])
        if got is None:
            problems.append(f"missing metric {entry['name']}")
        elif got["unit"] != entry["unit"]:
            problems.append(f"{entry['name']}: unit {got['unit']} != {entry['unit']}")
    extra = set(metrics) - {e["name"] for e in declared}
    problems += [f"undeclared metric {name}" for name in sorted(extra)]
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    problems = []
    baseline = {
        "platform": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "run_seconds": CONFIG["run_seconds"], "workloads": {},
    }
    for name in [w["name"] for w in CONFIG["workloads"]]:
        e2e, layer, attempted, failed, stage_runs = {}, {}, 0, 0, []
        for seed in range(1, RUNS + 1):
            result, _ = run_once(name, seed, 0)
            problems += [f"{name}: {p}" for p in check_units(result["metrics"], CONFIG["end_to_end"])]
            for k, v in result["metrics"].items():
                e2e.setdefault(k, []).append(v["value"])
            attempted, failed = attempted + result["attempted"], failed + result["failed"]
            print(f"{name} seed {seed}: " + "  ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                  flush=True)
        for seed in range(1, TRACED_RUNS + 1):
            result, stages = run_once(name, seed, 1)
            problems += [f"{name} traced: {p}" for p in check_units(result["metrics"], CONFIG["per_layer"])]
            for k, v in result["metrics"].items():
                layer.setdefault(k, []).append(v["value"])
            attempted, failed = attempted + result["attempted"], failed + result["failed"]
            stage_runs.append(stages)
        if failed:
            problems.append(f"{name}: {failed} of {attempted} jobs failed")
        entry = {"failed_frac": failed / attempted,
                 "end_to_end": {k: summary(v) for k, v in e2e.items()},
                 "per_layer": {k: summary(v) for k, v in layer.items()},
                 "stage_table": [
                     {key: (statistics.median(run[i][key] for run in stage_runs) if key.endswith("_s") else value)
                      for key, value in job.items()}
                     for i, job in enumerate(stage_runs[0])
                 ]}
        baseline["workloads"][name] = entry
        for metric in CONFIG["end_to_end"]:
            s = entry["end_to_end"].get(metric["name"])
            if s is None:
                continue
            limit = metric["bound"] / 3
            steady = s["spread"] <= limit
            print(f"{name:13s} {metric['name']:13s} median {s['median']:10.4f} {metric['unit']:4s} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.4f} "
                  f"(bound/3 {limit:.4f}) n={s['n']}{'' if steady else '  TOO WIDE'}", flush=True)
            if not steady:
                problems.append(f"{name}: {metric['name']} spread {s['spread']:.4f} > {limit:.4f}")
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
