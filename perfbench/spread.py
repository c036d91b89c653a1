"""Spread report: how steady is the benchmark on this host?

    python3 perfbench/spread.py --sets 2 --seeds 10 [--workloads a,b]

Runs every workload once per seed, in ``--sets`` interleaved sets (set 1
seed 1 of each workload, then seed 2, ..., then set 2 again with the
same seeds), each run in its own process exactly as the benchmark's
command does.  For each workload and end-to-end metric it prints the
median and quartiles of every set, the quartile spread as a share of
the median, and how far the sets' medians are apart, next to the
metric's bound.  ``--json FILE`` keeps every run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
sys.path.insert(0, ROOT)

from perfbench import spec  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = [line for line in lines if line.startswith("host: ")]
    result["host"] = json.loads(host[-1][6:]) if host else None
    return result


def spread(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--workloads",
                        default=",".join(spec.LISTED_WORKLOADS))
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = range(1, args.seeds + 1)
    runs: Dict[str, List[List[dict]]] = {
        w: [[] for _ in range(args.sets)] for w in workloads}
    for index in range(args.sets):
        for seed in seeds:
            for workload in workloads:
                result = run_once(workload, seed, args.seconds, 0)
                runs[workload][index].append(result)
                print(f"set {index + 1} seed {seed} {workload}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)
    for workload in workloads:
        print(f"\n== {workload}")
        shares = {r["failed"] / r["attempted"]
                  for results in runs[workload] for r in results}
        correct = all(r["correct"] for results in runs[workload]
                      for r in results)
        print(f"   correct={correct}  failed share(s)={sorted(shares)}")
        print(f"   {'metric':<26}{'bound':>6}  per set: median [q1, q3] "
              f"spread;  sets apart")
        for name, unit in spec.END_TO_END_UNITS.items():
            cells, medians = [], []
            for results in runs[workload]:
                values = [r["metrics"][name]["value"] for r in results]
                if None in values:
                    cells.append("not measured")
                    continue
                s = spread(values)
                medians.append(s["median"])
                cells.append(f"{s['median']:.4g} [{s['q1']:.4g}, "
                             f"{s['q3']:.4g}] {s['spread']:.1%}")
            apart = (max(medians) - min(medians)) / min(medians) \
                if medians and min(medians) else float("nan")
            print(f"   {name + ' (' + unit + ')':<26}"
                  f"{spec.BOUNDS[name]:>6.2f}  " + ";  ".join(cells)
                  + f";  {apart:.1%}")
        probes = [r["host"]["probe_after_s"] for results in runs[workload]
                  for r in results if r.get("host")]
        if probes:
            print(f"   host probe: {spread(probes)['median']:.4f} s "
                  f"(spread {spread(probes)['spread']:.1%})")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(runs, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
