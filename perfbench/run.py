"""Run one benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload ingest_gill --seed 1 \\
        --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (see
``perfbench/README.md``).  The line before it, starting ``host:``,
records the host probe and fingerprint.  A metric a run could not
measure (on a workload whose every op failed) reads ``null``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Import the benchmark as a package and the program from its source
# tree; drop the script directory so module names here shadow nothing.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import spec  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(args) -> dict:
    """Run the workload; returns the result object."""
    from perfbench import harness

    scratch = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    probe = harness.HostProbe()
    correct = True
    try:
        if args.workload.startswith("ingest_"):
            from perfbench import ingest as module
        elif args.workload == "query_http":
            from perfbench import query as module
        else:
            from perfbench import sampler as module
        rounds, extra, layers, problem = module.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
        if problem is not None:
            print(f"check failed: {problem}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass            # another run still uses it
    print("host: " + json.dumps(probe.finish(), sort_keys=True))
    if args.trace:
        units = spec.PER_LAYER_UNITS
        values = {name: layers.get(name, 0.0) for name in units}
    else:
        values = dict(extra)
        values["ops_per_s"] = rounds.ops_per_s()
        values["cpu_ms_per_op"] = rounds.cpu_ms_per_op()
        values["p50_ms"] = rounds.p50_ms()
        units = spec.END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed_total,
        "metrics": {name: {"value": None if values[name] is None
                           else float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
