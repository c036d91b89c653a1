"""What the benchmark measures, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one source of the
workloads, metrics, units and bounds; this module only reads it.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    _DOC = json.load(_handle)

RUN_SECONDS = _DOC["run_seconds"]
LISTED_WORKLOADS = tuple(w["name"] for w in _DOC["workloads"])

#: Runnable with ``run.py`` and ``spread.py`` but not listed in
#: ``BENCHMARK.json``: every update of it fails while the processes
#: backend deadlocks (see the README), so its timings would measure the
#: benchmark's own stall watchdog rather than the program.
UNLISTED_WORKLOADS = ("ingest_processes",)

WORKLOAD_NAMES = LISTED_WORKLOADS + UNLISTED_WORKLOADS
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DOC["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in _DOC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _DOC["per_layer"]}
