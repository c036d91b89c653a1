"""The ``sampler_batch`` workload: ``GillSampler.run`` on training sets.

A run trains on ``WINDOWS`` training sets of ``WINDOW_UPDATES``
updates: the first updates of as many 24-VP stream draws over the same
synthetic Internet, as a collector retraining its filters on successive
periods would see them, shifted in time by ``--seed``.  One round
trains on every set.  Latency is the wall time of one
``GillSampler.run``; ``stored_bytes_per_update`` is the bz2 MRT size of
the updates the trained filters retain, per training update.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional

from . import checks
from .harness import Rounds, make_input, median_setup, peak_rss_mb, \
    run_rounds, seeded_offset
from .tracing import CALLS, CPU, SAMPLER_TARGETS, WALL, LayerTracer, \
    field_of

N_VPS = 24
STREAM_S = 2400.0
WINDOWS = 6
WINDOW_UPDATES = 600
#: Component #1's stop threshold (§17.2).
TARGET_POWER = 0.94
#: (VP, AS) pairs per window whose features are recomputed with scipy.
FEATURE_PAIRS = 2


def make_windows(seed: int) -> List[list]:
    from repro.workload import StreamConfig

    config = StreamConfig(n_vps=N_VPS, duration_s=STREAM_S)
    offset = seeded_offset(seed)
    return [make_input(config, f"sampler:{k}", WINDOW_UPDATES, offset)
            for k in range(WINDOWS)]


def check_window(window, result, rng: random.Random) -> None:
    component1 = result.component1
    inputs = Counter(checks.key_of(u) for u in window)
    split = Counter(checks.key_of(u) for u in component1.nonredundant)
    split.update(checks.key_of(u) for u in component1.redundant)
    checks.require(split == inputs,
                   "redundant and nonredundant do not partition the "
                   "training set")
    power = checks.reconstitution_power(
        window, [checks.key_of(u) for u in component1.nonredundant])
    checks.require(power >= TARGET_POWER,
                   f"reconstitution power {power:.3f} < {TARGET_POWER}")
    vps = sorted({u.vp for u in window})
    pairs = []
    for vp in rng.sample(vps, FEATURE_PAIRS):
        nodes = sorted({n for edge in checks.final_rib_edges(window, vp)
                        for n in edge})
        if nodes:
            pairs.append((vp, rng.choice(nodes)))
    checks.check_features(window, pairs)


def run(name: str, seed: int, seconds: float, trace: bool, work: str):
    """Measure ``sampler_batch``; same return shape as ``ingest.run``."""
    from repro.bgp.mrt import write_archive
    from repro.core.sampler import GillSampler

    windows, setup_s = median_setup(lambda: make_windows(seed))
    n_updates = WINDOWS * WINDOW_UPDATES
    rounds = Rounds()
    tracer = LayerTracer() if trace else None
    walls: Dict[bool, List[float]] = {False: [], True: []}
    layer_rounds: List[Dict[str, float]] = []
    results: list = []

    def one_round() -> None:
        traced = trace and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install(SAMPLER_TARGETS)
            tracer.reset()
        started, cpu0 = time.perf_counter(), time.process_time()
        try:
            results.clear()
            for window in windows:
                begun = time.perf_counter()
                results.append(GillSampler().run(window))
                rounds.latencies_ms.append(
                    1000.0 * (time.perf_counter() - begun))
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu0
        walls[traced].append(wall)
        rounds.add(wall, cpu, n_updates)
        if traced:
            layers = tracer.layers()
            attributed = tracer.attributed_cpu_s()
            layer_rounds.append({
                "component1.s": field_of(layers, "component1", WALL),
                "correlation.build_s":
                    field_of(layers, "correlation.build", WALL),
                "reconstitution.select_s":
                    field_of(layers, "reconstitution.select", WALL),
                "cross_prefix.s": field_of(layers, "cross_prefix", WALL),
                "events.detect_s": field_of(layers, "events.detect", WALL),
                "features.tensor_s":
                    field_of(layers, "features.tensor", WALL),
                "scoring.scores_s": field_of(layers, "scoring.scores", WALL),
                "anchors.s": field_of(layers, "anchors", WALL),
                "filters.s": field_of(layers, "filters", WALL),
                "features.cpu_s": field_of(layers, "features", CPU),
                "features.node_features_calls":
                    field_of(layers, "features", CALLS),
                "features.distances_from_calls":
                    field_of(layers, "features.dist", CALLS),
                "process.cpu_s": cpu,
                "attributed_cpu_s": attributed,
                "unattributed_cpu_s": cpu - attributed,
            })

    run_rounds(seconds, one_round)
    if trace and not walls[True]:
        one_round()
    retained_path = os.path.join(work, "retained.mrt.bz2")
    stored = 0
    for window, result in zip(windows, results):
        write_archive(result.sample(window), retained_path, compress=True)
        stored += os.path.getsize(retained_path)
    extra = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "stored_bytes_per_update": stored / n_updates,
    }
    layers: Optional[Dict[str, float]] = None
    if trace:
        layers = {key: statistics.fmean(r[key] for r in layer_rounds)
                  for key in layer_rounds[0]}
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(walls[True])
            / statistics.median(walls[False]) - 1.0)
    problem = None
    rng = random.Random(seed)
    try:
        for window, result in zip(windows, results):
            check_window(window, result, rng)
    except checks.CheckFailed as exc:
        problem = str(exc)
    return rounds, extra, layers, problem


