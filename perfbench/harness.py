"""Timing, resource and host measurement shared by every workload."""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

#: Iterations of the host reference loop (about 0.15 s on a 2-core VM).
PROBE_ITERATIONS = 1_200_000

#: Generator seed of the synthetic Internet every workload runs on: the
#: VP deployment, regions, prefixes and per-VP behaviour.
STRUCTURE_SEED = 0

#: ``--seed`` shifts every stream of a run by a whole number of these
#: (the archive's segment interval) ...
GRID_S = 300.0
#: ... up to one day.
GRID_STEPS = 288

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def children_cpu_s() -> float:
    """CPU of every reaped child process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process and its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def seeded_offset(seed: int) -> float:
    """Seconds ``--seed`` shifts the run's streams by.

    The update streams themselves are fixed draws, and the shift keeps
    them on the 300 s segment grid: both the events a draw holds and how
    a stream lies across the grid change the work per update and the
    event journal's size by tens of percent (see the README), far more
    than the bounds a benchmark can use.
    """
    return GRID_S * random.Random(f"offset:{seed}").randrange(GRID_STEPS)


def make_input(config, draw: str, count: int, offset: float) -> list:
    """The first ``count`` updates of stream draw ``draw`` of ``config``
    over the fixed synthetic Internet, ``offset`` seconds later, in
    (time, vp, prefix) order."""
    from dataclasses import replace

    from repro.workload import SyntheticStreamGenerator

    generator = SyntheticStreamGenerator(replace(config,
                                                 seed=STRUCTURE_SEED))
    # The constructor drew the structure; reseed for the stream alone.
    generator._rng.seed(draw)
    _, stream = generator.generate()
    stream.sort(key=lambda u: (u.time, u.vp, u.prefix))
    if len(stream) < count:
        raise RuntimeError(f"draw {draw} holds only {len(stream)} "
                           f"updates, fewer than {count}")
    return [replace(u, time=u.time + offset) for u in stream[:count]]


def median_setup(make: Callable[[], object],
                 discard: Callable[[object], None] = lambda state: None,
                 repeats: int = SETUP_REPEATS):
    """Run ``make`` ``repeats`` times; keep the last state.

    Returns ``(state, median seconds)``.  Earlier states are handed to
    ``discard`` so that servers or directories they hold are released.
    """
    times = []
    state = None
    for i in range(repeats):
        if state is not None:
            discard(state)
        started = time.perf_counter()
        state = make()
        times.append(time.perf_counter() - started)
    return state, statistics.median(times)


@dataclass
class Rounds:
    """Whole rounds of one workload and what they cost."""

    walls: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    ops: List[int] = field(default_factory=list)
    failed: List[int] = field(default_factory=list)
    #: Latencies of every completed op of the run.
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(self.ops)

    @property
    def failed_total(self) -> int:
        return sum(self.failed)

    def add(self, wall: float, cpu: float, ops: int, failed: int = 0
            ) -> None:
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.ops.append(ops)
        self.failed.append(failed)

    def ops_per_s(self) -> float:
        """Completed ops per wall second, the median over rounds, so one
        round slowed by the host is outvoted."""
        return statistics.median((o - f) / w for o, f, w in
                                 zip(self.ops, self.failed, self.walls))

    def cpu_ms_per_op(self) -> Optional[float]:
        """CPU per completed op, the median over rounds that completed
        any; None (not measured) when none did."""
        per_op = [1000.0 * c / (o - f) for c, o, f in
                  zip(self.cpus, self.ops, self.failed) if o > f]
        return statistics.median(per_op) if per_op else None

    def p50_ms(self) -> Optional[float]:
        """Nearest-rank median latency over all completed ops of the
        run."""
        if not self.latencies_ms:
            return None
        return statistics.median_low(self.latencies_ms)


def run_rounds(seconds: float, round_fn: Callable[[], None]) -> int:
    """Call ``round_fn`` until ``seconds`` have passed (at least once)."""
    started = time.perf_counter()
    count = 0
    while count == 0 or time.perf_counter() - started < seconds:
        round_fn()
        count += 1
    return count


# -- host probe and fingerprint -----------------------------------------------

def reference_loop_s() -> float:
    """Time a fixed pure-Python loop: the host's speed right now."""
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - started
    if acc < 0:                         # keeps the loop's result live
        raise AssertionError
    return elapsed


def steal_ticks() -> Optional[int]:
    """Cumulative steal ticks of all CPUs, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" \
        else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class HostProbe:
    """The reference loop before and after a run, and steal ticks."""

    def __init__(self) -> None:
        self.before_s = reference_loop_s()
        self._steal = steal_ticks()

    def finish(self) -> dict:
        import numpy

        steal_after = steal_ticks()
        return {
            "probe_before_s": round(self.before_s, 6),
            "probe_after_s": round(reference_loop_s(), 6),
            "steal_ticks": (steal_after - self._steal
                            if steal_after is not None
                            and self._steal is not None else None),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        }
