"""Per-layer tracing from outside the program.

A :class:`LayerTracer` replaces public functions and methods of the
program with wrappers that record, per layer name, the calls, the
inclusive wall and thread-CPU time, and the *self* time (inclusive minus
the time of wrapped calls made inside it).  Because each wrapped call's
time is counted once as self time of exactly one layer, the sum of self
CPU over all layers is the CPU the traced layers covered, and the
process's remaining CPU is reported as unattributed.

Stats live per thread (no lock on the hot path) and are merged when
read.  Generators are timed across each ``next`` so a lazily decoding
generator is charged for the work it does, not for its creation.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from typing import Dict, Iterable, List, Tuple

CALLS, WALL, CPU, SELF_WALL, SELF_CPU, UNITS = range(6)

#: (module, attribute path, layer).  The attribute path is looked up in
#: the module where the program *calls* the function, because a name
#: imported with ``from x import f`` must be replaced at the caller.
Target = Tuple[str, str, str]

INGEST_TARGETS: Tuple[Target, ...] = (
    ("repro.bgp.mrt", "read_archive", "mrt.read"),
    ("repro.pipeline.stages", "PeerSession.run", "session"),
    ("repro.pipeline.stages", "ShardWorker.run", "shard"),
    ("repro.pipeline.stages", "WriterStage.run", "writer"),
    ("repro.gill.stage", "GillStage.offer", "gill"),
    ("repro.gill.stage", "GillStage.flush", "gill"),
    ("repro.core.features", "RIBGraph.node_features", "features"),
    ("repro.core.features", "RIBGraph.distances_from", "features.dist"),
    ("repro.bgp.archive", "RollingArchiveWriter.write", "archive"),
    ("repro.bgp.archive", "RollingArchiveWriter.close", "archive"),
    ("repro.bgp.archive", "write_archive", "archive.encode"),
    ("repro.guard.integrity", "file_digests", "guard.digest"),
    ("repro.query.index", "build_index", "index.build"),
    ("repro.events.pipeline", "EventPipeline.process_segment",
     "events.segment"),
    ("repro.cluster.wire", "encode_frame", "cluster.encode"),
    ("repro.cluster.wire", "decode_frame", "cluster.decode"),
)

QUERY_TARGETS: Tuple[Target, ...] = (
    ("repro.query.server", "_QueryAPIHandler.do_GET", "server"),
    ("repro.query.server", "update_to_json", "server.serialize"),
    ("repro.query.engine", "QueryEngine.query", "engine.query"),
    ("repro.query.engine", "QueryEngine.vp_counts", "engine.vp_counts"),
    ("repro.query.engine", "plan_query", "planner.plan"),
    ("repro.query.engine", "mismatch_reason", "guard.verify"),
    ("repro.query.engine", "decode_record_at", "mrt.decode"),
    ("repro.query.engine", "iter_decoded", "mrt.decode"),
    ("repro.events.store", "EventStore.refresh", "events.query"),
    ("repro.events.store", "EventStore.query", "events.query"),
)

SAMPLER_TARGETS: Tuple[Target, ...] = (
    ("repro.core.sampler", "UpdateSampler.run", "component1"),
    ("repro.core.correlation", "CorrelationGroups.build",
     "correlation.build"),
    ("repro.core.sampler", "select_nonredundant_for_prefix",
     "reconstitution.select"),
    ("repro.core.sampler", "deduplicate_across_prefixes", "cross_prefix"),
    ("repro.core.sampler", "detect_events", "events.detect"),
    ("repro.core.scoring", "compute_event_features", "features.tensor"),
    ("repro.core.scoring", "redundancy_scores", "scoring.scores"),
    ("repro.core.sampler", "select_anchor_vps", "anchors"),
    ("repro.core.sampler", "generate_filter_table", "filters"),
    ("repro.core.features", "RIBGraph.node_features", "features"),
    ("repro.core.features", "RIBGraph.distances_from", "features.dist"),
)


class LayerTracer:
    """Install wrappers around program functions; collect layer stats."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: List[Dict[str, List[float]]] = []
        self._tables_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- per-thread state -----------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._tables_lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def _enter(self):
        stack, _ = self._state()
        frame = [time.perf_counter(), time.thread_time(), 0.0, 0.0]
        stack.append(frame)
        return frame

    def _exit(self, layer: str, frame, units: float = 0.0) -> None:
        wall = time.perf_counter() - frame[0]
        cpu = time.thread_time() - frame[1]
        stack, table = self._state()
        stack.pop()
        if stack:
            stack[-1][2] += wall
            stack[-1][3] += cpu
        row = table.get(layer)
        if row is None:
            row = table[layer] = [0, 0.0, 0.0, 0.0, 0.0, 0.0]
        row[CALLS] += 1
        row[WALL] += wall
        row[CPU] += cpu
        row[SELF_WALL] += wall - frame[2]
        row[SELF_CPU] += cpu - frame[3]
        row[UNITS] += units

    # -- wrappers -------------------------------------------------------------

    def _wrap_function(self, func, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                size = len(result) if isinstance(result, bytes) else 0
                tracer._exit(layer, frame, size)

        traced.__wrapped__ = func
        return traced

    def _wrap_generator(self, func, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                frame = tracer._enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._exit(layer, frame)
                yield item

        traced.__wrapped__ = func
        return traced

    def install(self, targets: Iterable[Target]) -> "LayerTracer":
        for module_name, path, layer in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap_function(raw.__func__, layer))
            elif inspect.isgeneratorfunction(raw):
                wrapped = self._wrap_generator(raw, layer)
            else:
                wrapped = self._wrap_function(raw, layer)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results --------------------------------------------------------------

    def reset(self) -> None:
        with self._tables_lock:
            for table in self._tables:
                table.clear()

    def layers(self) -> Dict[str, List[float]]:
        merged: Dict[str, List[float]] = {}
        with self._tables_lock:
            tables = [dict(t) for t in self._tables]
        for table in tables:
            for layer, row in table.items():
                into = merged.setdefault(layer, [0, 0.0, 0.0, 0.0, 0.0,
                                                 0.0])
                for i, value in enumerate(row):
                    into[i] += value
        return merged

    def attributed_cpu_s(self) -> float:
        return sum(row[SELF_CPU] for row in self.layers().values())


def field_of(layers: Dict[str, List[float]], layer: str, index: int
             ) -> float:
    row = layers.get(layer)
    return float(row[index]) if row is not None else 0.0
