"""The three ingest workloads: MRT file in, sealed archive out.

Each round replays every input's bz2 MRT file, one after the other,
through the production configuration of ``repro-bgp pipeline``:
checkpointed bz2 archive with seal-time indexes, an attached
``EventPipeline``, block policy and two shard workers.  One ingest runs
from opening its input file to ``archive.close()`` returning (the
writer closes the archive before the pipeline's ``wait`` returns).

Per-update latency is the time from the update entering its peer
session to the seal of its 300 s segment (after the index and the event
journal were written): how soon an update becomes queryable.  Only
ingests that finish give latencies; a failed one's updates count as
failed ops and nothing else.

Each input has an archive directory of its own, so the archives of
every input's last ingest are all still there for the checks at the
end of a run.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

from . import checks
from .harness import Rounds, children_cpu_s, make_input, median_setup, \
    peak_rss_mb, run_rounds, seeded_offset
from .tracing import CALLS, CPU, SELF_CPU, UNITS, WALL, INGEST_TARGETS, \
    LayerTracer, field_of

N_VPS = 24
#: Stream generated per input draw; its first ``N_UPDATES`` updates are
#: kept so that every input offers the same amount of work.
STREAM_S = 3600.0
N_UPDATES = 4000
#: Distinct stream draws; one round ingests each of them once, into a
#: fresh archive, so a round covers several draws' events.
INPUTS = 3
INTERVAL_S = 300.0
#: Anchor cap of ``benchmarks/bench_redundancy_filter.py`` at 24 VPs.
MAX_ANCHORS = max(2, N_VPS // 6)
#: GILL must keep this much reconstitution power (bench_redundancy_filter).
MIN_RECONSTITUTION = 0.90

#: The processes-backend input does not depend on ``--seed``: the round
#: deadlocks on every run (see README), and a failure the benchmark keeps
#: must fail identically on every run.  A 7,200 s overshoot stream
#: fills both socketpair directions well before its end.
PROCESSES_SEED = 0
PROCESSES_STREAM_S = 7200.0
#: A processes round with no progress for this long is declared stuck.
STALL_S = 2.0
#: Upper bound on draining the pipeline after an abort.
ABORT_JOIN_S = 15.0

#: Prefixes per archive whose index postings are checked against a decode.
INDEX_SAMPLE = 6


def processes_stream() -> list:
    """The ``ingest_processes`` input: ``repro-bgp generate --scenario
    overshoot --vps 24 --duration 7200 --seed 0``."""
    from repro.workload import SyntheticStreamGenerator, overshoot_config

    _, stream = SyntheticStreamGenerator(overshoot_config(
        seed=PROCESSES_SEED, n_vps=N_VPS,
        duration_s=PROCESSES_STREAM_S)).generate()
    return stream


class IngestWorkload:
    """One of ``ingest_gill``, ``ingest_archive_all``, ``ingest_processes``."""

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.seed = seed
        self.work = work
        self.gill = name == "ingest_gill"
        self.processes = name == "ingest_processes"
        #: (input file, its updates), one per input.
        self.inputs: List[Tuple[str, list]] = []
        #: Input index -> digests of the durable outputs it produced.
        self.fingerprints: Dict[int, set] = {}
        #: Input index -> whether its last ingest finished.
        self.last_ok: Dict[int, bool] = {}
        self.stored: List[Tuple[int, int]] = []
        self.leftover_processes = 0
        #: Per-layer values of each traced round.
        self.layer_rounds: List[Dict[str, float]] = []

    # -- set-up ---------------------------------------------------------------

    def _generate(self) -> List[Tuple[str, list]]:
        from repro.bgp.mrt import write_archive

        if self.processes:
            streams = [processes_stream()]
        else:
            from repro.workload import overshoot_config

            config = overshoot_config(n_vps=N_VPS, duration_s=STREAM_S)
            offset = seeded_offset(self.seed)
            streams = [make_input(config, f"ingest:{k}", N_UPDATES, offset)
                       for k in range(INPUTS)]
        inputs = []
        for k, stream in enumerate(streams):
            path = os.path.join(self.work, f"input{k}.mrt.bz2")
            write_archive(stream, path, compress=True)
            inputs.append((path, stream))
        return inputs

    def setup(self) -> float:
        self.inputs, seconds = median_setup(self._generate)
        return seconds

    def archive_dir(self, index: int) -> str:
        return os.path.join(self.work, f"archive{index}")

    @property
    def n_updates(self) -> int:
        """Updates one round offers."""
        return sum(len(stream) for _, stream in self.inputs)

    # -- one round ------------------------------------------------------------

    def _finish_processes(self, pipeline, entered, sealed) -> bool:
        """Wait for a processes-backend round; abort it once stuck."""
        outcome: Dict[str, object] = {}

        def wait() -> None:
            try:
                outcome["result"] = pipeline.wait()
            except Exception as exc:    # surfaced below as a failed round
                outcome["error"] = exc

        waiter = threading.Thread(target=wait, name="bench-wait",
                                  daemon=True)
        waiter.start()
        progress = None
        changed = time.perf_counter()
        while waiter.is_alive():
            waiter.join(0.2)
            snapshot = pipeline.snapshot()
            now = (len(entered), snapshot.processed, snapshot.written,
                   len(sealed))
            if now != progress:
                progress, changed = now, time.perf_counter()
            elif time.perf_counter() - changed > STALL_S:
                # The runtime's own fatal path: poison every queue and
                # terminate the worker processes.
                pipeline._on_writer_fatal(
                    TimeoutError(f"no progress for {STALL_S:.0f} s"))
                waiter.join(ABORT_JOIN_S)
                break
        for child in multiprocessing.active_children():
            child.join(5.0)
            if child.is_alive():
                self.leftover_processes += 1
                child.kill()
                child.join(5.0)
        return "result" in outcome and outcome["result"].accounted

    def run_round(self, tracer: Optional[LayerTracer] = None
                  ) -> Tuple[bool, float, float, List[float]]:
        """Ingest every input once; returns (ok, wall, cpu, latencies in
        ms), and appends the round's per-layer values when traced."""
        ok, wall, cpu, latencies = True, 0.0, 0.0, []
        layers: Dict[str, float] = {}
        for index in range(len(self.inputs)):
            one = self._ingest(index, tracer)
            ok, wall, cpu = ok and one[0], wall + one[1], cpu + one[2]
            latencies += one[3]
            for key, value in (one[4] or {}).items():
                layers[key] = layers.get(key, 0.0) + value
        if tracer is not None:
            self.layer_rounds.append(layers)
        return ok, wall, cpu, latencies

    def _ingest(self, index: int, tracer: Optional[LayerTracer]):
        """Ingest input ``index``; returns (ok, wall, cpu, latencies,
        per-layer values or None)."""
        from repro.bgp import mrt
        from repro.bgp.archive import RollingArchiveWriter
        from repro.bgp.message import BGPUpdate
        from repro.events import EventPipeline, EventStore, journal_path_for
        from repro.gill import GillConfig
        from repro.pipeline import CollectionPipeline, PipelineConfig
        from repro.workload import split_by_vp

        archive_dir = self.archive_dir(index)
        shutil.rmtree(archive_dir, ignore_errors=True)
        input_path, stream = self.inputs[index]
        entered: List[Tuple[int, float]] = []
        sealed: Dict[int, float] = {}
        clock = time.perf_counter

        def stamped(updates):
            for update in updates:
                entered.append((int(update.time // INTERVAL_S), clock()))
                yield update

        if tracer is not None:
            tracer.reset()
        started, cpu0, child0 = clock(), time.process_time(), \
            children_cpu_s()
        updates = [r for r in mrt.read_archive(input_path, True)
                   if isinstance(r, BGPUpdate)]
        updates.sort(key=lambda u: (u.time, u.vp, u.prefix))
        archive = RollingArchiveWriter(archive_dir,
                                       interval_s=INTERVAL_S,
                                       compress=True, checkpoint=True,
                                       index=True)
        pipeline = CollectionPipeline(
            PipelineConfig(
                n_shards=2, overflow_policy="block",
                backend="processes" if self.processes else "threads",
                workers=2 if self.processes else None,
                gill=GillConfig(definition=1, max_anchors=MAX_ANCHORS)
                if self.gill else None),
            archive=archive)
        store = EventStore(journal_path_for(archive_dir))
        EventPipeline(store=store,
                      registry=pipeline.metrics.registry).attach(archive)
        archive.add_seal_listener(
            lambda segment, build_s:
            sealed.__setitem__(int(segment.start // INTERVAL_S), clock()))
        pipeline.start({vp: stamped(s)
                        for vp, s in split_by_vp(updates).items()})
        if self.processes:
            ok = self._finish_processes(pipeline, entered, sealed)
        else:
            ok = pipeline.wait().accounted
        ended = clock()
        wall = ended - started
        process_cpu = time.process_time() - cpu0
        worker_cpu = children_cpu_s() - child0
        latencies = [1000.0 * (sealed.get(slot, ended) - t)
                     for slot, t in entered] if ok else []
        self.last_ok[index] = ok
        self.stored.append((self.stored_bytes(index), len(stream)))
        if ok:
            self.fingerprints.setdefault(index, set()).add(
                self._fingerprint(index))
        layers = None if tracer is None else self._layers(
            tracer, pipeline, archive, store, process_cpu, worker_cpu)
        return ok, wall, process_cpu + worker_cpu, latencies, layers

    def _fingerprint(self, index: int) -> str:
        """Digest of the durable outputs; equal across rounds of a run."""
        digest = hashlib.sha256()
        for name in ("CHECKPOINT.json", "events.jsonl", "gill.jsonl"):
            path = os.path.join(self.archive_dir(index), name)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        return digest.hexdigest()

    def stored_bytes(self, index: int) -> int:
        total = 0
        for root, _, names in os.walk(self.archive_dir(index)):
            total += sum(os.path.getsize(os.path.join(root, n))
                         for n in names)
        return total

    @staticmethod
    def _layers(tracer, pipeline, archive, store, process_cpu,
                worker_cpu) -> Dict[str, float]:
        layers = tracer.layers()
        gill = pipeline.gill.summary() if pipeline.gill is not None else {}
        index_bytes = sum(
            os.path.getsize(os.path.join(archive.directory, n))
            for n in os.listdir(archive.directory) if n.endswith(".idx"))
        attributed = tracer.attributed_cpu_s()
        return {
            "mrt.read_s": field_of(layers, "mrt.read", WALL),
            "session.cpu_s": field_of(layers, "session", CPU),
            "shard.cpu_s": field_of(layers, "shard", CPU),
            "writer.cpu_s": field_of(layers, "writer", CPU),
            "writer.reorder_self_cpu_s":
                field_of(layers, "writer", SELF_CPU),
            "gill.offer_cpu_s": field_of(layers, "gill", CPU),
            "gill.kept": float(gill.get("kept", 0)),
            "gill.dropped": float(gill.get("dropped", 0)),
            "features.cpu_s": field_of(layers, "features", CPU),
            "features.node_features_calls":
                field_of(layers, "features", CALLS),
            "features.distances_from_calls":
                field_of(layers, "features.dist", CALLS),
            "archive.write_cpu_s": field_of(layers, "archive", CPU),
            "archive.segments": float(len(archive.segments)),
            "archive.encode_s": field_of(layers, "archive.encode", WALL),
            "guard.digest_s": field_of(layers, "guard.digest", WALL),
            "index.build_s": field_of(layers, "index.build", WALL),
            "index.bytes": float(index_bytes),
            "events.segment_s": field_of(layers, "events.segment", WALL),
            "events.incidents": float(len(store)),
            "cluster.frames": field_of(layers, "cluster.encode", CALLS),
            "cluster.wire_bytes": field_of(layers, "cluster.encode", UNITS),
            "cluster.encode_s": field_of(layers, "cluster.encode", WALL),
            "cluster.decode_s": field_of(layers, "cluster.decode", WALL),
            "cluster.worker_cpu_s": worker_cpu,
            "process.cpu_s": process_cpu,
            "attributed_cpu_s": attributed,
            "unattributed_cpu_s": process_cpu - attributed,
        }

    # -- checks ---------------------------------------------------------------

    def check(self) -> int:
        """Independent checks of every input's last archive.

        Returns the number of moas incidents checked.  An input whose
        last ingest failed has no archive to check.
        """
        checks.require(self.leftover_processes == 0,
                       f"{self.leftover_processes} worker processes were "
                       f"left behind by aborted rounds")
        checks.require(all(len(f) == 1 for f in self.fingerprints.values()),
                       "rounds on the same input archived different "
                       "outputs")
        return sum(self._check_archive(index)
                   for index, ok in sorted(self.last_ok.items()) if ok)

    def _check_archive(self, index: int) -> int:
        archive_dir = self.archive_dir(index)
        stream = self.inputs[index][1]
        inputs = [checks.key_of(u) for u in stream]
        archived = checks.archived_keys(archive_dir)
        checks.check_time_order(archived)
        checks.check_digests(archive_dir)
        if self.gill:
            checks.check_sub_multiset(archived, inputs)
            checks.check_gill_journal(archive_dir, inputs, archived)
            power = checks.reconstitution_power(stream, archived)
            checks.require(power >= MIN_RECONSTITUTION,
                           f"input {index}: reconstitution power "
                           f"{power:.3f} < {MIN_RECONSTITUTION}")
        else:
            checks.check_equal_multiset(archived, inputs)
        prefixes = sorted({checks.prefix_text(k) for k in archived})
        step = max(1, len(prefixes) // INDEX_SAMPLE)
        checks.check_index_offsets(archive_dir, prefixes[::step])
        return checks.check_moas(archive_dir, inputs)


def run(name: str, seed: int, seconds: float, trace: bool, work: str
        ) -> Tuple[Rounds, dict, Optional[Dict[str, float]], Optional[str]]:
    """Measure one ingest workload.

    Returns (rounds, end-to-end extras, per-layer values or None, the
    reason a check failed or None).
    """
    workload = IngestWorkload(name, seed, work)
    setup_s = workload.setup()
    rounds = Rounds()
    tracer = LayerTracer() if trace else None
    traced_walls: List[float] = []
    plain_walls: List[float] = []

    def one_round() -> None:
        # Traced runs alternate plain and traced rounds; the plain ones
        # give the tracing overhead.
        traced = trace and len(plain_walls) > len(traced_walls)
        if traced:
            tracer.install(INGEST_TARGETS)
        try:
            ok, wall, cpu, latencies = workload.run_round(
                tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        (traced_walls if traced else plain_walls).append(wall)
        n = workload.n_updates
        rounds.add(wall, cpu, n, 0 if ok else n)
        rounds.latencies_ms.extend(latencies)

    run_rounds(seconds, one_round)
    if trace and not traced_walls:
        one_round()
    extra = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "stored_bytes_per_update":
            sum(b for b, _ in workload.stored)
            / sum(n for _, n in workload.stored),
    }
    problem = None
    try:
        workload.check()
    except checks.CheckFailed as exc:
        problem = str(exc)
    layers = None
    if trace:
        layers = {key: statistics.fmean(r[key] for r in
                                        workload.layer_rounds)
                  for key in workload.layer_rounds[0]}
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_walls)
            / statistics.median(plain_walls) - 1.0)
    return rounds, extra, layers, problem
