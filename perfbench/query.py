"""The ``query_http`` workload: a closed-loop client against ``serve``.

Set-up builds a compressed, indexed, checkpointed archive with an event
journal from a seeded 24-VP stream, starts ``repro-bgp serve`` on it in
its own process and warms the indexes up (``/vps`` loads every segment's
sidecar).  One client on a keep-alive connection then sends requests
back to back from one seeded sequence: about 60%
prefix-selective ``/updates``, 20% VP-selective ``/updates``, 10%
``/events`` and 10% ``/vps``.  Within a kind, requests repeat by the
repetition model of ``benchmarks/bench_query_load.py``: a request's
rank in a seeded order of the kind's requests is drawn from an
exponential distribution.  Its mean rank here is half the engine's
128-entry result cache, so the popular ``/updates`` requests outnumber
the cache and it both hits and misses.  The mix and the mean rank are
assumptions, not taken from a request log; every run prints the cache
hit share it measured.

Latency runs from sending a request to reading the last body byte.  CPU
and peak memory are the server process's, read from ``/proc``.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from . import checks
from .harness import Rounds, make_input, median_setup, run_rounds, \
    seeded_offset
from .tracing import SELF_WALL, WALL

N_VPS = 24
STREAM_S = 5 * 3600.0
#: First updates of the stream kept (about four hours of it).
N_UPDATES = 9000
INTERVAL_S = 300.0
WINDOW_S = 3600.0
#: Closed-loop connections.  One: the server answers with one thread at
#: a time under the GIL, so a second connection added queueing, not
#: throughput, and doubled the run-to-run spread (see the README).
CLIENTS = 1
#: Mean of the exponentially drawn rank of a request within its kind.
MEAN_RANK = 64
MIX = (("prefix", 0.6), ("vp", 0.2), ("events", 0.1), ("vps", 0.1))
SEQUENCE_LENGTH = 200_000
#: Length of one round of the closed loop.
PHASE_S = 1.0
#: Set-up requests: ``/vps`` loads every segment's index sidecar.
WARM_UP = ("/healthz", "/vps", "/events")
START_TIMEOUT_S = 60.0
#: Each set-up builds an archive and starts a server (about 4 s).
SETUP_REPEATS = 3


def make_stream(seed: int) -> list:
    from repro.workload import StreamConfig

    return make_input(StreamConfig(n_vps=N_VPS, duration_s=STREAM_S),
                      "query", N_UPDATES, seeded_offset(seed))


def build_archive(stream, directory: str) -> None:
    """Write the served archive the way the pipeline's writer does."""
    from repro.bgp.archive import RollingArchiveWriter
    from repro.events import EventPipeline, EventStore, journal_path_for

    archive = RollingArchiveWriter(directory, interval_s=INTERVAL_S,
                                   compress=True, checkpoint=True,
                                   index=True)
    EventPipeline(store=EventStore(journal_path_for(directory))
                  ).attach(archive)
    archive.write_stream(stream)
    archive.close()


# -- the request universe and sequence ----------------------------------------

def request_universe(stream) -> Dict[str, List[str]]:
    first = math.floor(stream[0].time / WINDOW_S) * WINDOW_S
    windows = []
    start = first
    while start <= stream[-1].time:
        windows.append((start, start + WINDOW_S))
        start += WINDOW_S
    prefixes = sorted({checks.prefix_text(checks.key_of(u))
                       for u in stream})
    vps = sorted({u.vp for u in stream})
    universe: Dict[str, List[str]] = {"prefix": [], "vp": [],
                                      "events": [], "vps": []}
    for prefix in prefixes:
        universe["prefix"].append(f"/updates?prefix={prefix}")
        universe["prefix"] += [
            f"/updates?prefix={prefix}&start={s:.0f}&end={e:.0f}"
            for s, e in windows]
    universe["vp"] = [f"/updates?vp={vp}&start={s:.0f}&end={e:.0f}"
                      for vp in vps for s, e in windows]
    universe["events"] = (
        [f"/events?type={t}" for t in ("moas", "origin_hijack",
                                       "flap_storm", "subprefix_hijack",
                                       "mass_withdrawal")]
        + [f"/events?start={s:.0f}&end={e:.0f}" for s, e in windows]
        + ["/events?state=resolved", "/events?state=new"])
    universe["vps"] = ["/vps", "/vps?sort=updates", "/vps?limit=5"]
    return universe


def request_sequence(seed: int, universe: Dict[str, List[str]]
                     ) -> List[str]:
    rng = random.Random(seed)
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]
    ranked = {kind: rng.sample(paths, len(paths))
              for kind, paths in universe.items()}
    sequence = []
    for _ in range(SEQUENCE_LENGTH):
        paths = ranked[rng.choices(kinds, weights)[0]]
        rank = int(rng.expovariate(1.0 / MEAN_RANK)) % len(paths)
        sequence.append(paths[rank])
    return sequence


# -- server processes ---------------------------------------------------------

class Server:
    """One ``serve`` process over an archive directory."""

    def __init__(self, directory: str, work: str, traced: bool = False):
        self.directory = directory
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.dump_path = os.path.join(work, f"layers-{id(self)}.json")
        if traced:
            command = [sys.executable, "-m", "perfbench.serve_traced",
                       self.dump_path]
        else:
            command = [sys.executable, "-m", "repro.cli"]
        command += ["serve", directory, "--port", "0"]
        self.log = open(os.path.join(work, f"serve-{id(self)}.log"), "w")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self.log, text=True)
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith("serving ") and " on http://" in line:
                return int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        self.stop()
        raise RuntimeError("serve did not start; see its log")

    def cpu_s(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / \
            os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"{path} answered {response.status}")
            return body
        finally:
            conn.close()

    def read_layers(self) -> dict:
        if os.path.exists(self.dump_path):
            os.remove(self.dump_path)
        self.process.send_signal(signal.SIGUSR2)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(self.dump_path):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no layer dump")
            time.sleep(0.05)
        with open(self.dump_path) as handle:
            return json.load(handle)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(15.0)
        self.process.stdout.close()
        self.log.close()


# -- the closed loop ----------------------------------------------------------

class Client:
    """Runs the request sequence over ``CLIENTS`` keep-alive connections."""

    def __init__(self, sequence: List[str]):
        self.sequence = sequence
        self._next = itertools.count()
        self.latencies_ms: List[float] = []
        self.failed = 0
        self.missing_request_id = 0
        #: path -> (first body, set of body digests seen)
        self.bodies: Dict[str, Tuple[bytes, set]] = {}
        #: Guards the counters and ``bodies`` across client threads.
        self._lock = threading.Lock()

    def _loop(self, port: int, until: float) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        clock = time.perf_counter
        try:
            while clock() < until:
                path = self.sequence[next(self._next) % len(self.sequence)]
                sent = clock()
                try:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=60)
                    with self._lock:
                        self.failed += 1
                    continue
                self.latencies_ms.append(1000.0 * (clock() - sent))
                digest = hashlib.blake2b(body, digest_size=16).digest()
                with self._lock:
                    if response.status != 200:
                        self.failed += 1
                        continue
                    if not response.getheader("X-Request-Id"):
                        self.missing_request_id += 1
                    seen = self.bodies.setdefault(path, (body, set()))
                    seen[1].add(digest)
        finally:
            conn.close()

    def run(self, port: int, seconds: float) -> Tuple[int, int, float]:
        """Send requests for ``seconds``; returns (requests, failed,
        wall)."""
        sent, failed = len(self.latencies_ms) + self.failed, self.failed
        started = time.perf_counter()
        threads = [threading.Thread(target=self._loop,
                                    args=(port, started + seconds),
                                    name=f"client{i}")
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        return (len(self.latencies_ms) + self.failed - sent,
                self.failed - failed, wall)


# -- checks -------------------------------------------------------------------

class Expected:
    """The benchmark's own answers, from the generated stream."""

    def __init__(self, stream):
        self.rows: Dict[str, List[tuple]] = {}
        self.by_vp: Dict[str, List[tuple]] = {}
        for update in stream:
            key = checks.key_of(update)
            row = (key[0], key[1], checks.prefix_text(key), key[5], key[6],
                   key[7])
            self.rows.setdefault(row[2], []).append(row)
            self.by_vp.setdefault(row[0], []).append(row)
        self.vp_counts = {vp: len(rows) for vp, rows in self.by_vp.items()}

    def updates(self, params: Dict[str, str]) -> List[tuple]:
        start = float(params.get("start", "-inf"))
        end = float(params.get("end", "inf"))
        if "prefix" in params:
            rows = self.rows.get(params["prefix"], [])
        else:
            rows = self.by_vp.get(params.get("vp"), [])
        return sorted(row for row in rows
                      if start <= row[1] < end
                      and ("vp" not in params or row[0] == params["vp"]))


def check_response(expected: Expected, path: str, body: bytes) -> None:
    from urllib.parse import parse_qsl, urlsplit

    url = urlsplit(path)
    params = dict(parse_qsl(url.query))
    doc = json.loads(body)
    if url.path == "/updates":
        got = [(u["vp"], u["time"], u["prefix"], tuple(u["as_path"]),
                tuple(tuple(c) for c in u["communities"]), u["withdrawal"])
               for u in doc["updates"]]
        times = [row[1] for row in got]
        checks.require(times == sorted(times),
                       f"{path}: answer not in time order")
        checks.require(sorted(got) == expected.updates(params),
                       f"{path}: answer differs from the input's filter")
        checks.require(doc["count"] == len(got), f"{path}: bad count")
    elif url.path == "/vps":
        counts = expected.vp_counts
        checks.require(doc["count"] == len(counts),
                       f"{path}: {doc['count']} VPs, input has "
                       f"{len(counts)}")
        for row in doc["vps"]:
            checks.require(row["updates"] == counts[row["vp"]],
                           f"{path}: {row['vp']} has {row['updates']} "
                           f"updates, input has {counts.get(row['vp'])}")
    elif url.path == "/events":
        start = float(params.get("start", "-inf"))
        end = float(params.get("end", "inf"))
        for event in doc["events"]:
            if "type" in params:
                checks.require(params["type"] in (event["types"]
                                                  or [event["type"]]),
                               f"{path}: {event['id']} has another type")
            if "state" in params:
                checks.require(event["state"] == params["state"],
                               f"{path}: {event['id']} in another state")
            checks.require(event["last_seen"] >= start
                           and event["first_seen"] < end,
                           f"{path}: {event['id']} outside the window")
    else:
        raise checks.CheckFailed(f"unexpected request {path}")


def check_client(stream, client: Client) -> None:
    checks.require(client.missing_request_id == 0,
                   f"{client.missing_request_id} responses without "
                   f"X-Request-Id")
    expected = Expected(stream)
    for path, (body, digests) in client.bodies.items():
        checks.require(len(digests) == 1,
                       f"{path}: {len(digests)} different answers")
        check_response(expected, path, body)


# -- the workload -------------------------------------------------------------

class Deployment:
    """One set-up: archive directory, running server(s), warm indexes."""

    def __init__(self, seed: int, work: str):
        self.directory = os.path.join(work, f"archive-{time.monotonic_ns()}")
        self.stream = make_stream(seed)
        build_archive(self.stream, self.directory)
        self.servers: List[Server] = []
        self.start_server(work)

    def start_server(self, work: str, traced: bool = False) -> "Server":
        try:
            server = Server(self.directory, work, traced=traced)
            self.servers.append(server)
            for path in WARM_UP:
                server.get(path)
        except BaseException:
            self.close()
            raise
        return server

    def start_traced(self, work: str) -> "Server":
        return self.start_server(work, traced=True)

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.directory, ignore_errors=True)

    def stored_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.directory, name))
                   for name in os.listdir(self.directory))


def cache_counts(server: Server) -> Tuple[int, float]:
    """(queries, result-cache hit rate) so far, from ``/status``."""
    status = json.loads(server.get("/status"))
    return status["queries"], status["cache_hit_rate"]


def cache_share(before: Tuple[int, float], after: Tuple[int, float]
                ) -> Dict[str, float]:
    """Queries and the share of them the result cache answered between
    two ``cache_counts``."""
    queries = after[0] - before[0]
    hits = after[0] * after[1] - before[0] * before[1]
    return {"queries": queries,
            "hit_share": round(hits / queries, 3) if queries else 0.0}


def _layers(dump: dict, plain_rate: float, traced_rate: float
            ) -> Dict[str, float]:
    layers = dump["layers"]

    def wall(layer: str) -> float:
        return float(layers.get(layer, [0, 0.0])[WALL])

    stats = dump["stats"]
    return {
        "engine.query_s": wall("engine.query"),
        "planner.plan_s": wall("planner.plan"),
        "guard.verify_s": wall("guard.verify"),
        "mrt.decode_s": wall("mrt.decode"),
        "server.serialize_s": wall("server.serialize"),
        "events.query_s": wall("events.query"),
        "engine.vp_counts_s": wall("engine.vp_counts"),
        "server.self_s": float(layers.get("server", [0] * 6)[SELF_WALL]),
        "cache.hits": stats["cache_hits"],
        "cache.misses": stats["cache_misses"],
        "planner.segments_pruned": stats["segments_pruned_time"]
        + stats["segments_pruned_index"],
        "engine.segments_decoded": stats["segments_decoded"],
        "engine.records_decoded": stats["records_decoded"],
        "process.cpu_s": dump["process_cpu_s"],
        "attributed_cpu_s": dump["attributed_cpu_s"],
        "unattributed_cpu_s": dump["process_cpu_s"]
        - dump["attributed_cpu_s"],
        "trace.overhead_pct": 100.0 * (plain_rate / traced_rate - 1.0),
    }


def run(name: str, seed: int, seconds: float, trace: bool, work: str):
    """Measure ``query_http``; same return shape as ``ingest.run``.

    The closed loop runs in phases of ``PHASE_S``, one round each, so a
    stretch the host slows down is outvoted by the median over phases of
    the rate and the CPU; ``p50_ms`` is taken over every request of the
    plain phases.  Prints the result cache's hit share over them.  Traced
    runs alternate phases on the plain server and on a second,
    traced server over the same archive; only the traced server's
    layers are reported, and the rate ratio gives the tracing overhead.
    """
    # The client and the server process (which inherits this affinity)
    # share one CPU, so that a request's wake-ups never cross CPUs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deployment, setup_s = median_setup(
        lambda: Deployment(seed, work), lambda d: d.close(),
        repeats=SETUP_REPEATS)
    rounds = Rounds()
    client = Client(request_sequence(seed, request_universe(
        deployment.stream)))
    layers: Optional[Dict[str, float]] = None
    try:
        plain = deployment.servers[0]
        traced = deployment.start_traced(work) if trace else None
        rates: Dict[bool, List[float]] = {False: [], True: []}

        def one_round() -> None:
            use_traced = traced is not None \
                and len(rates[False]) > len(rates[True])
            server = traced if use_traced else plain
            cpu0 = server.cpu_s()
            first = len(client.latencies_ms)
            requests, failed, wall = client.run(server.port, PHASE_S)
            rounds.add(wall, server.cpu_s() - cpu0, requests, failed)
            if not use_traced:
                rounds.latencies_ms += client.latencies_ms[first:]
            rates[use_traced].append(requests / wall)

        if traced is not None:
            traced.process.send_signal(signal.SIGUSR1)
        cache0 = cache_counts(plain)
        run_rounds(seconds, one_round)
        print("cache: " + json.dumps(cache_share(cache0,
                                                 cache_counts(plain))))
        if traced is not None:
            if not rates[True]:
                one_round()
            layers = _layers(traced.read_layers(),
                             statistics.median(rates[False]),
                             statistics.median(rates[True]))
        extra = {
            "setup_s": setup_s,
            "peak_rss_mb": plain.peak_rss_mb(),
            "stored_bytes_per_update":
                deployment.stored_bytes() / len(deployment.stream),
        }
    finally:
        deployment.close()
    problem = None
    try:
        check_client(deployment.stream, client)
    except checks.CheckFailed as exc:
        problem = str(exc)
    return rounds, extra, layers, problem
