"""Each benchmark check passes on real output and fails on corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import shutil
from dataclasses import replace

import pytest

from perfbench import checks, ingest, query, sampler
from repro.bgp.archive import RollingArchiveWriter
from repro.events import EventPipeline, EventStore, journal_path_for
from repro.gill import GillConfig
from repro.pipeline import CollectionPipeline, PipelineConfig
from repro.workload import SyntheticStreamGenerator, overshoot_config, \
    split_by_vp


def small_stream(seed=3):
    _, stream = SyntheticStreamGenerator(overshoot_config(
        seed=seed, n_vps=8, duration_s=1500.0)).generate()
    stream.sort(key=lambda u: (u.time, u.vp, u.prefix))
    return stream


def collect(stream, directory, gill=False):
    archive = RollingArchiveWriter(directory, interval_s=300.0,
                                   compress=True, checkpoint=True,
                                   index=True)
    pipeline = CollectionPipeline(
        PipelineConfig(n_shards=2, overflow_policy="block",
                       gill=GillConfig(definition=1, max_anchors=2)
                       if gill else None),
        archive=archive)
    EventPipeline(store=EventStore(journal_path_for(directory)),
                  registry=pipeline.metrics.registry).attach(archive)
    assert pipeline.run(split_by_vp(stream)).accounted
    return directory


@pytest.fixture(scope="module")
def stream():
    return small_stream()


@pytest.fixture(scope="module")
def archive_dir(stream, tmp_path_factory):
    return collect(stream, str(tmp_path_factory.mktemp("all")))


@pytest.fixture(scope="module")
def gill_dir(stream, tmp_path_factory):
    return collect(stream, str(tmp_path_factory.mktemp("gill")), gill=True)


@pytest.fixture
def copy_of(tmp_path):
    def make(directory):
        target = str(tmp_path / "copy")
        shutil.copytree(directory, target)
        return target
    return make


def keys(stream):
    return [checks.key_of(u) for u in stream]


# -- ingest -------------------------------------------------------------------

def test_ingest_checks_pass(stream, archive_dir):
    archived = checks.archived_keys(archive_dir)
    checks.check_time_order(archived)
    checks.check_equal_multiset(archived, keys(stream))
    checks.check_digests(archive_dir)
    prefixes = sorted({checks.prefix_text(k) for k in archived})
    checks.check_index_offsets(archive_dir, prefixes)
    checks.check_moas(archive_dir, keys(stream))


def test_missing_update_fails(stream, archive_dir):
    with pytest.raises(checks.CheckFailed, match="differs from input"):
        checks.check_equal_multiset(checks.archived_keys(archive_dir),
                                    keys(stream) + keys(stream[:1]))


def test_out_of_order_fails(archive_dir):
    archived = checks.archived_keys(archive_dir)
    archived[0], archived[-1] = archived[-1], archived[0]
    with pytest.raises(checks.CheckFailed, match="time order"):
        checks.check_time_order(archived)


def test_flipped_segment_byte_fails(archive_dir, copy_of):
    directory = copy_of(archive_dir)
    path = checks.segment_files(directory)[0]
    with open(path, "r+b") as handle:
        handle.seek(40)
        byte = handle.read(1)
        handle.seek(40)
        handle.write(bytes([byte[0] ^ 0x01]))
    with pytest.raises(checks.CheckFailed, match="SHA-256"):
        checks.check_digests(directory)


def test_wrong_index_offset_fails(archive_dir, copy_of):
    directory = copy_of(archive_dir)
    path = checks.segment_files(directory)[0] + ".idx"
    with open(path) as handle:
        doc = json.load(handle)
    prefix = sorted(doc["prefixes"])[0]
    doc["prefixes"][prefix] = doc["prefixes"][prefix][1:]
    with open(path, "w") as handle:
        json.dump(doc, handle)
    with pytest.raises(checks.CheckFailed, match="disagrees"):
        checks.check_index_offsets(directory, [prefix])


def test_single_origin_moas_fails(stream, archive_dir, copy_of):
    directory = copy_of(archive_dir)
    origins = {}
    for key in keys(stream):
        if not key[7]:
            origins.setdefault(checks.prefix_text(key), set()).add(key[5][-1])
    lonely = next(p for p, o in sorted(origins.items()) if len(o) == 1)
    with open(os.path.join(directory, "events.jsonl"), "a") as handle:
        handle.write(json.dumps({"event": {"id": "ev-fake", "type": "moas",
                                           "prefix": lonely}}) + "\n")
    with pytest.raises(checks.CheckFailed, match="fewer than 2 origins"):
        checks.check_moas(directory, keys(stream))


def test_gill_checks_pass_and_catch_a_miscount(stream, gill_dir, copy_of):
    archived = checks.archived_keys(gill_dir)
    checks.check_sub_multiset(archived, keys(stream))
    checks.check_gill_journal(gill_dir, keys(stream), archived)
    assert checks.reconstitution_power(stream, archived) \
        >= ingest.MIN_RECONSTITUTION
    directory = copy_of(gill_dir)
    path = os.path.join(directory, "gill.jsonl")
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    records[0]["kept"] += 1
    with open(path, "w") as handle:
        handle.writelines(json.dumps(r) + "\n" for r in records)
    with pytest.raises(checks.CheckFailed, match="slot"):
        checks.check_gill_journal(directory, keys(stream), archived)


def test_update_not_in_input_fails(stream, gill_dir):
    archived = checks.archived_keys(gill_dir)
    forged = archived[0][:1] + (archived[0][1] + 0.5,) + archived[0][2:]
    with pytest.raises(checks.CheckFailed, match="not in the input"):
        checks.check_sub_multiset(archived + [forged], keys(stream))


def test_reconstitution_power_drops_without_kept_updates(stream):
    assert checks.reconstitution_power(stream, []) == 0.0
    assert checks.reconstitution_power(stream, keys(stream)) == 1.0


def test_ingest_workload_check_rejects_a_tampered_archive(tmp_path):
    workload = ingest.IngestWorkload("ingest_archive_all", 1, str(tmp_path))
    workload.inputs = [(None, small_stream()), (None, small_stream())]
    for index, (_, stream) in enumerate(workload.inputs):
        collect(stream, workload.archive_dir(index))
        workload.last_ok[index] = True
    workload.check()
    # Every input's archive is checked, not only the last one's.
    os.remove(checks.segment_files(workload.archive_dir(0))[-1])
    with pytest.raises(checks.CheckFailed):
        workload.check()


# -- query --------------------------------------------------------------------

@pytest.fixture(scope="module")
def served(stream, archive_dir):
    from repro.query import QueryAPIServer, QueryEngine

    engine = QueryEngine(archive_dir)
    server = QueryAPIServer(engine, port=0, quiet=True,
                            events=EventStore(journal_path_for(archive_dir)))
    server.start()
    yield server
    server.stop()
    engine.close()


def fetch(server, path):
    import urllib.request

    with urllib.request.urlopen(server.url + path, timeout=30) as reply:
        return reply.read()


def test_query_checks_pass_on_real_answers(stream, served):
    expected = query.Expected(stream)
    universe = query.request_universe(stream)
    for kind in ("prefix", "vp", "events", "vps"):
        for path in universe[kind][:4]:
            query.check_response(expected, path, fetch(served, path))


def corrupt(body, edit):
    doc = json.loads(body)
    edit(doc)
    return json.dumps(doc).encode()


def test_query_checks_fail_on_corrupted_answers(stream, served):
    expected = query.Expected(stream)
    prefix_path = query.request_universe(stream)["prefix"][0]
    body = fetch(served, prefix_path)

    def drop_one(doc):
        doc["updates"].pop()
        doc["count"] -= 1

    def shift_time(doc):
        doc["updates"][0]["time"] += 1.0

    for edit in (drop_one, shift_time):
        with pytest.raises(checks.CheckFailed):
            query.check_response(expected, prefix_path, corrupt(body, edit))

    def miscount(doc):
        doc["vps"][0]["updates"] += 1

    with pytest.raises(checks.CheckFailed, match="updates, input has"):
        query.check_response(expected, "/vps",
                             corrupt(fetch(served, "/vps"), miscount))

    events = fetch(served, "/events")
    doc = json.loads(events)
    assert doc["events"], "the fixture archive should hold incidents"
    wrong = doc["events"][0]["types"][0]
    other = "moas" if wrong != "moas" else "flap_storm"
    with pytest.raises(checks.CheckFailed, match="another type"):
        query.check_response(expected, f"/events?type={other}", events)
    with pytest.raises(checks.CheckFailed, match="outside the window"):
        query.check_response(expected, "/events?start=0&end=1", events)


def test_client_check_needs_request_ids_and_stable_answers(stream, served):
    client = query.Client(["/vps"])
    client.run(served.port, 0.2)
    query.check_client(stream, client)
    client.missing_request_id = 1
    with pytest.raises(checks.CheckFailed, match="X-Request-Id"):
        query.check_client(stream, client)
    client.missing_request_id = 0
    body, digests = client.bodies["/vps"]
    digests.add(b"another")
    with pytest.raises(checks.CheckFailed, match="different answers"):
        query.check_client(stream, client)


# -- sampler ------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained():
    from repro.core.sampler import GillSampler
    from repro.workload import StreamConfig

    _, stream = SyntheticStreamGenerator(StreamConfig(
        n_vps=10, duration_s=1800.0, seed=5)).generate()
    stream.sort(key=lambda u: (u.time, u.vp, u.prefix))
    window = stream[:300]
    return window, GillSampler().run(window)


def test_sampler_check_passes(trained):
    window, result = trained
    sampler.check_window(window, result, random.Random(1))


def test_lost_training_update_fails(trained):
    window, result = trained
    broken = replace(result, component1=replace(
        result.component1,
        redundant=result.component1.redundant[1:]))
    with pytest.raises(checks.CheckFailed, match="partition"):
        sampler.check_window(window, broken, random.Random(1))


def test_weak_nonredundant_set_fails(trained):
    window, result = trained
    kept = result.component1.nonredundant
    broken = replace(result, component1=replace(
        result.component1, nonredundant=kept[:len(kept) // 4],
        redundant=result.component1.redundant + kept[len(kept) // 4:]))
    with pytest.raises(checks.CheckFailed, match="reconstitution power"):
        sampler.check_window(window, broken, random.Random(1))


def test_wrong_feature_fails(trained, monkeypatch):
    from repro.core.features import RIBGraph

    window, _ = trained
    original = RIBGraph.node_features

    def skewed(self, node):
        feats = list(original(self, node))
        feats[0] *= 1.0 + 1e-6
        return tuple(feats)

    vp = window[0].vp
    node = sorted({n for e in checks.final_rib_edges(window, vp)
                   for n in e})[0]
    checks.check_features(window, [(vp, node)])
    monkeypatch.setattr(RIBGraph, "node_features", skewed)
    with pytest.raises(checks.CheckFailed, match="closeness"):
        checks.check_features(window, [(vp, node)])


# -- metrics ------------------------------------------------------------------

def test_failed_ops_are_not_counted_as_completed():
    from perfbench.harness import Rounds

    rounds = Rounds()
    rounds.add(2.0, 1.0, 100, 100)
    assert rounds.ops_per_s() == 0.0
    assert rounds.cpu_ms_per_op() is None
    assert rounds.p50_ms() is None
    rounds.add(2.0, 1.0, 100, 0)
    rounds.add(2.0, 1.0, 100, 0)
    assert rounds.ops_per_s() == 50.0
    assert rounds.cpu_ms_per_op() == 10.0
