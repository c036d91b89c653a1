"""Correctness checks made apart from the program.

Archives are decoded with this module's own MRT reader (the record
layout is RFC-6396-style framing: ``!dHHI`` header, then VP, prefix,
AS path and communities), digests are recomputed with ``hashlib``, and
graph features are recomputed with ``scipy.sparse.csgraph``.  Program
code is used only where the check's definition names it: the batch
``CorrelationGroups.build`` that defines reconstitution groups, and
``RIBGraph`` whose output is the thing being checked.

Every check raises :class:`CheckFailed` with a reason.
"""

from __future__ import annotations

import bisect
import bz2
import hashlib
import json
import os
import struct
from collections import Counter, defaultdict
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

_HEADER = struct.Struct("!dHHI")
_UPDATE, _ANNOUNCE, _WITHDRAW = 16, 1, 2

#: An update as the checks see it: (vp, time, family, network, length,
#: as_path, sorted communities, withdrawal).
Key = Tuple[str, float, int, int, int, Tuple[int, ...],
            Tuple[Tuple[int, int], ...], bool]


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def key_of(update) -> Key:
    """The check-side key of a program ``BGPUpdate``."""
    prefix = update.prefix
    return (update.vp, update.time, prefix.family, prefix.network,
            prefix.length, tuple(update.as_path),
            tuple(sorted(update.communities)), update.is_withdrawal)


def prefix_text(key: Key) -> str:
    import ipaddress

    family, network, length = key[2], key[3], key[4]
    cls = ipaddress.IPv4Network if family == 4 else ipaddress.IPv6Network
    return str(cls((network, length)))


# -- MRT reading --------------------------------------------------------------

def decode_payload(data: bytes) -> Iterator[Tuple[int, Key]]:
    """Yield ``(offset, key)`` for every update record in ``data``."""
    pos = 0
    end = len(data)
    while pos < end:
        require(pos + _HEADER.size <= end, "truncated MRT header")
        offset = pos
        time, rtype, subtype, length = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        body_end = pos + length
        require(body_end <= end, "truncated MRT body")
        require(rtype == _UPDATE and subtype in (_ANNOUNCE, _WITHDRAW),
                f"unexpected record type {rtype}/{subtype}")
        (vp_len,) = struct.unpack_from("!H", data, pos)
        pos += 2
        vp = data[pos:pos + vp_len].decode("utf-8")
        pos += vp_len
        family, plen = data[pos], data[pos + 1]
        pos += 2
        nbytes = 4 if family == 4 else 16
        network = int.from_bytes(data[pos:pos + nbytes], "big")
        pos += nbytes
        path: Tuple[int, ...] = ()
        comms: Tuple[Tuple[int, int], ...] = ()
        if subtype == _ANNOUNCE:
            (count,) = struct.unpack_from("!H", data, pos)
            pos += 2
            path = struct.unpack_from(f"!{count}I", data, pos)
            pos += 4 * count
            (count,) = struct.unpack_from("!H", data, pos)
            pos += 2
            flat = struct.unpack_from(f"!{2 * count}I", data, pos)
            pos += 8 * count
            comms = tuple(sorted(zip(flat[0::2], flat[1::2])))
        require(pos == body_end, "record body length mismatch")
        yield offset, (vp, time, family, network, plen, tuple(path),
                       comms, subtype == _WITHDRAW)


def read_segment(path: str) -> bytes:
    with open(path, "rb") as handle:
        raw = handle.read()
    return bz2.decompress(raw) if path.endswith(".bz2") else raw


def segment_files(directory: str) -> List[str]:
    """Sealed segment paths, in time order (names sort by start time)."""
    return sorted(
        os.path.join(directory, name) for name in os.listdir(directory)
        if name.startswith("updates.") and not name.endswith(".idx"))


def archived_keys(directory: str) -> List[Key]:
    keys: List[Key] = []
    for path in segment_files(directory):
        keys.extend(key for _, key in decode_payload(read_segment(path)))
    return keys


# -- ingest checks ------------------------------------------------------------

def check_time_order(keys: Sequence[Key]) -> None:
    for before, after in zip(keys, keys[1:]):
        require(before[1] <= after[1],
                f"archive out of time order at t={after[1]}")


def check_equal_multiset(archived: Sequence[Key], inputs: Sequence[Key]
                         ) -> None:
    have, want = Counter(archived), Counter(inputs)
    require(have == want,
            f"archive differs from input: {sum((have - want).values())} "
            f"extra, {sum((want - have).values())} missing")


def check_sub_multiset(archived: Sequence[Key], inputs: Sequence[Key]
                       ) -> None:
    extra = Counter(archived) - Counter(inputs)
    require(not extra,
            f"{sum(extra.values())} archived updates not in the input")


def check_digests(directory: str) -> None:
    with open(os.path.join(directory, "CHECKPOINT.json")) as handle:
        manifest = json.load(handle)
    listed = {entry["file"]: entry for entry in manifest["segments"]}
    on_disk = {os.path.basename(p) for p in segment_files(directory)}
    require(set(listed) == on_disk,
            "CHECKPOINT.json does not list exactly the segments on disk")
    for name, entry in listed.items():
        with open(os.path.join(directory, name), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        require(digest == entry["sha256"], f"SHA-256 mismatch on {name}")


def check_index_offsets(directory: str, prefixes: Iterable[str]) -> None:
    """Each sidecar lists exactly the offsets a full decode finds."""
    wanted = set(prefixes)
    for path in segment_files(directory):
        with open(path + ".idx") as handle:
            postings = json.load(handle)["prefixes"]
        found: Dict[str, List[int]] = defaultdict(list)
        for offset, key in decode_payload(read_segment(path)):
            text = prefix_text(key)
            if text in wanted:
                found[text].append(offset)
        for prefix in wanted:
            require(sorted(postings.get(prefix, [])) == found.get(prefix, []),
                    f"index of {os.path.basename(path)} disagrees with "
                    f"a full decode for {prefix}")


def journal_events(directory: str) -> List[dict]:
    """Latest state of each incident in ``events.jsonl``."""
    latest: Dict[str, dict] = {}
    with open(os.path.join(directory, "events.jsonl")) as handle:
        for line in handle:
            record = json.loads(line)
            event = record.get("event")
            if isinstance(event, dict):
                latest[event["id"]] = event
    return list(latest.values())


def check_moas(directory: str, inputs: Sequence[Key]) -> int:
    """Each moas incident's prefix is announced from >= 2 origins."""
    origins: Dict[str, set] = defaultdict(set)
    for key in inputs:
        if not key[7] and key[5]:
            origins[prefix_text(key)].add(key[5][-1])
    count = 0
    for event in journal_events(directory):
        if event["type"] == "moas":
            count += 1
            require(len(origins.get(event["prefix"], ())) >= 2,
                    f"moas incident {event['id']} on {event['prefix']} "
                    f"but the input has fewer than 2 origins")
    return count


def check_gill_journal(directory: str, inputs: Sequence[Key],
                       archived: Sequence[Key]) -> None:
    """Per slot: kept + dropped = input count, kept = archived count."""
    with open(os.path.join(directory, "gill.jsonl")) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    require(records, "gill.jsonl holds no slot records")

    def per_slot(keys, starts):
        counts: Counter = Counter()
        for key in keys:
            counts[starts[bisect.bisect_right(starts, key[1]) - 1]] += 1
        return counts

    starts = sorted(r["segment_start"] for r in records)
    require(min(k[1] for k in inputs) >= starts[0],
            "input starts before the first journaled slot")
    offered, kept = per_slot(inputs, starts), per_slot(archived, starts)
    for record in records:
        start = record["segment_start"]
        require(record["kept"] + record["dropped"] == offered[start],
                f"slot {start}: kept+dropped {record['kept']}+"
                f"{record['dropped']} != {offered[start]} offered")
        require(record["kept"] == kept[start],
                f"slot {start}: journal kept {record['kept']} but "
                f"{kept[start]} archived")


def reconstitution_power(full: Sequence, subset_keys: Sequence[Key],
                         slack: float = 100.0) -> float:
    """RP(V, U) of §17.2: share of ``full`` rebuilt from ``subset``.

    Groups come from the batch ``CorrelationGroups.build`` over the full
    set; for each kept update the heaviest group containing it is
    re-stamped at its time and matched on VP, AS path, communities and
    withdrawal flag with |dt| < slack.  As in the program's definition,
    the match ignores the prefix: that is what lets the cross-prefix
    pass (§17.3) rebuild one prefix's updates from another's.
    """
    from repro.core.correlation import CorrelationGroups

    groups = CorrelationGroups.build(full)
    by_attr: Dict[tuple, List[Tuple[float, int]]] = defaultdict(list)
    keys = [key_of(u) for u in full]
    for i, key in enumerate(keys):
        by_attr[(key[0], key[5], key[6], key[7])].append((key[1], i))
    for bucket in by_attr.values():
        bucket.sort()
    wanted = Counter(subset_keys)
    matched = set()
    seen = set()
    for update, key in zip(full, keys):
        if not wanted.get(key) or key in seen:
            continue
        seen.add(key)
        group = groups.max_weight_group(update.prefix, update)
        if group is None:
            continue
        for vp, path, comms, withdrawal in group.members:
            bucket = by_attr.get((vp, tuple(path), tuple(sorted(comms)),
                                  withdrawal), ())
            lo = bisect.bisect_left(bucket, (key[1] - slack, -1))
            for time, index in bucket[lo:]:
                if time >= key[1] + slack:
                    break
                if abs(time - key[1]) < slack:
                    matched.add(index)
    return len(matched) / len(full) if full else 1.0


# -- graph features -----------------------------------------------------------

def final_rib_edges(updates: Sequence, vp: str) -> Dict[Tuple[int, int], int]:
    """Directed edge weights of ``vp``'s RIB after the whole stream."""
    paths: Dict[object, Tuple[int, ...]] = {}
    for update in sorted((u for u in updates if u.vp == vp),
                         key=lambda u: u.time):
        if update.is_withdrawal:
            paths.pop(update.prefix, None)
        else:
            paths[update.prefix] = tuple(update.as_path)
    weights: Dict[Tuple[int, int], int] = Counter()
    for path in paths.values():
        for a, b in zip(path, path[1:]):
            if a != b:
                weights[(a, b)] += 1
    return weights


def scipy_node_features(weights: Dict[Tuple[int, int], int], node: int
                        ) -> Tuple[float, float, float, float]:
    """(closeness, harmonic, eccentricity, triangles) of ``node`` on the
    undirected projection with edge length 1/weight."""
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    undirected: Dict[Tuple[int, int], float] = Counter()
    for (a, b), w in weights.items():
        undirected[(min(a, b), max(a, b))] += w
    nodes = sorted({n for edge in undirected for n in edge})
    position = {n: i for i, n in enumerate(nodes)}
    rows, cols, lengths = [], [], []
    for (a, b), w in undirected.items():
        rows += [position[a], position[b]]
        cols += [position[b], position[a]]
        lengths += [1.0 / w, 1.0 / w]
    matrix = coo_matrix((lengths, (rows, cols)),
                        shape=(len(nodes), len(nodes))).tocsr()
    dist = dijkstra(matrix, indices=position[node])
    reach = dist[np.isfinite(dist) & (np.arange(len(nodes))
                                      != position[node])]
    if reach.size:
        closeness = reach.size / reach.sum() * reach.size / (len(nodes) - 1)
        harmonic = float(np.sum(1.0 / reach))
        eccentricity = float(reach.max())
    else:
        closeness = harmonic = eccentricity = 0.0
    neighbours: Dict[int, set] = defaultdict(set)
    for a, b in undirected:
        neighbours[a].add(b)
        neighbours[b].add(a)
    mine = neighbours[node]
    triangles = sum(len(mine & neighbours[other]) for other in mine) // 2
    return float(closeness), harmonic, eccentricity, float(triangles)


def check_features(updates: Sequence, pairs: Sequence[Tuple[str, int]],
                   rel_tol: float = 1e-9) -> None:
    """Program ``RIBGraph.node_features`` against the scipy recomputation."""
    from repro.core.features import RIBGraph

    for vp, node in pairs:
        graph = RIBGraph()
        for update in sorted((u for u in updates if u.vp == vp),
                             key=lambda u: u.time):
            graph.apply_update(update)
        feats = graph.node_features(node)
        program = (feats[0], feats[1], feats[3], feats[4])
        expected = scipy_node_features(final_rib_edges(updates, vp), node)
        for name, got, want in zip(
                ("closeness", "harmonic", "eccentricity", "triangles"),
                program, expected):
            require(abs(got - want) <= rel_tol * max(1.0, abs(want)),
                    f"{name} of AS{node} for {vp}: program {got!r}, "
                    f"scipy {want!r}")
