"""``repro-bgp serve`` with the query layers traced.

    python3 -m perfbench.serve_traced DUMP.json serve ARCHIVE --port 0

Runs the unchanged ``serve`` command with :data:`QUERY_TARGETS` wrapped.
``SIGUSR1`` starts a measurement (clears the layer stats and notes the
process CPU and the engine's counters); ``SIGUSR2`` writes the layer
stats, the process CPU and the counter deltas since then to DUMP.json.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sys
import time


def main(argv) -> int:
    from repro import cli
    from repro.query.engine import QueryEngine

    from perfbench.tracing import QUERY_TARGETS, LayerTracer

    dump_path, serve_args = argv[0], argv[1:]
    tracer = LayerTracer().install(QUERY_TARGETS)
    engines = []
    original_init = QueryEngine.__init__

    def remember(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        engines.append(self)

    QueryEngine.__init__ = remember
    start = {"cpu": time.process_time(), "stats": {}}

    def counters() -> dict:
        return dataclasses.asdict(engines[0].stats_snapshot()) \
            if engines else {}

    def begin(signum, frame) -> None:
        tracer.reset()
        start["cpu"] = time.process_time()
        start["stats"] = counters()

    def dump(signum, frame) -> None:
        now = counters()
        doc = {
            "layers": tracer.layers(),
            "process_cpu_s": time.process_time() - start["cpu"],
            "attributed_cpu_s": tracer.attributed_cpu_s(),
            "stats": {key: value - start["stats"].get(key, 0)
                      for key, value in now.items()},
        }
        tmp = dump_path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(doc, handle)
        os.replace(tmp, dump_path)

    signal.signal(signal.SIGUSR1, begin)
    signal.signal(signal.SIGUSR2, dump)
    return cli.main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
