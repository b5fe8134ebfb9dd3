"""``tee-perf fleet serve`` with spans around the fleet's layers.

Usage: ``python3 fleet_daemon.py SPANS_JSON [fleet serve flags...]``.

The daemon runs exactly as the CLI runs it; before it starts, the
public functions each layer is entered through are wrapped:

* ``repro.fleet.workers.analyze_segment`` and the ``recover_log`` it
  reaches — the pool forks its workers after this, so the workers run
  the wrappers, and each worker's timings ride back to the daemon as an
  extra attribute of the ``SegmentResult`` it returns;
* ``FleetDaemon.ingest_segment`` (protocol side of a publish), plus a
  completion callback that files the worker's timings and the queue
  wait, and tracks the largest in-flight count;
* ``WindowStore.add`` and ``WindowStore.merged`` (cold or warm by
  whether the merged-profile cache answered);
* the HTTP handler's ``route`` (folded text or SVG).

Spans stay in memory; at exit they are written to SPANS_JSON with the
pool kind, the largest in-flight count and the store's totals.
"""

import functools
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import repro.core.analyzer as analyzer_module  # noqa: E402
import repro.fleet.workers as workers  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.fleet.daemon import FleetDaemon  # noqa: E402
from repro.fleet.http import _FleetHandler  # noqa: E402
from repro.fleet.windows import WindowStore  # noqa: E402

from spans import Tracer  # noqa: E402

tracer = Tracer()
state = {"daemon": None, "pool_kind": None, "in_flight_max": 0}

# -- worker side ---------------------------------------------------------

_salvage_spans = []
_recover_log = analyzer_module.recover_log
_analyze_segment = workers.analyze_segment


@functools.wraps(_recover_log)
def _traced_recover(*args, **kwargs):
    start = time.perf_counter_ns()
    try:
        return _recover_log(*args, **kwargs)
    finally:
        _salvage_spans.append((start, time.perf_counter_ns()))


@functools.wraps(_analyze_segment)
def _traced_analyze_segment(payload):
    _salvage_spans.clear()
    start = time.perf_counter_ns()
    result = _analyze_segment(payload)
    result.perfbench_spans = (
        start, time.perf_counter_ns(), list(_salvage_spans)
    )
    return result


analyzer_module.recover_log = _traced_recover
workers.analyze_segment = _traced_analyze_segment

# -- daemon side ---------------------------------------------------------

_ingest_segment = FleetDaemon.ingest_segment


@functools.wraps(_ingest_segment)
def _traced_ingest(self, *args, **kwargs):
    with tracer.span("protocol.ingest_segment"):
        submitted = time.perf_counter_ns()
        future = _ingest_segment(self, *args, **kwargs)
    state["daemon"] = self
    state["pool_kind"] = self.pool.kind
    state["in_flight_max"] = max(state["in_flight_max"], self.in_flight)
    future.add_done_callback(lambda fut: _file_worker_spans(fut, submitted))
    return future


def _file_worker_spans(future, submitted):
    spans = getattr(future.result(), "perfbench_spans", None)
    if spans is None:
        return
    start, end, salvage = spans
    tracer.add("workers.queue_wait", submitted, start)
    tracer.add("workers.analyze_segment", start, end)
    for s, e in salvage:
        tracer.add("recovery.salvage", s, e)


FleetDaemon.ingest_segment = _traced_ingest
tracer.wrap(WindowStore, "add", "windows.add")
_merged = WindowStore.merged


@functools.wraps(_merged)
def _traced_merged(self, *args, **kwargs):
    hits = self.totals()["merged_cache_hits"]
    start = time.perf_counter_ns()
    profile = _merged(self, *args, **kwargs)
    end = time.perf_counter_ns()
    warm = self.totals()["merged_cache_hits"] > hits
    tracer.add(
        "windows.query_warm" if warm else "windows.query_cold", start, end
    )
    return profile


WindowStore.merged = _traced_merged
_route = _FleetHandler.route


@functools.wraps(_route)
def _traced_route(self, path, query):
    if path.endswith("/folded"):
        name = "http.folded"
    elif path.endswith("/flamegraph.svg"):
        name = "http.svg"
    else:
        name = "http.other"
    with tracer.span(name):
        return _route(self, path, query)


_FleetHandler.route = _traced_route


if __name__ == "__main__":
    out_path = sys.argv[1]
    code = main(["fleet", "serve"] + sys.argv[2:])
    daemon = state["daemon"]
    with open(out_path, "w") as fh:
        json.dump({
            "spans": tracer.spans,
            "pool_kind": state["pool_kind"],
            "in_flight_max": state["in_flight_max"],
            "totals": daemon.store.totals() if daemon else {},
        }, fh)
    sys.exit(code)
