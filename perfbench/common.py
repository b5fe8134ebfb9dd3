"""Pieces every benchmark phase shares."""

import statistics
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class PhaseResult:
    """What one phase of a run measured.

    ``metrics`` are end-to-end values; ``layers`` the traced run's
    per-layer values (empty when untraced); ``setup`` the set-up
    samples in seconds; ``problems`` one message per failed operation.
    """

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    problems: list = field(default_factory=list)
    setup: list = field(default_factory=list)


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """The `q`-quantile (0-1) of `values`, nearest rank."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))
    return ordered[rank]


def decompose(phase, traced_s, untraced_s, self_times):
    """Layer self times and shares of one phase's traced end-to-end
    time, the unaccounted remainder (so the parts add up to the
    whole), and the tracing overhead against the untraced time."""
    out = {f"{phase}.traced_e2e_s": traced_s}
    for layer, seconds in self_times.items():
        out[f"{phase}.self_s.{layer}"] = seconds
        out[f"{phase}.share.{layer}"] = seconds / traced_s
    out[f"{phase}.unaccounted_s"] = traced_s - sum(self_times.values())
    out[f"{phase}.tracing_overhead"] = traced_s / untraced_s - 1
    return out


def diff_counts(observed, expected):
    """Names whose counts differ between two dicts."""
    return sorted(
        name for name in set(observed) | set(expected)
        if observed.get(name) != expected.get(name)
    )


def call_counts(analysis):
    """``{method: calls}`` of an analysis.

    A columnar analysis is counted with one ``bincount`` over its
    records; ``Analysis.methods()`` would also build every per-method
    min/max/thread aggregate, which takes seconds per check on a
    4M-entry log and would eat the run's time budget.
    """
    cols = analysis.columns
    if cols is None:
        return {m.method: m.calls for m in analysis.methods()}
    counts = {}
    for mid, n in enumerate(np.bincount(cols.method_id).tolist()):
        if n:
            name = cols.methods[mid]
            counts[name] = counts.get(name, 0) + n
    return counts
