"""Differential profiling: compare two analyses of the same program.

This is the workflow of the paper's SPDK case study (§IV-C): profile,
optimise, profile again, and *see* where the time went.  The diff works
on per-method shares of total traced time (runs of different lengths
compare cleanly), and the differential flame graph colours the "after"
graph by change — red where a method's share grew, blue where it
shrank, Brendan Gregg's red/blue convention.
"""

from dataclasses import dataclass

import numpy as _np

from repro.core.flamegraph import FlameGraph


@dataclass(frozen=True)
class MethodDelta:
    """One method's movement between two profiles."""

    method: str
    before_share: float
    after_share: float
    before_calls: int
    after_calls: int

    @property
    def delta(self):
        """Share change in percentage points (negative = improved)."""
        return self.after_share - self.before_share

    @property
    def appeared(self):
        return self.before_calls == 0 and self.after_calls > 0

    @property
    def vanished(self):
        return self.before_calls > 0 and self.after_calls == 0


def _shares(analysis):
    total = analysis.total_exclusive() or 1
    return {
        stats.method: (stats.exclusive / total, stats.calls)
        for stats in analysis.methods()
    }


def _aligned_rows(profile):
    """A profile's per-method arrays aligned to a shared intern table
    (``table``/``names``/``exclusive``/``calls``/``present``), or
    ``None`` when the profile doesn't expose them."""
    rows = getattr(profile, "_aligned_method_rows", None)
    return rows() if callable(rows) else None


def _pad(arr, n):
    if len(arr) == n:
        return arr
    out = _np.zeros(n, dtype=arr.dtype)
    out[: len(arr)] = arr
    return out


def _aligned_deltas(b, a):
    """Vectorised delta computation over method arrays that share one
    intern table — both share vectors come from two array divisions
    instead of two full path walks."""
    n = max(len(b.exclusive), len(a.exclusive))
    b_excl, a_excl = _pad(b.exclusive, n), _pad(a.exclusive, n)
    b_calls, a_calls = _pad(b.calls, n), _pad(a.calls, n)
    present = _pad(b.present, n) | _pad(a.present, n)
    b_share = b_excl / (int(b_excl.sum()) or 1)
    a_share = a_excl / (int(a_excl.sum()) or 1)
    names = b.names
    ids = sorted(_np.flatnonzero(present).tolist(),
                 key=names.__getitem__)
    return [
        MethodDelta(names[i], float(b_share[i]), float(a_share[i]),
                    int(b_calls[i]), int(a_calls[i]))
        for i in ids
    ]


class AnalysisDiff:
    """All method deltas between a *before* and an *after* profile.

    Two construction paths produce identical deltas: profiles that
    expose aligned per-method arrays over a *shared* intern table
    (``_aligned_method_rows``, e.g. two fleet window snapshots of one
    tenant) are compared with vectorised share arithmetic; everything
    else goes through the per-method dict walk.
    """

    def __init__(self, before, after):
        self.before = before
        self.after = after
        b_rows = _aligned_rows(before)
        a_rows = _aligned_rows(after)
        if (
            b_rows is not None
            and a_rows is not None
            and b_rows.table is a_rows.table
        ):
            self._deltas = _aligned_deltas(b_rows, a_rows)
        else:
            before_shares = _shares(before)
            after_shares = _shares(after)
            self._deltas = []
            for method in sorted(set(before_shares) | set(after_shares)):
                b_share, b_calls = before_shares.get(method, (0.0, 0))
                a_share, a_calls = after_shares.get(method, (0.0, 0))
                self._deltas.append(
                    MethodDelta(method, b_share, a_share, b_calls,
                                a_calls)
                )
        self._by_method = {d.method: d for d in self._deltas}

    def deltas(self):
        """All deltas, largest absolute share change first."""
        return sorted(self._deltas, key=lambda d: -abs(d.delta))

    def improvements(self, n=10):
        """Methods whose share shrank the most."""
        shrunk = [d for d in self._deltas if d.delta < 0]
        return sorted(shrunk, key=lambda d: d.delta)[:n]

    def regressions(self, n=10):
        """Methods whose share grew the most."""
        grown = [d for d in self._deltas if d.delta > 0]
        return sorted(grown, key=lambda d: -d.delta)[:n]

    def delta_for(self, method):
        try:
            return self._by_method[method]
        except KeyError:
            raise KeyError(
                f"{method!r} appears in neither profile"
            ) from None

    def report(self, top=15):
        lines = [
            "differential profile (exclusive-time shares)",
            f"{'before':>9} {'after':>9} {'change':>9}  method",
        ]
        for delta in self.deltas()[:top]:
            marker = ""
            if delta.vanished:
                marker = "  [gone]"
            elif delta.appeared:
                marker = "  [new]"
            lines.append(
                f"{delta.before_share:>8.2%} {delta.after_share:>8.2%} "
                f"{delta.delta:>+8.2%}  {delta.method}{marker}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------

    def flamegraph(self, title="differential flame graph"):
        """The *after* flame graph coloured by share change (every
        frame is new when the *before* profile has no time at all)."""
        after_graph = _graph(self.after, title)
        before_incl = {}
        if self.before.total_exclusive() > 0:
            before_incl = _inclusive_shares(
                _graph(self.before)
            )
        after_incl = _inclusive_shares(after_graph)

        def palette(name, level):
            if level == 0:
                return "rgb(212,212,212)"  # the whole run: unchanged
            before = before_incl.get(name)
            if before is None:
                return "rgb(230,60,60)"  # new code: strong red
            drift = after_incl.get(name, 0.0) - before
            if abs(drift) < 0.005:
                return "rgb(212,212,212)"  # unchanged: grey
            intensity = min(1.0, abs(drift) * 4)
            level = int(235 - 110 * intensity)
            if drift > 0:
                return f"rgb(235,{level},{level})"  # grew: red
            return f"rgb({level},{level},235)"  # shrank: blue

        after_graph.palette = palette
        return after_graph


def _graph(profile, title="TEE-Perf Flame Graph"):
    """`profile`'s own flame graph when it draws one (a fleet snapshot
    draws from its interned path table), else the analysis graph."""
    draw = getattr(profile, "flamegraph", None)
    if draw is None:
        return FlameGraph.from_analysis(profile, title=title)
    return draw(title=title)


def _inclusive_shares(graph):
    """Summed inclusive share per frame name across the whole graph
    (the graph memoises the underlying totals, so its paths are summed
    at most once per graph)."""
    total = graph.total_ticks()
    return {
        name: value / total
        for name, value in graph.inclusive_totals().items()
    }
