"""Per-tenant sliding time windows over folded-stack summaries.

The fleet daemon never keeps raw logs: every analysed segment is
reduced to a *folded-stack summary* — ``{call path: exclusive ticks}``
plus per-method call counts and the salvage accounting — and folded
into the tenant's window for the segment's ingest timestamp.  Windows
are fixed-width time buckets (``wid = floor(ts / window_seconds)``),
so two daemons with the same clock and width agree on window ids and a
query like ``diff?a=41&b=42`` names the same span on both.

Three bounding mechanisms keep an always-on tenant from growing
without limit, all of them *tick-preserving* (they coarsen, never
drop):

* **compaction** — a window whose folded table exceeds ``max_paths``
  keeps its hottest paths and folds the cold tail into a single
  ``("<other>",)`` bucket, so total ticks are conserved exactly;
* **retention** — only the newest ``retention`` windows stay
  addressable; anything older is merged into the tenant's *archive*
  summary (one compacted summary for all expired history);
* the archive itself is compacted by the same rule.

The read side is built around a per-tenant **interned path table**
(:class:`PathTable`: call path -> dense int id, ``(parent, method)``
pairs — the same shape :class:`repro.core.reconstruct.RecordColumns`
and :meth:`FlameGraph.from_path_table` consume).  A
:class:`WindowSummary` holds numpy ``int64`` tick/call arrays indexed
by those ids instead of tuple-keyed dicts: ``absorb``/``merge`` are
vectorised scatter-adds, ``compact`` an ``argpartition``-style
selection, and a merged query a single array sum.  The pre-interning
dict implementation is kept verbatim as :class:`DictWindowSummary` —
the differential oracle the property tests (and the ``fleet_query``
benchmark baseline) hold the arrays to, tick for tick.

:class:`WindowStore` splits its locking per tenant and serves
``merged()`` through an incremental per-tenant cache keyed on summary
generation counters: a warm query whose windows did not change is a
cache hit, ingest into the current window re-adds only that window's
arrays, and only retention/archive churn rebuilds the merged base —
so a query never re-merges all retained history from scratch, and a
slow consumer on one tenant never blocks ingest on another.

:class:`FoldedProfile` (and its array-backed subclass
:class:`ArrayProfile`, an immutable snapshot) is the read-side
adapter: it exposes the ``methods()`` / ``total_exclusive()`` /
``folded()`` surface of a :class:`~repro.core.analyzer.Analysis`,
which is exactly what :class:`~repro.core.diff.AnalysisDiff` and
:meth:`~repro.core.flamegraph.FlameGraph.from_analysis` consume — so
window-vs-window regression diffs and merged flame graphs reuse the
core machinery unchanged.  A snapshot renders its folded text at
most once, from the line stems and name order its tenant's table
keeps (:meth:`PathTable.folded_lines`); the merged cache hands out the
same snapshot until the next ingest, so a repeated folded query
renders nothing.
"""

import threading
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from repro.core.diff import AnalysisDiff
from repro.core.flamegraph import FlameGraph
from repro.core.flamegraph import folded_lines as _folded_lines

__all__ = [
    "ArrayProfile",
    "DictWindowSummary",
    "FoldedProfile",
    "MethodShare",
    "PathTable",
    "WindowStore",
    "WindowSummary",
    "OTHER_BUCKET",
]

#: The tick-conserving compaction bucket cold paths fold into.
OTHER_BUCKET = ("<other>",)


@dataclass
class MethodShare:
    """Per-method aggregate with the attribute contract
    :class:`~repro.core.diff.AnalysisDiff` reads (``method``,
    ``exclusive``, ``calls``)."""

    method: str
    exclusive: int = 0
    calls: int = 0


class PathTable:
    """A per-tenant interning table: call path tuple -> dense int id.

    ``paths`` holds one ``(parent_path_id, method_id)`` node per
    interned path, parents always preceding children (``-1`` the
    root); ``methods`` is the method-name table and ``tuples`` the
    reverse map id -> path tuple.  Both tables are append-only, so a
    prefix of either is immutable forever — snapshots remember a
    length instead of copying, and what is derived from a prefix (the
    leaf ids, the folded lines) is memoised here and only extended
    when the table grows.
    """

    __slots__ = ("methods", "paths", "tuples", "_method_ids",
                 "_path_ids", "_leaf_cache", "_lines")

    def __init__(self):
        self.methods = []
        self.paths = []
        self.tuples = []
        self._method_ids = {}
        self._path_ids = {}
        self._leaf_cache = np.zeros(0, dtype=np.int64)
        self._lines = _folded_lines(self.paths, self.methods, 0)

    def __len__(self):
        return len(self.paths)

    def method_id(self, name):
        """Intern one method name."""
        mid = self._method_ids.get(name)
        if mid is None:
            mid = self._method_ids[name] = len(self.methods)
            self.methods.append(name)
        return mid

    def path_id(self, path):
        """Intern one call path (and every prefix of it)."""
        pid = self._path_ids.get(path)
        if pid is not None:
            return pid
        if not path:
            raise ValueError("cannot intern an empty call path")
        parent = -1
        for depth in range(len(path)):
            prefix = path[: depth + 1]
            pid = self._path_ids.get(prefix)
            if pid is None:
                pid = len(self.paths)
                self.paths.append((parent, self.method_id(path[depth])))
                self.tuples.append(prefix)
                self._path_ids[prefix] = pid
            parent = pid
        return parent

    def leaf_ids(self, n):
        """The leaf method id of each of the first `n` paths, as one
        ``int64`` array (memoised; rebuilt only when the table grew)."""
        cache = self._leaf_cache
        if len(cache) < n:
            count = len(self.paths)
            cache = np.fromiter(
                (mid for _, mid in self.paths),
                dtype=np.int64, count=count,
            )
            self._leaf_cache = cache
        return cache[:n]

    def folded_lines(self, n):
        """The :class:`~repro.core.flamegraph.FoldedLines` of at least
        the first `n` paths: each path's line stem and the table's
        name order, which any snapshot of the first `n` paths renders
        its folded text from.  Extended to the whole table, and
        re-sorted, only when the table grew past the memo.

        Snapshots render outside the tenant lock while ingest appends
        and other requests render, so a grown memo is built privately
        and published by one attribute store (never half-extended),
        and the caller renders from the object returned here: another
        thread may yet publish a memo that is shorter than `n`."""
        lines = self._lines
        if len(lines.names) < n:
            # ``tuples`` is appended after ``paths``, so its length
            # counts only paths that are complete.
            lines = _folded_lines(
                self.paths, self.methods, len(self.tuples), lines
            )
            self._lines = lines
        return lines


def _grow(arr, n):
    """`arr` zero-extended to length `n` (same array when long enough)."""
    if len(arr) >= n:
        return arr
    out = np.zeros(n, dtype=arr.dtype)
    out[: len(arr)] = arr
    return out


class WindowSummary:
    """Everything one tenant accumulated in one time window, as dense
    arrays over a shared :class:`PathTable`.

    The public surface matches :class:`DictWindowSummary` (the frozen
    dict oracle) exactly — ``folded``/``method_calls`` are
    materialised dict views, every accounting scalar is identical —
    but the hot operations are whole-array numpy:

    * :meth:`absorb` — one fancy-indexed scatter-add per segment;
    * :meth:`merge` — one padded array add (summaries share a table);
    * :meth:`compact` — a partition-select of the hottest paths;

    ``gen`` counts mutations; the store's merged-profile cache keys on
    it.
    """

    __slots__ = (
        "wid", "table", "gen", "segments", "entries", "salvaged",
        "quarantined", "crc_failures", "ticks", "sessions", "first_ts",
        "last_ts", "_ticks", "_present", "_calls", "_calls_present",
        "_folded_memo",
    )

    def __init__(self, wid, table=None):
        self.wid = wid
        self.table = PathTable() if table is None else table
        self.gen = 0
        self.segments = 0
        self.entries = 0
        self.salvaged = 0
        self.quarantined = 0
        self.crc_failures = 0
        self.ticks = 0
        self.sessions = set()
        self.first_ts = None
        self.last_ts = None
        self._ticks = np.zeros(0, dtype=np.int64)
        self._present = np.zeros(0, dtype=bool)
        self._calls = np.zeros(0, dtype=np.int64)
        self._calls_present = np.zeros(0, dtype=bool)
        self._folded_memo = None

    # -- dict-shaped views (the oracle-compatible surface) -------------

    @property
    def folded(self):
        """The ``{path tuple: ticks}`` view, materialised on demand."""
        memo = self._folded_memo
        if memo is not None and memo[0] == self.gen:
            return memo[1]
        tuples = self.table.tuples
        idx = np.flatnonzero(self._present)
        out = {
            tuples[i]: t
            for i, t in zip(idx.tolist(), self._ticks[idx].tolist())
        }
        self._folded_memo = (self.gen, out)
        return out

    @property
    def method_calls(self):
        """The ``{method: calls}`` view, materialised on demand."""
        methods = self.table.methods
        idx = np.flatnonzero(self._calls_present)
        return {
            methods[i]: c
            for i, c in zip(idx.tolist(), self._calls[idx].tolist())
        }

    def path_count(self):
        """Distinct live call paths (what ``len(folded)`` would say)."""
        return int(self._present.sum())

    # -- mutation ------------------------------------------------------

    def _ensure_paths(self, n):
        if len(self._ticks) < n:
            self._ticks = _grow(self._ticks, n)
            self._present = _grow(self._present, n)

    def _ensure_methods(self, n):
        if len(self._calls) < n:
            self._calls = _grow(self._calls, n)
            self._calls_present = _grow(self._calls_present, n)

    def absorb(self, folded, method_calls, session=None, entries=0,
               salvaged=0, quarantined=0, crc_failures=0, ts=None):
        """Fold one segment summary in (tick-exact): intern the paths,
        then one vectorised scatter-add per table."""
        table = self.table
        if folded:
            pids = np.fromiter(
                (table.path_id(p) for p in folded),
                dtype=np.int64, count=len(folded),
            )
            vals = np.fromiter(
                folded.values(), dtype=np.int64, count=len(folded),
            )
            self._ensure_paths(len(table.paths))
            # Dict keys are unique, so the ids are too: plain
            # fancy-index add, no np.add.at needed.
            self._ticks[pids] += vals
            self._present[pids] = True
            self.ticks += int(vals.sum())
        if method_calls:
            mids = np.fromiter(
                (table.method_id(m) for m in method_calls),
                dtype=np.int64, count=len(method_calls),
            )
            cvals = np.fromiter(
                method_calls.values(), dtype=np.int64,
                count=len(method_calls),
            )
            self._ensure_methods(len(table.methods))
            self._calls[mids] += cvals
            self._calls_present[mids] = True
        self.segments += 1
        self.entries += entries
        self.salvaged += salvaged
        self.quarantined += quarantined
        self.crc_failures += crc_failures
        if session is not None:
            self.sessions.add(session)
        if ts is not None:
            self._stamp(ts)
        self.gen += 1

    def _stamp(self, ts):
        self.first_ts = ts if self.first_ts is None else min(
            self.first_ts, ts
        )
        self.last_ts = ts if self.last_ts is None else max(
            self.last_ts, ts
        )

    def merge(self, other):
        """Fold a whole other summary in (retention -> archive).  Two
        summaries over the same table merge as one padded array add."""
        if isinstance(other, WindowSummary) and other.table is self.table:
            n = len(other._ticks)
            if n:
                self._ensure_paths(n)
                self._ticks[:n] += other._ticks
                self._present[:n] |= other._present
            m = len(other._calls)
            if m:
                self._ensure_methods(m)
                self._calls[:m] += other._calls
                self._calls_present[:m] |= other._calls_present
            self.ticks += other.ticks
            self.segments += other.segments
            self.entries += other.entries
            self.salvaged += other.salvaged
            self.quarantined += other.quarantined
            self.crc_failures += other.crc_failures
            self.gen += 1
        else:  # foreign table: intern through the dict views
            self.absorb(
                other.folded, other.method_calls,
                entries=other.entries, salvaged=other.salvaged,
                quarantined=other.quarantined,
                crc_failures=other.crc_failures,
            )
            self.segments += other.segments - 1
        self.sessions |= other.sessions
        for ts in (other.first_ts, other.last_ts):
            if ts is not None:
                self._stamp(ts)

    def compact(self, max_paths):
        """Keep the hottest ``max_paths - 1`` paths, fold the rest into
        :data:`OTHER_BUCKET`.  Total ticks are conserved exactly;
        returns the number of paths folded away.

        Selection matches the dict oracle's ``sorted(items,
        key=(-ticks, path))`` rule: a threshold partition picks the
        strictly-hotter survivors, and only boundary ties pay for
        tuple materialisation and a lexicographic sort.
        """
        live = np.flatnonzero(self._present)
        if live.size <= max_paths:
            return 0
        keep = max_paths - 1
        ticks = self._ticks[live]
        threshold = np.partition(ticks, live.size - keep)[live.size - keep]
        sure = live[ticks > threshold]
        keep_mask = np.zeros(len(self._ticks), dtype=bool)
        keep_mask[sure] = True
        need = keep - sure.size
        if need:
            tuples = self.table.tuples
            tied = sorted(
                live[ticks == threshold].tolist(),
                key=tuples.__getitem__,
            )
            keep_mask[np.asarray(tied[:need], dtype=np.int64)] = True
        cold_mask = self._present & ~keep_mask
        cold_sum = int(self._ticks[cold_mask].sum())
        folded_away = int(cold_mask.sum())
        self._ticks[cold_mask] = 0
        self._present[cold_mask] = False
        other_id = self.table.path_id(OTHER_BUCKET)
        self._ensure_paths(len(self.table.paths))
        self._ticks[other_id] += cold_sum
        if not self._present[other_id]:
            self._present[other_id] = True
            folded_away -= 1  # <other> newly appeared in the table
        self.gen += 1
        return folded_away

    # -- read side -----------------------------------------------------

    def profile(self, title=None):
        """An immutable :class:`ArrayProfile` snapshot (array copies;
        later ingest never mutates a handed-out profile)."""
        return ArrayProfile(
            self.table,
            self._ticks.copy(), self._present.copy(),
            self._calls.copy(), self._calls_present.copy(),
            title=title or f"window {self.wid}",
        )

    def to_dict(self):
        return {
            "wid": self.wid,
            "segments": self.segments,
            "entries": self.entries,
            "salvaged": self.salvaged,
            "quarantined": self.quarantined,
            "crc_failures": self.crc_failures,
            "ticks": self.ticks,
            "paths": self.path_count(),
            "sessions": sorted(self.sessions),
            "first_ts": self.first_ts,
            "last_ts": self.last_ts,
        }


@dataclass
class DictWindowSummary:
    """The pre-interning window summary, kept **verbatim** as the
    differential oracle: pure-Python ``{path tuple: ticks}`` dict
    loops.  The hypothesis property tests drive it and
    :class:`WindowSummary` through identical sequences and demand
    tick-for-tick identical results; the ``fleet_query`` benchmark
    times its merge loop as the frozen baseline.  Do not optimise."""

    wid: object  # int window id, or "archive"
    folded: dict = field(default_factory=dict)
    method_calls: dict = field(default_factory=dict)
    segments: int = 0
    entries: int = 0
    salvaged: int = 0
    quarantined: int = 0
    crc_failures: int = 0
    ticks: int = 0
    sessions: set = field(default_factory=set)
    first_ts: float = None
    last_ts: float = None

    def absorb(self, folded, method_calls, session=None, entries=0,
               salvaged=0, quarantined=0, crc_failures=0, ts=None):
        """Fold one segment summary in (tick-exact)."""
        for path, ticks in folded.items():
            self.folded[path] = self.folded.get(path, 0) + ticks
            self.ticks += ticks
        for method, calls in method_calls.items():
            self.method_calls[method] = (
                self.method_calls.get(method, 0) + calls
            )
        self.segments += 1
        self.entries += entries
        self.salvaged += salvaged
        self.quarantined += quarantined
        self.crc_failures += crc_failures
        if session is not None:
            self.sessions.add(session)
        if ts is not None:
            self.first_ts = ts if self.first_ts is None else min(
                self.first_ts, ts
            )
            self.last_ts = ts if self.last_ts is None else max(
                self.last_ts, ts
            )

    def merge(self, other):
        """Fold a whole other summary in (retention -> archive)."""
        self.absorb(
            other.folded, other.method_calls,
            entries=other.entries, salvaged=other.salvaged,
            quarantined=other.quarantined,
            crc_failures=other.crc_failures,
        )
        # absorb() counted one segment for the merge call itself;
        # replace that with the real count and carry the sessions.
        self.segments += other.segments - 1
        self.sessions |= other.sessions
        for ts in (other.first_ts, other.last_ts):
            if ts is not None:
                self.first_ts = ts if self.first_ts is None else min(
                    self.first_ts, ts
                )
                self.last_ts = ts if self.last_ts is None else max(
                    self.last_ts, ts
                )

    def compact(self, max_paths):
        """Keep the hottest ``max_paths - 1`` paths, fold the rest into
        :data:`OTHER_BUCKET`.  Total ticks are conserved exactly;
        returns the number of paths folded away."""
        if len(self.folded) <= max_paths:
            return 0
        ranked = sorted(
            self.folded.items(), key=lambda kv: (-kv[1], kv[0])
        )
        keep = dict(ranked[: max_paths - 1])
        cold = ranked[max_paths - 1:]
        keep[OTHER_BUCKET] = keep.get(OTHER_BUCKET, 0) + sum(
            ticks for _, ticks in cold
        )
        folded_away = len(self.folded) - len(keep)
        self.folded = keep
        return folded_away

    def path_count(self):
        return len(self.folded)

    def profile(self, title=None):
        return FoldedProfile(
            self.folded, self.method_calls,
            title=title or f"window {self.wid}",
        )

    def to_dict(self):
        return {
            "wid": self.wid,
            "segments": self.segments,
            "entries": self.entries,
            "salvaged": self.salvaged,
            "quarantined": self.quarantined,
            "crc_failures": self.crc_failures,
            "ticks": self.ticks,
            "paths": len(self.folded),
            "sessions": sorted(self.sessions),
            "first_ts": self.first_ts,
            "last_ts": self.last_ts,
        }


class FoldedProfile:
    """An :class:`Analysis`-shaped view over a folded-stack summary.

    Quacks like the analyzer's result object for every consumer the
    fleet surface needs: ``methods()``, ``total_exclusive()``,
    ``folded()`` (and ``columns is None`` so
    :meth:`FlameGraph.from_analysis` takes the folded path).  A
    profile never changes, so :meth:`to_folded` renders its text at
    most once.  The memo takes no lock: threads racing on a first
    render each render the same text, and either copy may be kept.
    """

    columns = None

    def __init__(self, folded, method_calls=None, title="fleet profile"):
        self._folded = dict(folded)
        self._method_calls = dict(method_calls or {})
        self.title = title
        self._folded_text = None

    def folded(self):
        return dict(self._folded)

    def to_folded(self):
        """The folded-stacks text, rendered once (``""`` when the
        profile has no time in it)."""
        text = self._folded_text
        if text is None:
            text = ""
            if self.total_exclusive() > 0:
                text = self.flamegraph().to_folded()
            self._folded_text = text
        return text

    def total_exclusive(self):
        return sum(self._folded.values())

    def methods(self):
        """Per-method exclusive ticks (each path's ticks belong to its
        leaf), hottest first."""
        shares = {}
        for path, ticks in self._folded.items():
            leaf = path[-1]
            share = shares.get(leaf)
            if share is None:
                share = shares[leaf] = MethodShare(leaf)
            share.exclusive += ticks
        for method, calls in self._method_calls.items():
            share = shares.get(method)
            if share is None:
                share = shares[method] = MethodShare(method)
            share.calls = calls
        return sorted(
            shares.values(), key=lambda s: s.exclusive, reverse=True
        )

    def flamegraph(self, title=None):
        return FlameGraph(self._folded, title=title or self.title)

    def diff(self, after, **kwargs):
        """An :class:`AnalysisDiff` from this profile to `after`."""
        return AnalysisDiff(self, after, **kwargs)

    def __len__(self):
        return len(self._folded)


#: Aligned per-method arrays over a shared intern table — the
#: duck-typed contract :class:`~repro.core.diff.AnalysisDiff` reads
#: for its vectorised fast path (``table`` is the identity token two
#: profiles must share for their method ids to align).
MethodRows = namedtuple(
    "MethodRows", ("table", "names", "exclusive", "calls", "present")
)


class ArrayProfile(FoldedProfile):
    """An immutable array-backed profile snapshot over a
    :class:`PathTable`.

    Same duck type as :class:`FoldedProfile`, but the hot consumers
    skip path tuples entirely: :meth:`flamegraph` is a graph over the
    interned table itself (:meth:`FlameGraph.from_path_table`), so the
    folded text renders from the table's memoised line stems and name
    order (:meth:`PathTable.folded_lines`), :meth:`methods` is one
    leaf-id scatter-add, and two snapshots of the same tenant diff
    over aligned method arrays.  ``folded()`` still materialises the
    oracle-identical dict on demand.  The table is append-only and a
    snapshot reads only its first ``n`` paths, so its memoised folded
    text needs no lock and never sees later ingest.
    """

    columns = None

    def __init__(self, table, ticks, present, calls, calls_present,
                 title="fleet profile"):
        self._table = table
        self._n_paths = len(ticks)
        self._ticks = ticks
        self._present = present
        self._calls = calls
        self._calls_present = calls_present
        self.title = title
        self._folded_memo = None
        self._rows = None
        self._folded_text = None

    def folded(self):
        if self._folded_memo is None:
            tuples = self._table.tuples
            idx = np.flatnonzero(self._present)
            self._folded_memo = {
                tuples[i]: t
                for i, t in zip(idx.tolist(), self._ticks[idx].tolist())
            }
        return dict(self._folded_memo)

    def total_exclusive(self):
        return int(self._ticks.sum())

    def __len__(self):
        return int(self._present.sum())

    def _aligned_method_rows(self):
        """Leaf-exclusive / calls arrays aligned to the table's method
        ids (memoised) — one scatter-add instead of a path walk."""
        if self._rows is None:
            table = self._table
            pidx = np.flatnonzero(self._present)
            n_methods = len(self._calls)
            leaves = None
            if pidx.size:
                leaves = table.leaf_ids(self._n_paths)[pidx]
                n_methods = max(n_methods, int(leaves.max()) + 1)
            exclusive = np.zeros(n_methods, dtype=np.int64)
            present = np.zeros(n_methods, dtype=bool)
            if leaves is not None:
                np.add.at(exclusive, leaves, self._ticks[pidx])
                present[leaves] = True
            calls = _grow(self._calls, n_methods)
            present[: len(self._calls_present)] |= self._calls_present
            self._rows = MethodRows(
                table, table.methods, exclusive, calls, present
            )
        return self._rows

    def methods(self):
        rows = self._aligned_method_rows()
        ids = np.flatnonzero(rows.present)
        order = np.argsort(-rows.exclusive[ids], kind="stable")
        names = rows.names
        return [
            MethodShare(
                names[i], int(rows.exclusive[i]), int(rows.calls[i])
            )
            for i in ids[order].tolist()
        ]

    def flamegraph(self, title=None):
        table, n = self._table, self._n_paths
        return FlameGraph.from_path_table(
            table.paths[:n], table.methods, self._ticks,
            title=title or self.title, lines=table.folded_lines(n),
        )


class _MergedCache:
    """One tenant's incremental merged-profile cache.

    ``base`` holds the array sum of every *stable* contributor (the
    archive plus every retained window except the newest), each
    stamped with the summary generation it was folded at;
    ``profile`` is the last full answer with the generation map it
    covered.  A repeat query with no ingest is a pure hit; ingest into
    the newest window costs one array add; only archive churn or a
    late segment landing in an old window rebuilds the base.
    """

    __slots__ = ("base_keys", "ticks", "present", "calls",
                 "calls_present", "profile", "profile_keys",
                 "hits", "folds", "rebuilds")

    def __init__(self):
        self.invalidate()
        self.hits = 0
        self.folds = 0
        self.rebuilds = 0

    def invalidate(self):
        self.base_keys = None
        self.ticks = None
        self.present = None
        self.calls = None
        self.calls_present = None
        self.profile = None
        self.profile_keys = None

    def reset_base(self, n_paths, n_methods):
        self.base_keys = {}
        self.ticks = np.zeros(n_paths, dtype=np.int64)
        self.present = np.zeros(n_paths, dtype=bool)
        self.calls = np.zeros(n_methods, dtype=np.int64)
        self.calls_present = np.zeros(n_methods, dtype=bool)

    def grow(self, n_paths, n_methods):
        self.ticks = _grow(self.ticks, n_paths)
        self.present = _grow(self.present, n_paths)
        self.calls = _grow(self.calls, n_methods)
        self.calls_present = _grow(self.calls_present, n_methods)

    def fold(self, key, summary):
        n = len(summary._ticks)
        if n:
            self.ticks[:n] += summary._ticks
            self.present[:n] |= summary._present
        m = len(summary._calls)
        if m:
            self.calls[:m] += summary._calls
            self.calls_present[:m] |= summary._calls_present
        self.base_keys[key] = summary.gen


class _TenantState:
    """Everything one tenant owns: its lock, its interned path table,
    its retained windows + archive, and its merged-profile cache.
    Nothing here is shared across tenants, so a reader holding one
    tenant's lock cannot delay another tenant's ingest."""

    __slots__ = ("name", "lock", "table", "windows", "archive",
                 "cache", "paths_compacted", "windows_archived")

    def __init__(self, name):
        self.name = name
        self.lock = threading.Lock()
        self.table = PathTable()
        self.windows = {}
        self.archive = None
        self.cache = _MergedCache()
        self.paths_compacted = 0
        self.windows_archived = 0


class WindowStore:
    """Thread-safe per-tenant window aggregation with retention.

    Locking is split per tenant: a tiny registry lock guards only the
    tenant map itself, and every window mutation or query serialises
    on its tenant's own lock.  Reads hand out immutable
    :class:`ArrayProfile` snapshots, so rendering (flame graphs,
    diffs, folded text) always happens outside any lock, and the
    expensive part of a merged query is absorbed by the per-tenant
    incremental cache (see :class:`_MergedCache`).
    """

    def __init__(self, window_seconds=60.0, retention=32,
                 max_paths=4096, clock=time.time):
        if window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be positive: {window_seconds}"
            )
        if retention < 1:
            raise ValueError(f"retention must be >= 1: {retention}")
        if max_paths < 2:
            raise ValueError(f"max_paths must be >= 2: {max_paths}")
        self.window_seconds = window_seconds
        self.retention = retention
        self.max_paths = max_paths
        self.clock = clock
        self._registry_lock = threading.Lock()
        self._states = {}  # tenant -> _TenantState

    @property
    def paths_compacted(self):
        with self._registry_lock:
            return sum(s.paths_compacted for s in self._states.values())

    @property
    def windows_archived(self):
        with self._registry_lock:
            return sum(s.windows_archived for s in self._states.values())

    def _state(self, tenant, create=False):
        with self._registry_lock:
            state = self._states.get(tenant)
            if state is None:
                if not create:
                    raise KeyError(f"unknown tenant {tenant!r}")
                state = self._states[tenant] = _TenantState(tenant)
            return state

    # ------------------------------------------------------------------
    # Write side

    def window_id(self, ts=None):
        ts = self.clock() if ts is None else ts
        return int(ts // self.window_seconds)

    def add(self, tenant, folded, method_calls=None, session=None,
            entries=0, salvaged=0, quarantined=0, crc_failures=0,
            ts=None):
        """Fold one segment summary into `tenant`'s current window
        (or the window for the explicit timestamp `ts`); returns the
        window id it landed in."""
        ts = self.clock() if ts is None else ts
        wid = self.window_id(ts)
        state = self._state(tenant, create=True)
        with state.lock:
            summary = state.windows.get(wid)
            if summary is None:
                summary = state.windows[wid] = WindowSummary(
                    wid, table=state.table
                )
            summary.absorb(
                folded, method_calls or {}, session=session,
                entries=entries, salvaged=salvaged,
                quarantined=quarantined, crc_failures=crc_failures,
                ts=ts,
            )
            state.paths_compacted += summary.compact(self.max_paths)
            self._retain(state)
        return wid

    def _retain(self, state):
        """Expire windows beyond the retention depth into the archive
        (caller holds the tenant lock)."""
        while len(state.windows) > self.retention:
            oldest = min(state.windows)
            expired = state.windows.pop(oldest)
            if state.archive is None:
                state.archive = WindowSummary(
                    "archive", table=state.table
                )
            state.archive.merge(expired)
            state.paths_compacted += state.archive.compact(
                self.max_paths
            )
            state.windows_archived += 1

    # ------------------------------------------------------------------
    # Read side

    def tenants(self):
        with self._registry_lock:
            return sorted(self._states)

    def window_ids(self, tenant):
        """Addressable window ids, oldest first."""
        with self._registry_lock:
            state = self._states.get(tenant)
        if state is None:
            return []
        with state.lock:
            return sorted(state.windows)

    def _require(self, tenant):
        with self._registry_lock:
            state = self._states.get(tenant)
        if state is None or not state.windows:
            raise KeyError(f"unknown tenant {tenant!r}")
        return state

    def _window_locked(self, state, wid):
        """Resolve one window id (caller holds the tenant lock)."""
        if wid == "archive":
            if state.archive is None:
                raise KeyError(
                    f"tenant {state.name!r} has no archive yet"
                )
            return state.archive
        try:
            return state.windows[int(wid)]
        except (KeyError, ValueError):
            raise KeyError(
                f"tenant {state.name!r} has no window {wid!r} "
                f"(have {sorted(state.windows)})"
            ) from None

    def window(self, tenant, wid):
        state = self._require(tenant)
        with state.lock:
            return self._window_locked(state, wid)

    def profile(self, tenant, wid):
        """One window as an immutable :class:`ArrayProfile` snapshot."""
        state = self._require(tenant)
        with state.lock:
            summary = self._window_locked(state, wid)
            return summary.profile(
                title=f"{tenant} window {summary.wid}"
            )

    def merged(self, tenant, wids=None, include_archive=True):
        """All of a tenant's retained windows (or the named subset)
        merged into one profile — the ``/profiles/<tenant>`` surface.

        The default full merge is served from the tenant's incremental
        cache; an explicit ``wids`` subset is summed fresh (still one
        array add per window)."""
        state = self._require(tenant)
        with state.lock:
            if wids is None and include_archive:
                return self._merged_cached(tenant, state)
            if wids is None:
                picked = [
                    state.windows[w] for w in sorted(state.windows)
                ]
            else:
                picked = [
                    self._window_locked(state, wid) for wid in wids
                ]
            merged = WindowSummary("merged", table=state.table)
            for summary in picked:
                merged.merge(summary)
            return merged.profile(title=f"{tenant} merged profile")

    def _merged_cached(self, tenant, state):
        """The full merged profile through the generation-keyed cache
        (caller holds the tenant lock)."""
        cache = state.cache
        contributors = {}
        if state.archive is not None:
            contributors["archive"] = state.archive
        contributors.update(state.windows)
        keys = {k: c.gen for k, c in contributors.items()}
        if cache.profile is not None and cache.profile_keys == keys:
            cache.hits += 1
            return cache.profile
        newest = max(
            (k for k in contributors if k != "archive"), default=None
        )
        stable_keys = {k: g for k, g in keys.items() if k != newest}
        n_paths = len(state.table.paths)
        n_methods = len(state.table.methods)
        if cache.base_keys is not None and all(
            stable_keys.get(k) == g for k, g in cache.base_keys.items()
        ):
            cache.grow(n_paths, n_methods)
            for k in stable_keys.keys() - cache.base_keys.keys():
                cache.fold(k, contributors[k])
                cache.folds += 1
        else:
            cache.reset_base(n_paths, n_methods)
            for k in stable_keys:
                cache.fold(k, contributors[k])
            cache.rebuilds += 1
        ticks = cache.ticks.copy()
        present = cache.present.copy()
        calls = cache.calls.copy()
        calls_present = cache.calls_present.copy()
        if newest is not None:
            summary = contributors[newest]
            n = len(summary._ticks)
            if n:
                ticks[:n] += summary._ticks
                present[:n] |= summary._present
            m = len(summary._calls)
            if m:
                calls[:m] += summary._calls
                calls_present[:m] |= summary._calls_present
        profile = ArrayProfile(
            state.table, ticks, present, calls, calls_present,
            title=f"{tenant} merged profile",
        )
        cache.profile = profile
        cache.profile_keys = keys
        return profile

    def flush_cache(self, tenant=None):
        """Drop merged-profile caches (a bench/test hook: the next
        query pays the cold re-sum)."""
        with self._registry_lock:
            states = [
                s for t, s in self._states.items()
                if tenant is None or t == tenant
            ]
        for state in states:
            with state.lock:
                state.cache.invalidate()

    def diff(self, tenant, a, b):
        """Window-vs-window regression diff (``a`` = before,
        ``b`` = after) built on :class:`AnalysisDiff` — both sides are
        snapshots over the tenant's shared path table, so the diff
        runs on aligned method arrays."""
        before = self.profile(tenant, a)
        after = self.profile(tenant, b)
        return AnalysisDiff(before, after)

    def summary(self, tenant):
        """A JSON-ready description of one tenant's windows."""
        state = self._require(tenant)
        with state.lock:
            out = {
                "tenant": tenant,
                "window_seconds": self.window_seconds,
                "retention": self.retention,
                "windows": [
                    state.windows[w].to_dict()
                    for w in sorted(state.windows)
                ],
            }
            archive = state.archive
            out["archive"] = archive.to_dict() if archive else None
            out["ticks"] = sum(
                w.ticks for w in state.windows.values()
            ) + (archive.ticks if archive else 0)
            out["entries"] = sum(
                w.entries for w in state.windows.values()
            ) + (archive.entries if archive else 0)
            return out

    def totals(self):
        """Fleet-wide gauges for the sampler."""
        with self._registry_lock:
            states = list(self._states.values())
        totals = {
            "tenants": len(states),
            "windows": 0,
            "paths": 0,
            "paths_compacted": 0,
            "windows_archived": 0,
            "merged_cache_hits": 0,
            "merged_cache_folds": 0,
            "merged_cache_rebuilds": 0,
        }
        for state in states:
            with state.lock:
                totals["windows"] += len(state.windows)
                totals["paths"] += sum(
                    s.path_count() for s in state.windows.values()
                )
                totals["paths_compacted"] += state.paths_compacted
                totals["windows_archived"] += state.windows_archived
                totals["merged_cache_hits"] += state.cache.hits
                totals["merged_cache_folds"] += state.cache.folds
                totals["merged_cache_rebuilds"] += state.cache.rebuilds
        return totals
