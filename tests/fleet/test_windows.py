"""Window aggregation: folding, compaction, retention, diffs.

The store's core invariant is that every bounding mechanism is
*tick-preserving*: compaction folds cold paths into ``("<other>",)``
and retention merges expired windows into the archive, but the tenant's
total ticks (and the salvage accounting) never change.
"""

import pytest

from repro.core import flamegraph
from repro.fleet import (
    FoldedProfile,
    OTHER_BUCKET,
    PathTable,
    WindowStore,
    WindowSummary,
)
from repro.fleet.windows import ArrayProfile, MethodShare

A = ("app::Main()", "app::Parse()")
B = ("app::Main()", "app::Process()")
C = ("app::Main()",)

FOLDED = {A: 600, B: 300, C: 100}
CALLS = {"app::Main()": 1, "app::Parse()": 4, "app::Process()": 2}


# ----------------------------------------------------------------------
# FoldedProfile: the Analysis-shaped read adapter


def test_folded_profile_quacks_like_an_analysis():
    profile = FoldedProfile(FOLDED, CALLS)
    assert profile.total_exclusive() == 1000
    assert profile.folded() == FOLDED
    assert len(profile) == 3
    assert profile.columns is None  # FlameGraph takes the folded path
    methods = profile.methods()
    assert [m.method for m in methods[:2]] == [
        "app::Parse()",  # hottest leaf first
        "app::Process()",
    ]
    by_name = {m.method: m for m in methods}
    assert by_name["app::Parse()"].exclusive == 600
    assert by_name["app::Parse()"].calls == 4
    assert by_name["app::Main()"].exclusive == 100  # leaf ticks only


def test_folded_profile_feeds_flamegraph_and_diff():
    before = FoldedProfile(FOLDED)
    assert before.flamegraph().total_ticks() == 1000
    after = FoldedProfile({A: 600, B: 1300, C: 100})
    diff = before.diff(after)
    assert diff.regressions()[0].method == "app::Process()"


def test_method_share_defaults():
    share = MethodShare("m")
    assert (share.exclusive, share.calls) == (0, 0)


# ----------------------------------------------------------------------
# WindowSummary: absorb / merge / compact


def test_absorb_accumulates_accounting():
    summary = WindowSummary(7)
    summary.absorb(FOLDED, CALLS, session="s1", entries=12,
                   salvaged=10, quarantined=2, ts=100.0)
    summary.absorb({A: 50}, {}, session="s2", entries=2,
                   salvaged=2, ts=90.0)
    assert summary.ticks == 1050
    assert summary.folded[A] == 650
    assert summary.segments == 2
    assert (summary.entries, summary.salvaged, summary.quarantined) == (
        14, 12, 2
    )
    assert summary.sessions == {"s1", "s2"}
    assert (summary.first_ts, summary.last_ts) == (90.0, 100.0)
    assert summary.to_dict()["paths"] == 3


def test_merge_carries_real_segment_counts():
    left = WindowSummary(1)
    left.absorb(FOLDED, CALLS, session="s1", entries=5, salvaged=5)
    right = WindowSummary(2)
    right.absorb({A: 10}, {}, session="s2", entries=1, salvaged=1)
    right.absorb({B: 10}, {}, session="s3", entries=1, salvaged=1)
    left.merge(right)
    assert left.segments == 3  # 1 + 2, not 1 + "one merge call"
    assert left.sessions == {"s1", "s2", "s3"}
    assert left.ticks == 1020
    assert left.entries == 7


def test_compact_conserves_ticks_exactly():
    summary = WindowSummary(0)
    folded = {("root", f"leaf{i:03d}"): 1000 - i for i in range(100)}
    summary.absorb(folded, {}, entries=100, salvaged=100)
    before = summary.ticks
    folded_away = summary.compact(max_paths=10)
    assert folded_away == 90  # 100 paths -> 9 hottest + <other>
    assert len(summary.folded) == 10
    assert OTHER_BUCKET in summary.folded
    assert sum(summary.folded.values()) == before
    # The hottest survivors are untouched.
    assert summary.folded[("root", "leaf000")] == 1000
    # Already under the cap: a no-op.
    assert summary.compact(max_paths=10) == 0


# ----------------------------------------------------------------------
# WindowStore


def clock_at(state):
    return lambda: state["now"]


def test_store_windows_by_fixed_width_buckets():
    state = {"now": 125.0}
    store = WindowStore(window_seconds=60.0, clock=clock_at(state))
    assert store.window_id() == 2
    wid = store.add("web", FOLDED, CALLS, session="s1",
                    entries=10, salvaged=10)
    assert wid == 2
    state["now"] = 185.0
    assert store.add("web", {A: 1}, entries=1, salvaged=1) == 3
    assert store.tenants() == ["web"]
    assert store.window_ids("web") == [2, 3]
    assert store.window("web", 2).ticks == 1000
    assert store.profile("web", "3").total_exclusive() == 1


def test_retention_expires_into_a_tick_conserving_archive():
    state = {"now": 0.0}
    store = WindowStore(window_seconds=1.0, retention=2,
                        clock=clock_at(state))
    for i in range(5):
        state["now"] = float(i)
        store.add("web", {A: 100}, session=f"s{i}",
                  entries=2, salvaged=2)
    assert store.window_ids("web") == [3, 4]
    archive = store.window("web", "archive")
    assert archive.ticks == 300  # windows 0..2
    assert archive.sessions == {"s0", "s1", "s2"}
    summary = store.summary("web")
    assert summary["ticks"] == 500  # nothing lost to expiry
    assert summary["entries"] == 10
    assert summary["archive"]["segments"] == 3
    assert store.totals()["windows_archived"] == 3
    # merged() folds the archive back in by default...
    assert store.merged("web").total_exclusive() == 500
    # ...and can be scoped to named windows, including the archive.
    assert store.merged("web", wids=[4]).total_exclusive() == 100
    assert store.merged(
        "web", wids=["archive", "3"]
    ).total_exclusive() == 400


def test_diff_between_windows_flags_the_regression():
    state = {"now": 0.0}
    store = WindowStore(window_seconds=60.0, clock=clock_at(state))
    store.add("web", FOLDED, CALLS, entries=10, salvaged=10)
    state["now"] = 60.0
    hot = dict(FOLDED)
    hot[("app::Main()", "app::Regress()")] = 2000
    hot_calls = dict(CALLS, **{"app::Regress()": 6})
    store.add("web", hot, hot_calls, entries=12, salvaged=12)
    diff = store.diff("web", 0, 1)
    top = diff.regressions()[0]
    assert top.method == "app::Regress()"
    assert top.appeared


def test_diff_svg_draws_snapshots_from_their_path_table(monkeypatch):
    """A window diff's flame graph reads each snapshot's interned path
    table, never a ``folded()`` dict, and draws what the dict profiles
    of the same windows draw."""
    store = WindowStore(window_seconds=60.0)
    store.add("web", FOLDED, CALLS, ts=0.0)
    hot = {**FOLDED, ("app::Main()", "app::Regress()"): 2000}
    store.add("web", hot, CALLS, ts=60.0)
    expected = FoldedProfile(FOLDED, CALLS).diff(
        FoldedProfile(hot, CALLS)
    ).flamegraph().to_svg()

    def no_dicts(self):
        raise AssertionError("the diff read a folded() dict")

    monkeypatch.setattr(ArrayProfile, "folded", no_dicts)
    assert store.diff("web", 0, 1).flamegraph().to_svg() == expected


def test_path_table_keeps_its_folded_lines_in_name_order():
    """The table's line stems and name order are extended, and
    re-sorted, only when it grows; a memo is never changed once
    handed out.  The order is the name tuples' (``("foo", "bar")``
    before ``("foo(int, int)",)``), which the joined stems would get
    wrong (``"(" < ";"``)."""
    table = PathTable()
    for path in [("foo(int, int)",), ("foo", "bar"), ("b",)]:
        table.path_id(path)
    lines = table.folded_lines(len(table))
    assert [lines.stems[pid] for pid in lines.order] == [
        "b", "foo", "foo;bar", "foo(int, int)",
    ]
    assert table.folded_lines(2) is lines  # not grown: the same memo
    table.path_id(("a", "z"))
    grown = table.folded_lines(len(table))
    assert [grown.stems[pid] for pid in grown.order] == [
        "a", "a;z", "b", "foo", "foo;bar", "foo(int, int)",
    ]
    assert len(lines.order) == 4  # the old memo is unchanged
    assert table.folded_lines(3) is grown


def test_snapshot_folded_text_renders_from_the_table_lines(monkeypatch):
    """A snapshot's folded text reads its tenant table's memoised
    lines: once they cover the table, rendering a new snapshot builds
    no stems and sorts nothing, and an old snapshot rendered after the
    table grew still shows only its own paths."""
    store = WindowStore(window_seconds=60.0)
    store.add("web", {A: 5, C: 1}, ts=0.0)
    old = store.merged("web")
    store.add("web", {B: 7, ("app::Aux()",): 2}, ts=1.0)
    store.merged("web").to_folded()  # the lines now cover the table
    store.add("web", {A: 1}, ts=2.0)  # no new path
    built = []
    build = flamegraph.folded_lines
    monkeypatch.setattr(
        flamegraph, "folded_lines",
        lambda *args: built.append(args) or build(*args),
    )
    monkeypatch.setattr(
        "repro.fleet.windows._folded_lines", flamegraph.folded_lines
    )
    assert store.merged("web").to_folded() == (
        "app::Aux() 2\n"
        "app::Main() 1\n"
        "app::Main();app::Parse() 6\n"
        "app::Main();app::Process() 7\n"
    )
    assert old.to_folded() == (
        "app::Main() 1\napp::Main();app::Parse() 5\n"
    )
    assert built == []


def test_store_errors_name_what_exists():
    store = WindowStore()
    with pytest.raises(KeyError, match="unknown tenant 'nope'"):
        store.window("nope", 0)
    with pytest.raises(KeyError, match="unknown tenant"):
        store.merged("nope")
    with pytest.raises(KeyError, match="unknown tenant"):
        store.summary("nope")
    store.add("web", {A: 1}, entries=1, salvaged=1)
    with pytest.raises(KeyError, match="has no window 99"):
        store.window("web", 99)
    with pytest.raises(KeyError, match="has no archive yet"):
        store.window("web", "archive")
    with pytest.raises(KeyError, match="has no window"):
        store.merged("web", wids=["bogus"])


def test_store_validates_geometry():
    with pytest.raises(ValueError, match="window_seconds"):
        WindowStore(window_seconds=0)
    with pytest.raises(ValueError, match="retention"):
        WindowStore(retention=0)
    with pytest.raises(ValueError, match="max_paths"):
        WindowStore(max_paths=1)


def test_store_compacts_per_window_and_counts_it():
    store = WindowStore(max_paths=4, clock=lambda: 0.0)
    folded = {("root", f"f{i}"): 10 + i for i in range(8)}
    store.add("web", folded, entries=8, salvaged=8)
    totals = store.totals()
    assert totals["paths"] == 4
    assert totals["paths_compacted"] == 4  # 8 -> 3 hottest + <other>
    assert store.merged("web").total_exclusive() == sum(folded.values())
