"""Differential oracle: the array-backed window summary vs the dict one.

House style since the streaming analyzer: every rewrite keeps its
predecessor verbatim as the oracle and property tests drive both
through identical sequences.  Here the interned-path-table
:class:`WindowSummary` must match :class:`DictWindowSummary`
tick-for-tick across random absorb/merge/compact/archive sequences —
including the ``("<other>",)`` compaction tail, the
``salvaged + quarantined == entries`` identity, and the byte-identical
folded text the HTTP route serves (against the dict profile's and the
tree fold's).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diff import AnalysisDiff
from repro.core.flamegraph import FlameGraph
from repro.fleet import (
    DictWindowSummary,
    OTHER_BUCKET,
    WindowStore,
    WindowSummary,
)
from tests.oracles.flamegraph import tree_folded

METHODS = ["app::Main()", "app::Parse()", "app::Run()", "db::Get()",
           "db::Put()"]

paths = st.lists(
    st.sampled_from(METHODS), min_size=1, max_size=4
).map(tuple)

# Ticks stay well under 2**53 so int64 -> float64 share division is
# exact and matches Python int/int bit for bit.
folded_dicts = st.dictionaries(
    paths, st.integers(min_value=0, max_value=10**6), max_size=8
)
call_dicts = st.dictionaries(
    st.sampled_from(METHODS), st.integers(min_value=0, max_value=100),
    max_size=5,
)

segments = st.tuples(
    folded_dicts,
    call_dicts,
    st.integers(min_value=0, max_value=50),  # salvaged
    st.integers(min_value=0, max_value=10),  # quarantined
    st.sampled_from(["s1", "s2", None]),
    st.one_of(st.none(), st.floats(min_value=0, max_value=500)),
)

# One step is either a segment absorb or a compaction at a small cap.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("absorb"), segments),
        st.tuples(st.just("compact"),
                  st.integers(min_value=2, max_value=6)),
    ),
    max_size=12,
)


def apply_steps(summary, step_list):
    for op, arg in step_list:
        if op == "absorb":
            folded, calls, salvaged, quarantined, session, ts = arg
            summary.absorb(
                folded, calls, session=session,
                entries=salvaged + quarantined, salvaged=salvaged,
                quarantined=quarantined, ts=ts,
            )
        else:
            summary.compact(arg)


def assert_identical(arr, oracle):
    assert arr.folded == oracle.folded
    assert arr.method_calls == oracle.method_calls
    assert arr.path_count() == oracle.path_count()
    assert arr.ticks == oracle.ticks
    assert arr.to_dict() == oracle.to_dict()
    assert arr.entries == arr.salvaged + arr.quarantined
    arr_profile, oracle_profile = arr.profile(), oracle.profile()
    assert arr_profile.folded() == oracle_profile.folded()
    assert arr_profile.total_exclusive() == oracle_profile.total_exclusive()
    arr_methods = {
        m.method: (m.exclusive, m.calls) for m in arr_profile.methods()
    }
    oracle_methods = {
        m.method: (m.exclusive, m.calls)
        for m in oracle_profile.methods()
    }
    assert arr_methods == oracle_methods
    excl = [m.exclusive for m in arr_profile.methods()]
    assert excl == sorted(excl, reverse=True)  # hottest first
    assert_same_text(arr_profile, oracle_profile)


def assert_same_text(profile, oracle_profile):
    """The folded text the HTTP route serves is byte-identical to the
    dict profile's and to the tree fold of the same graph."""
    text = profile.to_folded()
    assert text == oracle_profile.to_folded()
    has_ticks = profile.total_exclusive() > 0
    assert has_ticks == (oracle_profile.total_exclusive() > 0)
    if has_ticks:
        assert text == tree_folded(profile.flamegraph())
    else:
        assert text == ""


@settings(deadline=None, max_examples=120)
@given(steps)
def test_summary_matches_dict_oracle(step_list):
    arr, oracle = WindowSummary(7), DictWindowSummary(7)
    apply_steps(arr, step_list)
    apply_steps(oracle, step_list)
    assert_identical(arr, oracle)


@settings(deadline=None, max_examples=80)
@given(steps, steps, st.booleans())
def test_merge_matches_dict_oracle(left_steps, right_steps, shared):
    """merge() is identical whether the two summaries share one path
    table (the in-tenant fast path) or not (the foreign fallback)."""
    arr_left = WindowSummary(1)
    arr_right = WindowSummary(
        2, table=arr_left.table if shared else None
    )
    oracle_left, oracle_right = (
        DictWindowSummary(1), DictWindowSummary(2),
    )
    apply_steps(arr_left, left_steps)
    apply_steps(arr_right, right_steps)
    apply_steps(oracle_left, left_steps)
    apply_steps(oracle_right, right_steps)
    arr_left.merge(arr_right)
    oracle_left.merge(oracle_right)
    assert_identical(arr_left, oracle_left)


@settings(deadline=None, max_examples=60)
@given(st.lists(
    st.tuples(segments, st.floats(min_value=0, max_value=500)),
    min_size=1, max_size=16,
))
def test_store_merged_matches_dict_merge_loop(ingests):
    """The store's cached merged profile (retention + archive churn
    included) equals the frozen dict merge-everything loop."""
    store = WindowStore(window_seconds=60.0, retention=3, max_paths=5)
    oracle_windows = {}
    for (folded, calls, salvaged, quarantined, session, _), ts in ingests:
        wid = store.add(
            "web", folded, calls, session=session,
            entries=salvaged + quarantined, salvaged=salvaged,
            quarantined=quarantined, ts=ts,
        )
        oracle = oracle_windows.setdefault(wid, DictWindowSummary(wid))
        oracle.absorb(
            folded, calls, session=session,
            entries=salvaged + quarantined, salvaged=salvaged,
            quarantined=quarantined, ts=ts,
        )
        oracle.compact(store.max_paths)
        # Mirror retention: expired windows merge into the archive.
        live = {w for w in oracle_windows if w != "archive"}
        while len(live) > store.retention:
            oldest = min(live)
            live.discard(oldest)
            expired = oracle_windows.pop(oldest)
            archive = oracle_windows.setdefault(
                "archive", DictWindowSummary("archive")
            )
            archive.merge(expired)
            archive.compact(store.max_paths)
        # Query every step so the cache sees hit/fold/rebuild churn.
        merged_oracle = DictWindowSummary("merged")
        for key in sorted(
            oracle_windows, key=lambda k: (k == "archive", str(k))
        ):
            merged_oracle.merge(oracle_windows[key])
        profile = store.merged("web")
        assert profile.folded() == merged_oracle.folded
        assert_same_text(profile, merged_oracle.profile())
        assert store.merged("web") is profile  # warm repeat: pure hit
    summary = store.summary("web")
    assert summary["entries"] == sum(
        w["salvaged"] + w["quarantined"]
        for w in summary["windows"]
        + ([summary["archive"]] if summary["archive"] else [])
    )
    totals = store.totals()
    assert totals["merged_cache_hits"] >= len(ingests)


def oracle_text(folded):
    """The folded text of a ``{path: ticks}`` dict, by the dict
    graph's own lines and by the tree fold."""
    if not any(t > 0 for t in folded.values()):
        return ""
    graph = FlameGraph(folded)
    text = graph.to_folded()
    assert text == tree_folded(graph)
    return text


@settings(deadline=None, max_examples=80)
@given(st.lists(
    st.tuples(folded_dicts, st.booleans(), st.booleans()),
    min_size=1, max_size=12,
))
def test_snapshots_render_from_the_growing_table(ingests):
    """Snapshots render their folded text from their tenant table's
    memoised lines, which grow and re-sort as ingest adds paths in any
    order.  Every snapshot — merged or one window's, rendered at once
    or only after the table grew under it — equals the folded text of
    the dict oracle's ``FlameGraph(folded)``."""
    store = WindowStore(window_seconds=60.0, retention=64,
                        max_paths=4096)
    oracle = {}  # wid -> DictWindowSummary
    late = []
    for i, (folded, merged, render_now) in enumerate(ingests):
        wid = store.add("web", folded, ts=60.0 * (i // 2))
        oracle.setdefault(wid, DictWindowSummary(wid)).absorb(folded, {})
        if merged:
            snapshot = store.merged("web")
            expected = DictWindowSummary("merged")
            for summary in oracle.values():
                expected.merge(summary)
        else:
            snapshot, expected = store.profile("web", wid), oracle[wid]
        text = oracle_text(expected.folded)
        if render_now and i:  # the first snapshot always renders late
            assert snapshot.to_folded() == text
        else:
            late.append((snapshot, text))
    for snapshot, text in late:
        assert snapshot.to_folded() == text


@settings(deadline=None, max_examples=60)
@given(folded_dicts, call_dicts, folded_dicts, call_dicts)
def test_aligned_diff_matches_dict_diff(b_folded, b_calls, a_folded,
                                        a_calls):
    """Two snapshots over one shared path table diff via the aligned
    array path; the result must equal the per-method dict walk, and
    the differential flame graph the dict profiles' one."""
    store = WindowStore(window_seconds=60.0, retention=8,
                        max_paths=4096)
    store.add("web", b_folded, b_calls, ts=0.0)
    store.add("web", a_folded, a_calls, ts=60.0)
    fast = store.diff("web", 0, 1)
    slow = AnalysisDiff(
        DictWindowSummary(0, dict(b_folded), dict(b_calls)).profile(),
        DictWindowSummary(1, dict(a_folded), dict(a_calls)).profile(),
    )
    fast_rows = [
        (d.method, d.before_share, d.after_share, d.before_calls,
         d.after_calls)
        for d in fast.deltas()
    ]
    slow_rows = [
        (d.method, d.before_share, d.after_share, d.before_calls,
         d.after_calls)
        for d in slow.deltas()
    ]
    assert sorted(fast_rows) == sorted(slow_rows)
    for method, *_ in fast_rows:
        assert fast.delta_for(method).delta == (
            slow.delta_for(method).delta
        )
    # The diff SVG draws both snapshots from their path table; the
    # dict profiles draw from folded dicts.
    if any(t > 0 for t in a_folded.values()):
        assert fast.flamegraph().to_svg() == slow.flamegraph().to_svg()


def test_compaction_tail_is_tick_conserving():
    arr, oracle = WindowSummary(0), DictWindowSummary(0)
    folded = {("m%d" % i,): 100 - i for i in range(10)}
    for s in (arr, oracle):
        s.absorb(folded, {})
    assert arr.compact(4) == oracle.compact(4) == 6  # 10 -> 3 + <other>
    assert arr.folded[OTHER_BUCKET] == oracle.folded[OTHER_BUCKET]
    assert arr.ticks == oracle.ticks == sum(folded.values())
    assert_identical(arr, oracle)
