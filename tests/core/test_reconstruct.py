"""The reconstruction kernel and the balance pass vs the sequential
oracle.

The contract under test: whatever the jobs count, ``Analyzer.analyze``
produces profiles field-for-field identical to the batch oracle's
entry-at-a-time stack walk (:mod:`tests.oracles.batch`).  The kernel
takes a clean shard as it comes; an anomalous shard is rewritten by
:func:`~repro.core.reconstruct.balance` first, the same rules
:func:`~repro.api.repair_tails` writes into a log.
"""

import json
from dataclasses import replace
from itertools import chain, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Analyzer, RecoveryReport, SharedLog, repair_tails
from repro.core import (
    KIND_CALL,
    KIND_RET,
    PipelineStats,
    QuerySession,
    RecordColumns,
    to_json,
    to_metrics,
)
from repro.core.reconstruct import balance, group_keys, run_shard
from repro.monitor import MetricRegistry, PipelineSampler
from repro.symbols import CachedResolver
from tests.oracles.batch import (
    analyze_batch,
    balance_walk,
    method_table,
    reconstruct_python,
)
from tests.oracles.per_event import append

FUNCTIONS = ("main", "work", "leaf", "spin", "idle")


@pytest.fixture
def image():
    from repro.symbols import BinaryImage

    img = BinaryImage("app")
    for name in FUNCTIONS:
        img.add_function(name, size=64)
    return img


def build_log(image, events):
    log = SharedLog.create(
        max(len(events), 1) + 8, profiler_addr=image.profiler_addr
    )
    for kind, fn_index, counter, tid in events:
        addr = image.symtab.by_name(FUNCTIONS[fn_index]).addr
        append(log, kind, counter, addr, tid)
    return log


def assert_identical(image, events):
    analyzer = Analyzer(image)
    log = build_log(image, events)
    analysis = analyzer.analyze(log)
    batch = analyze_batch(analyzer, log)
    assert analysis.records == batch.records
    assert analysis.unmatched_returns == batch.unmatched_returns
    assert analysis.meta == batch.meta
    assert analysis.folded() == batch.folded()
    assert analysis.threads() == batch.threads()
    assert (
        list(analysis.records_frame().rows())
        == list(batch.records_frame().rows())
    )
    assert [
        (s.method, s.calls, s.inclusive, s.exclusive, s.min_inclusive,
         s.max_inclusive, s.threads)
        for s in analysis.methods()
    ] == [
        (s.method, s.calls, s.inclusive, s.exclusive, s.min_inclusive,
         s.max_inclusive, s.threads)
        for s in batch.methods()
    ]
    return analysis, batch


# ----------------------------------------------------------------------
# Grouping keys


@st.composite
def grouping_keys(draw):
    """uint64 or int64 keys over a span that the presence table takes
    (up to a few slots per key) or that it leaves to the sort, placed
    anywhere in the dtype's range, its ends included."""
    dtype = draw(st.sampled_from([np.uint64, np.int64]))
    info = np.iinfo(dtype)
    span = draw(st.sampled_from([1, 2, 64, 4096, 1 << 16, 1 << 40]))
    lo = draw(st.one_of(
        st.sampled_from([int(info.min), int(info.max) - span + 1]),
        st.integers(int(info.min), int(info.max) - span + 1),
    ))
    offsets = draw(st.lists(st.integers(0, span - 1), min_size=1,
                            max_size=40))
    if draw(st.booleans()):
        offsets += [0, span - 1]  # the span's ends occur
    return np.array([lo + o for o in offsets], dtype=dtype)


@settings(deadline=None, max_examples=300)
@given(grouping_keys())
def test_group_keys_equals_np_unique(keys):
    uniq, inverse = group_keys(keys)
    want_uniq, want_inverse = np.unique(keys, return_inverse=True)
    assert uniq.dtype == want_uniq.dtype
    assert uniq.tolist() == want_uniq.tolist()
    assert inverse.dtype == want_inverse.dtype
    assert inverse.tolist() == want_inverse.tolist()


# ----------------------------------------------------------------------
# The differential property


# Arbitrary event soup: unmatched returns, interleaved (cross-frame)
# closes, truncated tails and dropped-event gaps all arise naturally
# from unconstrained kind/function choices.
event_soup = st.lists(
    st.tuples(
        st.sampled_from([KIND_CALL, KIND_RET]),
        st.integers(0, len(FUNCTIONS) - 1),
        st.sampled_from([1, 2, 2**63 + 5]),  # tids, one above int64's range
    ),
    max_size=60,
)


@settings(deadline=None, max_examples=120)
@given(event_soup, st.sampled_from([64, 1 << 20]))
def test_vector_matches_oracle_on_anomalous_shards(ops, size):
    """Functions of 1 MiB spread the call addresses too thin for the
    presence table, so their shards group addresses by sorting."""
    from repro.symbols import BinaryImage

    img = BinaryImage("app")
    for name in FUNCTIONS:
        img.add_function(name, size=size)
    events = [
        (kind, fn, 10 * i, tid) for i, (kind, fn, tid) in enumerate(ops)
    ]
    assert_identical(img, events)


@settings(deadline=None, max_examples=120)
@given(event_soup)
def test_method_table_matches_the_per_record_oracle(ops):
    """The columnar method table equals one built record by record
    from the batch oracle's records: calls, inclusive, exclusive,
    min, max, thread sets and order."""
    from repro.symbols import BinaryImage

    img = BinaryImage("app")
    for name in FUNCTIONS:
        img.add_function(name, size=64)
    log = build_log(img, [
        (kind, fn, 10 * i, tid) for i, (kind, fn, tid) in enumerate(ops)
    ])
    analyzer = Analyzer(img)
    expected = method_table(analyze_batch(analyzer, log).records)
    assert analyzer.analyze(log).methods() == expected


# Guided walks: mostly clean nesting so the kernel takes shards as
# they come (not just balanced ones), with occasional injected
# anomalies.
guided_walk = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, len(FUNCTIONS) - 1)),
    max_size=80,
)


@settings(deadline=None, max_examples=120)
@given(guided_walk, st.booleans())
def test_vector_matches_oracle_on_guided_walks(walk, close_all):
    from repro.symbols import BinaryImage

    img = BinaryImage("app")
    for name in FUNCTIONS:
        img.add_function(name, size=64)
    events = []
    stack = []
    counter = 0
    for action, fn in walk:
        counter += 10
        if action <= 4 and len(stack) < 8:
            stack.append(fn)
            events.append((KIND_CALL, fn, counter, 1))
        elif action <= 7 and stack:
            events.append((KIND_RET, stack.pop(), counter, 1))
        elif action == 8 and stack:
            # Cross-frame close: return to the bottom of the stack.
            events.append((KIND_RET, stack[0], counter, 1))
            stack = []
        else:
            # Unmatched return (or a no-op when the stack is empty).
            events.append((KIND_RET, fn, counter, 1))
    if close_all:
        while stack:
            counter += 10
            events.append((KIND_RET, stack.pop(), counter, 1))
    assert_identical(img, events)


def test_clean_shards_take_the_vector_path(image):
    events = [
        (KIND_CALL, 0, 0, 1),
        (KIND_CALL, 1, 10, 1),
        (KIND_RET, 1, 30, 1),
        (KIND_CALL, 1, 40, 1),
        (KIND_CALL, 2, 50, 1),
        (KIND_RET, 2, 60, 1),
        (KIND_RET, 1, 70, 1),
        (KIND_RET, 0, 100, 1),
    ]
    vector, _ = assert_identical(image, events)
    assert vector.pipeline.shards_analyzed == 1
    assert vector.pipeline.shards_vectorised == 1
    assert vector.pipeline.shards_fallback == 0


def test_a_shard_deeper_than_16_bits_matches_the_oracle(image):
    """65,537 nested calls: depth 65,536 is the first level whose
    pairing key needs 32 bits.  Path tuples of a chain this deep hold
    n(n+1)/2 names, so paths are checked through the path table: each
    record's node is (its caller's node, its method)."""
    depth = 1 << 16
    fns = [
        image.symtab.by_name(FUNCTIONS[i % len(FUNCTIONS)]).addr
        for i in range(depth + 1)
    ]
    kinds = np.repeat(np.array([KIND_CALL, KIND_RET], dtype=np.uint64),
                      depth + 1)
    addrs = np.array(fns + fns[::-1], dtype=np.uint64)
    counters = np.cumsum(np.arange(len(kinds), dtype=np.uint64) % 7 + 1)
    outcome = run_shard(
        5, kinds, counters, addrs, None, 0, CachedResolver(image.symtab)
    )
    assert not outcome.balanced
    cols = outcome.columns
    assert int(cols.depth.max()) == depth
    records, unmatched, mismatches = reconstruct_python(
        5, kinds.tolist(), counters.tolist(), addrs.tolist(), None, 0,
        CachedResolver(image.symtab), paths=False,
    )
    assert (unmatched, mismatches) == (0, outcome.mismatches)
    methods = cols.methods
    assert list(zip(
        [methods[m] for m in cols.method_id.tolist()],
        cols.tid.tolist(), cols.enter.tolist(), cols.exit.tolist(),
        cols.inclusive.tolist(), cols.exclusive.tolist(),
        cols.depth.tolist(),
        [methods[c] if c >= 0 else None for c in cols.caller_id.tolist()],
        cols.truncated.tolist(),
    )) == [
        (r.method, r.tid, r.enter, r.exit, r.inclusive, r.exclusive,
         r.depth, r.caller, r.truncated)
        for r in records
    ]
    # Records close innermost first, so record k's caller is record
    # k + 1 and the outermost call is a root.
    pids = cols.path_id.tolist()
    parents = pids[1:] + [-1]
    assert [cols.paths[p] for p in pids] == list(
        zip(parents, cols.method_id.tolist())
    )


def test_sparse_addresses_are_sorted_and_match_the_oracle():
    """Five functions 1 MiB apart: the call addresses span far more
    than a few slots per call (the presence table's bound is 4 per key
    plus 4,096), so symbolisation groups them by sorting."""
    from repro.symbols import BinaryImage

    img = BinaryImage("app")
    for name in FUNCTIONS:
        img.add_function(name, size=1 << 20)
    events = [
        (kind, fn, 10 * i + 1000 * rep, 1)
        for rep in range(3)
        for i, (kind, fn) in enumerate(CALL_TREE)
    ]
    addrs = [img.symtab.by_name(name).addr for name in FUNCTIONS]
    assert max(addrs) - min(addrs) + 1 > 4 * 15 + 4096
    vector, _ = assert_identical(img, events)
    assert vector.pipeline.shards_vectorised == 1


def test_a_wide_level_is_sorted_and_matches_the_oracle():
    """200 root calls, one per function, then one child under the
    first root and one under the last: the second level's keys span
    (200 paths above) x (200 methods), far more than its two calls'
    presence table may cover, so that level interns by sorting while
    the addresses (200 functions 16 bytes apart) are counted."""
    from repro.symbols import BinaryImage

    img = BinaryImage("app")
    names = [f"f{i}" for i in range(200)]
    addrs = [img.add_function(name, size=16) for name in names]
    log = SharedLog.create(512, profiler_addr=img.profiler_addr)
    counter = 0
    for i, addr in enumerate(addrs):
        events = [(KIND_CALL, addr)]
        if i in (0, len(addrs) - 1):
            events += [(KIND_CALL, addr), (KIND_RET, addr)]
        for kind, at in events + [(KIND_RET, addr)]:
            counter += 3
            append(log, kind, counter, at, 1)
    analyzer = Analyzer(img)
    analysis = analyzer.analyze(log)
    batch = analyze_batch(analyzer, log)
    assert analysis.records == batch.records
    assert analysis.folded() == batch.folded()
    assert analysis.methods() == batch.methods()
    assert analysis.pipeline.shards_vectorised == 1
    cols = analysis.columns
    assert len(cols.paths) == 202
    assert cols.paths[200:] == [(0, 0), (199, 199)]


def test_anomalous_shards_fall_back(image):
    events = [
        (KIND_RET, 2, 5, 1),  # unmatched
        (KIND_CALL, 0, 10, 1),
        (KIND_RET, 0, 20, 1),
        (KIND_CALL, 1, 0, 2),  # truncated tail on tid 2
    ]
    vector, _ = assert_identical(image, events)
    # Both shards are balanced before the kernel runs: the counters
    # split every shard between "as it came" and "balanced first".
    assert vector.pipeline.shards_analyzed == 2
    assert vector.pipeline.shards_vectorised == 0
    assert vector.pipeline.shards_fallback == 2
    assert vector.unmatched_returns == 1
    assert vector.truncated_calls() == 1
    assert isinstance(vector.columns, RecordColumns)


def test_engine_keyword_is_rejected(image):
    """There is one reconstruction path, so there is no knob."""
    log = build_log(image, [(KIND_CALL, 0, 0, 1), (KIND_RET, 0, 50, 1)])
    with pytest.raises(TypeError):
        Analyzer(image).analyze(log, engine="vector")


@settings(deadline=None, max_examples=120)
@given(event_soup)
def test_repair_tails_writes_what_the_analyzer_balances(ops):
    """The matching rules have two callers: the analyzer balances an
    anomalous shard in memory and marks the frames it closes
    truncated, ``repair_tails`` writes the same closes into the log.
    Per thread, analysing the repaired log gives the original
    analysis with ``truncated`` cleared, and the repair counts are
    the analysis's counts."""
    from repro.symbols import BinaryImage

    img = BinaryImage("app")
    for name in FUNCTIONS:
        img.add_function(name, size=64)
    log = build_log(img, [
        (kind, fn, 10 * i, tid) for i, (kind, fn, tid) in enumerate(ops)
    ])
    analyzer = Analyzer(img)
    original = analyzer.analyze(log)
    report = RecoveryReport()
    repaired = analyzer.analyze(repair_tails(log, report))

    def per_thread(records):
        threads = {}
        for record in records:
            threads.setdefault(record.tid, []).append(
                replace(record, truncated=False)
            )
        return threads

    assert per_thread(repaired.records) == per_thread(original.records)
    assert repaired.unmatched_returns == 0
    assert repaired.truncated_calls() == 0
    assert repaired.pipeline.shards_fallback == 0
    assert report.tails_repaired == original.pipeline.frames_truncated
    assert report.rets_dropped == original.unmatched_returns


def assert_balances_like_the_walk(kinds, addrs, call_sites):
    """`balance` and the full walk of the oracle return equal arrays
    of equal dtypes and the same drop count."""
    kinds = np.asarray(kinds, dtype=np.uint64)
    addrs = np.asarray(addrs, dtype=np.uint64)
    counters = np.cumsum(np.arange(1, len(kinds) + 1, dtype=np.uint64))
    if call_sites is not None:
        call_sites = np.asarray(call_sites, dtype=np.uint64)
    got = balance(kinds, counters, addrs, call_sites)
    want = balance_walk(kinds, counters, addrs, call_sites)
    got_arrays = (*got[0], got[1], got[2])
    want_arrays = (*want[0], want[1], want[2])
    for a, b in zip(got_arrays, want_arrays):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype
            assert a.tolist() == b.tolist()
    assert got[3] == want[3]


@settings(deadline=None, max_examples=200)
@given(event_soup, st.booleans())
def test_balance_matches_the_full_walk(ops, with_call_sites):
    """Walking from the first anomaly gives what walking from the
    first entry gives, per thread, with and without call sites."""
    threads = {}
    for kind, fn, tid in ops:
        threads.setdefault(tid, []).append((kind, fn))
    for events in threads.values():
        kinds = [kind for kind, _ in events]
        addrs = [0x400 + 16 * fn for _, fn in events]
        sites = [0x400 + 16 * fn + 3 for _, fn in events]
        assert_balances_like_the_walk(
            kinds, addrs, sites if with_call_sites else None
        )


@pytest.mark.parametrize("with_call_sites", [False, True],
                         ids=["v1", "v2"])
def test_balance_matches_the_full_walk_on_every_cut(with_call_sites):
    """Every prefix of a clean trace, as a thread cut at capture:
    no anomaly comes before the cut, so only the open frames close."""
    trace = CALL_TREE * 2 + [(KIND_CALL, 0), (KIND_CALL, 0),
                             (KIND_RET, 0), (KIND_RET, 0)]
    kinds = [kind for kind, _ in trace]
    addrs = [0x400 + 16 * fn for _, fn in trace]
    sites = [0x400 + 16 * fn + 3 for _, fn in trace]
    for cut in range(1, len(trace) + 1):
        assert_balances_like_the_walk(
            kinds[:cut], addrs[:cut],
            sites[:cut] if with_call_sites else None,
        )


# ----------------------------------------------------------------------
# The columnar record set


def test_record_columns_lazy_materialisation(image):
    events = [
        (KIND_CALL, 0, 0, 1),
        (KIND_CALL, 1, 10, 1),
        (KIND_RET, 1, 30, 1),
        (KIND_RET, 0, 100, 1),
    ]
    analysis = Analyzer(image).analyze(build_log(image, events))
    assert analysis.columns is not None
    assert analysis._records is None
    # Bulk consumers never materialise records...
    analysis.folded()
    analysis.records_frame()
    analysis.methods()
    assert analysis.threads() == [1]
    assert analysis._records is None
    # ...and the lazy property builds (and caches) them on demand.
    records = analysis.records
    assert [r.method for r in records] == ["work", "main"]
    assert analysis.records is records


def test_path_tuples_are_interned(image):
    # The same call path, entered many times.
    events = []
    for i in range(4):
        base = 100 * i
        events += [
            (KIND_CALL, 0, base, 1),
            (KIND_CALL, 1, base + 10, 1),
            (KIND_RET, 1, base + 20, 1),
            (KIND_RET, 0, base + 30, 1),
        ]
    analysis = Analyzer(image).analyze(build_log(image, events))
    inner = [r for r in analysis.records if r.method == "work"]
    assert len(inner) == 4
    first = inner[0].path
    assert first == ("main", "work")
    for record in inner[1:]:
        assert record.path is first


def three_thread_events():
    events = []
    for tid in (1, 2, 3):
        for i in range(3):
            base = 100 * i + tid
            events += [
                (KIND_CALL, 0, base, tid),
                (KIND_CALL, 1, base + 10, tid),
                (KIND_RET, 1, base + 20, tid),
                (KIND_RET, 0, base + 30, tid),
            ]
    return events


# One call tree, 10 events: main(work(leaf), spin(idle)).
CALL_TREE = [
    (KIND_CALL, 0), (KIND_CALL, 1), (KIND_CALL, 2), (KIND_RET, 2),
    (KIND_RET, 1), (KIND_CALL, 3), (KIND_CALL, 4), (KIND_RET, 4),
    (KIND_RET, 3), (KIND_RET, 0),
]


def big_log_events():
    """65,598 entries over 4 interleaved threads; thread 3 stops inside
    its last tree, so its shard is balanced before the kernel while
    the others go to the kernel as they are."""
    per_thread = []
    for tid in (1, 2, 3, 4):
        events = []
        counter = tid
        for i in range(1640):
            for kind, fn in CALL_TREE:
                counter += 1 + (i * 7 + fn + tid) % 5
                events.append((kind, fn, counter, tid))
        if tid == 3:
            del events[-2:]  # spin's and main's returns
        per_thread.append(events)
    return [
        event
        for event in chain.from_iterable(zip_longest(*per_thread))
        if event is not None
    ]


def test_thread_pool_matches_serial_on_a_big_log(image):
    log = build_log(image, big_log_events())
    assert len(log) >= 1 << 16
    analyzer = Analyzer(image)
    serial = analyzer.analyze(log)
    assert serial.pipeline.shards_vectorised == 3
    assert serial.pipeline.shards_fallback == 1
    for jobs in (2, 4):
        pooled = analyzer.analyze(log, jobs=jobs)
        assert pooled.records == serial.records
        assert pooled.unmatched_returns == serial.unmatched_returns
        assert pooled.meta == serial.meta
        assert pooled.pipeline.shards_vectorised == 3
        assert pooled.pipeline.shards_fallback == 1
        assert pooled.pipeline.jobs == jobs


def test_shard_failure_propagates_from_the_thread_pool(image, monkeypatch):
    """A shard that fails raises out of analyze."""

    class ShardFailed(Exception):
        pass

    def failing_run_shard(tid, *args):
        if tid == 2:
            raise ShardFailed(tid)
        return run_shard(tid, *args)

    monkeypatch.setattr("repro.core.analyzer.run_shard", failing_run_shard)
    log = build_log(image, three_thread_events())
    with pytest.raises(ShardFailed):
        Analyzer(image).analyze(log, jobs=2)


@pytest.mark.parametrize(
    "options", [{}, {"jobs": 3}], ids=["vector", "jobs3"],
)
@pytest.mark.parametrize("events", [three_thread_events(), []],
                         ids=["traced", "empty"])
def test_analysis_is_always_columnar(image, options, events):
    analysis = Analyzer(image).analyze(build_log(image, events), **options)
    assert isinstance(analysis.columns, RecordColumns)
    assert len(analysis.columns) == len(analysis.records) == len(events) // 2


def test_call_counts_read_the_columns(image, monkeypatch):
    """report(), to_metrics() and QuerySession.summary() count calls
    without building one CallRecord per call."""
    analysis = Analyzer(image).analyze(
        build_log(image, three_thread_events())
    )

    def no_records(self):
        raise AssertionError("CallRecord objects were materialised")

    monkeypatch.setattr(RecordColumns, "records", no_records)
    assert analysis.report().startswith("TEE-Perf profile: 18 calls, ")
    assert "\nteeperf_profile_calls_total 18\n" in to_metrics(analysis)
    assert "calls: 18" in QuerySession(analysis).summary()


# ----------------------------------------------------------------------
# Observability: the new counters travel everywhere stats do


def test_engine_counters_exported(image):
    events = [(KIND_CALL, 0, 0, 1), (KIND_RET, 0, 50, 1)]
    analysis = Analyzer(image).analyze(build_log(image, events))
    stats = analysis.pipeline

    payload = json.loads(to_json(analysis))["pipeline"]
    assert payload["shards_vectorised"] == 1
    assert payload["shards_fallback"] == 0
    assert PipelineStats.from_dict(payload) == stats
    # A snapshot from before the engine knob went still loads.
    assert PipelineStats.from_dict({**payload, "engine": "vector"}) == stats

    metrics = to_metrics(analysis)
    assert "teeperf_shards_vectorised_total 1" in metrics
    assert "teeperf_shards_fallback_total 0" in metrics

    report = stats.report()
    assert "shards vectorised: 1" in report

    registry = MetricRegistry()
    PipelineSampler(stats).sample(registry)
    assert registry.value("pipeline_shards_vectorised_total") == 1
    assert registry.value("pipeline_shards_fallback_total") == 0


def test_query_session_frames_are_lazy(image):
    events = [(KIND_CALL, 0, 0, 1), (KIND_RET, 0, 50, 1)]
    analysis = Analyzer(image).analyze(build_log(image, events))
    session = QuerySession(analysis)
    assert session._records_frame is None
    assert session._methods_frame is None
    session.hottest(1)  # touches only the methods frame
    assert session._records_frame is None
    assert session._methods_frame is not None
    assert len(session.records) == 1  # now the records frame builds
    assert session._records_frame is not None
