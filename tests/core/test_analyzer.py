"""Unit tests for the analyzer (stage 3) on hand-built logs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Analyzer, SharedLog
from repro.core import KIND_CALL, KIND_RET
from repro.core.errors import AnalyzerError
from repro.symbols import BinaryImage, mangle
from tests.oracles.per_event import append


@pytest.fixture
def image():
    img = BinaryImage("app")
    for name in ("main", "work", "leaf"):
        img.add_function(name, size=64)
    return img


def addr(image, name):
    return image.symtab.by_name(name).addr


def make_log(image, events, capacity=256):
    log = SharedLog.create(capacity, profiler_addr=image.profiler_addr)
    for kind, name, counter, tid in events:
        append(log, kind, counter, addr(image, name), tid)
    return log


def test_inclusive_and_exclusive_times(image):
    # main [0..100] calls work [10..90] calls leaf [20..30].
    log = make_log(
        image,
        [
            (KIND_CALL, "main", 0, 1),
            (KIND_CALL, "work", 10, 1),
            (KIND_CALL, "leaf", 20, 1),
            (KIND_RET, "leaf", 30, 1),
            (KIND_RET, "work", 90, 1),
            (KIND_RET, "main", 100, 1),
        ],
    )
    analysis = Analyzer(image).analyze(log)
    assert analysis.method("main").inclusive == 100
    assert analysis.method("main").exclusive == 20  # 100 - 80
    assert analysis.method("work").inclusive == 80
    assert analysis.method("work").exclusive == 70
    assert analysis.method("leaf").exclusive == 10
    assert analysis.total_exclusive() == 100


def test_sibling_calls_accumulate(image):
    events = [(KIND_CALL, "main", 0, 1)]
    t = 10
    for _ in range(3):
        events.append((KIND_CALL, "leaf", t, 1))
        events.append((KIND_RET, "leaf", t + 5, 1))
        t += 10
    events.append((KIND_RET, "main", 100, 1))
    analysis = Analyzer(image).analyze(make_log(image, events))
    leaf = analysis.method("leaf")
    assert leaf.calls == 3
    assert leaf.inclusive == 15
    assert leaf.min_inclusive == 5
    assert leaf.max_inclusive == 5
    assert analysis.method("main").exclusive == 85


def test_threads_analyzed_independently(image):
    log = make_log(
        image,
        [
            (KIND_CALL, "main", 0, 1),
            (KIND_CALL, "work", 0, 2),
            (KIND_RET, "main", 50, 1),
            (KIND_RET, "work", 80, 2),
        ],
    )
    analysis = Analyzer(image).analyze(log)
    assert analysis.threads() == [1, 2]
    assert analysis.method("main").inclusive == 50
    assert analysis.method("work").inclusive == 80
    assert analysis.method("main").threads == {1}


def test_chunks_group_rows_per_thread(image):
    """A one-thread chunk hands the shard views of the chunk's own
    columns; a mixed chunk gives each thread its rows in log order,
    threads in first-appearance order."""
    analyzer = Analyzer(image)
    one = make_log(image, [(KIND_CALL, "main", 0, 9), (KIND_RET, "main", 5, 9)])
    cols = next(one.iter_column_chunks(8))
    per_thread = {}
    analyzer._shard_columns(cols, per_thread)
    (segment,) = per_thread[9]
    for got, column in zip(segment, (cols.kind, cols.counter, cols.addr)):
        assert np.shares_memory(got, column)
        assert got.tolist() == column.tolist()
    assert segment[3] is None  # a v1 log has no call sites

    mixed = make_log(image, [
        (KIND_CALL, "main", 0, 7),
        (KIND_CALL, "work", 1, 3),
        (KIND_CALL, "leaf", 2, 7),
        (KIND_RET, "work", 3, 3),
        (KIND_RET, "leaf", 4, 7),
    ])
    per_thread = {}
    analyzer._shard_columns(next(mixed.iter_column_chunks(8)), per_thread)
    assert list(per_thread) == [7, 3]
    assert [seg[1].tolist() for seg in per_thread[7]] == [[0, 2, 4]]
    assert [seg[1].tolist() for seg in per_thread[3]] == [[1, 3]]


def test_recursion_matches_innermost_first(image):
    log = make_log(
        image,
        [
            (KIND_CALL, "work", 0, 1),
            (KIND_CALL, "work", 10, 1),
            (KIND_RET, "work", 20, 1),
            (KIND_RET, "work", 40, 1),
        ],
    )
    analysis = Analyzer(image).analyze(log)
    work = analysis.method("work")
    assert work.calls == 2
    assert work.inclusive == 50  # 10 inner + 40 outer
    assert work.exclusive == 40  # outer contributes 30, inner 10
    depths = sorted(r.depth for r in analysis.records)
    assert depths == [0, 1]


def test_truncated_calls_closed_at_last_counter(image):
    log = make_log(
        image,
        [
            (KIND_CALL, "main", 0, 1),
            (KIND_CALL, "work", 10, 1),
            (KIND_RET, "work", 30, 1),
            # main never returns: log filled up / app still running.
        ],
    )
    analysis = Analyzer(image).analyze(log)
    assert analysis.truncated_calls() == 1
    main = analysis.method("main")
    assert main.inclusive == 30


def test_unmatched_return_dismissed(image):
    log = make_log(
        image,
        [
            (KIND_RET, "leaf", 5, 1),  # tracing was off during the call
            (KIND_CALL, "main", 10, 1),
            (KIND_RET, "main", 20, 1),
        ],
    )
    analysis = Analyzer(image).analyze(log)
    assert analysis.unmatched_returns == 1
    assert analysis.method("main").calls == 1


def test_return_matching_deeper_frame_closes_intermediates(image):
    log = make_log(
        image,
        [
            (KIND_CALL, "main", 0, 1),
            (KIND_CALL, "work", 10, 1),
            # work's return was lost (paused tracing); main returns.
            (KIND_RET, "main", 50, 1),
        ],
    )
    analysis = Analyzer(image).analyze(log)
    assert analysis.method("work").calls == 1
    assert analysis.truncated_calls() == 1
    assert analysis.method("main").calls == 1
    assert analysis.unmatched_returns == 0


def test_relocated_log_resolves_via_profiler_addr(image):
    loaded = image.load(aslr_seed=99)
    log = SharedLog.create(16, profiler_addr=loaded.profiler_addr)
    append(log, KIND_CALL, 0, loaded.runtime_addr(addr(image, "main")), 1)
    append(log, KIND_RET, 10, loaded.runtime_addr(addr(image, "main")), 1)
    analysis = Analyzer(image).analyze(log)
    assert analysis.method("main").inclusive == 10


def test_unknown_addresses_bucketed(image):
    log = SharedLog.create(16, profiler_addr=image.profiler_addr)
    append(log, KIND_CALL, 0, 0xDEAD0000, 1)
    append(log, KIND_RET, 7, 0xDEAD0000, 1)
    analysis = Analyzer(image).analyze(log)
    assert analysis.methods()[0].method.startswith("[unknown")


def test_paths_and_folded(image):
    log = make_log(
        image,
        [
            (KIND_CALL, "main", 0, 1),
            (KIND_CALL, "work", 10, 1),
            (KIND_CALL, "leaf", 20, 1),
            (KIND_RET, "leaf", 30, 1),
            (KIND_RET, "work", 90, 1),
            (KIND_RET, "main", 100, 1),
        ],
    )
    analysis = Analyzer(image).analyze(log)
    folded = analysis.folded()
    assert folded[("main", "work", "leaf")] == 10
    assert folded[("main", "work")] == 70
    assert folded[("main",)] == 20


def test_analyze_accepts_bytes_and_path(image, tmp_path):
    log = make_log(
        image,
        [(KIND_CALL, "main", 0, 1), (KIND_RET, "main", 9, 1)],
    )
    path = tmp_path / "log.teeperf"
    log.dump(path)
    from_bytes = Analyzer(image).analyze(log.to_bytes())
    from_path = Analyzer(image).analyze(str(path))
    assert from_bytes.method("main").inclusive == 9
    assert from_path.method("main").inclusive == 9
    with pytest.raises(AnalyzerError):
        Analyzer(image).analyze(12345)


def test_report_text(image):
    log = make_log(
        image,
        [(KIND_CALL, "main", 0, 1), (KIND_RET, "main", 9, 1)],
    )
    analysis = Analyzer(image).analyze(log)
    text = analysis.report()
    assert "main" in text
    assert "100.00%" in text


def test_method_lookup_miss(image):
    log = make_log(image, [(KIND_CALL, "main", 0, 1), (KIND_RET, "main", 1, 1)])
    analysis = Analyzer(image).analyze(log)
    with pytest.raises(AnalyzerError):
        analysis.method("nope")


def test_to_ns_scaling(image):
    log = make_log(image, [(KIND_CALL, "main", 0, 1), (KIND_RET, "main", 8, 1)])
    analysis = Analyzer(image, tick_ns=2.5).analyze(log)
    assert analysis.to_ns(analysis.method("main").inclusive) == 20.0


@st.composite
def _balanced_trace(draw):
    """Random well-nested call/return sequence over 3 functions."""
    names = ["main", "work", "leaf"]
    events = []
    stack = []
    counter = 0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        counter += draw(st.integers(min_value=1, max_value=50))
        if stack and (len(stack) >= 6 or draw(st.booleans())):
            events.append((KIND_RET, stack.pop(), counter, 1))
        else:
            name = draw(st.sampled_from(names))
            stack.append(name)
            events.append((KIND_CALL, name, counter, 1))
    while stack:
        counter += 1
        events.append((KIND_RET, stack.pop(), counter, 1))
    return events


@settings(max_examples=50, deadline=None)
@given(events=_balanced_trace())
def test_time_conservation_property(events):
    """Sum of exclusive times equals the root spans' inclusive time."""
    image = BinaryImage("app")
    for name in ("main", "work", "leaf"):
        image.add_function(name, size=64)
    analysis = Analyzer(image).analyze(make_log(image, events, capacity=512))
    roots = [r for r in analysis.records if r.depth == 0]
    assert analysis.total_exclusive() == sum(r.inclusive for r in roots)
    # No negative times, ever.
    assert all(r.exclusive >= 0 and r.inclusive >= 0 for r in analysis.records)
    # Every call produced exactly one record.
    calls = sum(1 for kind, *_ in events if kind == KIND_CALL)
    assert len(analysis.records) == calls
