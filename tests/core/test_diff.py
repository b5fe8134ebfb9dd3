"""Tests for differential profiling (the before/after workflow)."""

import sys

import pytest

from repro.api import Analyzer, SharedLog
from repro.core import AnalysisDiff, KIND_CALL, KIND_RET
from repro.symbols import BinaryImage
from tests.oracles.per_event import append


def build_analysis(spans):
    """spans: [(name, enter, exit)] on one thread; nesting by order."""
    image = BinaryImage("app")
    for name in {name for name, *_ in spans}:
        image.add_function(name, size=64)

    def addr(name):
        return image.symtab.by_name(name).addr

    log = SharedLog.create(max(256, 2 * len(spans)),
                           profiler_addr=image.profiler_addr)
    events = []
    for name, enter, exit_ in spans:
        events.append((enter, KIND_CALL, name))
        events.append((exit_, KIND_RET, name))
    for t, kind, name in sorted(events, key=lambda e: (e[0], e[1])):
        append(log, kind, t, addr(name), 1)
    return Analyzer(image).analyze(log)


@pytest.fixture
def before():
    # getpid dominates: 70 of 100 ticks.
    return build_analysis(
        [("main", 0, 100), ("getpid", 10, 80), ("io", 82, 95)]
    )


@pytest.fixture
def after():
    # getpid cached away: io takes over in a 40-tick run.
    return build_analysis([("main", 0, 40), ("io", 5, 35)])


def test_deltas_ranked_by_magnitude(before, after):
    diff = AnalysisDiff(before, after)
    top = diff.deltas()[0]
    assert top.method == "getpid"
    assert top.delta == pytest.approx(-0.70)


def test_improvements_and_regressions(before, after):
    diff = AnalysisDiff(before, after)
    improved = [d.method for d in diff.improvements(3)]
    regressed = [d.method for d in diff.regressions(3)]
    assert improved[0] == "getpid"
    assert "io" in regressed  # its *share* grew


def test_vanished_and_appeared_flags(before, after):
    diff = AnalysisDiff(before, after)
    assert diff.delta_for("getpid").vanished
    reverse = AnalysisDiff(after, before)
    assert reverse.delta_for("getpid").appeared


def test_delta_for_unknown_method(before, after):
    with pytest.raises(KeyError):
        AnalysisDiff(before, after).delta_for("nope")


def test_report_marks_gone_methods(before, after):
    report = AnalysisDiff(before, after).report()
    assert "getpid" in report
    assert "[gone]" in report
    assert "%" in report


def test_differential_flamegraph_colours(before, after):
    diff = AnalysisDiff(before, after)
    graph = diff.flamegraph()
    assert graph.palette is not None
    svg = graph.to_svg()
    # io grew (red-ish), main is still there; getpid is absent from the
    # after graph entirely.
    assert "io" in svg
    assert "getpid" not in svg
    colors = {
        name: graph.palette(name, level)
        for level, _, name, _, _ in graph.frames()
    }
    red = colors["io"]
    r, g, b = (int(x) for x in red[4:-1].split(","))
    assert r > b  # grew -> red side


def test_shares_are_length_invariant(before):
    # Diffing a profile against a 2x-longer copy of itself: no deltas.
    double = build_analysis(
        [("main", 0, 200), ("getpid", 20, 160), ("io", 164, 190)]
    )
    diff = AnalysisDiff(before, double)
    assert all(abs(d.delta) < 0.02 for d in diff.deltas())


def test_differential_root_is_grey_and_an_empty_before_is_all_new(after):
    """The synthetic root keeps the unchanged grey, whatever the
    frames are called; against a profile with no time at all, every
    frame of the after graph is new code."""
    graph = AnalysisDiff(build_analysis([]), after).flamegraph()
    colors = {
        name: graph.palette(name, level)
        for level, _, name, _, _ in graph.frames()
    }
    assert colors.pop("all") == "rgb(212,212,212)"
    assert set(colors) == {"main", "io"}
    assert set(colors.values()) == {"rgb(230,60,60)"}
    # A frame named ``all`` is a frame, not the root.
    assert graph.palette("all", 1) == "rgb(230,60,60)"
    assert graph.to_svg().startswith("<svg")


def test_a_path_deeper_than_the_recursion_limit_diffs(before):
    """``main`` and then ``walk`` calling itself deeper than the
    recursion limit: the differential graph draws every frame."""
    depth = sys.getrecursionlimit() + 500
    end = 4 * depth
    deep = build_analysis(
        [("main", 0, end)]
        + [("walk", i, end - i) for i in range(1, depth + 1)]
    )
    graph = AnalysisDiff(before, deep).flamegraph()
    svg = graph.to_svg()
    assert svg.count("<rect ") == depth + 3  # background, root, frames
    assert graph.share("walk") > depth / 2
