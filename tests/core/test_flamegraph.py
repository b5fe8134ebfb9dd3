"""Unit tests for the Flame Graph writer (stage 4)."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import Analyzer, FlameGraph, SharedLog
from repro.core import KIND_CALL, KIND_RET
from repro.core.flamegraph import folded_lines
from repro.symbols import BinaryImage
from tests.oracles.flamegraph import (
    tree_folded,
    tree_frames,
    tree_inclusive_totals,
)
from tests.oracles.per_event import append

OUT = Path(__file__).resolve().parents[2] / "benchmarks" / "out"


@pytest.fixture
def folded():
    return {
        ("main",): 10,
        ("main", "io"): 30,
        ("main", "io", "read"): 50,
        ("main", "compute"): 110,
    }


def test_totals_nest(folded):
    graph = FlameGraph(folded)
    assert graph.total_ticks() == 200
    # (level, start, name, self ticks, total): children by name, each
    # starting where its previous sibling ends.
    assert list(graph.frames()) == [
        (0, 0, "all", 0, 200),
        (1, 0, "main", 10, 200),
        (2, 0, "compute", 110, 110),
        (2, 110, "io", 30, 80),
        (3, 110, "read", 50, 50),
    ]


def test_share(folded):
    graph = FlameGraph(folded)
    assert graph.share("compute") == pytest.approx(110 / 200)
    assert graph.share("io") == pytest.approx(80 / 200)
    assert graph.share("main") == pytest.approx(1.0)


def test_share_sums_same_named_frames():
    graph = FlameGraph({("a", "x"): 10, ("b", "x"): 30})
    assert graph.share("x") == pytest.approx(1.0)


def test_folded_output_roundtrips(folded):
    text = FlameGraph(folded).to_folded()
    lines = dict(
        (line.rsplit(" ", 1)[0], int(line.rsplit(" ", 1)[1]))
        for line in text.strip().splitlines()
    )
    assert lines["main;io;read"] == 50
    assert lines["main;compute"] == 110
    assert lines["main"] == 10


def test_svg_contains_frames_and_tooltips(folded):
    svg = FlameGraph(folded, title="My & Graph").to_svg()
    assert svg.startswith("<svg")
    assert svg.endswith("</svg>")
    assert "My &amp; Graph" in svg
    assert "compute" in svg
    assert "<title>" in svg


def test_write_files(folded, tmp_path):
    graph = FlameGraph(folded)
    svg_path = tmp_path / "graph.svg"
    folded_path = tmp_path / "graph.folded"
    graph.write_svg(str(svg_path))
    graph.write_folded(str(folded_path))
    assert svg_path.read_text().startswith("<svg")
    assert "main;compute 110" in folded_path.read_text()


def test_empty_profile_rejected():
    with pytest.raises(ValueError):
        FlameGraph({})
    with pytest.raises(ValueError, match="empty call path"):
        FlameGraph({("a",): 1, (): 5})  # no node to hold the 5 ticks


def test_zero_tick_paths_ignored():
    graph = FlameGraph({("a",): 0, ("b",): 5})
    assert graph.total_ticks() == 5


def test_depth_layout_offsets_are_disjoint(folded):
    graph = FlameGraph(folded)
    by_level = {}
    for level, start, _, _, total in graph.frames():
        by_level.setdefault(level, []).append((start, start + total))
    for level, spans in by_level.items():
        spans.sort()
        for (a_start, a_end), (b_start, _) in zip(spans, spans[1:]):
            assert a_end <= b_start, f"overlap at level {level}"


# ----------------------------------------------------------------------
# The path table: folded text and layout from one set of lines, and the
# synthetic root


def test_folded_text_needs_no_tree(folded):
    graph = FlameGraph(folded)
    assert graph.to_folded() == (
        "main 10\nmain;compute 110\nmain;io 30\nmain;io;read 50\n"
    )
    assert graph.total_ticks() == 200
    assert graph._totals is None  # folded from the table alone
    lines = graph._lines
    assert graph.share("io") == pytest.approx(80 / 200)
    assert graph._totals is not None  # a share sums the paths once
    graph.to_svg()
    assert graph._lines is lines  # the layout reads the same lines


def test_a_frame_named_all_is_not_the_root():
    graph = FlameGraph({("all",): 5, ("all", "x"): 3, ("main",): 2})
    assert graph.to_folded() == "all 5\nall;x 3\nmain 2\n"
    assert graph.total_ticks() == 10
    assert graph.share("all") == pytest.approx(8 / 10)
    assert graph.share("x") == pytest.approx(3 / 10)
    assert graph.to_folded() == tree_folded(graph)
    assert FlameGraph({("main",): 2}).share("all") == 0


def test_every_constructor_rejects_a_graph_with_no_positive_tick():
    with pytest.raises(ValueError, match="nothing to draw"):
        FlameGraph({("a",): 0, ("b",): -3})
    with pytest.raises(ValueError, match="nothing to draw"):
        FlameGraph.from_path_table(
            [(-1, 0), (0, 1)], ["a", "b"], np.zeros(2, dtype=np.int64)
        )
    image = BinaryImage("app")
    addr = image.add_function("idle", size=64)
    log = SharedLog.create(8, profiler_addr=image.profiler_addr)
    append(log, KIND_CALL, 10, addr, 1)
    append(log, KIND_RET, 10, addr, 1)  # no time inside
    analysis = Analyzer(image).analyze(log)
    assert len(analysis.columns) == 1
    with pytest.raises(ValueError, match="nothing to draw"):
        FlameGraph.from_analysis(analysis)


def test_path_table_graph_equals_the_dict_graph():
    """Zero-tick table paths draw nothing: the table graph lays out
    and renders exactly as the dict built from its positive paths."""
    methods = ["main", "io", "idle", "read"]
    paths = [(-1, 0), (0, 1), (0, 2), (1, 3), (2, 3)]
    ticks = np.array([10, 0, 0, 50, 0], dtype=np.int64)
    table = FlameGraph.from_path_table(paths, methods, ticks, title="t")
    folded = FlameGraph({("main",): 10, ("main", "io", "read"): 50},
                        title="t")
    assert table.to_folded() == folded.to_folded() == (
        "main 10\nmain;io;read 50\n"
    )
    assert table.to_svg() == folded.to_svg()
    assert list(table.frames()) == list(folded.frames())
    assert table.inclusive_totals() == folded.inclusive_totals() == {
        "main": 60, "io": 50, "read": 50,
    }


frame_names = st.one_of(
    st.sampled_from(["all", "main", "io", "a b", "", '<&"x">']),
    st.text(
        st.characters(exclude_characters=";\n",
                      exclude_categories=("Cs",)),
        max_size=3,
    ),
)
folded_dicts = st.dictionaries(
    st.lists(frame_names, min_size=1, max_size=4).map(tuple),
    st.integers(min_value=-5, max_value=10**6),
    min_size=1, max_size=12,
)


@settings(deadline=None, max_examples=200)
@given(folded_dicts)
def test_folded_text_parses_back_to_the_positive_entries(folded):
    positive = {path: t for path, t in folded.items() if t > 0}
    assume(positive)
    graph = FlameGraph(folded)
    text = graph.to_folded()
    assert text.endswith("\n")
    parsed = {}
    for line in text[:-1].split("\n"):
        stack, _, ticks = line.rpartition(" ")
        parsed[tuple(stack.split(";"))] = int(ticks)
    assert parsed == positive
    assert list(parsed) == sorted(parsed)  # a prefix before its extensions
    assert sum(parsed.values()) == graph.total_ticks()
    assert text == tree_folded(graph)
    assert list(graph.frames()) == tree_frames(graph)
    assert graph.inclusive_totals() == tree_inclusive_totals(graph)


@st.composite
def path_tables(draw):
    """A path table — parents before children, no two children of one
    parent named alike — with zero, negative and positive ticks, and
    how many of its first paths a graph takes."""
    methods = draw(st.lists(frame_names, min_size=1, max_size=6,
                            unique=True))
    paths, taken = [], set()
    for _ in range(draw(st.integers(1, 16))):
        node = (draw(st.integers(-1, len(paths) - 1)),
                draw(st.integers(0, len(methods) - 1)))
        if node not in taken:
            taken.add(node)
            paths.append(node)
    ticks = draw(st.lists(
        st.one_of(st.just(0), st.integers(-5, -1), st.integers(1, 10**6)),
        min_size=len(paths), max_size=len(paths),
    ))
    n = draw(st.integers(1, len(paths)))
    return paths, methods, ticks, n


@settings(deadline=None, max_examples=300)
@given(path_tables(), st.booleans())
def test_table_layout_equals_the_tree_walk(table, whole_table_lines):
    """A graph over the first `n` paths of a table — handed the lines
    of the whole table, as a fleet snapshot is, or building its own —
    lays out, sums and folds exactly as the tree walk does."""
    paths, methods, ticks, n = table
    assume(any(t > 0 for t in ticks[:n]))
    lines = None
    if whole_table_lines:
        lines = folded_lines(paths, methods, len(paths))
    graph = FlameGraph.from_path_table(
        paths[:n], methods, np.array(ticks[:n], dtype=np.int64),
        lines=lines,
    )
    assert list(graph.frames()) == tree_frames(graph)
    assert graph.inclusive_totals() == tree_inclusive_totals(graph)
    assert graph.to_folded() == tree_folded(graph)
    for name, total in graph.inclusive_totals().items():
        assert graph.share(name) == total / graph.total_ticks()


# ----------------------------------------------------------------------
# Layout: the committed figures, and call paths deeper than the
# interpreter's recursion limit


def _read_folded(path):
    folded = {}
    for line in path.read_text().splitlines():
        stack, _, ticks = line.rpartition(" ")
        folded[tuple(stack.split(";"))] = int(ticks)
    return folded


@pytest.mark.parametrize("stem, svg, title", [
    ("fig5_rocksdb", "fig5_rocksdb_flamegraph.svg",
     "Figure 5 — RocksDB db_bench in SGX (TEE-Perf)"),
    ("fig6_spdk_unoptimized", "fig6_spdk_unoptimized.svg",
     "Figure 6 (top) — unoptimized SPDK in SGX"),
    ("fig6_spdk_optimized", "fig6_spdk_optimized.svg",
     "Figure 6 (bottom) — optimized SPDK in SGX"),
], ids=["fig5", "fig6-top", "fig6-bottom"])
def test_committed_figures_redraw_byte_for_byte(stem, svg, title):
    """The Fig. 5/6 flame graphs, redrawn from their committed folded
    stacks with the benches' titles, are the committed SVGs."""
    graph = FlameGraph(_read_folded(OUT / f"{stem}.folded"), title=title)
    assert graph.to_folded() == (OUT / f"{stem}.folded").read_text()
    assert graph.to_svg().encode() == (OUT / svg).read_bytes()


def test_a_path_deeper_than_the_recursion_limit_draws():
    """``main`` and then ``walk`` calling itself, deeper than the
    interpreter's recursion limit."""
    path = ("main",) + ("walk",) * (sys.getrecursionlimit() + 500)
    graph = FlameGraph({path: 3, path[:2]: 1})
    svg = graph.to_svg()
    assert svg.count("<rect ") == len(path) + 2  # background, root, frames
    assert f'height="{(len(path) + 2) * 17 + 60}"' in svg
    assert graph.share("walk") == pytest.approx(
        (4 + 3 * (len(path) - 2)) / 4
    )
    assert list(graph.frames())[-1] == (len(path), 0, "walk", 3, 3)
