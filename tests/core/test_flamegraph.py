"""Unit tests for the Flame Graph writer (stage 4)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import Analyzer, FlameGraph, SharedLog
from repro.core import KIND_CALL, KIND_RET
from repro.symbols import BinaryImage
from tests.oracles.flamegraph import tree_folded
from tests.oracles.per_event import append


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
    frames = {node.name: node for _, _, node in graph.frames()}
    assert frames["main"].total == 200
    assert frames["io"].total == 80
    assert frames["read"].total == 50
    assert frames["main"].self_ticks == 10


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
    for level, start, node in graph.frames():
        by_level.setdefault(level, []).append((start, start + node.total))
    for level, spans in by_level.items():
        spans.sort()
        for (a_start, a_end), (b_start, _) in zip(spans, spans[1:]):
            assert a_end <= b_start, f"overlap at level {level}"


# ----------------------------------------------------------------------
# The path table: folded text without a tree, and the synthetic root


def test_folded_text_needs_no_tree(folded):
    graph = FlameGraph(folded)
    assert graph.to_folded() == (
        "main 10\nmain;compute 110\nmain;io 30\nmain;io;read 50\n"
    )
    assert graph.total_ticks() == 200
    assert graph._root is None  # rendered from the table alone
    assert graph.share("io") == pytest.approx(80 / 200)
    assert graph._root is not None  # a share lays the tree out


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
    assert [(d, s, n.name) for d, s, n in table.frames()] == [
        (d, s, n.name) for d, s, n in folded.frames()
    ]


frame_names = st.one_of(
    st.sampled_from(["all", "main", "io", "a b", ""]),
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
