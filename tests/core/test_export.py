"""Tests for the export formats (gprof, callgrind, speedscope, JSON)."""

import json

import pytest

from repro.api import Analyzer, SharedLog
from repro.core import (
    KIND_CALL,
    KIND_RET,
    to_callgrind,
    to_gprof,
    to_json,
    to_speedscope,
)
from repro.symbols import BinaryImage
from tests.oracles.per_event import append


@pytest.fixture
def analysis():
    image = BinaryImage("app")
    for name in ("main", "work", "leaf"):
        image.add_function(name, size=64, file=f"{name}.c", line=10)

    def addr(name):
        return image.symtab.by_name(name).addr

    log = SharedLog.create(64, profiler_addr=image.profiler_addr)
    events = [
        (0, KIND_CALL, "main"),
        (10, KIND_CALL, "work"),
        (20, KIND_CALL, "leaf"),
        (30, KIND_RET, "leaf"),
        (50, KIND_CALL, "leaf"),
        (55, KIND_RET, "leaf"),
        (90, KIND_RET, "work"),
        (100, KIND_RET, "main"),
    ]
    for t, kind, name in events:
        append(log, kind, t, addr(name), 1)
    return Analyzer(image).analyze(log)


def test_gprof_flat_profile_and_call_graph(analysis):
    text = to_gprof(analysis)
    assert "Flat profile:" in text
    assert "Call graph:" in text
    assert "leaf" in text
    # work's callees include leaf with 2 calls.
    assert "-> leaf  (2 calls)" in text


def test_callgrind_structure(analysis):
    text = to_callgrind(analysis)
    assert text.startswith("# callgrind format")
    assert "events: Ticks" in text
    assert "fn=work" in text
    assert "cfn=leaf" in text
    assert "calls=2" in text
    assert "fl=work.c" in text
    # Self cost lines parse as "<line> <ticks>".
    for line in text.splitlines():
        if line and line[0].isdigit():
            parts = line.split()
            assert len(parts) == 2
            int(parts[0]), int(parts[1])


def test_speedscope_schema_and_nesting(analysis):
    doc = json.loads(to_speedscope(analysis))
    assert doc["$schema"].startswith("https://www.speedscope.app")
    names = [f["name"] for f in doc["shared"]["frames"]]
    assert set(names) == {"main", "work", "leaf"}
    profile = doc["profiles"][0]
    assert profile["type"] == "evented"
    # Events must nest: track a stack through them.
    stack = []
    for event in profile["events"]:
        if event["type"] == "O":
            stack.append(event["frame"])
        else:
            assert stack and stack.pop() == event["frame"]
    assert not stack


def test_speedscope_event_times_monotone(analysis):
    doc = json.loads(to_speedscope(analysis))
    for profile in doc["profiles"]:
        times = [e["at"] for e in profile["events"]]
        assert times == sorted(times)
        assert profile["startValue"] <= times[0]
        assert profile["endValue"] >= times[-1]


def test_json_dump_roundtrips(analysis):
    doc = json.loads(to_json(analysis))
    by_name = {m["method"]: m for m in doc["methods"]}
    assert by_name["leaf"]["calls"] == 2
    assert by_name["leaf"]["exclusive"] == 15
    assert doc["folded"]["main;work;leaf"] == 15
    assert doc["meta"]["events"] == 8


def test_thread_ids_above_2_to_the_63_stay_unsigned():
    """A thread id is a 64-bit unsigned word: ``methods()``,
    ``to_json`` and ``threads()`` report the same ids for it."""
    image = BinaryImage("app")
    image.add_function("main", size=64)
    main = image.symtab.by_name("main").addr
    big = 2**63 + 5
    log = SharedLog.create(8, profiler_addr=image.profiler_addr)
    for kind, t, tid in [(KIND_CALL, 0, big), (KIND_CALL, 1, 7),
                         (KIND_RET, 10, big), (KIND_RET, 20, 7)]:
        append(log, kind, t, main, tid)
    analysis = Analyzer(image).analyze(log)
    assert analysis.threads() == [big, 7]
    assert {r.tid for r in analysis.records} == {big, 7}
    assert analysis.method("main").threads == {big, 7}
    doc = json.loads(to_json(analysis))
    assert doc["methods"][0]["threads"] == [7, big]
