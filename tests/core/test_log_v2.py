"""Tests for log version 2 (call sites) and the event mask."""

import itertools
import sys
import types
from types import SimpleNamespace

import pytest

from repro.api import Analyzer, SharedLog, TEEPerf
from repro.core import KIND_CALL, KIND_RET, ThreadLogWriter
from repro.core.errors import LogFormatError
from repro.core.log import ENTRY_SIZE_V2, HEADER_SIZE, VERSION_2
from repro.symbols import BinaryImage
from tests.oracles.per_event import append


def test_v2_entries_are_32_bytes():
    log = SharedLog.create(10, version=VERSION_2)
    assert log.version == VERSION_2
    assert log.entry_size == ENTRY_SIZE_V2
    assert len(log.to_bytes()) == HEADER_SIZE + 10 * ENTRY_SIZE_V2


def test_v2_roundtrips_call_site():
    log = SharedLog.create(4, version=VERSION_2)
    append(log, KIND_CALL, 100, 0x401000, 7, call_site=0x400500)
    entry = log.entry(0)
    assert entry.call_site == 0x400500
    assert entry.addr == 0x401000


def test_v1_ignores_call_site_silently():
    log = SharedLog.create(4)
    append(log, KIND_CALL, 100, 0x401000, 7, call_site=0x400500)
    assert log.entry(0).call_site == 0


def test_v2_survives_dump_and_load(tmp_path):
    log = SharedLog.create(4, version=VERSION_2)
    append(log, KIND_CALL, 1, 0x400100, 1, call_site=0x400050)
    path = tmp_path / "v2.teeperf"
    log.dump(str(path))
    loaded = SharedLog.load(str(path))
    assert loaded.version == VERSION_2
    assert loaded.entry(0).call_site == 0x400050


def test_unknown_version_rejected():
    with pytest.raises(ValueError):
        SharedLog.create(4, version=9)
    buf = bytearray(SharedLog.create(4).to_bytes())
    # Corrupt the version field to 9.
    import struct

    word1 = struct.unpack_from("<Q", buf, 8)[0]
    struct.pack_into("<Q", buf, 8, (word1 & 0xFFFF) | (9 << 16))
    with pytest.raises(LogFormatError):
        SharedLog.from_bytes(bytes(buf))


def ticking_hook(log, tid=1, step=1):
    """A block-of-one hook of thread `tid` over `log` (made ACTIVE),
    reading ticks ``step, 2 * step, ...`` through ``read()``."""
    log.set_active(True)
    ticks = itertools.count(step, step)
    writer = ThreadLogWriter(log, block=1)
    return writer.make_hook(tid, SimpleNamespace(read=ticks.__next__))


def test_event_mask_filters_kinds():
    log = SharedLog.create(16)
    on_event = ticking_hook(log)
    log.set_event_mask(calls=True, rets=False)
    on_event(KIND_CALL, 0x400000)
    on_event(KIND_RET, 0x400000)
    assert len(log) == 1
    assert log.dropped == 0  # filtered, not dropped
    log.set_event_mask(calls=True, rets=True)
    on_event(KIND_RET, 0x400000)
    assert [(e.kind, e.counter) for e in log] == [
        (KIND_CALL, 1),
        (KIND_RET, 2),
    ]


def test_calls_only_profile_still_counts_calls():
    image = BinaryImage("app")
    addr = image.add_function("hot", size=64)
    log = SharedLog.create(64, profiler_addr=image.profiler_addr)
    on_event = ticking_hook(log, step=5)
    log.set_event_mask(calls=True, rets=False)
    for _ in range(5):
        on_event(KIND_CALL, addr)
        on_event(KIND_RET, addr)  # filtered out
    assert len(log) == 5
    analysis = Analyzer(image).analyze(log)
    assert analysis.method("hot").calls == 5
    assert analysis.truncated_calls() == 5  # no returns: all truncated


def test_analyzer_crosschecks_v2_call_sites():
    image = BinaryImage("app")
    main = image.add_function("main", size=64)
    leaf = image.add_function("leaf", size=64)
    rogue = image.add_function("rogue", size=64)
    log = SharedLog.create(
        16, profiler_addr=image.profiler_addr, version=VERSION_2
    )
    append(log, KIND_CALL, 0, main, 1)
    # leaf claims it was called from rogue, but the stack says main.
    append(log, KIND_CALL, 10, leaf, 1, call_site=rogue + 4)
    append(log, KIND_RET, 20, leaf, 1)
    append(log, KIND_RET, 30, main, 1)
    analysis = Analyzer(image).analyze(log)
    assert analysis.meta["callsite_mismatches"] == 1


def test_analyzer_accepts_consistent_v2_call_sites():
    image = BinaryImage("app")
    main = image.add_function("main", size=64)
    leaf = image.add_function("leaf", size=64)
    log = SharedLog.create(
        16, profiler_addr=image.profiler_addr, version=VERSION_2
    )
    append(log, KIND_CALL, 0, main, 1)
    append(log, KIND_CALL, 10, leaf, 1, call_site=main + 8)
    append(log, KIND_RET, 20, leaf, 1)
    append(log, KIND_RET, 30, main, 1)
    analysis = Analyzer(image).analyze(log)
    assert analysis.meta["callsite_mismatches"] == 0


def test_auto_tracer_fills_v2_call_sites():
    module = types.ModuleType("v2_app")
    exec(
        "def inner():\n    return 1\n"
        "def outer():\n"
        "    total = 0\n"
        "    for _ in range(9):\n"
        "        total += inner()\n"
        "    return total\n",
        module.__dict__,
    )
    sys.modules["v2_app"] = module
    try:
        perf = TEEPerf.auto(scope="v2_app", version=VERSION_2)
        perf.record(module.outer)
        analysis = perf.analyze()
        assert analysis.meta["version"] == VERSION_2
        assert analysis.meta["callsite_mismatches"] == 0
        assert analysis.method("v2_app::inner()").calls == 9
        # Every inner call entry carries outer's runtime address as
        # its call site; outer's own caller is out of scope (0).
        calls = [e for e in perf.recorder.log if e.is_call]
        assert len(calls) == 10
        assert calls[0].call_site == 0
        assert [e.call_site for e in calls[1:]] == [calls[0].addr] * 9
    finally:
        sys.modules.pop("v2_app", None)
