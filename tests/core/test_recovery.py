"""Crash recovery: sealed segments, salvage, and the fault matrix.

The contract under test (docs/log-format.md "Recovery"):

* every CRC-verified sealed segment is recovered, at every crash
  phase the fault harness can produce;
* nothing is silently dropped — salvaged plus quarantined accounting
  is exact, with byte ranges and reason codes;
* ``analyze(recover="auto")`` on a truncated log is identical to
  analysing the undamaged prefix;
* random byte flips and truncations never crash recovery (the only
  controlled failure is a typed :class:`LogFormatError` for a header
  too damaged to describe a log).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Analyzer,
    LiveRecorder,
    Recorder,
    RecoveryReport,
    SharedLog,
    recover_log,
    repair_tails,
)
from repro.core import (
    HEADER_SIZE,
    Instrumenter,
    KIND_CALL,
    KIND_RET,
    ThreadLogWriter,
)
from repro.core.columnar import encode_log
from repro.core.errors import LogFormatError, RecoveryError
from repro.core.recovery import (
    REASON_CRC,
    REASON_UNSEALED,
    recovery_stats,
    require_clean,
)
from repro.core.stats import PipelineStats
from repro.faults import (
    CRASH_PHASES,
    CrashingWriter,
    FaultInjector,
    InjectedCrash,
    crash_after,
    crashed_snapshot,
    run_to_crash,
)
from repro.machine import Machine
from repro.machine.errors import SimThreadError
from repro.symbols import BinaryImage
from repro.tee import NATIVE, make_env
from tests.oracles.per_event import append


@pytest.fixture
def image():
    img = BinaryImage("app")
    for name in ("main", "work", "leaf"):
        img.add_function(name, size=64)
    return img


def addr(image, name):
    return image.symtab.by_name(name).addr


def balanced_events(image, repeats=4):
    """A balanced single-thread call tree, `6 * repeats` events."""
    events = []
    t = 0
    for _ in range(repeats):
        events += [
            (KIND_CALL, addr(image, "main"), t, 1),
            (KIND_CALL, addr(image, "work"), t + 10, 1),
            (KIND_CALL, addr(image, "leaf"), t + 20, 1),
            (KIND_RET, addr(image, "leaf"), t + 30, 1),
            (KIND_RET, addr(image, "work"), t + 40, 1),
            (KIND_RET, addr(image, "main"), t + 50, 1),
        ]
        t += 100
    return events


def sealed_log(image, repeats=4, block=6, capacity=256):
    """A sealed log committed through a batched writer, cleanly
    stopped (tail stored, remainder sealed)."""
    log = SharedLog.create(
        capacity, sealed=True, profiler_addr=image.profiler_addr
    )
    with ThreadLogWriter(log, block=block) as writer:
        for kind, a, counter, tid in balanced_events(image, repeats):
            writer.append(kind, counter, a, tid)
    log._store_tail()
    log.seal_remainder()
    return log


# ---------------------------------------------------------------------------
# Sealed-segment format


def test_sealed_roundtrip_preserves_journal(image):
    log = sealed_log(image)
    reloaded = SharedLog.from_bytes(log.to_bytes())
    assert reloaded.sealed
    assert reloaded.seals == log.seals
    assert reloaded.seal_watermark == log.seal_watermark == len(log)
    assert list(reloaded) == list(log)


def test_unsealed_log_bytes_unchanged(image):
    """Sealing is opt-in: an unsealed log's image is exactly what it
    was before the format learned to seal."""
    log = SharedLog.create(64, profiler_addr=image.profiler_addr)
    for kind, a, counter, tid in balanced_events(image, 1):
        append(log, kind, counter, a, tid)
    data = log.to_bytes()
    assert len(data) == HEADER_SIZE + 64 * log.entry_size
    assert not SharedLog.from_bytes(data).sealed


@given(counts=st.lists(st.integers(1, 6), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_seal_journal_roundtrip_property(counts):
    log = SharedLog.create(64, sealed=True)
    cursor = 0
    for count in counts:
        for i in range(count):
            append(log, KIND_CALL, cursor + i, 0x1000, 1)
        log.seal(cursor, count)
        cursor += count
    reloaded = SharedLog.from_bytes(log.to_bytes())
    assert reloaded.seals == log.seals
    assert reloaded.seal_watermark == log.seal_watermark == cursor
    salvaged, report = recover_log(reloaded)
    assert report.ok
    assert report.entries_salvaged == cursor
    assert report.segments_recovered == report.segments_sealed


# ---------------------------------------------------------------------------
# The fault matrix: every crash phase, all sealed segments recovered


@pytest.mark.parametrize("phase", CRASH_PHASES)
def test_fault_matrix_writer_crash(phase):
    log = SharedLog.create(16, sealed=True)
    writer = CrashingWriter(log, block=4, phase=phase, crash_flush=2)
    with pytest.raises(InjectedCrash):
        for i in range(8):
            writer.append(KIND_CALL, i, 0x1000, 1)
    assert writer.crashed
    salvaged, report = recover_log(crashed_snapshot(log))

    # The headline guarantee: 100% of sealed segments recovered.
    assert report.segments_recovered == report.segments_sealed
    assert report.crc_failures == 0
    # The first flush always seals 4 entries before the crash point.
    expected = 8 if phase == "after-seal" else 4
    assert report.entries_salvaged == expected
    assert list(salvaged)[:4] == list(log)[:4]
    # Exact accounting: nothing silently dropped.
    assert report.entries_quarantined == sum(
        q.count for q in report.quarantined
    )
    if phase in ("after-reserve", "mid-write", "after-write"):
        # The second block's slots are reserved but never sealed.
        assert report.entries_quarantined == 4
        assert report.quarantined[0].reason in (
            REASON_UNSEALED, REASON_CRC
        )
    else:
        assert report.ok


@pytest.mark.parametrize("crash_flush", [1, 2, 3])
def test_fault_matrix_crash_point_sweep(crash_flush):
    """Kill the writer at every commit: every seal that completed
    before the crash survives recovery."""
    log = SharedLog.create(32, sealed=True)
    writer = CrashingWriter(
        log, block=4, phase="after-write", crash_flush=crash_flush
    )
    with pytest.raises(InjectedCrash):
        for i in range(16):
            writer.append(KIND_CALL, i, 0x1000, 1)
    salvaged, report = recover_log(crashed_snapshot(log))
    assert report.segments_recovered == report.segments_sealed
    assert report.entries_salvaged == 4 * (crash_flush - 1)
    assert report.entries_quarantined == 4  # the unsealed block


@pytest.mark.parametrize("mode", ["live", "simulated"])
def test_app_crash_mid_call_sealed_blocks_survive(image, mode):
    """An application dying mid-call: the sealed blocks the writers
    committed before the death are recoverable — live with blocks of
    8, and simulated at its default blocks of one, where every entry
    is sealed as it commits."""
    guard = crash_after(30)

    class App:
        def work(self):
            guard()

        def main(self):
            for _ in range(100):
                self.work()

    app = App()
    instrumenter = Instrumenter("crash-app")
    instrumenter.instrument_instance(app)
    program = instrumenter.finish()
    if mode == "live":
        recorder = LiveRecorder(
            program, capacity=1 << 12, writer_block=8, sealed=True
        )
        entry = app.main
    else:
        machine = Machine(cores=2)
        recorder = Recorder(
            machine, make_env(machine, NATIVE), program,
            capacity=1 << 12, sealed=True,
        )

        def entry():
            try:
                machine.run(app.main)
            except SimThreadError as err:
                raise err.__cause__  # the crash, as the live run sees it

    try:
        snapshot = run_to_crash(recorder, entry)
    finally:
        program.restore_all()
    salvaged, report = recover_log(snapshot)
    assert report.sealed
    assert report.segments_recovered == report.segments_sealed
    assert report.segments_recovered > 0
    assert report.entries_salvaged > 0
    assert report.entries_salvaged == len(salvaged)
    if mode == "simulated":
        # main's CALL, 29 finished calls, the crashing call and both
        # RETs its unwinding logged: all committed, all sealed.
        assert report.entries_salvaged == 1 + 2 * 29 + 2 + 1
        assert report.entries_quarantined == 0


# ---------------------------------------------------------------------------
# Corruption: CRC catches flips, watermark survives truncation


def test_crc_mismatch_quarantines_only_the_damaged_segment(image):
    data = bytearray(sealed_log(image, repeats=2, block=6).to_bytes())
    data[HEADER_SIZE + 5] ^= 0x40  # inside the first sealed block
    salvaged, report = recover_log(bytes(data))
    assert report.crc_failures == 1
    assert report.segments_recovered == report.segments_sealed - 1
    assert any(q.reason == REASON_CRC for q in report.quarantined)
    # The undamaged second block is still salvaged verbatim.
    assert report.entries_salvaged == 6
    assert not report.ok


def test_truncation_eats_journal_watermark_vouches_prefix(image):
    log = sealed_log(image, repeats=4, block=6)
    data = log.to_bytes()
    # Cut mid-entry inside the array: journal trailer gone, a torn
    # entry at the cut.
    k = 13
    cut = data[: HEADER_SIZE + k * log.entry_size + 7]
    salvaged, report = recover_log(cut)
    assert report.entries_salvaged == k
    assert list(salvaged) == list(log)[:k]
    reasons = {q.reason for q in report.quarantined}
    assert "torn-entry" in reasons or "truncated" in reasons


def _garbage_image(image):
    return b"this is not a teeperf log, not even close....." * 4


def _unknown_version_image(image):
    """A rev 1.2 header naming an entry layout no reader knows: the
    header check fails only after salvage has viewed the buffer."""
    data = bytearray(encode_log(sealed_log(image, repeats=1, block=6)))
    data[10] = 0x7F  # version field of header word 1
    return bytes(data)


@pytest.mark.parametrize(
    "make",
    [_garbage_image, _unknown_version_image],
    ids=["garbage", "bad-version"],
)
def test_recover_log_path_raises_like_bytes(image, tmp_path, make):
    """A file salvage must refuse raises the same LogFormatError from
    its path as from its bytes: the mapping is closed on the way out
    (no BufferError from views the traceback still holds)."""
    data = make(image)
    path = tmp_path / "bad.teeperf"
    path.write_bytes(data)
    with pytest.raises(LogFormatError) as from_bytes:
        recover_log(data)
    with pytest.raises(LogFormatError) as from_path:
        recover_log(str(path))
    assert str(from_path.value) == str(from_bytes.value)


def test_recover_log_path_salvages_like_bytes(image, tmp_path):
    """A file cut mid-entry salvages from its path exactly as from its
    bytes."""
    log = sealed_log(image, repeats=4, block=6)
    cut = log.to_bytes()[: HEADER_SIZE + 13 * log.entry_size + 7]
    path = tmp_path / "cut.teeperf"
    path.write_bytes(cut)
    salvaged, report = recover_log(path)
    expected, expected_report = recover_log(cut)
    assert report.to_dict() == expected_report.to_dict()
    assert list(salvaged) == list(expected) == list(log)[:13]


# ---------------------------------------------------------------------------
# analyze(recover=...) — the prefix-identity contract


def test_auto_recover_identical_to_undamaged_prefix(image):
    log = sealed_log(image, repeats=4, block=6)
    data = log.to_bytes()
    k = 15  # an entry boundary strictly inside the log
    cut = data[: HEADER_SIZE + k * log.entry_size]

    recovered = Analyzer(image).analyze(cut, recover="auto")
    assert recovered.recovery is not None
    assert recovered.recovery.entries_salvaged == k

    prefix = SharedLog.create(64, profiler_addr=image.profiler_addr)
    for kind, a, counter, tid in balanced_events(image, 4)[:k]:
        append(prefix, kind, counter, a, tid)
    baseline = Analyzer(image).analyze(prefix)

    def signature(analysis):
        return (
            [
                (s.method, s.calls, s.inclusive, s.exclusive)
                for s in analysis.methods()
            ],
            analysis.folded(),
            analysis.unmatched_returns,
        )

    assert signature(recovered) == signature(baseline)


def test_strict_recover_raises_on_damage_passes_when_clean(image):
    log = sealed_log(image)
    clean = Analyzer(image).analyze(
        log.to_bytes(), recover="strict"
    )
    assert clean.recovery is not None and clean.recovery.ok

    data = bytearray(log.to_bytes())
    data[HEADER_SIZE + 3] ^= 0x01
    with pytest.raises(RecoveryError) as excinfo:
        Analyzer(image).analyze(bytes(data), recover="strict")
    assert isinstance(excinfo.value.report, RecoveryReport)


def test_recovery_counters_flow_to_pipeline_and_metrics(image):
    from repro.core.export import to_metrics

    log = sealed_log(image, repeats=2, block=6)
    data = bytearray(log.to_bytes())
    data[HEADER_SIZE + 5] ^= 0x40
    analysis = Analyzer(image).analyze(bytes(data), recover="auto")
    pipeline = analysis.pipeline
    assert pipeline.crc_failures == 1
    assert pipeline.entries_salvaged == analysis.recovery.entries_salvaged
    assert pipeline.entries_quarantined > 0
    merged = PipelineStats()
    merged.merge(pipeline)
    merged.merge(pipeline)
    assert merged.crc_failures == 2  # plain additive on merge
    text = to_metrics(analysis)
    for family in (
        "teeperf_segments_sealed_total",
        "teeperf_entries_salvaged_total",
        "teeperf_entries_quarantined_total",
        "teeperf_crc_failures_total",
    ):
        assert family in text
    assert "recovery:" in pipeline.report()


def test_recovery_stats_and_require_clean_helpers(image):
    _, report = recover_log(sealed_log(image).to_bytes())
    assert require_clean(report) is report
    stats = recovery_stats(report, PipelineStats())
    assert stats.segments_sealed == report.segments_sealed
    assert stats.entries_salvaged == report.entries_salvaged


# ---------------------------------------------------------------------------
# repair_tails


def test_repair_tails_balances_and_counts(image):
    log = SharedLog.create(16, profiler_addr=image.profiler_addr)
    append(log, KIND_CALL, 0, addr(image, "main"), 1)
    append(log, KIND_CALL, 10, addr(image, "work"), 1)
    append(log, KIND_RET, 20, addr(image, "leaf"), 1)  # matches nothing
    # main and work left open at the end.
    report = RecoveryReport()
    repaired = repair_tails(log, report)
    assert report.rets_dropped == 1
    assert report.tails_repaired == 2
    kinds = [e.kind for e in repaired]
    assert kinds.count(KIND_CALL) == kinds.count(KIND_RET) == 2
    analysis = Analyzer(image).analyze(repaired)
    assert analysis.unmatched_returns == 0


# ---------------------------------------------------------------------------
# Property tests: damage never crashes recovery


def _base_image_bytes():
    img = BinaryImage("prop")
    for name in ("main", "work", "leaf"):
        img.add_function(name, size=64)
    return sealed_log(img, repeats=6, block=5).to_bytes()


_BASE = _base_image_bytes()


@given(seed=st.integers(0, 2**32 - 1), nflips=st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_random_bit_flips_never_crash_recovery(seed, nflips):
    damaged, _ = FaultInjector(seed).flip(_BASE, n=nflips, lo=0)
    try:
        salvaged, report = recover_log(damaged)
    except LogFormatError:
        return  # a typed refusal is a controlled outcome
    assert report.entries_salvaged == len(salvaged)
    assert sum(report.salvaged_per_thread.values()) == len(salvaged)
    assert report.entries_quarantined == sum(
        q.count for q in report.quarantined
    )
    for entry in salvaged:
        assert entry.kind in (KIND_CALL, KIND_RET)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_truncation_never_crashes_recovery(seed):
    cut, offset = FaultInjector(seed).truncate(_BASE)
    try:
        salvaged, report = recover_log(cut)
    except LogFormatError:
        assert offset < HEADER_SIZE
        return
    original = SharedLog.from_bytes(_BASE)
    kept = list(salvaged)
    # Truncation damage only ever shortens: what survives is exactly
    # a prefix of the undamaged log.
    assert kept == list(original)[: len(kept)]
    assert report.entries_quarantined == sum(
        q.count for q in report.quarantined
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    nflips=st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_flipped_then_analyzed_with_auto_recover(seed, nflips):
    """End to end: damage, salvage, analyze — never a crash, and the
    strict no-silent-drop accounting holds."""
    img = BinaryImage("prop")
    for name in ("main", "work", "leaf"):
        img.add_function(name, size=64)
    damaged, _ = FaultInjector(seed).flip(
        _BASE, n=nflips, lo=HEADER_SIZE
    )
    analysis = Analyzer(img).analyze(damaged, recover="auto")
    report = analysis.recovery
    assert report is not None
    assert report.entries_salvaged + report.entries_quarantined >= 0
    assert analysis.pipeline.entries_salvaged == report.entries_salvaged
