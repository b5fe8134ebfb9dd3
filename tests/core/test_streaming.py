"""Differential tests: streaming analyzer vs the batch oracle.

The streaming pipeline (chunked ingestion + sharded, optionally
parallel reconstruction + LRU symbolisation) must be byte-for-byte
equivalent to the single-pass batch analysis in
:mod:`tests.oracles.batch` on every log the repository knows how to
produce — v1 and v2, single- and multi-thread, truncated, dismissed,
relocated and unknown-address logs.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.analyzer as analyzer_module
from repro.api import Analyzer, SharedLog, open_log
from repro.core import KIND_CALL, KIND_RET, LogStream, PipelineStats, to_json
from repro.core.log import VERSION_2
from repro.symbols import BinaryImage, CachedResolver
from tests.oracles.batch import analyze_batch, read_entries
from tests.oracles.per_event import append


@pytest.fixture
def image():
    img = BinaryImage("app")
    for name in ("main", "work", "leaf", "spin"):
        img.add_function(name, size=64)
    return img


def addr(image, name):
    return image.symtab.by_name(name).addr


def make_log(image, events, capacity=4096, version=None):
    kwargs = {"profiler_addr": image.profiler_addr}
    if version is not None:
        kwargs["version"] = version
    log = SharedLog.create(capacity, **kwargs)
    for kind, name, counter, tid, *rest in events:
        call_site = addr(image, rest[0]) if rest else 0
        append(log, kind, counter, addr(image, name), tid, call_site=call_site)
    return log


def out_of_order_threads():
    """10,000 entries of nested calls on three threads whose ids first
    appear out of numeric order: 0x30, then 0x10, then 0x20 only after
    the first 8,192 entries.  Threads take turns in blocks of 1 to 21
    entries, so a chunk of any size holds a changing mix of them."""
    tree = [
        (KIND_CALL, "main"), (KIND_CALL, "work"), (KIND_CALL, "leaf"),
        (KIND_RET, "leaf"), (KIND_RET, "work"), (KIND_CALL, "spin"),
        (KIND_RET, "spin"), (KIND_RET, "main"),
    ]
    sizes = (1, 3, 8, 13, 2, 21)
    done = {0x30: 0, 0x10: 0, 0x20: 0}
    turns = [0x30, 0x10]
    events = []
    block = 0
    while len(events) < 10_000:
        if len(events) > 8_192 and len(turns) == 2:
            turns.append(0x20)
        tid = turns[block % len(turns)]
        for _ in range(sizes[block % len(sizes)]):
            kind, name = tree[done[tid] % len(tree)]
            done[tid] += 1
            events.append((kind, name, len(events) * 3 + tid % 7, tid))
        block += 1
    return events[:10_000]


def fixture_logs(image):
    """Every analyzer-relevant log shape the existing tests exercise."""
    nested = [
        (KIND_CALL, "main", 0, 1),
        (KIND_CALL, "work", 10, 1),
        (KIND_CALL, "leaf", 20, 1),
        (KIND_RET, "leaf", 30, 1),
        (KIND_RET, "work", 90, 1),
        (KIND_RET, "main", 100, 1),
    ]
    multithread = [
        (KIND_CALL, "main", 0, 1),
        (KIND_CALL, "work", 0, 2),
        (KIND_CALL, "leaf", 5, 3),
        (KIND_RET, "main", 50, 1),
        (KIND_RET, "leaf", 60, 3),
        (KIND_RET, "work", 80, 2),
    ]
    truncated = [
        (KIND_CALL, "main", 0, 1),
        (KIND_CALL, "work", 10, 1),
        (KIND_RET, "work", 30, 1),
        # main never returns.
    ]
    unmatched = [
        (KIND_RET, "leaf", 5, 1),
        (KIND_CALL, "main", 10, 1),
        (KIND_RET, "main", 20, 1),
    ]
    deep_close = [
        (KIND_CALL, "main", 0, 1),
        (KIND_CALL, "work", 10, 1),
        (KIND_RET, "main", 50, 1),  # closes work as truncated first
    ]
    recursion = [
        (KIND_CALL, "work", 0, 1),
        (KIND_CALL, "work", 10, 1),
        (KIND_RET, "work", 20, 1),
        (KIND_RET, "work", 40, 1),
    ]
    logs = {
        "nested-v1": make_log(image, nested),
        "multithread-v1": make_log(image, multithread),
        "truncated-v1": make_log(image, truncated),
        "unmatched-v1": make_log(image, unmatched),
        "deep-close-v1": make_log(image, deep_close),
        "recursion-v1": make_log(image, recursion),
        "nested-v2": make_log(image, nested, version=VERSION_2),
        "multithread-v2": make_log(image, multithread, version=VERSION_2),
    }
    # v2 with call sites, one of them deliberately wrong.
    logs["callsites-v2"] = make_log(
        image,
        [
            (KIND_CALL, "main", 0, 1),
            (KIND_CALL, "work", 10, 1, "main"),
            (KIND_CALL, "leaf", 20, 1, "spin"),  # mismatch
            (KIND_RET, "leaf", 30, 1),
            (KIND_RET, "work", 40, 1),
            (KIND_RET, "main", 50, 1),
        ],
        version=VERSION_2,
    )
    # Unknown addresses (outside every function).
    unknown = SharedLog.create(16, profiler_addr=image.profiler_addr)
    append(unknown, KIND_CALL, 0, 0xDEAD0000, 1)
    append(unknown, KIND_RET, 7, 0xDEAD0000, 1)
    logs["unknown-v1"] = unknown
    # A relocated (ASLR) log.
    loaded = image.load(aslr_seed=99)
    relocated = SharedLog.create(16, profiler_addr=loaded.profiler_addr)
    for kind, name, counter, tid in nested:
        append(
            relocated,
            kind, counter, loaded.runtime_addr(addr(image, name)), tid
        )
    logs["relocated-v1"] = relocated
    # A log that overflowed: capacity 4, six events.
    logs["overflowed-v1"] = make_log(image, nested, capacity=4)
    # An empty log.
    logs["empty-v1"] = SharedLog.create(8, profiler_addr=image.profiler_addr)
    logs["out-of-order-tids-v1"] = make_log(
        image, out_of_order_threads(), capacity=10_000
    )
    return logs


def assert_equivalent(batch, streamed):
    """Byte-for-byte: records, aggregates and meta all identical."""
    assert streamed.records == batch.records
    assert streamed.unmatched_returns == batch.unmatched_returns
    assert streamed.meta == batch.meta
    assert streamed.threads() == batch.threads()
    batch_json = json.loads(to_json(batch))
    stream_json = json.loads(to_json(streamed))
    # The pipeline block legitimately differs (jobs, chunk counts).
    batch_json.pop("pipeline")
    stream_json.pop("pipeline")
    assert stream_json == batch_json


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("chunk_size", [1, 3, 7, None])
def test_streaming_matches_batch_on_all_fixtures(image, jobs, chunk_size):
    for name, log in fixture_logs(image).items():
        analyzer = Analyzer(image)
        batch = analyze_batch(analyzer, log)
        streamed = analyzer.analyze(log, jobs=jobs, chunk_size=chunk_size)
        assert_equivalent(batch, streamed)


@pytest.mark.parametrize("jobs", [1, 4])
def test_streaming_matches_batch_from_disk(image, tmp_path, monkeypatch,
                                           jobs):
    """Persisted logs analyze identically through the mmap stream."""
    readers = []

    def spy(source):
        reader = open_log(source)
        readers.append(type(reader))
        return reader

    monkeypatch.setattr(analyzer_module, "open_log", spy)
    logs = fixture_logs(image)
    for name, log in logs.items():
        path = tmp_path / f"{name}.teeperf"
        log.dump(str(path))
        analyzer = Analyzer(image)
        batch = analyze_batch(analyzer, SharedLog.load(str(path)))
        streamed = analyzer.analyze(str(path), jobs=jobs, chunk_size=2)
        assert_equivalent(batch, streamed)
    assert readers == [LogStream] * len(logs)


@st.composite
def _multithread_trace(draw):
    """Random well-nested traces over several interleaved threads."""
    names = ["main", "work", "leaf", "spin"]
    events = []
    stacks = {tid: [] for tid in (1, 2, 3)}
    counter = 0
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        counter += draw(st.integers(min_value=1, max_value=20))
        tid = draw(st.sampled_from([1, 2, 3]))
        stack = stacks[tid]
        if stack and (len(stack) >= 5 or draw(st.booleans())):
            events.append((KIND_RET, stack.pop(), counter, tid))
        else:
            name = draw(st.sampled_from(names))
            stack.append(name)
            events.append((KIND_CALL, name, counter, tid))
    # Leave some stacks open on purpose: truncation must match too.
    return events


@settings(max_examples=40, deadline=None)
@given(events=_multithread_trace(), jobs=st.sampled_from([1, 3]))
def test_streaming_matches_batch_property(events, jobs):
    image = BinaryImage("app")
    for name in ("main", "work", "leaf", "spin"):
        image.add_function(name, size=64)
    log = SharedLog.create(256, profiler_addr=image.profiler_addr)
    for kind, name, counter, tid in events:
        append(log, kind, counter, image.symtab.by_name(name).addr, tid)
    analyzer = Analyzer(image)
    assert_equivalent(
        analyze_batch(analyzer, log),
        analyzer.analyze(log, jobs=jobs, chunk_size=7),
    )


# ----------------------------------------------------------------------
# The observability surface


def test_pipeline_stats_counters(image):
    events = [
        (KIND_RET, "leaf", 5, 1),  # dismissed
        (KIND_CALL, "main", 10, 1),
        (KIND_CALL, "work", 20, 1),
        (KIND_RET, "work", 30, 1),
        (KIND_CALL, "work", 40, 2),  # truncated (never returns)
        (KIND_RET, "main", 50, 1),
    ]
    log = make_log(image, events)
    analysis = Analyzer(image).analyze(log, jobs=2, chunk_size=4)
    stats = analysis.pipeline
    assert stats.entries_ingested == 6
    assert stats.entries_dismissed == 1
    assert stats.frames_truncated == 1
    assert stats.chunks_processed == 2  # 6 entries in chunks of 4
    assert stats.shards_analyzed == 2
    assert stats.jobs == 2
    assert stats.chunk_size == 4
    assert stats.counter_span == 45  # 5 .. 50
    assert stats.ingest_rate == pytest.approx(6 / 45)
    # Three distinct addresses, five resolutions -> the cache hit.
    assert stats.cache_misses == 2  # main, work (leaf return dismissed)
    assert stats.cache_hits >= 1
    assert 0.0 < stats.cache_hit_rate < 1.0
    text = stats.report()
    assert "entries ingested:  6" in text
    assert "jobs=2" in text


def test_pipeline_stats_merge_and_dict():
    a = PipelineStats(entries_ingested=10, cache_hits=8, cache_misses=2)
    b = PipelineStats(entries_ingested=5, jobs=4, chunk_size=64)
    a.merge(b)
    assert a.entries_ingested == 15
    assert a.jobs == 4  # configuration: keep the wider
    assert a.chunk_size == 64
    d = a.to_dict()
    assert d["entries_ingested"] == 15
    assert d["cache_hit_rate"] == pytest.approx(0.8)
    assert d["ingest_rate"] == 0.0  # empty span


def test_empty_log_has_zero_rates(image):
    log = SharedLog.create(8, profiler_addr=image.profiler_addr)
    analysis = Analyzer(image).analyze(log)
    assert analysis.pipeline.entries_ingested == 0
    assert analysis.pipeline.ingest_rate == 0.0
    assert analysis.pipeline.cache_hit_rate == 0.0


def test_recorder_stats_thread_through_facade():
    """entries_dropped flows recorder -> analyzer -> analysis.pipeline."""
    from repro.api import TEEPerf
    from repro.core import symbol

    class App:
        @symbol("app::Main()")
        def main(self):
            for _ in range(8):
                self.step()

        @symbol("app::Step()")
        def step(self):
            pass

    # Capacity 8 cannot hold 18 events: the rest are dropped.
    perf = TEEPerf.live(capacity=8)
    app = App()
    perf.compile_instance(app)
    perf.record(app.main)
    try:
        analysis = perf.analyze(jobs=2)
    finally:
        perf.uninstrument()
    stats = analysis.pipeline
    assert stats.entries_dropped == 10
    assert stats.entries_ingested == 8
    assert stats.jobs == 2


# ----------------------------------------------------------------------
# LogStream


def test_logstream_header_and_iteration(image, tmp_path):
    log = make_log(
        image,
        [
            (KIND_CALL, "main", 0, 1),
            (KIND_RET, "main", 9, 1),
        ],
        version=VERSION_2,
    )
    path = tmp_path / "v2.teeperf"
    log.dump(str(path))
    with LogStream.open(str(path)) as stream:
        assert stream.version == VERSION_2
        assert stream.capacity == 4096
        assert stream.profiler_addr == log.profiler_addr
        assert stream.multithread
        assert len(stream) == 2
        chunks = list(stream.iter_column_chunks(1))
        assert [len(c) for c in chunks] == [1, 1]
        assert list(stream) == read_entries(log)


def test_logstream_rejects_garbage(tmp_path):
    from repro.core.errors import LogFormatError

    path = tmp_path / "junk.teeperf"
    path.write_bytes(b"this is not a teeperf log, not even close....." * 4)
    with pytest.raises(LogFormatError):
        LogStream.open(str(path))


def test_columnarlog_rejects_garbage(tmp_path):
    """A rev 1.2 header over a garbage payload is rejected, and the
    rejected file's mapping is closed (no ResourceWarning)."""
    from repro.core.columnar import encode_log
    from repro.core.errors import LogFormatError
    from repro.core.log import HEADER_SIZE

    header = encode_log(SharedLog.create(8))[:HEADER_SIZE]
    path = tmp_path / "junk.teeperf"
    path.write_bytes(header + b"not a columnar payload, not even close" * 4)
    with pytest.raises(LogFormatError):
        open_log(str(path))


def test_logstream_short_file_clips_entries(image, tmp_path):
    """A snapshot cut mid-entry exposes only the complete entries."""
    log = make_log(
        image,
        [
            (KIND_CALL, "main", 0, 1),
            (KIND_RET, "main", 9, 1),
        ],
    )
    data = log.to_bytes()
    cut = data[: 64 + 24 + 12]  # header + entry 0 + half of entry 1
    path = tmp_path / "cut.teeperf"
    path.write_bytes(cut)
    with LogStream.open(str(path)) as stream:
        assert len(stream) == 1
        assert [e.counter for e in stream] == [0]


# ----------------------------------------------------------------------
# The symbol-resolution LRU


def test_cached_resolver_counts_and_evicts(image):
    cache = CachedResolver(image.symtab, maxsize=2)
    a = addr(image, "main")
    b = addr(image, "work")
    c = addr(image, "leaf")
    assert cache.resolve(a).name == "main"
    assert cache.resolve(a).name == "main"
    assert (cache.hits, cache.misses) == (1, 1)
    cache.resolve(b)
    cache.resolve(c)  # evicts `a` (maxsize 2)
    assert len(cache) == 2
    cache.resolve(a)
    assert cache.misses == 4
    # Misses are cached too.
    assert cache.resolve(0xDEAD0000) is None
    assert cache.resolve(0xDEAD0000) is None
    assert cache.hits == 2
    assert 0.0 < cache.hit_rate < 1.0


def test_analyzer_rejects_bad_jobs(image):
    from repro.core.errors import AnalyzerError

    log = SharedLog.create(8, profiler_addr=image.profiler_addr)
    with pytest.raises(AnalyzerError):
        Analyzer(image).analyze(log, jobs=0)
