"""Integration tests: the full four-stage pipeline in simulation mode."""

import pytest

from repro.api import TEEPerf
from repro.core import symbol
from repro.core.errors import RecorderError, TEEPerfError
from repro.machine import SimLock
from repro.tee import NATIVE, SGX_V1


class Workload:
    """A small multithreaded workload with a known call structure."""

    def __init__(self, machine, env, threads=2, chunks=4):
        self.machine = machine
        self.env = env
        self.threads = threads
        self.chunks = chunks
        self.lock = SimLock(name="merge")
        self.merged = 0

    @symbol("wl::Run()")
    def run(self):
        workers = [
            self.machine.spawn(self.worker, name=f"w{i}")
            for i in range(self.threads)
        ]
        for worker in workers:
            worker.join()
        return self.merged

    @symbol("wl::Worker()")
    def worker(self):
        total = 0
        for _ in range(self.chunks):
            total += self.process_chunk()
        with self.lock:
            self.merge(total)

    @symbol("wl::ProcessChunk()")
    def process_chunk(self):
        self.env.compute(50_000)
        self.env.mem_read(4096)
        return 1

    @symbol("wl::Merge(int)")
    def merge(self, total):
        self.env.compute(1_000)
        self.merged += total


def build(platform=NATIVE, **kwargs):
    perf = TEEPerf.simulated(platform=platform, name="workload")
    workload = Workload(perf.machine, perf.env, **kwargs)
    perf.compile_instance(workload)
    return perf, workload


def test_full_pipeline_counts_and_times():
    perf, workload = build(threads=3, chunks=5)
    result = perf.record(workload.run)
    assert result == 15
    analysis = perf.analyze()
    assert analysis.method("wl::Run()").calls == 1
    assert analysis.method("wl::Worker()").calls == 3
    assert analysis.method("wl::ProcessChunk()").calls == 15
    assert analysis.method("wl::Merge(int)").calls == 3
    # A chunk is ~50k cycles of compute; inclusive time must reflect it.
    chunk = analysis.method("wl::ProcessChunk()")
    assert chunk.mean_inclusive * 8 >= 50_000  # ticks are 8-cycle quanta


def test_call_hierarchy_reconstructed():
    perf, workload = build()
    perf.record(workload.run)
    analysis = perf.analyze()
    # Workers run on their own threads, so (as in the paper's Figure 5,
    # where StartThreadWrapper roots each stack) they are per-thread
    # roots with no caller.
    workers = [r for r in analysis.records if r.method == "wl::Worker()"]
    assert all(r.caller is None and r.depth == 0 for r in workers)
    chunks = [r for r in analysis.records if r.method == "wl::ProcessChunk()"]
    assert all(r.path[0] == "wl::Worker()" for r in chunks)
    assert all(r.depth == 1 for r in chunks)
    merges = [r for r in analysis.records if r.method == "wl::Merge(int)"]
    assert all(r.caller == "wl::Worker()" for r in merges)


def test_each_thread_separately_tracked():
    perf, workload = build(threads=4)
    perf.record(workload.run)
    analysis = perf.analyze()
    worker_threads = {
        r.tid for r in analysis.records if r.method == "wl::Worker()"
    }
    assert len(worker_threads) == 4


def test_enclave_run_slower_than_native():
    native_perf, native_wl = build(NATIVE)
    native_perf.record(native_wl.run)
    native_time = native_perf.machine.elapsed_cycles()

    sgx_perf, sgx_wl = build(SGX_V1)
    sgx_perf.record(sgx_wl.run)
    sgx_time = sgx_perf.machine.elapsed_cycles()
    assert sgx_time > native_time


def test_instrumentation_overhead_exists_and_is_bounded():
    # Same workload, uninstrumented baseline vs profiled run.
    perf, workload = build(threads=2, chunks=8)
    perf.record(workload.run)
    profiled = perf.machine.elapsed_cycles()

    from repro.machine import Machine
    from repro.tee import make_env

    machine = Machine(cores=8)
    env = make_env(machine, NATIVE)
    bare = Workload(machine, env, threads=2, chunks=8)
    machine.run(bare.run)
    baseline = machine.elapsed_cycles()

    assert profiled > baseline  # overhead exists
    assert profiled < baseline * 2  # but the workload still dominates


def test_flamegraph_structure():
    perf, workload = build(threads=2, chunks=6)
    perf.record(workload.run)
    perf.analyze()
    graph = perf.flamegraph()
    assert graph.share("wl::ProcessChunk()") > 0.5
    folded = graph.to_folded()
    assert "wl::Worker();wl::ProcessChunk()" in folded


def test_query_session_end_to_end():
    perf, workload = build(threads=2, chunks=3)
    perf.record(workload.run)
    perf.analyze()
    session = perf.query()
    hottest = session.hottest(1)
    assert hottest.column("method")[0] == "wl::ProcessChunk()"
    counts = session.thread_method_counts()
    chunk_rows = counts.filter(method="wl::ProcessChunk()")
    assert sum(chunk_rows.column("calls")) == 6
    callers = session.callers_of("wl::Merge(int)")
    assert callers.column("caller") == ["wl::Worker()"]


def test_persist_and_offline_analysis(tmp_path):
    perf, workload = build()
    perf.record(workload.run)
    path = tmp_path / "run.teeperf"
    perf.persist(str(path))
    offline = perf.analyze(str(path))
    assert offline.method("wl::Run()").calls == 1


def test_pause_resume_via_active_flag():
    perf, workload = build(threads=1, chunks=2)

    def run_with_pause():
        perf.pause()
        workload.process_chunk()  # not recorded
        perf.resume()
        return workload.run()

    perf.record(run_with_pause)
    analysis = perf.analyze()
    assert analysis.method("wl::ProcessChunk()").calls == 2  # not 3


def test_record_passes_keyword_arguments_to_the_entry():
    perf, workload = build(threads=1, chunks=1)

    def entry(scale, name=""):
        return workload.run() * scale, name

    # `name` reaches the entry function, not the root thread's name.
    assert perf.record(entry, 3, name="payload") == (3, "payload")


def test_record_before_compile_rejected():
    perf = TEEPerf.simulated()
    with pytest.raises(TEEPerfError):
        perf.record(lambda: None)


def test_analyze_before_record_rejected():
    perf, _ = build()
    with pytest.raises(RecorderError):
        perf.analyze()


def test_recording_reports_event_counts():
    perf, workload = build(threads=2, chunks=3)
    perf.record(workload.run)
    # run + 2*worker + 6*chunk + 2*merge = 11 calls -> 22 events.
    assert perf.events_recorded() == 22


def test_uninstrument_restores_methods():
    perf, workload = build()
    wrapped = workload.run
    perf.record(workload.run)
    perf.uninstrument()
    assert workload.run is not wrapped


def test_small_log_capacity_truncates_but_analyzes():
    perf = TEEPerf.simulated(platform=NATIVE, capacity=6, name="tiny")
    workload = Workload(perf.machine, perf.env, threads=2, chunks=10)
    perf.compile_instance(workload)
    perf.record(workload.run)
    assert perf.recorder.events_dropped() > 0
    analysis = perf.analyze()
    assert analysis.truncated_calls() > 0
