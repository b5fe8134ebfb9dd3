"""Samplers: each live source lands in the registry correctly."""

import time

from repro.core import PipelineStats, ProcessCounter
from repro.kvstore.stats import Statistics
from repro.machine import Machine
from repro.monitor import (
    CallbackSampler,
    CounterSampler,
    KVStoreSampler,
    MetricRegistry,
    PipelineSampler,
    SpdkSampler,
    TeeCostSampler,
)
from repro.tee import SGX_V1, make_env


def test_counter_sampler_process_counter():
    counter = ProcessCounter()
    counter.start()
    registry = MetricRegistry()
    CounterSampler(counter).sample(registry)
    assert registry.value("counter_running") == 1
    first, deadline = counter.read(), time.monotonic() + 10
    while counter.read() == first and time.monotonic() < deadline:
        time.sleep(0.001)
    counter.stop()
    CounterSampler(counter).sample(registry)
    assert registry.value("counter_ticks_total") == counter.read() > 0
    assert registry.value("counter_running") == 0
    assert registry.value("counter_resolution_ns") > 0


def test_counter_sampler_virtual_counter_is_host_safe():
    """VirtualCounter.read() requires a simulated thread; the sampler
    must derive ticks safely from the host side instead."""
    from repro.core import VirtualCounter

    machine = Machine(cores=2)
    env = make_env(machine, SGX_V1)
    machine.run(lambda: env.compute(8_000))
    counter = VirtualCounter(machine)
    registry = MetricRegistry()
    CounterSampler(counter).sample(registry)
    assert registry.value("counter_ticks_total") == 1000  # 8000 / 8.0
    assert registry.value("counter_resolution_ns") > 0


def test_tee_cost_sampler_covers_transitions_and_epc():
    machine = Machine(cores=2)
    env = make_env(machine, SGX_V1)

    def workload():
        env.alloc(200 * 1024 * 1024)  # past the 93.5 MiB EPC
        env.syscall("write")
        env.ecall()
        env.aex()
        env.mem_read(4096, random=True)

    machine.run(workload)
    registry = MetricRegistry()
    TeeCostSampler(env).sample(registry)
    assert registry.value("tee_ocalls_total") == 1
    assert registry.value("tee_ecalls_total") == 1
    assert registry.value("tee_aex_total") == 1
    assert registry.value("tee_transition_cycles_total") > 0
    assert registry.value("tee_epc_allocated_bytes") == 200 * 1024 * 1024
    assert registry.value("tee_epc_page_faults_total") > 0


def test_tee_cost_sampler_native_env_has_no_epc_families():
    from repro.tee import NATIVE

    machine = Machine(cores=2)
    env = make_env(machine, NATIVE)
    registry = MetricRegistry()
    TeeCostSampler(env).sample(registry)
    assert registry.get("tee_epc_allocated_bytes") is None
    assert registry.value("tee_syscalls_total") == 0


def test_pipeline_sampler_accepts_object_and_callable():
    stats = PipelineStats(entries_ingested=10, cache_hits=3, cache_misses=1)
    registry = MetricRegistry()
    PipelineSampler(stats).sample(registry)
    assert registry.value("pipeline_entries_ingested_total") == 10
    assert registry.value("pipeline_cache_hit_rate") == 0.75

    late = MetricRegistry()
    holder = {"stats": None}
    sampler = PipelineSampler(lambda: holder["stats"])
    sampler.sample(late)  # no stats yet: nothing registered
    assert len(late) == 0
    holder["stats"] = stats
    sampler.sample(late)
    assert late.value("pipeline_entries_ingested_total") == 10


def test_kvstore_sampler_sanitizes_ticker_names():
    machine = Machine(cores=2)
    env = make_env(machine, SGX_V1)
    statistics = Statistics(env)
    machine.run(lambda: statistics.record_tick("get.hit", 5))
    registry = MetricRegistry()
    KVStoreSampler(statistics).sample(registry)
    assert registry.value("kvstore_get_hit_total") == 5
    assert registry.value("kvstore_keys_read_total") == 0


def test_spdk_sampler_reads_io_counters():
    class FakePerf:
        submitted = 64
        completed = 60
        reads = 45
        writes = 15

    registry = MetricRegistry()
    SpdkSampler(FakePerf()).sample(registry)
    assert registry.value("spdk_io_submitted_total") == 64
    assert registry.value("spdk_io_completed_total") == 60
    assert registry.value("spdk_io_in_flight") == 4


def test_callback_sampler_lands_gauges():
    registry = MetricRegistry()
    CallbackSampler("wal", lambda: {"bytes": 512, "Flushes!": 3}).sample(
        registry
    )
    assert registry.value("wal_bytes") == 512
    assert registry.value("wal_flushes") == 3


def test_sampler_keys_are_stable():
    assert CounterSampler(ProcessCounter()).key == "counter"
    assert PipelineSampler(None).key == "pipeline"
    assert CallbackSampler("mine", dict).key == "mine"
