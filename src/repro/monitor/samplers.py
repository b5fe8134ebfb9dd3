"""Pluggable samplers: how live sources land in the registry.

A sampler is a small adapter with a stable ``key`` (so re-attaching
replaces rather than duplicates) and one method, ``sample(registry)``,
that reads its source and writes the current values into the
registry's families.  The monitor polls every attached sampler from a
background host thread, so samplers must only perform reads that are
safe from *outside* the workload: plain attribute loads of ints and
floats (atomic enough under the GIL for monitoring purposes), never
scheduler interactions with the simulated machine.

The concrete samplers cover the sources the roadmap cares about:

* :class:`CounterSampler` — the software counter's tick total;
* :class:`RecorderSampler` — events recorded/dropped, log utilisation;
* :class:`TeeCostSampler` — the TEE cost model's transition and
  EPC-paging counters (:class:`repro.tee.env.EnvStats`);
* :class:`PipelineSampler` — :class:`repro.core.stats.PipelineStats`
  from an in-flight or completed analysis;
* :class:`KVStoreSampler` — the kvstore's ticker statistics;
* :class:`SpdkSampler` — the SPDK perf tool's I/O counters;
* :class:`CallbackSampler` — anything else, via a callable returning
  ``{name: value}``.
"""

from repro.monitor.metrics import sanitize


class Sampler:
    """Base sampler: a keyed source of metric updates."""

    #: Replacement key; samplers of the same key displace each other
    #: when attached to the same monitor.
    key = "sampler"

    def sample(self, registry):
        """Read the source and update `registry`."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(key={self.key!r})"


class CounterSampler(Sampler):
    """The software counter (stage 2's clock), polled live.

    Works with every counter flavour.  A :class:`ProcessCounter` read
    is one load of the word its child process increments (the child
    owns one core while recording and costs about 20 ms to start);
    after ``stop`` it keeps returning the final tick.
    :class:`VirtualCounter` reads normally require the calling thread
    to be *simulated*, so from the monitor thread we derive the tick
    total from the machine's thread-local times instead (a safe,
    monotone approximation of the same clock).
    """

    key = "counter"

    def __init__(self, counter):
        self.counter = counter

    def _ticks(self):
        counter = self.counter
        machine = getattr(counter, "machine", None)
        if machine is not None:  # VirtualCounter: host-safe derivation
            resolution = getattr(counter, "resolution_cycles", 1.0)
            latest = max(
                (t.local_time for t in machine._threads), default=0.0
            )
            return int(latest / resolution)
        try:
            return int(counter.read())
        except Exception:
            return 0

    def sample(self, registry):
        registry.counter(
            "counter_ticks_total",
            "Software-counter ticks observed since attach.",
        ).set_total(self._ticks())
        registry.gauge(
            "counter_running",
            "Whether the software counter loop is live (1) or not (0).",
        ).set(1 if getattr(self.counter, "running", False) else 0)
        try:
            resolution = self.counter.resolution_ns()
        except Exception:
            resolution = 0.0
        registry.gauge(
            "counter_resolution_ns",
            "Effective nanoseconds per software-counter tick.",
        ).set(resolution)


class RecorderSampler(Sampler):
    """Stage 2's recorder: what reached the shared log, what did not."""

    key = "recorder"

    def __init__(self, recorder):
        self.recorder = recorder

    def sample(self, registry):
        recorder = self.recorder
        recorded = recorder.events_recorded()
        dropped = recorder.events_dropped()
        registry.counter(
            "recorder_events_recorded_total",
            "Events the recorder committed to the shared log.",
        ).set_total(recorded)
        registry.counter(
            "recorder_events_dropped_total",
            "Events lost at record time (log reservation overflow).",
        ).set_total(dropped)
        attempted = recorded + dropped
        registry.gauge(
            "recorder_drop_ratio",
            "Fraction of attempted events dropped at record time.",
        ).set(dropped / attempted if attempted else 0.0)
        log = recorder.log
        registry.gauge(
            "recorder_log_utilization",
            "Occupied fraction of the shared log's capacity.",
        ).set(len(log) / log.capacity if log is not None else 0.0)
        registry.gauge(
            "recorder_active",
            "Whether tracing is currently active (the log's flag).",
        ).set(1 if log is not None and log.active else 0)
        if log is not None and getattr(log, "sealed", False):
            registry.counter(
                "recorder_segments_sealed_total",
                "Sealed writer blocks committed with a CRC record.",
            ).set_total(len(log.seals))
            registry.counter(
                "recorder_seal_watermark",
                "Entries in the contiguous sealed prefix (header "
                "word 7).",
            ).set_total(log.seal_watermark)


class TeeCostSampler(Sampler):
    """The TEE cost model: transitions, syscalls, EPC paging."""

    key = "tee"

    def __init__(self, env):
        self.env = env

    def sample(self, registry):
        stats = self.env.stats
        for field, help_text in (
            ("syscalls", "System calls charged by the environment."),
            ("ocalls", "Synchronous world switches out of the TEE."),
            ("ecalls", "World switches into the TEE."),
            ("aex", "Asynchronous enclave exits."),
            ("bytes_read", "Bytes read through the cost model."),
            ("bytes_written", "Bytes written through the cost model."),
        ):
            registry.counter(
                f"tee_{field}_total", help_text
            ).set_total(getattr(stats, field))
        registry.counter(
            "tee_transition_cycles_total",
            "Cycles spent in world transitions (ocall+ecall+AEX).",
        ).set_total(int(stats.transition_cycles))
        memory = getattr(self.env, "memory", None)
        if memory is not None:
            registry.counter(
                "tee_epc_page_faults_total",
                "Expected secure page swaps past the EPC limit.",
            ).set_total(int(memory.page_faults))
            registry.gauge(
                "tee_epc_allocated_bytes",
                "Enclave memory currently allocated.",
            ).set(memory.allocated)
            registry.gauge(
                "tee_epc_peak_bytes",
                "High-water mark of enclave memory allocation.",
            ).set(memory.peak_allocated)


class PipelineSampler(Sampler):
    """Stage 3's :class:`PipelineStats`, live or post-analysis.

    `source` is either a stats object or a zero-argument callable
    returning one (or ``None`` while no analysis is in flight).
    """

    key = "pipeline"

    def __init__(self, source):
        self.source = source

    def _stats(self):
        source = self.source
        return source() if callable(source) else source

    def sample(self, registry):
        stats = self._stats()
        if stats is None:
            return
        for field, help_text in (
            ("entries_ingested", "Log entries decoded by the analyzer."),
            ("entries_dismissed",
             "Returns dismissed for want of a matching open frame."),
            ("frames_truncated",
             "Calls closed at the thread's last observed counter."),
            ("chunks_processed", "Fixed-size ingestion chunks decoded."),
            ("shards_analyzed", "Per-thread shards reconstructed."),
            ("shards_vectorised",
             "Clean shards the reconstruction kernel took as they came."),
            ("shards_fallback",
             "Anomalous shards the balance pass rewrote before the kernel."),
            ("segments_sealed",
             "Sealed writer blocks (CRC seal records) observed."),
            ("entries_salvaged",
             "Entries recovery rebuilt from a damaged log."),
            ("entries_quarantined",
             "Entries recovery set aside "
             "(torn/truncated/unsealed/CRC)."),
            ("crc_failures",
             "Sealed segments whose CRC32 no longer matched."),
            ("bytes_written",
             "Fixed-width entry bytes committed to the shared log."),
            ("bytes_on_disk",
             "Bytes the persisted log image occupies."),
        ):
            registry.counter(
                f"pipeline_{field}_total", help_text
            ).set_total(getattr(stats, field))
        registry.gauge(
            "pipeline_cache_hit_rate",
            "Fraction of symbol resolutions served from the LRU.",
        ).set(stats.cache_hit_rate)
        registry.gauge(
            "pipeline_ingest_rate_entries_per_tick",
            "Entries ingested per software-counter tick.",
        ).set(stats.ingest_rate)
        registry.gauge(
            "pipeline_compression_ratio",
            "Entry bytes per persisted byte (rev 1.2 columnar).",
        ).set(stats.compression_ratio)


class KVStoreSampler(Sampler):
    """The kvstore's DB-wide ticker counters, one family per ticker."""

    key = "kvstore"

    def __init__(self, statistics):
        self.statistics = statistics

    def sample(self, registry):
        for name, value in self.statistics.tickers.items():
            registry.counter(
                f"kvstore_{sanitize(name)}_total",
                f"RocksDB-style ticker {name!r}.",
            ).set_total(value)


class SpdkSampler(Sampler):
    """The SPDK perf tool's I/O counters while a run is in flight."""

    key = "spdk"

    def __init__(self, perf):
        self.perf = perf

    def sample(self, registry):
        perf = self.perf
        for field, help_text in (
            ("submitted", "I/O commands submitted to the queue pair."),
            ("completed", "I/O completions reaped."),
            ("reads", "Read commands completed."),
            ("writes", "Write commands completed."),
        ):
            registry.counter(
                f"spdk_io_{field}_total", help_text
            ).set_total(getattr(perf, field, 0))
        in_flight = getattr(perf, "submitted", 0) - getattr(
            perf, "completed", 0
        )
        registry.gauge(
            "spdk_io_in_flight",
            "Commands submitted but not yet completed.",
        ).set(max(0, in_flight))


class CallbackSampler(Sampler):
    """Adapter for ad-hoc sources: ``fn() -> {metric_name: value}``.

    Values land as gauges under ``<prefix>_<name>``; use a concrete
    sampler when counter semantics (monotonicity) matter.
    """

    def __init__(self, key, fn, help_text="Ad-hoc sampled value."):
        self.key = key
        self.fn = fn
        self.help_text = help_text

    def sample(self, registry):
        for name, value in self.fn().items():
            registry.gauge(
                f"{sanitize(self.key)}_{sanitize(name)}", self.help_text
            ).set(value)
