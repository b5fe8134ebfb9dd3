"""Pipeline observability — the counters the streaming analyzer keeps.

TEEMon turned a one-shot TEE profiler into a continuously-fed pipeline
by exporting metrics at every stage; :class:`PipelineStats` is this
repository's equivalent.  One instance travels through a profiling run:
the recorder seeds it with what happened at record time (entries that
overflowed the log's reservation counter), the analyzer adds what
happened at analysis time (entries ingested per chunk, shards analyzed,
returns dismissed, frames truncated, symbol-cache traffic), and the
exporters (:func:`repro.core.export.to_json`,
:func:`repro.core.export.to_metrics`) and ``tee-perf analyze --stats``
surface it.

Every counter is a plain integer so merging two stats objects — e.g.
per-shard partials — is simple addition.
"""

from dataclasses import dataclass, fields


@dataclass
class PipelineStats:
    """Counters for one pass of the record -> ingest -> analyze pipeline.

    Attributes
    ----------
    entries_recorded:
        Events the *recorder* committed to the shared log (its view
        of the run, seeded before analysis starts).
    entries_ingested:
        Log entries decoded and fed to the per-thread shards.
    entries_dropped:
        Events the *recorder* lost because the log was full
        (reservation past the maximum size; §II-B's drop rule).
    entries_dismissed:
        Returns the *analyzer* dismissed because no open frame
        matched them (tracing was off during the call).
    frames_truncated:
        Calls closed at the thread's last observed counter value
        because their return never made it into the log.
    blocks_flushed:
        Writer blocks committed to the log (``writer_block=0``, the
        simulated default, counts one block per entry).
    chunks_processed:
        Fixed-size ingestion chunks decoded.
    shards_analyzed:
        Per-thread shards reconstructed.
    jobs:
        Worker-pool width the shards ran under (1 = serial).
    chunk_size:
        Entries per ingestion chunk (0 until an analysis ran).
    writer_block:
        Entries per writer staging block (0 = blocks of one, the
        per-event case; see :class:`repro.core.log.ThreadLogWriter`).
    counter_span:
        Ticks between the smallest and largest counter value seen;
        the denominator of the ingest rate.
    cache_hits / cache_misses:
        Symbol-resolution LRU traffic (see
        :class:`repro.symbols.CachedResolver`).
    shards_vectorised / shards_fallback:
        Shards the vector engine reconstructed in whole-array passes
        vs. shards whose anomalies (unmatched returns, cross-frame
        closes, truncated tails) forced the sequential fallback.
        Both stay 0 under ``engine="python"``.
    segments_sealed:
        Seal records observed: committed writer blocks carrying a
        CRC32 in the log's seal journal (0 for unsealed logs and when
        no recovery pass ran).
    entries_salvaged / entries_quarantined:
        Recovery's verdict on a damaged log — entries rebuilt into
        the salvaged log vs. entries set aside with a reason code
        (torn, truncated, unsealed, CRC mismatch).  Quarantined
        entries are reported, never silently dropped (see
        :mod:`repro.core.recovery`).
    crc_failures:
        Sealed segments whose CRC32 no longer matched their bytes.
    bytes_written:
        Raw fixed-width entry bytes the recorder committed to the
        shared log (entries × entry size — what rev 1.0/1.1 would
        persist).
    bytes_on_disk:
        Bytes the persisted image actually occupies.  Equal to
        ``bytes_written`` plus the 64-byte header for uncompressed
        dumps; far smaller under rev 1.2 columnar compression.
    engine:
        The resolved reconstruction engine (``"vector"`` or
        ``"python"``; ``""`` before analysis has run).
    """

    entries_recorded: int = 0
    entries_ingested: int = 0
    entries_dropped: int = 0
    entries_dismissed: int = 0
    frames_truncated: int = 0
    blocks_flushed: int = 0
    chunks_processed: int = 0
    shards_analyzed: int = 0
    jobs: int = 1
    chunk_size: int = 0
    writer_block: int = 0
    counter_span: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    shards_vectorised: int = 0
    shards_fallback: int = 0
    segments_sealed: int = 0
    entries_salvaged: int = 0
    entries_quarantined: int = 0
    crc_failures: int = 0
    bytes_written: int = 0
    bytes_on_disk: int = 0
    engine: str = ""

    # ------------------------------------------------------------------
    # Derived rates

    @property
    def ingest_rate(self):
        """Entries ingested per counter tick (0.0 on an empty span)."""
        if self.counter_span <= 0:
            return 0.0
        return self.entries_ingested / self.counter_span

    @property
    def cache_hit_rate(self):
        """Fraction of symbol resolutions served from the LRU."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    @property
    def compression_ratio(self):
        """Fixed-width entry bytes per byte persisted (1.0 means no
        compression; 0.0 before anything was written *and* persisted)."""
        if self.bytes_written <= 0 or self.bytes_on_disk <= 0:
            return 0.0
        return self.bytes_written / self.bytes_on_disk

    # ------------------------------------------------------------------
    # Combination and output

    def merge(self, other):
        """Add `other`'s counters into this object (in place).

        ``jobs``, ``chunk_size`` and ``writer_block`` are
        configuration, not counters: the merged object keeps the
        wider/larger of the two.
        """
        for f in fields(self):
            if f.name == "engine":
                self.engine = self.engine or other.engine
            elif f.name in ("jobs", "chunk_size", "writer_block"):
                setattr(
                    self, f.name, max(getattr(self, f.name), getattr(other, f.name))
                )
            else:
                setattr(
                    self, f.name, getattr(self, f.name) + getattr(other, f.name)
                )
        return self

    def to_dict(self):
        """All counters plus the derived rates, JSON-ready."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["ingest_rate"] = self.ingest_rate
        out["cache_hit_rate"] = self.cache_hit_rate
        out["compression_ratio"] = self.compression_ratio
        return out

    @classmethod
    def from_dict(cls, data):
        """Rehydrate from :meth:`to_dict` output (or any superset).

        Derived rates and unknown keys are ignored, so a snapshot that
        travelled through JSON — e.g. a monitor snapshot or the
        ``pipeline`` block of :func:`repro.core.export.to_json` —
        round-trips to an equal object.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def report(self):
        """The human-readable counter table (``--stats`` output)."""
        lines = [
            "pipeline stats:",
            f"  entries recorded:  {self.entries_recorded}",
            f"  entries ingested:  {self.entries_ingested}",
            f"  entries dropped:   {self.entries_dropped}"
            "   (log full at record time)",
            f"  entries dismissed: {self.entries_dismissed}"
            "   (unmatched returns)",
            f"  frames truncated:  {self.frames_truncated}",
            f"  blocks flushed:    {self.blocks_flushed}"
            + (
                f"   ({self.writer_block} entries/block)"
                if self.writer_block
                else ""
            ),
            f"  chunks processed:  {self.chunks_processed}"
            + (f"   ({self.chunk_size} entries/chunk)" if self.chunk_size else ""),
            f"  shards analyzed:   {self.shards_analyzed}"
            f"   (jobs={self.jobs})"
            + (f" (engine={self.engine})" if self.engine else ""),
            f"  shards vectorised: {self.shards_vectorised}"
            f"   ({self.shards_fallback} fell back)",
            f"  recovery:          {self.entries_salvaged} salvaged, "
            f"{self.entries_quarantined} quarantined "
            f"({self.segments_sealed} sealed segments, "
            f"{self.crc_failures} CRC failures)",
            f"  bytes:             {self.bytes_written} written, "
            f"{self.bytes_on_disk} on disk"
            + (
                f"   ({self.compression_ratio:.2f}x compression)"
                if self.bytes_on_disk
                else ""
            ),
            f"  ingest rate:       {self.ingest_rate:.3f} entries/tick",
            f"  symbol cache:      {100 * self.cache_hit_rate:.1f}% hits "
            f"({self.cache_hits} hits, {self.cache_misses} misses)",
        ]
        return "\n".join(lines)

    def __str__(self):
        return self.report()
