"""Frozen option objects for the public surface.

Four PRs of organic growth scattered knob kwargs (``writer_block``,
``jobs``, ``chunk_size``, ``recover``, …) across the recorder, the
analyzer, :func:`repro.phoenix.runner.run_teeperf` and three CLI
subcommands — each redeclaring its own defaults.  These two frozen
dataclasses are now the single definition:

* :class:`RecordOptions` — everything that shapes a recording (log
  capacity, batched-writer block size, sealed segments, event mask);
* :class:`AnalyzeOptions` — everything that shapes an analysis pass
  (shard-pool width, ingestion chunk size, recovery mode).

The CLI builds its flags from the same definition via
:func:`add_record_arguments` / :func:`add_analyze_arguments`, so
``demo``, ``monitor``, ``analyze`` and ``recover`` can no longer
drift apart.  Plain kwargs keep working everywhere an options object
is accepted — the object wins only where it was explicitly passed.
"""

from dataclasses import dataclass, replace

from repro.core.log import VERSION, _ENTRY_SIZES
from repro.core.recovery import RECOVER_MODES

_DEFAULT_CAPACITY = 1 << 20  # entries — mirrors the recorder's default


@dataclass(frozen=True)
class RecordOptions:
    """How a recording is made.

    Attributes
    ----------
    capacity:
        Shared-log size in entries, fixed at creation (paper §II-B).
    writer_block:
        Entries per per-thread staging block; 0 commits blocks of
        one, the per-event case.  ``None`` (the default) leaves it to
        the recorder: 256 entries live, 0 simulated (so simulated runs
        stay byte-deterministic).
    sealed:
        Crash-consistent sealed segments: committed blocks carry a
        CRC32 seal record and the header's watermark advances (see
        ``docs/log-format.md``).
    calls / rets:
        The event mask — which event kinds are measured.
    pid:
        Process id stamped into the header.
    version:
        Entry-layout version (1 = 24-byte, 2 = 32-byte with call
        sites).
    """

    capacity: int = _DEFAULT_CAPACITY
    writer_block: int = None
    sealed: bool = False
    calls: bool = True
    rets: bool = True
    pid: int = 4242
    version: int = VERSION

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be positive: {self.capacity}")
        if self.writer_block is not None and self.writer_block < 0:
            raise ValueError(
                f"writer_block must be >= 0: {self.writer_block}"
            )
        if self.version not in _ENTRY_SIZES:
            raise ValueError(
                f"unsupported version {self.version} "
                f"(known: {sorted(_ENTRY_SIZES)})"
            )

    def replace(self, **changes):
        return replace(self, **changes)


@dataclass(frozen=True)
class AnalyzeOptions:
    """How an analysis pass runs.

    Attributes
    ----------
    jobs:
        Worker-pool width for per-thread shard reconstruction.
    chunk_size:
        Entries per ingestion chunk (``None`` = the format default).
    recover:
        ``"off"`` (trust the log), ``"auto"`` (salvage damage first,
        attach the report as ``analysis.recovery``) or ``"strict"``
        (raise :class:`~repro.core.errors.RecoveryError` when
        anything was quarantined).
    """

    jobs: int = 1
    chunk_size: int = None
    recover: str = "off"

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be positive: {self.jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be positive: {self.chunk_size}"
            )
        if self.recover not in RECOVER_MODES:
            raise ValueError(
                f"unknown recover mode {self.recover!r} "
                f"(choose from {RECOVER_MODES})"
            )

    def replace(self, **changes):
        return replace(self, **changes)


# ----------------------------------------------------------------------
# The CLI's single flag definition (no drift between subcommands)

def add_record_arguments(parser, defaults=RecordOptions()):
    """Add the recording flags to an argparse parser."""
    parser.add_argument(
        "--capacity",
        type=int,
        default=defaults.capacity,
        help="shared-log capacity in entries",
    )
    parser.add_argument(
        "--writer-block",
        type=int,
        default=defaults.writer_block,
        help="per-thread writer block size (0 = blocks of one; "
        "default: the recorder's own, 256 live and 0 simulated)",
    )
    parser.add_argument(
        "--sealed",
        action="store_true",
        default=defaults.sealed,
        help="record crash-consistent sealed segments (CRC journal)",
    )
    return parser


def record_options_from_args(args, **overrides):
    """Build :class:`RecordOptions` from parsed CLI arguments."""
    return RecordOptions(
        capacity=args.capacity,
        writer_block=args.writer_block,
        sealed=args.sealed,
        **overrides,
    )


def add_analyze_arguments(parser, defaults=AnalyzeOptions()):
    """Add the analysis flags to an argparse parser."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=defaults.jobs,
        help="worker-pool width for per-thread shard analysis",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=defaults.chunk_size,
        help="entries decoded per ingestion chunk (default 8192)",
    )
    parser.add_argument(
        "--recover",
        choices=list(RECOVER_MODES),
        default=defaults.recover,
        help="salvage a damaged log before analysis (auto), refuse "
        "damage (strict), or trust the log (off)",
    )
    return parser


def analyze_options_from_args(args, **overrides):
    """Build :class:`AnalyzeOptions` from parsed CLI arguments."""
    return AnalyzeOptions(
        jobs=args.jobs,
        chunk_size=args.chunk_size,
        recover=args.recover,
        **overrides,
    )
