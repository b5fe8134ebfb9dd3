"""Crash-recovery benchmark: the fault matrix and salvage throughput.

Three measurements, mirroring docs/log-format.md's recovery contract:

* **fault matrix** — a :class:`~repro.faults.CrashingWriter` dies at
  every commit phase and at a sweep of crash points; recovery must
  bring back **100%** of the CRC-sealed segments every single time
  (the hard floor this benchmark exits non-zero on);
* **salvage throughput** — MB/s through :func:`recover_log` for a
  truncated sealed image and a flipped-byte image (CRC sweep cost
  included), so regressions in the salvage path are visible;
* **sealing overhead** — batched write path with and without the CRC
  seal journal; sealed recording must keep at least
  :data:`SEAL_FLOOR` of the unsealed throughput.

The measurement cores live in :mod:`repro.bench.workloads.recovery`,
shared with the suite's ``recovery_matrix`` and ``seal_overhead``
benchmarks (``python -m repro.bench``), which add repetitions and
CI-based gates.  Results land in ``benchmarks/out/recovery_matrix.json``
(not committed); CI runs ``--quick`` as the recovery-smoke job and
publishes that file.  ``BENCH_recovery.json`` is the suite's derived
view, not this run.
"""

import argparse
import json
import pathlib
import sys

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    _src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.bench.workloads.recovery import (
    MATRIX_FLOOR,
    SEAL_FLOOR,
    bench_fault_matrix,
    bench_salvage,
    bench_seal_overhead,
)

OUT_DIR = pathlib.Path(__file__).parent / "out"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Crash-recovery fault matrix and salvage benchmark"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: fewer entries, fewer repeats",
    )
    args = parser.parse_args(argv)

    if args.quick:
        crash_points, salvage_entries, write_events, repeats = 4, 65_536, 50_000, 3
    else:
        crash_points, salvage_entries, write_events, repeats = 8, 262_144, 200_000, 5

    matrix = bench_fault_matrix(block=16, crash_points=crash_points)
    salvage = bench_salvage(salvage_entries, block=256, repeats=repeats)
    overhead = bench_seal_overhead(write_events, repeats)

    payload = {
        "benchmark": "recovery",
        "quick": args.quick,
        "fault_matrix": matrix,
        "salvage": salvage,
        "seal_overhead": overhead,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "recovery_matrix.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    print(
        f"matrix : {matrix['crash_runs']} crashes, "
        f"{matrix['segments_recovered']}/{matrix['segments_sealed']} "
        f"sealed segments recovered "
        f"({matrix['recovered_fraction']:.0%}, floor "
        f"{MATRIX_FLOOR:.0%})"
    )
    for name, row in salvage.items():
        print(
            f"salvage: {name:<9} {row['mb_per_sec']:>8.1f} MB/s, "
            f"{row['entries_salvaged']:,} salvaged / "
            f"{row['entries_quarantined']:,} quarantined "
            f"({row['crc_failures']} CRC failures)"
        )
    print(
        f"sealing: {overhead['unsealed_events_per_sec']:>12,.0f} ev/s "
        f"unsealed vs {overhead['sealed_events_per_sec']:>12,.0f} "
        f"sealed -> {overhead['retained_fraction']:.2f}x retained "
        f"(floor {SEAL_FLOOR}x)"
    )
    print(f"wrote {out}")

    failed = []
    if matrix["recovered_fraction"] < MATRIX_FLOOR:
        failed.append(
            f"fault matrix recovered "
            f"{matrix['recovered_fraction']:.2%} < {MATRIX_FLOOR:.0%}"
        )
    if overhead["retained_fraction"] < SEAL_FLOOR:
        failed.append(
            f"sealed write path retained "
            f"{overhead['retained_fraction']:.2f}x < {SEAL_FLOOR}x"
        )
    if failed:
        for reason in failed:
            print(f"FLOOR MISSED: {reason}", file=sys.stderr)
        return 1
    return 0


def test_fault_matrix_floor():
    """The in-tree quick run: the 100% floor enforced under pytest too,
    and the JSON artifact refreshed."""
    assert main(["--quick"]) == 0
    payload = json.loads((OUT_DIR / "recovery_matrix.json").read_text())
    assert payload["fault_matrix"]["recovered_fraction"] == 1.0


if __name__ == "__main__":
    sys.exit(main())
