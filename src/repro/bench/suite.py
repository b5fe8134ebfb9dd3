"""The consolidated suite artifact: ``benchmarks/out/BENCH_suite.json``.

One schema-versioned file merges every benchmark's samples, robust
statistics, gate verdicts and the environment fingerprint — the
machine-readable perf trajectory the ROADMAP asks for.  The legacy
per-bench artifacts (``BENCH_record.json``, ``BENCH_recovery.json``,
``BENCH_monitor.json``) are emitted as *derived views* of the suite
(each stamped ``"derived_from": "BENCH_suite.json"``) so existing CI
consumers keep working while the suite stays the single source of
truth.
"""

import json
import os
import pathlib
import platform
import sys

import numpy

from repro.bench.gates import BaselineGate
from repro.bench.stats import SampleStats

__all__ = [
    "SCHEMA",
    "baseline_gate_for",
    "default_out_dir",
    "environment_fingerprint",
    "load_suite",
    "suite_payload",
    "write_suite",
]

#: Bump on any incompatible change to the suite layout.
SCHEMA = "teeperf-bench-suite/1"


def default_out_dir():
    """Where suite artifacts land: ``$REPRO_BENCH_OUT`` when set, else
    ``benchmarks/out`` under the current working directory (the repo
    checkout layout CI runs from)."""
    env = os.environ.get("REPRO_BENCH_OUT")
    if env:
        return pathlib.Path(env)
    return pathlib.Path("benchmarks") / "out"


def environment_fingerprint():
    """Enough about the host to interpret (and distrust) the numbers."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
    }


def suite_payload(results, quick=False, baseline=None):
    """The complete suite dict for a list of
    :class:`~repro.bench.harness.BenchResult`."""
    return {
        "schema": SCHEMA,
        "quick": bool(quick),
        "environment": environment_fingerprint(),
        "baseline": baseline,
        "benchmarks": {r.name: r.to_dict() for r in results},
        "passed": all(r.passed for r in results),
    }


def write_suite(results, path, quick=False, baseline=None):
    """Write the consolidated suite JSON; returns the payload."""
    payload = suite_payload(results, quick=quick, baseline=baseline)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def load_suite(path):
    """Parse a suite file, validating the schema version."""
    data = json.loads(pathlib.Path(path).read_text())
    schema = data.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"unsupported suite schema {schema!r} (expected {SCHEMA!r})"
        )
    return data


def baseline_gate_for(baseline_suite, name, rel_tol=0.10):
    """A :class:`~repro.bench.gates.BaselineGate` for benchmark
    ``name`` from a loaded baseline suite, or ``None`` when the
    baseline does not cover it (or was itself handicapped — a doctored
    baseline must never gate a real run)."""
    bench = baseline_suite.get("benchmarks", {}).get(name)
    if bench is None or bench.get("handicap", 1.0) != 1.0:
        return None
    stats = SampleStats.from_dict(bench["stats"])
    return BaselineGate(stats.to_dict(), rel_tol=rel_tol)
