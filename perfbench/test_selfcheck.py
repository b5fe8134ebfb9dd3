"""Tiny-size self-check of the benchmark.

    python3 -m pytest perfbench/test_selfcheck.py -q

Runs every workload at a tiny input scale with a one-second budget and
asserts that every metric ``BENCHMARK.json`` names is emitted with its
unit, untraced and traced; then doctors one output — one call removed
from a recording's call counts — and asserts that the run counts a
failed operation.
"""

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

#: Input scale and budget of a tiny run.
SCALE, SECONDS = 0.05, 1


def _tiny_run(workload, trace, tamper=None):
    import run

    workdir = os.path.join(ROOT, ".perfbench", f"selfcheck-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run.run_workload(
            workload, 3, SECONDS, trace, workdir, scale=SCALE, tamper=tamper,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    spec = _spec()
    names = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    for workload in spec["workloads"]:
        result, problems = _tiny_run(workload["name"], trace)
        assert result["failed"] == 0, problems
        assert result["attempted"] >= 1
        emitted = result["metrics"]
        assert set(emitted) == set(names), workload["name"]
        for name, unit in names.items():
            assert emitted[name]["unit"] == unit, name
            assert isinstance(emitted[name]["value"], (int, float)), name


def test_a_doctored_output_counts_as_failed():
    def drop_one_call(calls):
        doctored = dict(calls)
        doctored[min(doctored)] -= 1
        return doctored

    result, problems = _tiny_run("live-record", 0, tamper=drop_one_call)
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0
    assert any("call counts differ" in p for p in problems)
