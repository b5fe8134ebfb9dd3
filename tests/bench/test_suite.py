"""End-to-end: ``python -m repro.bench`` in smoke mode.

``REPRO_BENCH_SMOKE=1`` shrinks every workload to seconds — the
*machinery* is under test here (registry, harness, suite schema,
derived views, gate plumbing), not the hardware, so no assertion below
depends on this host clearing a perf floor.
"""

import json
import os

import pytest

from repro.bench.ports import build_registry, derived_views
from repro.bench.runner import build_parser, main, markdown_report
from repro.bench.suite import SCHEMA, baseline_gate_for, load_suite

#: Gates that cannot flake: correctness invariants (exact mode on a
#: deterministic simulation) and ratios with order-of-magnitude margin.
ROBUST = ("columnar_decode", "recovery_matrix", "accuracy_error")


@pytest.fixture(autouse=True)
def _smoke(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One full smoke-mode suite run shared by the module's tests."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_suite.json"
    # Module-scoped, so it may instantiate before the function-scoped
    # monkeypatch fixture: set the env knob directly.
    os.environ["REPRO_BENCH_SMOKE"] = "1"
    try:
        code = main(["--quick", "--out", str(out)])
    finally:
        os.environ.pop("REPRO_BENCH_SMOKE", None)
    return code, out, load_suite(out)


def test_suite_schema_and_coverage(suite):
    code, out, payload = suite
    assert payload["schema"] == SCHEMA
    assert payload["quick"] is True
    assert len(payload["benchmarks"]) >= 5
    for key in ("python", "platform", "cpu_count"):
        assert key in payload["environment"]
    for name, bench in payload["benchmarks"].items():
        stats = bench["stats"]
        assert bench["repetitions"] >= 3, name
        assert len(bench["samples"]) >= 3, name
        assert stats["ci_low"] <= stats["median"] <= stats["ci_high"], name
        assert bench["gates"], f"{name} has no gate verdicts"
        assert bench["handicap"] == 1.0
        assert "discarded" in bench["warmup"]
    # The robust benchmarks pass on any host; flakeable perf floors
    # are judged by their own CI gates, not re-asserted here.
    for name in ROBUST:
        assert payload["benchmarks"][name]["passed"], name
    if code != 0:
        failed = [n for n, b in payload["benchmarks"].items()
                  if not b["passed"]]
        assert failed, "non-zero exit without a failing gate"


def test_derived_views_written_next_to_suite(suite):
    _, out, payload = suite
    views = {
        "BENCH_record.json": ("write", "decode"),
        "BENCH_analyze.json": ("entries_per_sec",),
        "BENCH_monitor.json": ("overhead_fraction",),
        "BENCH_recovery.json": ("fault_matrix",),
        "BENCH_accuracy.json": ("tee_max_error",),
    }
    for filename, keys in views.items():
        view = json.loads((out.parent / filename).read_text())
        assert view["derived_from"] == "BENCH_suite.json"
        for key in keys:
            assert key in view, f"{filename} missing {key}"
    record = json.loads((out.parent / "BENCH_record.json").read_text())
    assert record["write"]["speedup"] == pytest.approx(
        payload["benchmarks"]["record_write"]["stats"]["median"]
    )


def test_handicap_flips_gate_to_fail(tmp_path):
    """The acceptance self-test: an injected slowdown must turn the
    relevant gate verdict into a failure and exit non-zero."""
    out = tmp_path / "suite.json"
    code = main([
        "--quick", "--only", "columnar_decode",
        "--handicap", "columnar_decode=0.001", "--out", str(out),
    ])
    assert code == 1
    bench = load_suite(out)["benchmarks"]["columnar_decode"]
    assert bench["handicap"] == 0.001
    assert not bench["passed"]
    verdict = bench["gates"][0]
    assert verdict["kind"] == "floor" and not verdict["passed"]


def test_baseline_gate_roundtrip(tmp_path):
    first = tmp_path / "first.json"
    assert main(["--quick", "--only", "recovery_matrix",
                 "--out", str(first)]) == 0

    # A second run against its own baseline: overlapping, passes, and
    # the baseline verdict is recorded.
    second = tmp_path / "second.json"
    assert main(["--quick", "--only", "recovery_matrix",
                 "--baseline", str(first), "--out", str(second)]) == 0
    gates = load_suite(second)["benchmarks"]["recovery_matrix"]["gates"]
    assert any(g["kind"] == "baseline" and g["passed"] for g in gates)

    # A doctored baseline (10x the recovered fraction — disjoint and
    # far beyond tolerance) must fail the same benchmark.
    doctored = json.loads(first.read_text())
    stats = doctored["benchmarks"]["recovery_matrix"]["stats"]
    for key in ("median", "ci_low", "ci_high", "mean", "min", "max"):
        stats[key] = stats[key] * 10 + 10
    bad = tmp_path / "doctored.json"
    bad.write_text(json.dumps(doctored))
    third = tmp_path / "third.json"
    assert main(["--quick", "--only", "recovery_matrix",
                 "--baseline", str(bad), "--out", str(third)]) == 1


def test_handicapped_baseline_never_gates(tmp_path):
    out = tmp_path / "handicapped.json"
    main(["--quick", "--only", "columnar_decode",
          "--handicap", "columnar_decode=0.001", "--out", str(out)])
    assert baseline_gate_for(load_suite(out), "columnar_decode") is None
    assert baseline_gate_for(load_suite(out), "no_such_bench") is None


def test_registry_matches_cli_list(capsys):
    names = [b.name for b in build_registry(quick=True)]
    assert len(names) == len(set(names)) >= 5
    assert main(["--list"]) == 0
    listed = [line.split()[0] for line in
              capsys.readouterr().out.strip().splitlines()]
    assert listed == names


def test_parser_contract():
    args = build_parser().parse_args(
        ["--quick", "--only", "record_write", "--handicap", "x=0.5"]
    )
    assert args.quick and args.only == ["record_write"]
    with pytest.raises(SystemExit):
        main(["--repetitions", "2"])  # too few for a CI
    with pytest.raises(SystemExit):
        main(["--only", "no_such_bench"])
    with pytest.raises(SystemExit):
        main(["--handicap", "malformed"])


def test_markdown_report_renders(suite):
    _, _, payload = suite
    report = markdown_report(payload)
    lines = report.splitlines()
    assert lines[0].startswith("| benchmark |")
    for name in payload["benchmarks"]:
        assert any(f"`{name}`" in line for line in lines)


def test_load_suite_rejects_wrong_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "something-else/9"}))
    with pytest.raises(ValueError):
        load_suite(bad)


def test_smoke_run_derived_view_unit_shapes():
    """derived_views is total over any subset of results."""
    assert derived_views({}) == {}
