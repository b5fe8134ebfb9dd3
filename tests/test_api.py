"""The public API facade and its compatibility shims.

Three contracts:

* :mod:`repro.api` exports every supported name, and each one is the
  *same object* as its home module's (no wrapper layer);
* the retired deep-import paths (``from repro.core import TEEPerf``)
  fail outright — :mod:`repro.api` or the home module is the only
  spelling;
* :class:`RecordOptions` / :class:`AnalyzeOptions` are the single
  definition the CLI builds its flags from — no drift between
  subcommands.
"""

import warnings

import pytest

import repro


def test_api_module_reachable_from_package():
    assert repro.api.__name__ == "repro.api"


def test_api_all_names_importable():
    import repro.api as api

    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_api_names_are_home_module_objects():
    import repro.api as api
    from repro.core.analyzer import Analyzer
    from repro.core.flamegraph import FlameGraph
    from repro.core.log import SharedLog, open_log
    from repro.core.profiler import TEEPerf
    from repro.core.recovery import recover_log

    assert api.TEEPerf is TEEPerf
    assert api.Profiler is TEEPerf
    assert api.Analyzer is Analyzer
    assert api.SharedLog is SharedLog
    assert api.FlameGraph is FlameGraph
    assert api.open_log is open_log
    assert api.recover_log is recover_log


def test_api_exports_diff_and_fleet_surface():
    """The differential-profiling and fleet names are first-class
    facade exports, same-object with their home modules."""
    import repro.api as api
    from repro.core.diff import AnalysisDiff, MethodDelta
    from repro.fleet import FleetClient, FleetDaemon, FleetServer
    from repro.fleet import FoldedProfile, IngestListener

    assert api.AnalysisDiff is AnalysisDiff
    assert api.MethodDelta is MethodDelta
    assert api.FleetDaemon is FleetDaemon
    assert api.FleetClient is FleetClient
    assert api.FleetServer is FleetServer
    assert api.FoldedProfile is FoldedProfile
    assert api.IngestListener is IngestListener
    for name in (
        "AnalysisDiff", "MethodDelta", "FleetDaemon", "FleetClient",
        "FleetServer", "FoldedProfile", "IngestListener",
    ):
        assert name in api.__all__, name


def test_package_lazy_attributes():
    assert repro.TEEPerf is repro.api.TEEPerf
    assert repro.Analyzer is repro.api.Analyzer
    assert repro.AnalysisDiff is repro.api.AnalysisDiff
    assert repro.FleetDaemon is repro.api.FleetDaemon
    assert "TEEPerf" in dir(repro)
    with pytest.raises(AttributeError):
        repro.definitely_not_a_name


@pytest.mark.parametrize(
    "name",
    [
        "TEEPerf",
        "Analyzer",
        "Recorder",
        "LiveRecorder",
        "SharedLog",
        "FlameGraph",
        "open_log",
    ],
)
def test_retired_deep_import_raises(name):
    import repro.core

    with pytest.raises(AttributeError):
        getattr(repro.core, name)
    assert name not in repro.core.__all__
    assert getattr(repro.api, name) is not None


def test_supporting_names_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.core import (  # noqa: F401
            KIND_CALL,
            PipelineStats,
            symbol,
        )


def test_unknown_core_attribute_raises():
    import repro.core

    with pytest.raises(AttributeError):
        repro.core.definitely_not_a_name


def test_core_star_import_resolves_every_name():
    namespace = {}
    exec("from repro.core import *", namespace)
    import repro.core

    assert set(repro.core.__all__) <= set(namespace)


# ---------------------------------------------------------------------------
# Options: one definition, no CLI flag drift


def test_record_options_validate_and_replace():
    from repro.api import RecordOptions

    opts = RecordOptions(writer_block=8, sealed=True)
    assert opts.replace(capacity=128).capacity == 128
    assert opts.replace(capacity=128).sealed  # other fields kept
    with pytest.raises(ValueError):
        RecordOptions(capacity=0)
    with pytest.raises(ValueError):
        RecordOptions(writer_block=-1)
    with pytest.raises(ValueError):
        RecordOptions(version=99)


def test_analyze_options_validate_and_replace():
    from repro.api import AnalyzeOptions

    opts = AnalyzeOptions(jobs=4, recover="auto")
    assert opts.replace(chunk_size=64).jobs == 4
    assert opts.replace(chunk_size=64).recover == "auto"  # others kept
    with pytest.raises(ValueError):
        AnalyzeOptions(jobs=0)
    with pytest.raises(TypeError):
        AnalyzeOptions(engine="warp")  # one reconstruction path, no knob
    with pytest.raises(ValueError):
        AnalyzeOptions(recover="maybe")


def test_cli_subcommands_share_one_record_definition():
    """demo and monitor take identical recording flags, built from the
    same RecordOptions defaults — the drift the facade PR removed."""
    from repro.api import RecordOptions
    from repro.cli import build_parser

    defaults = RecordOptions()
    parser = build_parser()
    for command in (["demo"], ["monitor"]):
        args = parser.parse_args(command)
        assert args.capacity == defaults.capacity
        assert args.writer_block == defaults.writer_block
        assert args.sealed == defaults.sealed


def test_cli_analyze_flags_match_analyze_options():
    from repro.api import AnalyzeOptions
    from repro.cli import build_parser
    from repro.core.options import analyze_options_from_args

    args = build_parser().parse_args(["analyze", "x.teeperf"])
    assert analyze_options_from_args(args) == AnalyzeOptions()
    args = build_parser().parse_args(
        ["analyze", "x.teeperf", "--recover", "auto", "--jobs", "3"]
    )
    opts = analyze_options_from_args(args)
    assert opts.recover == "auto" and opts.jobs == 3


def test_record_options_drive_the_recorder(tmp_path):
    """One options object configures TEEPerf end to end."""
    from repro.api import AnalyzeOptions, RecordOptions, TEEPerf
    from repro.core import symbol

    class App:
        @symbol("api::Main()")
        def main(self, env):
            for _ in range(8):
                env.compute(1000)

    opts = RecordOptions(capacity=1 << 12, sealed=True)
    perf = TEEPerf.simulated(name="api-test", record=opts)
    app = App()
    perf.compile_instance(app)
    perf.record(app.main, perf.env)
    assert perf.recorder.log.sealed
    assert perf.recorder.log.seal_watermark == len(perf.recorder.log)
    analysis = perf.analyze(options=AnalyzeOptions(recover="auto"))
    assert analysis.recovery is not None and analysis.recovery.ok
    assert analysis.method("api::Main()").calls == 1
