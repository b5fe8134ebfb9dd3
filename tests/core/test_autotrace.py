"""Tests for auto-tracing (unmodified Python code, sys.setprofile)."""

import sys
import threading
import types

import pytest

from repro.api import TEEPerf
from repro.core.errors import TEEPerfError


def make_app():
    module = types.ModuleType("auto_app")
    source = """
def crunch(n):
    total = 0
    for i in range(n):
        total += i * i
    return total

def helper():
    return crunch(40_000)

def main():
    out = 0
    for _ in range(4):
        out += helper()
    return out
"""
    exec(compile(source, "auto_app.py", "exec"), module.__dict__)
    sys.modules["auto_app"] = module
    return module


@pytest.fixture
def app():
    module = make_app()
    yield module
    sys.modules.pop("auto_app", None)


def test_auto_profile_without_any_compile_step(app):
    perf = TEEPerf.auto(scope="auto_app")
    result = perf.record(app.main)
    assert result == app.crunch(40_000) * 4
    analysis = perf.analyze()
    assert analysis.method("auto_app::main()").calls == 1
    assert analysis.method("auto_app::helper()").calls == 4
    assert analysis.method("auto_app::crunch()").calls == 4
    # crunch holds the loop; it dominates.
    assert analysis.methods()[0].method == "auto_app::crunch()"


def test_auto_scope_excludes_other_modules(app):
    perf = TEEPerf.auto(scope="auto_app")

    def driver():  # defined in the test module: out of scope
        return app.main()

    perf.record(driver)
    analysis = perf.analyze()
    names = {s.method for s in analysis.methods()}
    assert "auto_app::main()" in names
    assert not any("driver" in name for name in names)


def test_auto_scope_predicate(app):
    perf = TEEPerf.auto(scope=lambda module: module == "auto_app")
    perf.record(app.main)
    assert perf.analyze().method("auto_app::crunch()").calls == 4


def test_auto_traces_spawned_threads(app):
    perf = TEEPerf.auto(scope="auto_app")
    # A barrier keeps all three threads alive simultaneously.
    barrier = threading.Barrier(3)
    exec(
        "def synced_helper(barrier):\n"
        "    barrier.wait()\n"
        "    return helper()\n",
        app.__dict__,
    )

    def fan_out():
        threads = [
            threading.Thread(target=app.synced_helper, args=(barrier,))
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    perf.record(fan_out)
    analysis = perf.analyze()
    helper = analysis.method("auto_app::helper()")
    assert helper.calls == 3
    assert len(helper.threads) == 3


def test_auto_threads_run_one_after_another_keep_their_own_tids(app):
    """CPython may hand a joined thread's ident to the next thread
    started; the log's tid must still tell the threads apart."""
    perf = TEEPerf.auto(scope="auto_app")

    def run_in_turn():
        for _ in range(3):
            thread = threading.Thread(target=app.helper)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()

    perf.record(run_in_turn)
    helper = perf.analyze().method("auto_app::helper()")
    assert helper.calls == 3
    assert len(helper.threads) == 3


def test_auto_flamegraph_nests(app):
    perf = TEEPerf.auto(scope="auto_app")
    perf.record(app.main)
    perf.analyze()
    folded = perf.flamegraph().to_folded()
    assert "auto_app::main();auto_app::helper();auto_app::crunch()" in folded


def test_auto_rejects_compile_calls(app):
    perf = TEEPerf.auto(scope="auto_app")
    with pytest.raises(TEEPerfError):
        perf.compile_module(app)


def test_hook_is_uninstalled_after_record(app):
    perf = TEEPerf.auto(scope="auto_app")
    perf.record(app.main)
    assert sys.getprofile() is None


def test_auto_handles_lambdas_and_weird_names(app):
    module = sys.modules["auto_app"]
    module.weird = eval("lambda: sum(i for i in range(10_000))", module.__dict__)
    perf = TEEPerf.auto(scope="auto_app")
    perf.record(module.weird)
    analysis = perf.analyze()
    assert any("lambda" in s.method for s in analysis.methods())


def _call_graph_source(levels, width):
    """A generated module: `width` functions per level, each calling
    two functions of the next level; ``main`` calls every level-0
    function once, after a barrier."""
    lines = []
    for level in range(levels):
        for i in range(width):
            lines.append(f"def f{level}_{i}(x):")
            if level + 1 < levels:
                a, b = i, (i * 3 + 1) % width
                lines.append(
                    f"    return f{level + 1}_{a}(x) + f{level + 1}_{b}(x)"
                )
            else:
                lines.append("    return x * x")
    lines += [
        "def main(barrier):",
        "    barrier.wait()",
        "    g = globals()",
        f"    return sum(g['f0_' + str(i)](i) for i in range({width}))",
    ]
    return "\n".join(lines) + "\n"


def _expected_calls(levels, width):
    calls = {}

    def visit(level, i):
        calls[f"f{level}_{i}"] = calls.get(f"f{level}_{i}", 0) + 1
        if level + 1 < levels:
            visit(level + 1, i)
            visit(level + 1, (i * 3 + 1) % width)

    for i in range(width):
        visit(0, i)
    return calls


def test_auto_two_threads_lay_out_each_function_once():
    """Two threads meeting the same code objects for the first time
    lay each out once: the recording analyses, with every call."""
    levels, width, name = 6, 10, "auto_graph"
    module = types.ModuleType(name)
    exec(compile(_call_graph_source(levels, width), f"{name}.py", "exec"),
         module.__dict__)
    sys.modules[name] = module
    perf = TEEPerf.auto(scope=name)
    barrier = threading.Barrier(2)

    def fan_out():
        threads = [
            threading.Thread(target=module.main, args=(barrier,))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)

    # Frequent thread switches make both threads meet new functions
    # at once; the default interval rarely switches mid-layout.
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        perf.record(fan_out)
    finally:
        sys.setswitchinterval(saved)
        sys.modules.pop(name, None)
    analysis = perf.analyze()
    for fn, calls in _expected_calls(levels, width).items():
        assert analysis.method(f"{name}::{fn}()").calls == 2 * calls
    laid_out = [s.name for s in perf.program.image.symtab if name in s.name]
    assert len(laid_out) == levels * width + 1  # every f, plus main


def test_auto_lists_two_lambdas_of_one_module(app):
    exec(
        "square = lambda x: x * x\n"
        "cube = lambda x: x * x * x\n"
        "def both():\n"
        "    return square(3) + cube(3)\n",
        app.__dict__,
    )
    perf = TEEPerf.auto(scope="auto_app")
    assert perf.record(app.both) == 36
    names = {s.method for s in perf.analyze().methods()}
    assert {"auto_app::lambda()", "auto_app::lambda_2()"} <= names
