"""The ``tee-perf`` command-line interface.

Offline utilities around the log format and the visualizer::

    tee-perf inspect <run.teeperf>          # header + entry statistics
    tee-perf recover <run.teeperf> -o salvaged.teeperf
    tee-perf flamegraph <stacks.folded> -o out.svg
    tee-perf demo [--platform sgx-v1] [-o DIR]

``inspect`` works on any persisted log without needing the binary
image; ``flamegraph`` renders standard folded-stacks text (from this
tool or any other producer) into a standalone SVG; ``demo`` runs a
small simulated workload end to end and writes its artefacts.

Plus the live surface::

    tee-perf monitor [--workload histogram] [--port 9464] [--rules F]

which runs a Phoenix workload under the profiler with a monitor
attached and serves Prometheus-format scrapes while it executes (see
docs/monitoring.md).

And the fleet service (see docs/fleet.md)::

    tee-perf fleet serve [--port P] [--ingest-port Q]
    tee-perf fleet ingest run.teeperf --connect HOST:PORT --tenant T
    tee-perf fleet query --url URL [--tenant T] [--diff A B]

And schedule-space exploration (see docs/exploration.md)::

    tee-perf explore [--workload record-path] [--trials N] [--seed S]
                     [--policy random|all|...] [--systematic] [-o OUT]

which runs a concurrency workload under many adversarial thread
schedules and gates on the detector stack (deadlock/livelock, lockset
races, recorder oracles); exit status 0 means every schedule upheld
every invariant.
"""

import argparse
import os
import sys
import threading
import time
from collections import Counter

from repro.core.analyzer import Analyzer
from repro.core.diff import AnalysisDiff
from repro.core.errors import LogFormatError, RecoveryError
from repro.core.export import (
    to_callgrind,
    to_gprof,
    to_json,
    to_metrics,
    to_speedscope,
)
from repro.core.flamegraph import FlameGraph
from repro.core.instrument import symbol
from repro.core.log import KIND_CALL, open_log
from repro.core.options import (
    add_analyze_arguments,
    add_record_arguments,
    analyze_options_from_args,
    record_options_from_args,
)
from repro.core.profiler import TEEPerf
from repro.core.recovery import recover_log
from repro.symbols import BinaryImage
from repro.tee import platform_by_name


def cmd_inspect(args):
    # open_log maps the file, so inspect never slurps a multi-gigabyte
    # log: chunks are paged in as they are decoded.
    log = open_log(args.log)
    try:
        print(f"TEE-Perf log: {args.log}")
        print(f"  version:        {log.version}")
        print(f"  pid:            {log.pid}")
        print(f"  multithreaded:  {log.multithread}")
        print(f"  active flag:    {log.active}")
        print(f"  capacity:       {log.capacity} entries")
        print(f"  entries:        {len(log)}")
        print(f"  profiler addr:  {log.profiler_addr:#x}")
        calls = rets = 0
        threads = Counter()
        lo = hi = None
        for cols in log.iter_column_chunks():
            kinds, counters, _, tids, _ = cols.as_lists()
            calls += kinds.count(KIND_CALL)
            rets += len(kinds) - kinds.count(KIND_CALL)
            threads.update(tids)
            if counters:
                lo = min(counters) if lo is None else min(lo, min(counters))
                hi = max(counters) if hi is None else max(hi, max(counters))
        print(f"  calls/returns:  {calls}/{rets}")
        print(f"  threads:        {len(threads)}")
        if lo is not None:
            print(f"  counter span:   {lo} .. {hi}")
        for tid, count in threads.most_common(10):
            print(f"    thread {tid}: {count} events")
    finally:
        log.close()
    return 0


def cmd_analyze(args):
    """Offline stage 3: log + symbol table -> reports."""
    image_path = args.image or f"{args.log}.symtab.json"
    try:
        with open(image_path) as fh:
            image = BinaryImage.from_json(fh.read())
    except FileNotFoundError:
        print(
            f"no symbol table at {image_path}; pass --image",
            file=sys.stderr,
        )
        return 1
    try:
        analysis = Analyzer(image).analyze(
            args.log, options=analyze_options_from_args(args)
        )
    except RecoveryError as exc:
        print(f"strict recovery refused the log: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(exc.report.report(), file=sys.stderr)
        return 1
    if args.format == "report":
        print(analysis.report(top=args.top))
    elif args.format == "gprof":
        print(to_gprof(analysis, top=args.top))
    elif args.format == "callgrind":
        print(to_callgrind(analysis))
    elif args.format == "speedscope":
        print(to_speedscope(analysis))
    elif args.format == "json":
        print(to_json(analysis))
    elif args.format == "metrics":
        print(to_metrics(analysis), end="")
    elif args.format == "folded":
        print(FlameGraph.from_analysis(analysis).to_folded(), end="")
    if args.stats:
        print()
        print(analysis.pipeline.report())
    if analysis.recovery is not None and not analysis.recovery.ok:
        # stderr: --format metrics/folded/json stdout must stay parseable.
        print(analysis.recovery.report(), file=sys.stderr)
    return 0


def cmd_recover(args):
    """Salvage a damaged log into a clean one, with a full report."""
    try:
        salvaged, report = recover_log(args.log, repair=args.repair_tails)
    except LogFormatError as exc:
        print(f"cannot recover: {exc}", file=sys.stderr)
        return 1
    output = args.output or f"{args.log}.recovered"
    salvaged.dump(output)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.report())
        print(f"\nwrote {output} ({len(salvaged)} entries)")
    if args.strict and not report.ok:
        print("recover --strict: log was damaged", file=sys.stderr)
        return 1
    return 0


def cmd_convert(args):
    """Re-encode a log between fixed-width (rev 1.0/1.1) and
    compressed columnar (rev 1.2), with round-trip accounting."""
    from repro.core.columnar import ColumnarLog, encode_log

    try:
        log = open_log(args.log)
    except (OSError, LogFormatError) as exc:
        print(f"cannot convert: {exc}", file=sys.stderr)
        return 1
    # The input is mapped: convert in memory and unmap it before the
    # output (which may be the same file) is written.
    with log:
        was_compressed = isinstance(log, ColumnarLog)
        to_columnar = not was_compressed if args.to is None \
            else args.to == "1.2"
        entries = len(log)
        if to_columnar == was_compressed:
            direction = "rev 1.2" if was_compressed else "fixed-width"
            print(f"{args.log} is already {direction}; nothing to do")
            return 0
        if to_columnar:
            image = encode_log(log, sort_by_thread=not args.no_sort)
        else:
            expanded = log.to_shared_log()
    in_size = os.path.getsize(args.log)
    suffix = ".tpc" if to_columnar else ".teeperf"
    output = args.output or f"{os.path.splitext(args.log)[0]}{suffix}"
    if to_columnar:
        with open(output, "wb") as fh:
            fh.write(image)
        out_size = len(image)
        # Round-trip check: the compressed image must decode to the
        # same entries before we call the conversion good.
        back = ColumnarLog(image)
        ok = len(back) == entries
    else:
        expanded.dump(output)
        out_size = os.path.getsize(output)
        back = expanded
        ok = len(back) == entries
    ratio = in_size / out_size if out_size else 0.0
    print(f"converted {args.log} -> {output}")
    print(f"  entries:   {entries}")
    print(f"  in:        {in_size} bytes")
    print(f"  out:       {out_size} bytes")
    print(
        f"  ratio:     {ratio:.2f}x "
        f"{'smaller' if ratio >= 1 else 'larger'}"
    )
    print(
        f"  round trip: {len(back)}/{entries} entries "
        f"{'OK' if ok else 'MISMATCH'}"
    )
    if not ok:
        print("conversion round trip failed", file=sys.stderr)
        return 1
    return 0


def _load_analysis(log_path, image_path):
    image_path = image_path or f"{log_path}.symtab.json"
    with open(image_path) as fh:
        image = BinaryImage.from_json(fh.read())
    return Analyzer(image).analyze(log_path)


def cmd_diff(args):
    """Differential profile of two runs (before vs after a change)."""
    try:
        before = _load_analysis(args.before, args.before_image)
        after = _load_analysis(args.after, args.after_image)
    except FileNotFoundError as exc:
        print(f"missing input: {exc.filename}", file=sys.stderr)
        return 1
    diff = AnalysisDiff(before, after)
    print(diff.report(top=args.top))
    if args.svg:
        diff.flamegraph(
            title=f"diff: {args.before} -> {args.after}"
        ).write_svg(args.svg)
        print(f"\ndifferential flame graph written to {args.svg}")
    return 0


def cmd_flamegraph(args):
    folded = {}
    with open(args.folded) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            stack, _, count = line.rpartition(" ")
            if not stack or not (count.isascii() and count.isdigit()):
                print(f"{args.folded}:{lineno}: not a folded-stacks line",
                      file=sys.stderr)
                return 1
            path = tuple(stack.split(";"))
            folded[path] = folded.get(path, 0) + int(count)
    if not any(folded.values()):
        print(f"{args.folded}: nothing to draw", file=sys.stderr)
        return 1
    graph = FlameGraph(folded, title=args.title)
    graph.write_svg(args.output, width=args.width)
    print(f"wrote {args.output} ({graph.total_ticks()} total ticks)")
    return 0


class _DemoApp:
    """A tiny two-phase workload for the demo command."""

    def __init__(self, env):
        self.env = env

    @symbol("demo::Main()")
    def main(self):
        for _ in range(50):
            self.parse()
            self.process()

    @symbol("demo::Parse()")
    def parse(self):
        self.env.compute(20_000)
        self.env.mem_read(4_096)

    @symbol("demo::Process()")
    def process(self):
        self.env.compute(60_000)
        self.env.syscall("write")


def cmd_demo(args):
    platform = platform_by_name(args.platform)
    perf = TEEPerf.simulated(
        platform=platform, name="demo",
        record=record_options_from_args(args),
    )
    app = _DemoApp(perf.env)
    perf.compile_instance(app)
    perf.record(app.main)
    analysis = perf.analyze()
    print(analysis.report())
    import pathlib

    out = pathlib.Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "demo.teeperf"
    svg_path = out / "demo_flamegraph.svg"
    perf.persist(str(log_path))
    perf.flamegraph(title=f"demo on {platform.name}").write_svg(
        str(svg_path)
    )
    print(f"\nwrote {log_path} and {svg_path}")
    print(f"try: tee-perf inspect {log_path}")
    return 0


def cmd_monitor(args):
    """Live monitoring: run a Phoenix workload under the profiler with
    a monitor attached, serve scrapes, evaluate alert rules."""
    from repro.monitor import (
        ConsoleSink,
        MemorySink,
        Monitor,
        MonitorServer,
        RuleSyntaxError,
        parse_rules,
    )
    from repro.phoenix.runner import workload_by_name

    monitor = Monitor(interval=args.interval)
    if args.rules:
        try:
            with open(args.rules) as fh:
                monitor.add_rules(parse_rules(fh.read()))
        except OSError as exc:
            print(f"cannot read rules file: {exc}", file=sys.stderr)
            return 1
        except RuleSyntaxError as exc:
            print(f"bad rules file: {exc}", file=sys.stderr)
            return 1
    monitor.add_sink(ConsoleSink())
    fired = monitor.add_sink(MemorySink())

    try:
        platform = platform_by_name(args.platform)
        workload_cls = workload_by_name(args.workload)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    params = {}
    for item in args.param or ():
        key, sep, value = item.partition("=")
        if not sep:
            print(f"--param needs key=value, got {item!r}", file=sys.stderr)
            return 1
        params[key] = int(value)

    perf = TEEPerf.simulated(
        platform=platform,
        name=workload_cls.NAME,
        monitor=monitor,
        record=record_options_from_args(args),
    )
    workload = workload_cls(perf.machine, perf.env, **params)
    perf.compile_instance(workload)

    server = None
    if not args.once:
        server = MonitorServer(monitor, port=args.port)
        port = server.start()
        print(f"monitor: serving {server.url}/metrics "
              f"(snapshot at {server.url}/snapshot.json)")
        sys.stdout.flush()

    monitor.start()
    failure = []

    def run():
        try:
            perf.record(workload.run)
        except Exception as exc:  # noqa: BLE001 — reported below
            failure.append(exc)

    worker = threading.Thread(
        target=run, name="tee-perf-monitored-workload", daemon=True
    )
    worker.start()
    worker.join()
    if failure:
        monitor.stop()
        if server is not None:
            server.stop()
        print(f"workload failed: {failure[0]}", file=sys.stderr)
        return 1
    perf.analyze()  # attaches the pipeline sampler and polls once

    if args.duration > 0 and server is not None:
        print(f"monitor: workload done; serving {args.duration:g}s more")
        sys.stdout.flush()
        time.sleep(args.duration)
    monitor.stop()
    if server is not None:
        server.stop()

    if args.once:
        print(monitor.exposition(), end="")
    samples = int(monitor.registry.value("monitor_samples_total", 0))
    families = len(monitor.registry)
    alerts = len(fired.fired())
    print(
        f"monitor: {samples} sampling passes, {families} metric "
        f"families, {alerts} alert(s) fired",
        file=sys.stderr,
    )
    return 0


def cmd_fleet_serve(args):
    """Boot the continuous-profiling daemon: socket ingest + HTTP
    queries + the monitor scrape surface, until --duration elapses
    (0 = serve until interrupted)."""
    import signal

    from repro.fleet import FleetDaemon, FleetServer, IngestListener

    daemon = FleetDaemon(
        window_seconds=args.window,
        retention=args.retention,
        jobs=args.jobs,
    )
    daemon.start()
    listener = IngestListener(daemon, port=args.ingest_port)
    ingest_port = listener.start()
    server = FleetServer(daemon, port=args.port)
    server.start()
    # SIGINT and SIGTERM both stop the daemon through the drain below,
    # also when it started with SIGINT ignored (a background job of a
    # non-interactive shell), where Python installs no handler of its
    # own.  Only the main thread may install them.
    previous = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(
                signum, signal.default_int_handler
            )
    try:
        print(f"fleet: ingest on 127.0.0.1:{ingest_port}")
        print(f"fleet: queries at {server.url}/profiles "
              f"(status at {server.url}/fleet)")
        sys.stdout.flush()
        if args.duration > 0:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        listener.stop()
        server.stop()
        daemon.stop()
        for signum, handler in previous.items():
            if handler is not None:  # None: not set from Python
                signal.signal(signum, handler)
    status = daemon.status()
    counters = status["counters"]
    print(
        f"fleet: served {counters.get('segments_analyzed', 0)} "
        f"segment(s) from {counters.get('sessions_opened', 0)} "
        f"session(s) across {status['store']['tenants']} tenant(s)",
        file=sys.stderr,
    )
    return 0


def cmd_fleet_ingest(args):
    """Publish a persisted log to a running daemon as one session."""
    import json

    from repro.fleet import FleetClient, ProtocolError

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(
            f"--connect needs HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 1
    image_path = args.image or f"{args.log}.symtab.json"
    try:
        with open(image_path) as fh:
            symtab = fh.read()
        with open(args.log, "rb") as fh:
            log_bytes = fh.read()
    except FileNotFoundError as exc:
        print(f"missing input: {exc.filename}", file=sys.stderr)
        return 1
    try:
        with FleetClient((host, int(port))).open(
            args.tenant, symtab, session=args.session
        ) as client:
            client.publish(log_bytes, via_shm=args.shm)
            accounting = client.bye()["accounting"]
    except (OSError, ProtocolError) as exc:
        print(f"ingest failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(accounting, indent=2))
    if accounting["quarantined"]:
        print(
            f"note: {accounting['quarantined']} entries quarantined "
            "(salvage accounting above)",
            file=sys.stderr,
        )
    return 0


def cmd_fleet_query(args):
    """Read a running daemon's profiles over HTTP."""
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")
    if args.diff:
        if not args.tenant:
            print("--diff needs --tenant", file=sys.stderr)
            return 1
        a, b = args.diff
        path = (
            f"/profiles/{args.tenant}/diff?a={a}&b={b}"
            f"&format={args.format}"
        )
    elif args.tenant:
        suffix = {"json": "", "folded": "/folded",
                  "svg": "/flamegraph.svg"}.get(args.format)
        if suffix is None:
            print(
                f"--format {args.format} needs --diff", file=sys.stderr
            )
            return 1
        path = f"/profiles/{args.tenant}{suffix}"
    else:
        path = "/fleet" if args.status else "/profiles"
    try:
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            body = resp.read().decode()
    except urllib.error.HTTPError as exc:
        print(exc.read().decode(), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach {base}: {exc}", file=sys.stderr)
        return 1
    print(body, end="" if body.endswith("\n") else "\n")
    return 0


def cmd_explore(args):
    """Hammer a workload across adversarial schedules.

    Exit status is the gate: 0 when every schedule upheld every
    invariant, 1 when any detector fired (the report, the failing
    schedules' traces and — unless ``--no-minimize`` — a minimal
    forced-choice repro all land in the ``--out`` JSON artifact).
    """
    import json

    from repro.explore import Explorer, ExploreOptions, workload_by_name

    if args.list:
        from repro.explore import WORKLOADS

        for name, (description, _) in sorted(WORKLOADS.items()):
            print(f"  {name:18} {description}")
        return 0
    try:
        factory = workload_by_name(args.workload, quick=args.quick)
        options = ExploreOptions(
            trials=args.trials,
            seed=args.seed,
            policy=args.policy,
            mode="systematic" if args.systematic else "random",
            cores=args.cores,
            max_steps=args.max_steps,
            stop_on_finding=args.stop_on_finding,
            keep_traces=args.out is not None and args.keep_traces,
            minimize=not args.no_minimize,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    report = Explorer(factory, options).run()
    print(report.report())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"  artifact: {args.out}")
    return 0 if report.ok else 1


def _svg_width(text):
    """``--width``: whole pixels, wider than the SVG's two 10-px
    margins."""
    if not (text.isascii() and text.isdigit()) or int(text) <= 20:
        raise argparse.ArgumentTypeError(
            f"expected a whole number of pixels above 20, got {text!r}"
        )
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tee-perf",
        description="TEE-Perf: a profiler for trusted execution "
        "environments (DSN'19 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inspect = sub.add_parser("inspect", help="describe a persisted log")
    inspect.add_argument("log", help="path to a .teeperf log file")
    inspect.set_defaults(fn=cmd_inspect)

    analyze = sub.add_parser(
        "analyze", help="analyze a persisted log offline"
    )
    analyze.add_argument("log", help="path to a .teeperf log file")
    analyze.add_argument(
        "--image", help="symbol table JSON (default: <log>.symtab.json)"
    )
    analyze.add_argument(
        "--format",
        choices=(
            "report", "gprof", "callgrind", "speedscope", "json",
            "metrics", "folded",
        ),
        default="report",
    )
    analyze.add_argument("--top", type=int, default=20)
    add_analyze_arguments(analyze)
    analyze.add_argument(
        "--stats",
        action="store_true",
        help="print the pipeline counters after the output",
    )
    analyze.set_defaults(fn=cmd_analyze)

    recover = sub.add_parser(
        "recover", help="salvage a damaged or truncated log"
    )
    recover.add_argument("log", help="path to a damaged .teeperf log")
    recover.add_argument(
        "-o", "--output",
        help="where to write the salvaged log "
        "(default: <log>.recovered)",
    )
    recover.add_argument(
        "--repair-tails",
        action="store_true",
        help="balance unmatched CALL/RET tails in the salvaged log",
    )
    recover.add_argument(
        "--json",
        action="store_true",
        help="print the salvage report as JSON instead of text",
    )
    recover.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when anything was quarantined",
    )
    recover.set_defaults(fn=cmd_recover)

    convert = sub.add_parser(
        "convert",
        help="re-encode a log between fixed-width and rev 1.2 columnar",
    )
    convert.add_argument("log", help="path to a .teeperf log file")
    convert.add_argument(
        "-o", "--output",
        help="where to write the converted log "
        "(default: <log>.tpc for rev 1.2, <log>.teeperf back)",
    )
    convert.add_argument(
        "--to",
        choices=("1.2", "1.0"),
        default=None,
        help="target format (default: the one the input is not)",
    )
    convert.add_argument(
        "--no-sort",
        action="store_true",
        help="keep the global entry order when compressing "
        "(per-thread order is preserved either way)",
    )
    convert.set_defaults(fn=cmd_convert)

    diff = sub.add_parser(
        "diff", help="compare two runs (before vs after a change)"
    )
    diff.add_argument("before", help="baseline .teeperf log")
    diff.add_argument("after", help="changed .teeperf log")
    diff.add_argument("--before-image", help="symtab for the baseline")
    diff.add_argument("--after-image", help="symtab for the changed run")
    diff.add_argument("--top", type=int, default=15)
    diff.add_argument("--svg", help="write a differential flame graph")
    diff.set_defaults(fn=cmd_diff)

    flame = sub.add_parser(
        "flamegraph", help="render folded stacks into an SVG"
    )
    flame.add_argument("folded", help="folded-stacks text file")
    flame.add_argument("-o", "--output", default="flamegraph.svg")
    flame.add_argument("--title", default="TEE-Perf Flame Graph")
    flame.add_argument("--width", type=_svg_width, default=1200)
    flame.set_defaults(fn=cmd_flamegraph)

    demo = sub.add_parser("demo", help="run a small simulated profile")
    demo.add_argument("--platform", default="sgx-v1")
    demo.add_argument("-o", "--output", default="tee-perf-demo")
    add_record_arguments(demo)
    demo.set_defaults(fn=cmd_demo)

    mon = sub.add_parser(
        "monitor",
        help="run a workload with live metrics, scrapes and alerts",
    )
    mon.add_argument(
        "--workload",
        default="histogram",
        help="Phoenix workload to run under the profiler",
    )
    mon.add_argument("--platform", default="sgx-v1")
    mon.add_argument(
        "--port",
        type=int,
        default=0,
        help="scrape-endpoint port (0 picks a free one)",
    )
    mon.add_argument(
        "--interval",
        type=float,
        default=0.05,
        help="seconds between sampling passes",
    )
    mon.add_argument(
        "--rules", help="alert-rules file (see docs/monitoring.md)"
    )
    mon.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="keep serving this many seconds after the workload ends",
    )
    mon.add_argument(
        "--once",
        action="store_true",
        help="no endpoint: run, then print one exposition to stdout",
    )
    mon.add_argument(
        "--param",
        action="append",
        metavar="KEY=INT",
        help="workload constructor parameter (repeatable)",
    )
    add_record_arguments(mon)
    mon.set_defaults(fn=cmd_monitor)

    fleet = sub.add_parser(
        "fleet",
        help="the continuous-profiling service (see docs/fleet.md)",
    )
    fleet_sub = fleet.add_subparsers(dest="mode", required=True)

    serve = fleet_sub.add_parser(
        "serve", help="run the ingest daemon and its query endpoint"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="HTTP query/scrape port (0 picks a free one)",
    )
    serve.add_argument(
        "--ingest-port", type=int, default=0,
        help="producer ingest socket port (0 picks a free one)",
    )
    serve.add_argument(
        "--window", type=float, default=60.0,
        help="aggregation window width in seconds",
    )
    serve.add_argument(
        "--retention", type=int, default=32,
        help="addressable windows kept per tenant before archiving",
    )
    serve.add_argument(
        "--jobs", type=int, default=2,
        help="analysis worker-pool size",
    )
    serve.add_argument(
        "--duration", type=float, default=0.0,
        help="serve this many seconds then exit "
             "(0 = until SIGINT or SIGTERM)",
    )
    serve.set_defaults(fn=cmd_fleet_serve)

    ingest = fleet_sub.add_parser(
        "ingest", help="publish a persisted log to a running daemon"
    )
    ingest.add_argument("log", help="path to a .teeperf log file")
    ingest.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the daemon's ingest socket",
    )
    ingest.add_argument(
        "--tenant", default="default", help="tenant to file under"
    )
    ingest.add_argument(
        "--session", help="session name (default: generated)"
    )
    ingest.add_argument(
        "--image", help="symbol table JSON (default: <log>.symtab.json)"
    )
    ingest.add_argument(
        "--shm", action="store_true",
        help="hand the image over via shared memory",
    )
    ingest.set_defaults(fn=cmd_fleet_ingest)

    query = fleet_sub.add_parser(
        "query", help="read profiles from a running daemon"
    )
    query.add_argument(
        "--url", required=True, help="the daemon's HTTP endpoint"
    )
    query.add_argument(
        "--tenant", help="tenant to read (default: list tenants)"
    )
    query.add_argument(
        "--diff", nargs=2, metavar=("A", "B"),
        help="compare window A (before) against window B (after)",
    )
    query.add_argument(
        "--format",
        choices=("json", "report", "folded", "svg"),
        default="json",
    )
    query.add_argument(
        "--status", action="store_true",
        help="fetch /fleet daemon status instead of the tenant index",
    )
    query.set_defaults(fn=cmd_fleet_query)

    explore = sub.add_parser(
        "explore",
        help="hammer a workload across adversarial thread schedules",
    )
    explore.add_argument(
        "--workload", default="record-path",
        help="registered workload to explore (see --list)",
    )
    explore.add_argument(
        "--list", action="store_true",
        help="list the registered workloads and exit",
    )
    explore.add_argument(
        "--policy", default="random",
        help="schedule policy, or 'all' to rotate the whole registry",
    )
    explore.add_argument(
        "--trials", type=int, default=100,
        help="schedules to run (or the systematic branch budget)",
    )
    explore.add_argument(
        "--seed", type=int, default=0, help="root seed for the sweep"
    )
    explore.add_argument(
        "--systematic", action="store_true",
        help="DPOR-lite: branch on observed contention points instead "
        "of random sampling",
    )
    explore.add_argument(
        "--cores", type=int, default=2,
        help="cores of the simulated machine",
    )
    explore.add_argument(
        "--max-steps", type=int, default=100_000,
        help="scheduling-step budget per run (exceeding it is a "
        "livelock finding)",
    )
    explore.add_argument(
        "--quick", action="store_true",
        help="smaller workload presets for smoke runs",
    )
    explore.add_argument(
        "--stop-on-finding", action="store_true",
        help="stop the sweep at the first failing schedule",
    )
    explore.add_argument(
        "--no-minimize", action="store_true",
        help="skip shrinking the first failing schedule",
    )
    explore.add_argument(
        "--keep-traces", action="store_true",
        help="include passing runs' schedule traces in the artifact",
    )
    explore.add_argument(
        "-o", "--out",
        help="write the full report (findings, traces, minimized "
        "repro) as JSON",
    )
    explore.set_defaults(fn=cmd_explore)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
