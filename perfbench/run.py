"""TEE-Perf's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, a table

Run from the repository root; the program is imported from ``src/``.
Each run walks the user's whole journey with seeded inputs — record a
live program, turn a log on disk into a flame graph, run the fleet
service under ingest and queries — and the workload decides which
journey step gets the big input (see README.md).  Every output is
checked; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced run.  Scratch files
live in ``.perfbench/`` under the repository root and are removed at
exit.
"""

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    """What one workload runs: the input sizes of its live and offline
    steps (the fleet's inputs are the same in every workload)."""

    live_events: int
    offline_entries: int


WORKLOADS = {
    "live-record": Workload(400_000, 600_000),
    "offline-analyze": Workload(150_000, 4_000_000),
}

#: The share of ``--seconds`` each step's repetitions get (live,
#: offline, fleet).  The steps' repetitions interleave over the whole
#: run, so each samples all of it.  The live metric is a ratio of two
#: runs made seconds apart and needs few repetitions.
WEIGHTS = (0.2, 0.35, 0.45)


def interleave(phases, weights, budget_s):
    """Run the phases' repetitions in turn for about `budget_s`.

    The phase furthest behind its weighted share of the time goes
    next; every phase first gets its minimum number of repetitions,
    and no repetition starts that is expected to end past the budget.
    """
    spent = [0.0] * len(phases)
    last = [0.0] * len(phases)
    deadline = time.perf_counter() + budget_s
    while True:
        short = [i for i, p in enumerate(phases) if p.done < p.min_reps]
        i = min(short or range(len(phases)),
                key=lambda j: spent[j] / weights[j])
        if not short and time.perf_counter() + last[i] > deadline:
            return
        start = time.perf_counter()
        phases[i].step()
        last[i] = time.perf_counter() - start
        spent[i] += last[i]


def metric_units(trace):
    """``{metric: unit}`` of the end-to-end (`trace` 0) or per-layer
    (`trace` 1) metrics ``BENCHMARK.json`` names, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }


def run_workload(name, seed, seconds, trace, workdir, scale=1.0,
                 tamper=None):
    """One run of workload `name`; returns ``(result dict, problems)``.

    `scale` shrinks every input (the self-check runs tiny sizes);
    `tamper` is handed to the phases that check call counts.
    """
    import fleet
    import live
    import offline
    from common import median, timed
    from spans import Tracer

    spec = WORKLOADS[name]
    tracer = Tracer() if trace else None
    # Inputs first: generation is not part of any measurement.
    walls = {}
    walls["inputs"], (program, offline_input, fleet_input) = timed(
        lambda: (
            live.Program(seed, int(spec.live_events * scale), workdir),
            offline.OfflineInput(
                seed, int(spec.offline_entries * scale), workdir
            ),
            fleet.FleetInput(seed),
        )
    )
    live_phase = live.LivePhase(program, workdir, tracer, tamper)
    offline_phase = offline.OfflinePhase(offline_input, tracer, tamper)
    steps = [live_phase, offline_phase]
    weights = list(WEIGHTS[:2])
    spans_path = os.path.join(workdir, "daemon.spans.json")
    fleets = []
    try:
        # A traced run splits the fleet's time between a plain and a
        # traced daemon, so the tracing overhead is measured.
        daemons = [(fleet.SPAWNS - 1, None), (1, spans_path)] if trace \
            else [(fleet.SPAWNS, None)]
        start = time.perf_counter()
        for spawns, path in daemons:
            fleets.append(
                fleet.FleetPhase(fleet_input, SRC, workdir, spawns, path)
            )
        walls["fleet set-up"] = time.perf_counter() - start
        steps += fleets
        weights += [WEIGHTS[2] / len(fleets)] * len(fleets)
        walls["steps"], _ = timed(interleave, steps, weights, seconds)
        phases = {
            "live": live_phase.finish(),
            "offline": offline_phase.finish(),
            "fleet": (
                fleet.finish_traced(*fleets, spans_path) if trace
                else fleets[0].finish()
            ),
        }
    finally:
        for phase in fleets:
            phase.close()
    print("perfbench: wall seconds " + ", ".join(
        f"{k} {v:.1f}" for k, v in walls.items()
    ), file=sys.stderr)
    if tracer is not None:
        # Kept after the run (the per-run scratch directory is not).
        tracer.dump(os.path.join(ROOT, ".perfbench",
                                 f"spans-{name}-{seed}.json"))
    setups = {phase: median(r.setup) for phase, r in phases.items()}
    if trace:
        values = {"setup." + p + "_s": s for p, s in setups.items()}
        for result in phases.values():
            values.update(result.layers)
    else:
        values = {"setup_s": sum(setups.values())}
        for result in phases.values():
            values.update(result.metrics)
    metrics = {
        k: {"value": values[k], "unit": unit}
        for k, unit in metric_units(trace).items()
    }
    problems = [p for r in phases.values() for p in r.problems]
    attempted = sum(r.attempted for r in phases.values())
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=list(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no TEE-Perf sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir)
    results = {}
    try:
        for name in names:
            result, problems = run_workload(
                name, args.seed, args.seconds, args.trace, workdir,
            )
            results[name] = result
            for problem in problems[:10]:
                print(f"perfbench: {name}: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, result in results.items():
        frac = result["failed"] / result["attempted"]
        print(f"== {name}: ops_failed_frac {frac:g} "
              f"({result['failed']}/{result['attempted']})")
        for metric, value in result["metrics"].items():
            print(f"  {metric:40s} {value['value']:>16.6g} {value['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{k}": v
                for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
