"""The repository benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``table2``    the paper's Table 2 sweep (both TDMs on c5a2m/c3a2m/c4a4m);
``synth20k``  vec fault simulation of a 21k-gate multiplier on a process pool;
``selftest``  the gate-level BIST session on c3a2m's BIBS logic kernel;
``serve``     a closed loop of one keep-alive client against ``repro serve``.

The run sets the workload up five times (``setup_s`` is the median time
a fresh interpreter takes to import what the program needs, plus the
median set-up), then repeats the workload's operation for ``--seconds``
(give or take half an operation) and checks every output.  ``wall_s`` is
the median time of the workload's primary operation (a sweep, a simulate
call, a session run, a cold serve job from submit to result) over that
window; ``jobs_per_s`` is completed operations per second of operation
time (serve: cold and cached jobs per second of request time).  On
``table2``, ``selftest`` and ``serve`` these two are reported at the
reference host's speed: the run times short passes of a fixed loop of
the benchmark's own (``measure.reference_pass``) every 0.2 s through the
window (``measure.Sampler``; serve between its requests), takes their
time out of every timing and rescales each operation by the passes made
during it (serve: by the latest three), so that most of the shared
host's changes of speed cancel out; the figures as measured are printed as well
(``Workload.rescaled`` says why synth20k is not rescaled).
``peak_rss_mb`` is the peak resident memory of the run and its children,
read before the final checks.  It
prints a report of every figure by name and unit, then, as its last line,
one JSON object with ``correct``/``attempted``/``failed``/``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` additionally
sets up and runs the workload once more with every layer's public calls
wrapped (:mod:`tracing`) and reports the per-layer metrics, writing the
spans to ``.perfbench_out/``.  Exits 2 without a result when the checkout holds no
``src/repro`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups (and fresh-interpreter imports) per run; medians are reported.
SETUP_REPS = 5


def metric_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as
    ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table2", "synth20k", "selftest", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the "
                             "benchmark's own tests")
    return parser.parse_args(argv)


def emit(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<32} {value:>16.6g} {unit}{'  ' + note if note else ''}")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: this checkout has no src/repro package",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import measure
    import tracing
    from workloads import WORKLOADS

    end_to_end_units = metric_units("end_to_end")
    per_layer_units = metric_units("per_layer")
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size, reference,
                                        out_dir)

    workload.imports()
    import_s = 0.0
    if workload.modules:
        import_s = measure.median([
            measure.import_seconds(workload.modules, src)
            for _ in range(SETUP_REPS)])

    state: Any = None
    setups: List[float] = []
    traced = None
    tracer = None
    try:
        for _ in range(SETUP_REPS):
            if state is not None:
                workload.teardown(state)
                state = None
            t0 = time.perf_counter()
            state = workload.setup()
            setups.append(time.perf_counter() - t0)
        outcome = workload.measure(state, args.seconds)
        # Before the checks, which run reference simulations in this
        # process.
        rss = measure.peak_rss_mb()
        checks, problems = workload.final_checks(state)
        report = workload.report(state, outcome)
        if args.trace:
            first = state.get("first_output")
            workload.teardown(state)
            state = None
            tracer = tracing.Tracer(
                f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
            patch = tracing.install(tracer)
            try:
                with tracing.root(tracer, "bench.setup"):
                    state = workload.setup()
                if first is not None:
                    state["first_output"] = first
                traced = workload.measure(state, args.seconds, tracer)
            finally:
                patch.restore()
            tracer.write(os.path.join(
                out_dir, f"trace-{args.workload}-{args.seed}.json"))
    finally:
        if state is not None:
            workload.teardown(state)

    attempted = outcome.attempted + checks
    failed = outcome.failed + len(problems)
    problems = outcome.problems + problems
    if traced is not None:
        attempted += traced.attempted
        failed += traced.failed
        problems += [f"traced {p}" for p in traced.problems]

    samples = outcome.latencies.get(workload.primary)
    if not samples:
        for problem in problems[:10]:
            print(f"FAILED: {problem}", file=sys.stderr)
        print("perfbench: no operation produced a correct output",
              file=sys.stderr)
        return 1
    measured = {
        "setup_s": import_s + measure.median(setups),
        "wall_s": measure.median(samples),
        "jobs_per_s": outcome.jobs / outcome.window_s,
    }
    # Window timings at the reference host's speed: each operation is
    # rescaled by the passes made during it (serve: the latest three, made
    # between requests), the rate by the rescaled window.
    # Set-up is not rescaled: passes made next to each set-up widened
    # setup_s's spread on every workload (set-up waits on child processes,
    # the import timer and the server, which a pass in this process does
    # not track).
    end_to_end = dict(measured, peak_rss_mb=rss)
    if workload.rescaled:
        speed = measure.speed(outcome.passes)
        end_to_end.update(
            wall_s=measure.median(outcome.scaled[workload.primary]),
            jobs_per_s=outcome.jobs / outcome.scaled_window_s)
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"seconds={args.seconds:g}")
    print(f"  {workload.primary} samples: {len(samples)}, set-ups: "
          f"{', '.join(f'{s:.3f}' for s in setups)} s, imports "
          f"{import_s:.3f} s (median)")
    if workload.rescaled:
        print(f"  reference pass: {measure.REFERENCE_PASS_S * 1e3:g} ms on the "
              f"reference host; here {speed * measure.REFERENCE_PASS_S * 1e3:.3f}"
              f" ms in the window (median of {len(outcome.passes)} passes)")
    for name, unit in end_to_end_units.items():
        emit(name, end_to_end[name], unit)
    if workload.rescaled:
        print("  as measured on this host:")
        for name in ("wall_s", "jobs_per_s"):
            emit(f"measured_{name}", measured[name], end_to_end_units[name])
    emit("wall_mean_s", sum(samples) / len(samples), "s")
    p, value = measure.tail(samples)
    emit("wall_tail_s", value, "s", f"p{p:g} of {len(samples)} samples")
    emit("error_rate", failed / attempted if attempted else 0.0, "ratio",
         f"{failed} of {attempted} operations failed")
    for name, (value, unit) in report.items():
        emit(name, value, unit)
    for problem in problems[:10]:
        print(f"  FAILED: {problem}", file=sys.stderr)

    metrics: Dict[str, Tuple[float, str]]
    if tracer is not None and traced is not None:
        # Layers a workload never calls read 0.  Figures the workload
        # reports itself (serve's, measured by the server) come from the
        # untraced window; the rest from the traced run's spans.
        layer = dict.fromkeys(per_layer_units, 0.0)
        layer.update(outcome.extra)
        layer.update(tracing.layer_metrics(tracer))
        traced_samples = traced.latencies.get(workload.primary) or [float("nan")]
        layer["telemetry.overhead_ratio"] = (
            measure.median(traced_samples) / measured["wall_s"])
        print("  per-layer (traced run):")
        for name, unit in per_layer_units.items():
            emit(name, layer[name], unit)
        metrics = {name: (layer[name], unit)
                   for name, unit in per_layer_units.items()}
    else:
        metrics = {name: (end_to_end[name], unit)
                   for name, unit in end_to_end_units.items()}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
