"""The benchmark's own tests, at the ``tiny`` size.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

They check that every metric ``BENCHMARK.json`` names is printed, with its
unit, by every workload in both modes, and that ``meta.json``'s layer map
names the same metrics; that a deliberately corrupted
program output counts as a failed operation instead of a timing; the
span arithmetic the traced run's per-layer figures rest on; and that the
host-speed sampler's passes are found inside the timings they interrupt.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def bench(workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    report = "\n".join(lines[:-1])
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert f" {metric['name']} " in report
        line = next(l for l in report.splitlines()
                    if l.split()[:1] == [metric["name"]])
        assert line.split()[2] == metric["unit"], line
    if not trace:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_layer_map_names_every_per_layer_metric_once():
    with open(os.path.join(BENCH, "meta.json")) as handle:
        meta = json.load(handle)
    mapped = [name for layer in meta["layers"].values()
              for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    assert set(meta["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_figures_fit_the_workload():
    result = json.loads(bench("table2", 1).stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    selfs = {name: value for name, value in metrics.items()
             if name.endswith("_s") and not name.endswith(".self_s")}
    assert max(selfs, key=selfs.get) == "atpg.classify_s"
    assert metrics["exec.units"] == 0
    assert metrics["atpg.podem_calls"] > 0


def test_corrupted_output_counts_as_a_failed_operation(monkeypatch, capsys):
    from repro.bist.session import BISTSession

    original = BISTSession.run
    calls = []

    def corrupted(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        calls.append(result)
        if len(calls) == 2:
            result.detected.pop()
        return result

    monkeypatch.setattr(BISTSession, "run", corrupted)
    assert run.main(["--workload", "selftest", "--seed", "3",
                     "--seconds", "1", "--size", "tiny"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert len(calls) >= 3
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == len(calls)
    assert f"session samples: {len(calls) - 1}," in out[1]


def test_self_times_and_unattributed_share_cover_the_traced_wall(monkeypatch):
    tracer = tracing.Tracer("unit")
    clock = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0, 10.0, 11.0, 12.0, 13.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    root = tracer.begin("bench.op")             # 0 .. 11
    outer = tracer.begin("atpg.classify")       # 1 .. 10
    tracer.end(tracer.begin("netlist.levelize"))  # 2 .. 4
    tracer.end(tracer.begin("telemetry.probe"))   # 5 .. 9
    tracer.end(outer)
    tracer.end(root)
    tracer.end(tracer.begin("bench.setup"))     # 12 .. 13
    monkeypatch.undo()
    layers = tracer.layer_self_times()
    assert layers["atpg"] == pytest.approx(3.0)
    assert layers["netlist"] == pytest.approx(2.0)
    assert layers["telemetry"] == pytest.approx(4.0)
    wall, unattributed = tracer.root_wall()
    assert wall == pytest.approx(12.0)
    assert unattributed == pytest.approx(3.0)
    assert sum(layers.values()) + unattributed == pytest.approx(wall)


def test_podem_probe_keeps_netlists_of_equal_ids_apart():
    import repro.atpg.podem  # noqa: F401
    from repro.faultsim.faults import Fault
    from repro.netlist.gates import GateType
    from repro.netlist.netlist import Netlist

    podem_module = sys.modules["repro.atpg.podem"]
    tracer = tracing.Tracer("unit")
    patch = tracing.install(tracer)
    try:
        for gtype in (GateType.AND, GateType.OR):
            # Each netlist is dropped after its call, as the flow drops a
            # kernel's netlist, so the next one may reuse its id.
            netlist = Netlist(gtype.value)
            a, b = netlist.new_inputs(2, "x")
            netlist.mark_output(netlist.add_gate(gtype, [a, b]))
            podem_module.podem(netlist, Fault(net=2, stuck_at=0))
            del netlist
    finally:
        patch.restore()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["atpg.podem_calls"] == 2
    assert metrics["atpg.distinct_ratio"] == 1.0
    probes = [s for s in tracer.spans if s.name == "telemetry.probe"]
    assert len(probes) == 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert measure.tail(list(range(100)))[0] == 90.0
    assert measure.tail(list(range(1000)))[0] == 99.0
    assert measure.tail(list(range(15))) == (100.0, 14)


def test_sampler_passes_fall_inside_the_timing_they_interrupt():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with measure.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.7:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    during = sampler.inside(t0, t1)
    assert len(during) >= 2
    # The first pass is made on entry, before the timing began.
    assert during == sampler.seconds()[1:1 + len(during)]
    assert sum(during) < t1 - t0
    assert sampler.inside(t1, t1 + 10.0) == sampler.seconds()[1 + len(during):]
