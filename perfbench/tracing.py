"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :func:`install` wraps
the public calls of each ``repro.*`` layer — in the module that defines
them *and* in every loaded ``repro`` module that imported them by name —
so nothing under ``src/`` changes.  Each span keeps its name, start, end,
parent and the traced run's id; spans and counters stay in memory until
:meth:`Tracer.write` dumps them at the end of the run.

A span's self time is its duration minus the time its direct children
cover.  Layer self times plus the roots' own self time (the benchmark's
glue, reported as ``telemetry.unattributed_share``) add up to the traced
wall time exactly, because every wrapped call runs inside a root span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pickle
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers, named after the ``repro.*`` packages they wrap.  A span belongs
#: to the layer its name starts with; ``bench.*`` spans are the roots.
LAYERS = (
    "netlist", "faultsim", "lint", "engine", "exec", "atpg", "core",
    "bist", "serve", "telemetry",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "children_s", "thread")

    def __init__(self, name: str, start: float, parent: int, thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children_s = 0.0
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- spans

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = Span(name, time.perf_counter(), parent, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------- analysis

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_time
        return totals

    def layer_self_times(self) -> Dict[str, float]:
        layers = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            if layer in layers:
                layers[layer] += seconds
        return layers

    def root_wall(self) -> Tuple[float, float]:
        """(Σ root durations, Σ root self time): the traced wall time and
        the part of it no wrapped layer call covers."""
        roots = [span for span in self.spans if span.parent < 0]
        return (sum(s.duration for s in roots),
                sum(s.self_time for s in roots))

    def write(self, path: str) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        doc = {
            "run_id": self.run_id,
            "spans": [
                {"name": s.name, "start": s.start - origin,
                 "end": s.end - origin, "parent": s.parent,
                 "thread": s.thread, "run_id": self.run_id}
                for s in self.spans
            ],
            "counts": self.counts,
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(doc, handle)


@contextlib.contextmanager
def root(tracer: Optional[Tracer], name: str) -> Iterator[None]:
    """A span owned by the benchmark itself; a no-op when not tracing."""
    if tracer is None:
        yield
        return
    index = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(index)


# ---------------------------------------------------------------- patching

class Patcher:
    """Replaces functions and methods, and puts the originals back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function(self, module_name: str, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function everywhere it was bound by name."""
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapped = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapped)

    def method(self, cls: type, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass overriding it."""
        for klass in [cls] + _subclasses(cls):
            if attr in klass.__dict__:
                self._set(klass, attr, make(klass.__dict__[attr]))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def spanned(tracer: Tracer, name: str,
            after: Optional[Callable[..., None]] = None,
            before: Optional[Callable[..., Any]] = None):
    """A wrapper factory: time each call as span ``name`` and count it.

    ``before(*args, **kwargs)`` runs inside the span before the call and
    its return value is handed to ``after(result, token, *args, **kwargs)``,
    which runs after the span has ended, under a ``telemetry.probe`` span
    so that the cost of probing lands on the telemetry layer.
    """
    calls = name + ".calls"

    def make(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                token = before(*args, **kwargs) if before is not None else None
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
                tracer.count(calls)
            if after is not None:
                probe = tracer.begin("telemetry.probe")
                try:
                    after(result, token, *args, **kwargs)
                finally:
                    tracer.end(probe)
            return result

        return functools.wraps(fn)(wrapper)

    return make


def counted(tracer: Tracer, name: str,
            after: Optional[Callable[..., None]] = None):
    """A wrapper factory that counts calls with no span, for calls too
    frequent or too small to time one by one; ``after(result, *args,
    **kwargs)`` probes the result under a ``telemetry.probe`` span."""

    def make(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(name + ".calls")
            if after is not None:
                probe = tracer.begin("telemetry.probe")
                try:
                    after(result, *args, **kwargs)
                finally:
                    tracer.end(probe)
            return result

        return functools.wraps(fn)(wrapper)

    return make


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer's public calls; returns the patcher to undo it."""
    import repro.atpg.podem
    import repro.bist.gatesim
    import repro.bist.session
    import repro.core.bibs
    import repro.core.flow
    import repro.core.ka85
    import repro.datapath.filters
    import repro.engine.cache
    import repro.engine.core
    import repro.engine.vec
    import repro.exec.base
    import repro.exec.process
    import repro.exec.remote
    import repro.exec.serial
    import repro.exec.thread
    import repro.experiments.table2
    import repro.faultsim.collapse
    import repro.faultsim.simulator
    import repro.library.scenarios
    import repro.lint.runner
    import repro.netlist.levelize
    import repro.netlist.netlist

    patch = Patcher()

    # netlist: constructors, levelisation, fanout maps.
    for module, names in (
        ("repro.library.scenarios", ("c3a2m_kernel", "mac4_kernel",
                                     "synth20k_kernel")),
        ("repro.datapath.filters", ("c5a2m", "c3a2m", "c4a4m")),
        ("repro.core.flow", ("lower_kernel_to_netlist",)),
    ):
        for name in names:
            patch.function(module, name, spanned(tracer, "netlist.build"))
    patch.function("repro.netlist.levelize", "levelize",
                   spanned(tracer, "netlist.levelize"))
    patch.method(repro.netlist.netlist.Netlist, "fanout_map",
                 counted(tracer, "netlist.fanout_map"))

    # faultsim: collapse.
    def collapsed(result, _token, *args, **kwargs):
        tracer.count("faultsim.n_faults", len(result[0]))

    patch.function("repro.faultsim.collapse", "collapse_faults",
                   spanned(tracer, "faultsim.collapse", after=collapsed))

    # lint: pre-flight.
    for name in ("preflight_netlist", "preflight_session"):
        patch.function("repro.lint.runner", name,
                       spanned(tracer, "lint.preflight"))

    # engine: simulate, golden batches, in-process propagation.
    def simulated(result, _token, *args, **kwargs):
        tracer.count("engine.events", result.events_propagated)
        tracer.count("engine.patterns", result.n_patterns)
        tracer.count("exec.retries", result.retries)
        if result.executor != "serial" or result.jobs > 1:
            busy = sum(shard.wall_time for shard in result.shards)
            tracer.count("exec.worker_busy_s", busy)
            tracer.count("exec.capacity_s", result.wall_time * result.jobs)

    patch.function("repro.engine.core", "simulate",
                   spanned(tracer, "engine.simulate", after=simulated))

    def golden_before(self, index, *args, **kwargs):
        return index in self._golden

    def golden_after(_result, was_cached, *args, **kwargs):
        if was_cached:
            tracer.count("engine.golden_hits")

    patch.method(repro.engine.cache.GoldenBatches, "golden_batch",
                 spanned(tracer, "engine.golden", before=golden_before,
                         after=golden_after))
    patch.method(repro.faultsim.simulator.FaultSimulator, "simulate_batch",
                 spanned(tracer, "engine.propagate"))

    # exec: work units out, results back.
    def unit_sent(_handle, _token, _self, unit, *args, **kwargs):
        tracer.count("exec.units")
        tracer.count("exec.unit_bytes", len(pickle.dumps(unit)))

    patch.method(repro.exec.base.Executor, "submit_round",
                 spanned(tracer, "exec.submit", after=unit_sent))
    patch.method(repro.exec.base.RoundHandle, "result",
                 spanned(tracer, "exec.wait"))

    # atpg: classification, with PODEM probed per call.
    # Each entry keeps its netlist alive: the flow drops a kernel's
    # netlist once it is done, and a freed netlist's id can come back on
    # the next kernel's netlist, whose faults would then merge with the
    # old one's (net ids are small integers that overlap).
    fingerprints: Dict[int, Tuple[Any, str]] = {}
    distinct: set = set()
    # Not repro.atpg.podem: the package re-exports the function podem
    # under its submodule's name.
    aborted = sys.modules["repro.atpg.podem"].PodemStatus.ABORTED

    def podem_done(result, netlist, fault, *args, **kwargs):
        entry = fingerprints.get(id(netlist))
        if entry is None:
            entry = fingerprints[id(netlist)] = (netlist, netlist.fingerprint())
        distinct.add((entry[1], fault))
        tracer.counts["atpg.distinct"] = len(distinct)
        tracer.count("atpg.backtracks", result.backtracks)
        if result.status is aborted:
            tracer.count("atpg.aborted")

    patch.function("repro.atpg.podem", "classify_faults",
                   spanned(tracer, "atpg.classify"))
    patch.function("repro.atpg.podem", "podem",
                   counted(tracer, "atpg.podem", after=podem_done))

    # core: the two test-design methods.
    patch.function("repro.core.bibs", "make_bibs_testable",
                   spanned(tracer, "core.tdm"))
    patch.function("repro.core.ka85", "make_ka_testable",
                   spanned(tracer, "core.tdm"))

    # bist: session construction, golden signatures, runs, gate sim.
    session = repro.bist.session.BISTSession
    patch.method(session, "__init__", spanned(tracer, "bist.session_init"))
    patch.method(session, "_golden_signatures", spanned(tracer, "bist.golden"))
    patch.method(session, "run", spanned(tracer, "bist.run"))

    def gatesim_before(_self, cycles, _drive, machines=1, *args, **kwargs):
        tracer.count("bist.machine_cycles", cycles * machines)

    patch.method(repro.bist.gatesim.SequentialGateSimulator, "run",
                 spanned(tracer, "bist.gatesim", before=gatesim_before))
    return patch


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer figure the traced run derives from spans and counts."""
    selfs = tracer.self_times()
    counts = tracer.counts

    def s(name: str) -> float:
        return selfs.get(name, 0.0)

    def c(name: str) -> float:
        return counts.get(name, 0)

    golden_calls = c("engine.golden.calls")
    podem_calls = c("atpg.podem.calls")
    capacity = c("exec.capacity_s")
    wall, unattributed = tracer.root_wall()
    metrics = {
        "netlist.build_s": s("netlist.build"),
        "netlist.levelize_calls": c("netlist.levelize.calls"),
        "netlist.levelize_s": s("netlist.levelize"),
        "netlist.fanout_map_calls": c("netlist.fanout_map.calls"),
        "faultsim.collapse_s": s("faultsim.collapse"),
        "faultsim.n_faults": c("faultsim.n_faults"),
        "lint.preflight_s": s("lint.preflight"),
        "lint.preflight_calls": c("lint.preflight.calls"),
        "engine.simulate_s": s("engine.simulate"),
        "engine.simulate_calls": c("engine.simulate.calls"),
        "engine.golden_s": s("engine.golden"),
        "engine.golden_hit_ratio": (c("engine.golden_hits") / golden_calls
                                    if golden_calls else 0.0),
        "engine.propagate_s": s("engine.propagate"),
        "engine.events": c("engine.events"),
        "engine.patterns": c("engine.patterns"),
        "exec.units": c("exec.units"),
        "exec.unit_bytes": c("exec.unit_bytes"),
        "exec.wait_s": s("exec.wait"),
        "exec.worker_busy_s": c("exec.worker_busy_s"),
        "exec.utilisation": (c("exec.worker_busy_s") / capacity
                             if capacity else 0.0),
        "exec.retries": c("exec.retries"),
        "atpg.classify_s": s("atpg.classify"),
        "atpg.podem_calls": podem_calls,
        "atpg.distinct_ratio": (c("atpg.distinct") / podem_calls
                                if podem_calls else 0.0),
        "atpg.backtracks": c("atpg.backtracks"),
        "atpg.aborted": c("atpg.aborted"),
        "core.tdm_s": s("core.tdm"),
        "bist.session_init_s": s("bist.session_init"),
        "bist.golden_s": s("bist.golden"),
        "bist.run_s": s("bist.run"),
        "bist.gatesim_s": s("bist.gatesim"),
        "bist.machine_cycles": c("bist.machine_cycles"),
        "telemetry.unattributed_share": unattributed / wall if wall else 0.0,
    }
    for layer, seconds in tracer.layer_self_times().items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics
