"""The benchmark's four workloads: set-up, timed operations, output checks.

Every workload draws its inputs from the ``--seed`` it is given (pattern
seeds, TPG seeds, serve job seeds), so one seed always means one set of
inputs.  Fault samples and sizes do not depend on the seed, so every seed
asks for the same amount of work.  Outputs are checked as they are
produced; an operation whose output is wrong counts as failed and its
time is not a sample.  Checks against the recorded reference outputs
(``reference.json``) apply only to seeds recorded there; on any other
(held-out) seed the seed-independent checks still run: Table 2 rows 1-4
against the paper, cross-executor bit-identity, serve-vs-direct equality,
and repeat-run determinism.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import importlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import measure
import tracing

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny`` lets
#: the benchmark's own tests run every workload in seconds.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "table2": {"circuits": ["c5a2m", "c3a2m", "c4a4m"],
                   "max_patterns": 4096},
        "synth20k": {"stride": 8, "max_patterns": 2048, "check_stride": 32},
        "selftest": {"cycles": 128, "stride": 8},
        # 2 cold : 16 warm : 15 invalid is benchmarks/serve_load.py's
        # default traffic (16 cold jobs, 8 warm rounds of them, 120
        # rejections), interleaved instead of run phase by phase.
        "serve": {"design": "c3a2m", "max_patterns": 2048, "warm_keys": 8,
                  "cold_per_cycle": 2, "warm_per_cycle": 16,
                  "invalid_per_cycle": 15, "direct_checks": 4},
    },
    "tiny": {
        "table2": {"circuits": ["c5a2m"], "max_patterns": 1024},
        "synth20k": {"stride": 512, "max_patterns": 256, "check_stride": 4},
        "selftest": {"cycles": 32, "stride": 64},
        "serve": {"design": "mac4", "max_patterns": 256, "warm_keys": 2,
                  "cold_per_cycle": 1, "warm_per_cycle": 2,
                  "invalid_per_cycle": 3, "direct_checks": 1},
    },
}

#: A netlist the lint pre-flight rejects (a combinational cycle).
CYCLE_BENCH = "INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n"

#: Result keys that legitimately differ between a job and its cache replay.
VOLATILE_KEYS = ("engine", "guard", "circuit", "seed", "run_key")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def derive(seed: int, salt: str) -> int:
    """A positive 31-bit input seed drawn from the workload seed."""
    digest = hashlib.sha256(f"{salt}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2 ** 31 - 2) + 1


def detection_digest(first_detection: Dict[Any, int]) -> str:
    from repro.exec.worker import fault_key

    rows = sorted(fault_key(f) + (index,) for f, index in first_detection.items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@dataclass
class Outcome:
    """What one measured window produced."""

    latencies: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Time the timed operations took, and the same at the reference
    #: host's speed (``scaled``).
    window_s: float = 0.0
    scaled_window_s: float = 0.0
    jobs: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Seconds of each ``measure.reference_pass`` made during the window
    #: (rescaled workloads only); they are not part of any timing.
    passes: List[float] = field(default_factory=list)
    #: ``measure.speed`` of the host for the next recorded timing; 1.0
    #: for a workload that is not rescaled.
    speed: float = 1.0
    #: ``latencies`` divided by the ``speed`` each was recorded at.
    scaled: Dict[str, List[float]] = field(default_factory=dict)

    def record(self, kind: str, seconds: float, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{kind}: {p}" for p in problems[:3])
        else:
            self.latencies.setdefault(kind, []).append(seconds)
            self.scaled.setdefault(kind, []).append(seconds / self.speed)

    def close(self, kinds: Tuple[str, ...]) -> None:
        """Sum the window over the timings of ``kinds``."""
        self.window_s = sum(sum(self.latencies.get(k, [])) for k in kinds)
        self.scaled_window_s = sum(sum(self.scaled.get(k, [])) for k in kinds)


class Workload:
    """One named workload; subclasses fill in set-up and operations."""

    name = ""
    #: The latency kind reported as ``wall_s``.
    primary = "op"

    def __init__(self, seed: int, size: str, reference: Dict[str, Any],
                 out_dir: str):
        self.seed = seed
        self.size = size
        self.params = SIZES[size][self.name]
        self.reference = reference.get(self.name, {}) if size == "full" else {}
        self.out_dir = out_dir

    def expected(self) -> Optional[Any]:
        """The recorded reference output for this seed, if any."""
        return self.reference.get("seeds", {}).get(str(self.seed))

    #: Whether the timings are rescaled to the reference host's speed by
    #: the ``measure.reference_pass`` passes made while they ran.  The
    #: interpreter-bound workloads are: in trials on the 2-core host in
    #: ``meta.json``, passes made during the operation cut the spread of
    #: single Table 2 sweep times from 0.14 to 0.06 and of single selftest
    #: sessions from 0.24 to 0.12 (passes made only before and after a
    #: sweep raised it to 0.35).  Serve makes its passes between requests,
    #: while the server is idle.  synth20k is not rescaled: its work runs
    #: in pool workers, which a pass competes with for the two cores, and
    #: rescaling raised its spread from 0.09 to 0.24.
    rescaled = False

    #: The ``repro`` modules the program needs; their import in a fresh
    #: interpreter is part of ``setup_s``.
    modules: Tuple[str, ...] = ()

    def imports(self) -> None:
        """Import what set-up, operations and checks use, untimed (the
        timed import runs in a fresh interpreter)."""
        for module in self.modules:
            importlib.import_module(module)

    def setup(self) -> Any:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        pass

    def final_checks(self, state: Any) -> Tuple[int, List[str]]:
        """(checks attempted, problems) for checks made once per run."""
        return 0, []

    def report(self, state: Any, outcome: Outcome) -> Dict[str, Tuple[float, str]]:
        """Workload-specific figures for the printed report."""
        return {}

    # The three single-operation workloads share one measuring loop.

    def operate(self, state: Any) -> Any:
        """The timed operation; returns the program's raw result."""
        raise NotImplementedError

    def summarize(self, state: Any, raw: Any) -> Any:
        """The comparable output of a raw result, made after the timer
        stops so that digests and look-ups are not timed."""
        return raw

    def check(self, state: Any, output: Any) -> List[str]:
        raise NotImplementedError

    def measure(self, state: Any, seconds: float,
                tracer: Optional[tracing.Tracer] = None) -> Outcome:
        """Repeat the operation for about ``seconds`` (at least once;
        exactly once when traced).  No operation starts that would end
        more than half an operation past the window, so the measured time
        stays within half an operation of ``seconds``."""
        outcome = Outcome()
        sampler = measure.Sampler() if self.rescaled and tracer is None \
            else None
        start = time.perf_counter()
        with sampler or contextlib.nullcontext():
            while True:
                with tracing.root(tracer, "bench.op"):
                    t0 = time.perf_counter()
                    raw = self.operate(state)
                    t1 = time.perf_counter()
                during = sampler.inside(t0, t1) if sampler else []
                elapsed = t1 - t0 - sum(during)
                output = self.summarize(state, raw)
                problems = self.check(state, output)
                first = state.setdefault("first_output", output)
                if not problems and output != first:
                    problems = ["output differs from this run's first operation"]
                if sampler:
                    # The passes made during the operation, else the
                    # latest ones before it.
                    outcome.speed = measure.speed(during
                                                  or sampler.seconds()[-3:])
                outcome.record(self.primary, elapsed, problems)
                left = seconds - (time.perf_counter() - start)
                if tracer is not None or left < elapsed / 2:
                    break
        if sampler:
            outcome.passes = sampler.seconds()
        # Operation time only: the checks between operations are the
        # benchmark's work, not the program's.
        outcome.close((self.primary,))
        outcome.jobs = len(outcome.latencies.get(self.primary, []))
        return outcome


# ------------------------------------------------------------------ table2

class Table2(Workload):
    """The paper's Table 2 sweep: both TDMs on the three filters, serial."""

    name = "table2"
    primary = "sweep"
    rescaled = True

    modules = ("repro.datapath.filters",
               "repro.exec.config",
               "repro.experiments.table2",
               "repro.graph.build")

    def setup(self) -> Dict[str, Any]:
        # The sweep builds its own circuits; set-up times the same builds
        # on their own, so work moved into them shows in setup_s.
        from repro.datapath.filters import all_filters
        from repro.graph.build import build_circuit_graph

        filters = all_filters()
        graphs = {name: build_circuit_graph(filters[name].circuit)
                  for name in self.params["circuits"]}
        return {"graphs": graphs}

    def operate(self, state: Dict[str, Any]) -> Any:
        from repro.exec.config import RunConfig
        from repro.experiments.table2 import table2_columns

        return table2_columns(
            self.params["circuits"], max_patterns=self.params["max_patterns"],
            seed=derive(self.seed, "table2"), n_seeds=1, config=RunConfig(),
        )

    def summarize(self, state: Dict[str, Any], raw: Any) -> Dict[str, Any]:
        from repro.experiments.table2 import table2_json

        return table2_json(raw, include_paper=False)["measured"]

    def paper_cells(self, rows: Dict[str, Any]) -> List[str]:
        """Cells of rows 1-4 equal to the paper's Table 2."""
        from repro.experiments.table2 import PAPER_TABLE2

        matched = []
        for circuit, measured in sorted(rows.items()):
            for row in ("kernels", "sessions", "bilbo_registers",
                        "maximal_delay"):
                for column, label in enumerate(("bibs", "ka")):
                    if measured[row][column] == PAPER_TABLE2[circuit][row][column]:
                        matched.append(f"{circuit}.{row}.{label}")
        return matched

    def check(self, state: Dict[str, Any], output: Dict[str, Any]) -> List[str]:
        problems = []
        cells = self.paper_cells(output)
        state["paper_cells_matched"] = len(cells)
        expected_cells = self.reference.get("paper_cells")
        if expected_cells is not None and cells != expected_cells:
            problems.append(f"paper rows 1-4: matched {cells}, "
                            f"expected {expected_cells}")
        expected = self.expected()
        if expected is not None and output != expected:
            problems.append("rows differ from the reference for this seed")
        return problems

    def report(self, state, outcome) -> Dict[str, Tuple[float, str]]:
        return {"paper_cells_matched":
                (float(state.get("paper_cells_matched", 0)), "count")}


# ---------------------------------------------------------------- synth20k

class Synth20k(Workload):
    """A ~21k-gate vec fault simulation sharded over a process pool."""

    name = "synth20k"
    primary = "simulate"

    modules = ("repro.engine",
               "repro.exec.process",
               "repro.faultsim.collapse",
               "repro.library.scenarios")

    def config(self, **overrides):
        from repro.exec.config import ExecutionPolicy, RunConfig

        execution = ExecutionPolicy(
            executor=overrides.pop("executor", "process"),
            jobs=overrides.pop("jobs", nproc()),
            kernel=overrides.pop("kernel", "vec"),
        )
        overrides.setdefault("max_patterns", self.params["max_patterns"])
        return RunConfig(execution=execution, **overrides)

    def source(self, netlist):
        from repro.faultsim.patterns import RandomPatternSource

        return RandomPatternSource(len(netlist.primary_inputs),
                                   seed=derive(self.seed, "synth20k"))

    def setup(self) -> Dict[str, Any]:
        from repro import engine
        from repro.exec.process import _drain_pool_cache
        from repro.faultsim.collapse import collapse_faults
        from repro.library.scenarios import synth20k_kernel

        _drain_pool_cache()
        netlist = synth20k_kernel()
        faults, _ = collapse_faults(netlist)
        sample = faults[::self.params["stride"]]
        # Start the worker pool: a two-fault run on the same netlist,
        # kernel and shard count parks the pool the timed runs reuse.
        engine.simulate(netlist, sample[:nproc()], self.source(netlist),
                        config=self.config(max_patterns=256, check=False))
        return {"netlist": netlist, "faults": sample}

    def teardown(self, state: Any) -> None:
        import multiprocessing

        from repro.exec.process import _drain_pool_cache

        _drain_pool_cache()
        for worker in multiprocessing.active_children():
            worker.join(timeout=30)

    def operate(self, state: Dict[str, Any]) -> Any:
        from repro import engine

        netlist = state["netlist"]
        return engine.simulate(netlist, state["faults"], self.source(netlist),
                               config=self.config())

    def summarize(self, state: Dict[str, Any], raw: Any) -> Tuple[str, int, int]:
        state["last_detection"] = raw.first_detection
        return (detection_digest(raw.first_detection), raw.n_patterns,
                len(raw.first_detection))

    def check(self, state, output) -> List[str]:
        expected = self.expected()
        if expected is not None and list(output) != expected:
            return [f"first_detection {output[0][:12]}.. differs from the "
                    "serial packed reference for this seed"]
        return []

    def final_checks(self, state: Dict[str, Any]) -> Tuple[int, List[str]]:
        """Cross-executor bit-identity on a fault subset: the process/vec
        result must equal the serial packed path fault by fault."""
        from repro import engine

        netlist = state["netlist"]
        subset = state["faults"][::self.params["check_stride"]]
        serial = engine.simulate(
            netlist, subset, self.source(netlist),
            config=self.config(executor="serial", jobs=1, kernel="packed",
                               check=False))
        measured = state["last_detection"]
        mine = {f: measured[f] for f in subset if f in measured}
        if mine != serial.first_detection:
            return 1, ["process/vec first_detection differs from "
                       f"serial/packed on {len(subset)} sampled faults"]
        return 1, []


# ---------------------------------------------------------------- selftest

class Selftest(Workload):
    """The cycle-accurate TPG -> kernel -> MISR session on c3a2m's BIBS
    logic kernel, as ``repro selftest`` runs it."""

    name = "selftest"
    primary = "session"
    rescaled = True

    modules = ("repro.bist.session",
               "repro.core.bibs",
               "repro.datapath.filters",
               "repro.engine.cache",
               "repro.graph.build")

    def setup(self) -> Dict[str, Any]:
        from repro.bist.session import BISTSession
        from repro.core.bibs import make_bibs_testable
        from repro.datapath.filters import c3a2m
        from repro.graph.build import build_circuit_graph

        circuit = c3a2m().circuit
        design = make_bibs_testable(build_circuit_graph(circuit))
        kernel = next(k for k in design.kernels if k.logic_blocks)
        # An odd seed keeps the LFSR's low stages non-zero.
        session = BISTSession(circuit, kernel,
                              seed=derive(self.seed, "selftest") | 1)
        # Whole 64-machine passes: the pass count, and so the work, must
        # not depend on the seed.
        faults = session.kernel_fault_universe()[::self.params["stride"]]
        faults = faults[:len(faults) // 64 * 64 or len(faults)]
        return {"session": session, "faults": faults,
                "position": {f: i for i, f in enumerate(faults)}}

    def operate(self, state: Dict[str, Any]) -> Any:
        from repro.engine.cache import GoldenCache

        session = state["session"]
        # A fresh golden cache per run: every run pays for its golden
        # machine, as a one-off ``repro selftest`` does.
        session.cache = GoldenCache()
        return session.run(self.params["cycles"], state["faults"])

    def summarize(self, state: Dict[str, Any], raw: Any) -> Dict[str, Any]:
        detected = sorted(state["position"][f] for f in raw.detected)
        return {
            "golden": {name: value for name, value
                       in sorted(raw.golden_signatures.items())},
            "n_detected": len(raw.detected),
            "detected": hashlib.sha256(repr(detected).encode()).hexdigest(),
        }

    def check(self, state, output) -> List[str]:
        expected = self.expected()
        if expected is not None and output != expected:
            return ["golden signatures / detections differ from the "
                    "reference for this seed"]
        if output["n_detected"] == 0:
            return ["session detected no fault"]
        return []


# ------------------------------------------------------------------- serve

class Client:
    """A keep-alive JSON client; request spans land on the serve layer."""

    def __init__(self, port: int, tracer: Optional[tracing.Tracer]):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.tracer = tracer

    def request(self, method: str, path: str,
                payload: Any = None) -> Tuple[int, Any]:
        body = json.dumps(payload).encode() if payload is not None else None
        span = self.tracer.begin("serve.request") if self.tracer else -1
        try:
            self.conn.request(method, path, body=body)
            response = self.conn.getresponse()
            status, data = response.status, response.read()
        finally:
            if self.tracer is not None:
                self.tracer.end(span)
        text = data.decode()
        try:
            return status, json.loads(text)
        except ValueError:
            return status, text

    def close(self) -> None:
        self.conn.close()


class Serve(Workload):
    """A closed loop of one keep-alive client against ``python -m repro
    serve``: cold jobs, cache-hit replays and rejected requests."""

    name = "serve"
    primary = "cold"
    rescaled = True
    POLL_S = 0.005

    # The program is the server, whose imports are timed in set-up while
    # it starts; the client's imports (for the /metrics parser and the
    # direct-simulate checks) are the benchmark's own and stay untimed.
    modules = ()
    client_modules = ("repro.engine",
                      "repro.faultsim.collapse",
                      "repro.faultsim.patterns",
                      "repro.library.scenarios",
                      "repro.telemetry.export")

    def imports(self) -> None:
        for module in self.client_modules:
            importlib.import_module(module)

    def job(self, seed: int) -> Dict[str, Any]:
        return {"design": self.params["design"],
                "max_patterns": self.params["max_patterns"], "seed": seed}

    def invalid_requests(self) -> List[Tuple[Dict[str, Any], int]]:
        return [({"design": "no-such-design"}, 404),
                ({"bench": CYCLE_BENCH}, 422),
                ({"design": self.params["design"], "bogus": 1}, 400)]

    def setup(self) -> Dict[str, Any]:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        state_dir = os.path.join(self.out_dir, f"serve-state-{os.getpid()}")
        shutil.rmtree(state_dir, ignore_errors=True)
        os.makedirs(state_dir)
        # One malloc arena: the server runs jobs on a thread pool, and how
        # many threads' arenas a run happens to touch swung its peak RSS
        # between ~150 and ~185 MiB from run to run.
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   MALLOC_ARENA_MAX="1")
        env.pop("REPRO_CHAOS", None)
        stderr = open(os.path.join(state_dir, "server.err"), "w")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", state_dir, "--workers", str(nproc()),
             "--drain-grace", "0"],
            stdout=subprocess.PIPE, stderr=stderr, text=True, cwd=root,
            env=env,
        )
        stderr.close()
        state = {"process": process, "state_dir": state_dir, "clients": []}
        port = None
        assert process.stdout is not None
        for line in process.stdout:
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            self.teardown(state)
            raise RuntimeError("serve never announced its port")
        state["port"] = port
        # Fill the result cache with the keys the warm traffic replays.
        client = Client(port, None)
        state["clients"].append(client)
        warm: Dict[int, Dict[str, Any]] = {}
        for index in range(self.params["warm_keys"]):
            seed = derive(self.seed, f"serve-warm-{index}")
            status, doc = client.request("POST", "/v1/jobs", self.job(seed))
            if status != 202:
                raise RuntimeError(f"warm-up submit failed: {status} {doc}")
            done = self.wait(client, doc["id"])
            status, result = client.request(
                "GET", f"/v1/jobs/{doc['id']}/result")
            if done["state"] != "done" or status != 200:
                raise RuntimeError(f"warm-up job failed: {done}")
            warm[seed] = result
        state["warm"] = warm
        return state

    def wait(self, client: Client, job_id: str) -> Dict[str, Any]:
        """Poll until the job ends; the wait is serve-layer time."""
        with tracing.root(client.tracer, "serve.job_wait"):
            while True:
                status, doc = client.request("GET", f"/v1/jobs/{job_id}")
                if status != 200:
                    return {"state": f"http {status}"}
                if doc["state"] in ("done", "failed", "cancelled"):
                    return doc
                time.sleep(self.POLL_S)

    def teardown(self, state: Any) -> None:
        for client in state["clients"]:
            client.close()
        process = state["process"]
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()
        shutil.rmtree(state["state_dir"], ignore_errors=True)

    # The closed loop: one client, which sends its next request only after
    # the last one is answered.  One client, not one per core: with two,
    # whether their cold jobs overlap in the server swung the cold
    # latency by half from run to run.

    def cold(self, client: Client, seed: int, outcome: Outcome,
             state: Dict[str, Any]) -> None:
        t0 = time.perf_counter()
        elapsed = 0.0
        status, doc = client.request("POST", "/v1/jobs", self.job(seed))
        problems = []
        if status != 202 or doc.get("cached"):
            problems.append(f"cold submit answered {status} {doc}")
        else:
            done = self.wait(client, doc["id"])
            status, result = client.request(
                "GET", f"/v1/jobs/{doc['id']}/result")
            elapsed = time.perf_counter() - t0
            if done["state"] != "done" or status != 200:
                problems.append(f"cold job ended {done['state']} / {status}")
            elif result.get("partial") or result.get("seed") != seed:
                problems.append("cold result is partial or for another seed")
            else:
                state["cold_jobs"].append((seed, doc["id"]))
                state["queue_wait"].append(done["started_at"]
                                           - done["submitted_at"])
                state["exec"].append(done["finished_at"] - done["started_at"])
        outcome.record("cold", elapsed, problems)

    def warm(self, client: Client, seed: int, outcome: Outcome,
             state: Dict[str, Any]) -> None:
        t0 = time.perf_counter()
        status, doc = client.request("POST", "/v1/jobs", self.job(seed))
        elapsed = time.perf_counter() - t0
        problems = []
        if status != 202 or not doc.get("cached"):
            problems.append(f"warm submit answered {status}, not a cache hit")
        else:
            status, result = client.request(
                "GET", f"/v1/jobs/{doc['id']}/result")
            elapsed = time.perf_counter() - t0
            if status != 200 or _stable(result) != _stable(state["warm"][seed]):
                problems.append("warm result differs from its cold run")
        outcome.record("warm", elapsed, problems)

    def invalid(self, client: Client, payload: Dict[str, Any], expected: int,
                outcome: Outcome, state: Dict[str, Any]) -> None:
        t0 = time.perf_counter()
        status, _doc = client.request("POST", "/v1/jobs", payload)
        elapsed = time.perf_counter() - t0
        problems = [] if status == expected else \
            [f"invalid request answered {status}, expected {expected}"]
        outcome.record("reject", elapsed, problems)
        if status == 422:
            state["lint_rejected"] += 1

    def measure(self, state: Dict[str, Any], seconds: float,
                tracer: Optional[tracing.Tracer] = None) -> Outcome:
        """Cycles of ``cold_per_cycle`` cold jobs, ``warm_per_cycle``
        replays and ``invalid_per_cycle`` rejections, each cycle in a
        seeded random order, until ``seconds`` have passed.  The window
        is the requests' time: the client's checks between requests are
        the benchmark's work."""
        outcome = Outcome()
        state.update(cold_jobs=[], queue_wait=[], exec=[], lint_rejected=0)
        client = Client(state["port"], tracer)
        state["clients"].append(client)
        rng = random.Random(derive(self.seed, "serve-order"))
        warm_seeds = sorted(state["warm"])
        invalid = self.invalid_requests()
        kinds = (["cold"] * self.params["cold_per_cycle"]
                 + ["warm"] * self.params["warm_per_cycle"]
                 + ["invalid"] * self.params["invalid_per_cycle"])
        colds = sent = 0
        start = next_pass = time.perf_counter()
        with tracing.root(tracer, "bench.op"):
            while time.perf_counter() - start < seconds:
                rng.shuffle(kinds)
                for kind in kinds:
                    sent += 1
                    if tracer is None and time.perf_counter() >= next_pass:
                        # Between requests: the server does the work, so
                        # a SIGALRM pass in this process would run inside
                        # a latency (measure.Sampler).
                        outcome.passes.append(measure.reference_pass())
                        outcome.speed = measure.speed(outcome.passes[-3:])
                        next_pass = time.perf_counter() + measure.SAMPLE_INTERVAL_S
                    if kind == "cold":
                        seed = derive(self.seed, f"serve-cold-{colds}")
                        colds += 1
                        self.cold(client, seed, outcome, state)
                    elif kind == "warm":
                        pick = warm_seeds[sent % len(warm_seeds)]
                        self.warm(client, pick, outcome, state)
                    else:
                        payload, expected = invalid[sent % len(invalid)]
                        self.invalid(client, payload, expected, outcome, state)
        outcome.close(("cold", "warm", "reject"))
        outcome.jobs = (len(outcome.latencies.get("cold", []))
                        + len(outcome.latencies.get("warm", [])))
        state["scrape"] = self.scrape(state)
        outcome.extra.update(state["scrape"])
        for kind in ("cold", "warm", "reject"):
            samples = outcome.latencies.get(kind)
            if samples:
                outcome.extra[f"serve.{kind}_p50_ms"] = \
                    1000.0 * measure.median(samples)
        return outcome

    def scrape(self, state: Dict[str, Any]) -> Dict[str, float]:
        from repro.telemetry.export import parse_prometheus_text

        status, text = state["clients"][0].request("GET", "/metrics")
        if status != 200:
            return {}
        samples = parse_prometheus_text(text)
        hits = samples.get("cache_hit", 0.0)
        misses = samples.get("cache_miss", 0.0)
        return {
            "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.lint_rejections": samples.get("serve_lint_rejections", 0.0),
            "serve.queue_wait_ms": 1000.0 * measure.median(state["queue_wait"])
            if state["queue_wait"] else 0.0,
            "serve.exec_ms": 1000.0 * measure.median(state["exec"])
            if state["exec"] else 0.0,
        }

    def final_checks(self, state: Dict[str, Any]) -> Tuple[int, List[str]]:
        """Serve-vs-direct: sampled cold results must equal an in-process
        ``simulate`` with the same seed, fault table included; and the
        server's own lint-rejection counter must match the 422s sent."""
        from repro import engine
        from repro.exec.config import RunConfig
        from repro.faultsim.collapse import collapse_faults
        from repro.faultsim.patterns import RandomPatternSource
        from repro.library import scenarios

        problems = []
        counted = state["scrape"].get("serve.lint_rejections")
        if counted != state["lint_rejected"]:
            problems.append(f"server counted {counted} lint rejections, "
                            f"the client saw {state['lint_rejected']}")
        jobs = state["cold_jobs"]
        if not jobs:
            return 1, problems + ["no cold job completed"]
        netlist = getattr(scenarios, f"{self.params['design']}_kernel")()
        faults, _ = collapse_faults(netlist)
        step = max(1, len(jobs) // self.params["direct_checks"])
        sampled = jobs[::step][: self.params["direct_checks"]]
        client = state["clients"][0]
        for seed, job_id in sampled:
            status, served = client.request(
                "GET", f"/v1/jobs/{job_id}/result?include_faults=1")
            direct = engine.simulate(
                netlist, faults,
                RandomPatternSource(len(netlist.primary_inputs), seed=seed),
                config=RunConfig(max_patterns=self.params["max_patterns"]))
            expected = json.loads(json.dumps(direct.to_json(include_faults=True)))
            if status != 200 or _stable(served) != _stable(expected):
                problems.append(f"served result for seed {seed} differs from "
                                "a direct simulate")
        return 1 + len(sampled), problems

    def report(self, state, outcome) -> Dict[str, Tuple[float, str]]:
        rows: Dict[str, Tuple[float, str]] = {}
        for kind in ("cold", "warm", "reject"):
            samples = outcome.latencies.get(kind, [])
            if not samples:
                continue
            rows[f"{kind}_p50_ms"] = (outcome.extra[f"serve.{kind}_p50_ms"], "ms")
            if kind != "reject":
                p, value = measure.tail(samples)
                rows[f"{kind}_tail_ms"] = (1000.0 * value, "ms")
                rows[f"{kind}_tail_percentile"] = (p, "%")
            rows[f"{kind}_samples"] = (float(len(samples)), "count")
        return rows


def _stable(payload: Any) -> Any:
    if not isinstance(payload, dict):
        return payload
    return {k: v for k, v in payload.items() if k not in VOLATILE_KEYS}


WORKLOADS = {cls.name: cls for cls in (Table2, Synth20k, Selftest, Serve)}
