"""Property-based differential suite: PODEM vs a naive reference PODEM.

:func:`repro.atpg.podem.podem` implies values event by event on a compiled
netlist.  The reference below runs the same search — objective (fault
activation, then the first D-frontier gate in gate-index order), backtrace
along the first X input, chronological backtracking over PI decisions —
but re-simulates the whole netlist after every decision, with its own
three-valued gate semantics and its own fixpoint (non-levelized)
traversal.  It shares no code with the implementation under test, so the
two must agree exactly on ``(status, test, backtracks)`` for every fault,
including where the backtrack limit makes both give up (``ABORTED``).

Profiles live in ``tests/conftest.py``; CI runs this suite with the ``ci``
profile and a pinned ``--hypothesis-seed`` (see ``docs/TESTING.md``).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.atpg.podem import PodemStatus, podem  # noqa: E402
from repro.faultsim.faults import Fault, full_fault_universe  # noqa: E402
from repro.netlist.netlist import Netlist  # noqa: E402
from tests.conftest import make_random_netlist  # noqa: E402

Values = Dict[int, Optional[int]]


# ----------------------------------------------------- the naive reference

_BINARY = {
    "AND": lambda bits: int(all(bits)),
    "NAND": lambda bits: int(not all(bits)),
    "OR": lambda bits: int(any(bits)),
    "NOR": lambda bits: int(not any(bits)),
    "XOR": lambda bits: sum(bits) % 2,
    "XNOR": lambda bits: (sum(bits) + 1) % 2,
    "NOT": lambda bits: 1 - bits[0],
    "BUF": lambda bits: bits[0],
    "CONST0": lambda bits: 0,
    "CONST1": lambda bits: 1,
}

#: Input value that sensitises a gate to its other inputs, per gate type.
_SENSITISING = {"AND": 1, "NAND": 1, "OR": 0, "NOR": 0}


def _gate3(kind: str, values: List[Optional[int]]) -> Optional[int]:
    """Three-valued semantics by brute force: the output is known iff every
    completion of the unknown inputs gives the same binary output."""
    unknown = [pin for pin, v in enumerate(values) if v is None]
    outputs = set()
    for fill in itertools.product((0, 1), repeat=len(unknown)):
        bits = list(values)
        for pin, bit in zip(unknown, fill):
            bits[pin] = bit
        outputs.add(_BINARY[kind](bits))
    return outputs.pop() if len(outputs) == 1 else None


def _simulate(netlist: Netlist, fault: Fault, assignment: Dict[int, int]) -> Tuple[Values, Values]:
    """(good, faulty) values of a partial assignment, by fixpoint sweeps."""
    good: Values = {net: assignment.get(net) for net in netlist.primary_inputs}
    bad: Values = dict(good)
    if fault.is_stem and fault.net in bad:
        bad[fault.net] = fault.stuck_at
    pending = list(range(len(netlist.gates)))
    while pending:
        remaining = []
        for gate_index in pending:
            gate = netlist.gates[gate_index]
            if not all(net in good or netlist.driver_of(net) is None for net in gate.inputs):
                remaining.append(gate_index)
                continue
            kind = gate.gtype.value
            good[gate.output] = _gate3(kind, [good.get(n) for n in gate.inputs])
            pins = [bad.get(n) for n in gate.inputs]
            if fault.gate_index == gate_index:
                pins[fault.pin] = fault.stuck_at
            bad[gate.output] = _gate3(kind, pins)
            if fault.is_stem and fault.net == gate.output:
                bad[gate.output] = fault.stuck_at
        assert len(remaining) < len(pending), "netlist is not a DAG"
        pending = remaining
    return good, bad


def _next_decision(netlist, fault, good, bad) -> Optional[Tuple[int, int]]:
    """Objective then backtrace, or None at a dead end."""
    site = good.get(fault.net)
    if site is not None and site == fault.stuck_at:
        return None
    if all(good.get(po) is not None and good.get(po) == bad.get(po)
           for po in netlist.primary_outputs):
        return None
    if site is None:
        net, want = fault.net, 1 - fault.stuck_at
    else:
        for gate_index, gate in enumerate(netlist.gates):
            if good.get(gate.output) is not None and bad.get(gate.output) is not None:
                continue
            differs = False
            for pin, n in enumerate(gate.inputs):
                b = fault.stuck_at if fault.gate_index == gate_index and fault.pin == pin \
                    else bad.get(n)
                differs = differs or (good.get(n) is not None and b is not None
                                      and good.get(n) != b)
            unknown = [n for n in gate.inputs if good.get(n) is None]
            if differs and unknown:
                net, want = unknown[0], _SENSITISING.get(gate.gtype.value, 0)
                break
        else:
            return None
    for _ in range(len(netlist.gates) + len(netlist.primary_inputs) + 1):
        if net in netlist.primary_inputs:
            return (net, want) if good.get(net) is None else None
        driver = netlist.driver_of(net)
        if driver is None or not netlist.gates[driver].inputs:
            return None
        gate = netlist.gates[driver]
        if gate.gtype.value in ("NAND", "NOR", "XNOR", "NOT"):
            want = 1 - want
        unknown = [n for n in gate.inputs if good.get(n) is None]
        if not unknown:
            return None
        net = unknown[0]
    return None


def reference_podem(netlist: Netlist, fault: Fault, max_backtracks: int):
    """(status, test, backtracks) by full re-simulation per decision."""
    assignment: Dict[int, int] = {}
    decisions: List[Tuple[int, bool]] = []
    backtracks = 0
    while True:
        good, bad = _simulate(netlist, fault, assignment)
        if any(good.get(po) is not None and bad.get(po) is not None
               and good.get(po) != bad.get(po) for po in netlist.primary_outputs):
            test = {net: assignment.get(net, 0) for net in netlist.primary_inputs}
            return PodemStatus.DETECTED, test, backtracks
        decision = _next_decision(netlist, fault, good, bad)
        if decision is not None:
            assignment[decision[0]] = decision[1]
            decisions.append((decision[0], False))
            continue
        while decisions and decisions[-1][1]:
            del assignment[decisions.pop()[0]]
        if not decisions:
            return PodemStatus.REDUNDANT, None, backtracks
        pi = decisions.pop()[0]
        assignment[pi] = 1 - assignment[pi]
        decisions.append((pi, True))
        backtracks += 1
        if backtracks > max_backtracks:
            return PodemStatus.ABORTED, None, backtracks


def _podem_triple(netlist: Netlist, fault: Fault, max_backtracks: int):
    result = podem(netlist, fault, max_backtracks)
    assert result.fault == fault
    return result.status, result.test, result.backtracks


# ---------------------------------------------------------------- properties

@st.composite
def netlists_and_faults(draw):
    netlist = make_random_netlist(
        draw(st.integers(1, 14)), draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 10_000)), n_outputs=draw(st.integers(1, 3)),
    )
    universe = full_fault_universe(netlist)
    faults = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=6, unique=True))
    return netlist, faults


@given(netlists_and_faults(), st.sampled_from([0, 1, 3, 20, 5000]))
def test_podem_matches_the_naive_reference(case, max_backtracks):
    netlist, faults = case
    for fault in faults:
        assert _podem_triple(netlist, fault, max_backtracks) == \
            reference_podem(netlist, fault, max_backtracks), fault.describe(netlist)


def test_reference_agreement_reaches_every_verdict_and_fault_kind():
    """A fixed corpus on which the differential provably covers DETECTED,
    REDUNDANT and ABORTED verdicts, and both stem and branch faults."""
    seen = set()
    for seed in range(3):
        netlist = make_random_netlist(6 + seed % 9, 12 + 2 * seed, seed=seed, n_outputs=2)
        for fault in full_fault_universe(netlist):
            for max_backtracks in (1, 5000):
                got = _podem_triple(netlist, fault, max_backtracks)
                assert got == reference_podem(netlist, fault, max_backtracks), \
                    (seed, fault.describe(netlist), max_backtracks)
                seen.add((got[0], fault.is_stem))
    assert seen == {(status, stem) for status in PodemStatus for stem in (True, False)}
