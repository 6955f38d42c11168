"""PODEM combinational ATPG.

The evaluation in the paper reports "100% fault coverage of detectable
faults" — which requires telling *undetectable (redundant)* faults apart
from merely hard-to-hit ones.  After random-pattern fault simulation
saturates, this PODEM implementation decides each leftover fault:

* ``DETECTED``  — a test pattern exists (returned);
* ``REDUNDANT`` — the full implicit search space is exhausted, no test;
* ``ABORTED``   — backtrack limit hit (counted as detectable-unknown).

Classic Goel-style PODEM: objectives, backtrace to a primary input,
three-valued (0/1/X) dual-machine implication, D-frontier tracking,
chronological backtracking over PI assignments.

Implication is event-driven on a compiled view of the netlist: good and
faulty values live in flat per-net lists, evaluated in full once per
fault; each PI assignment, flip or release then re-evaluates, in level
order, only gates reading a net whose good or faulty value changed.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.faultsim.faults import Fault
from repro.netlist.gates import GateType
from repro.netlist.levelize import levelize
from repro.netlist.netlist import Netlist

X = None  # unknown value in the 3-valued domain {0, 1, None}

# Gate opcodes: the base function's index here, plus a 0/1 inversion flag.
_BASES = (GateType.AND, GateType.OR, GateType.XOR, GateType.BUF, GateType.CONST0,
          GateType.CONST1)
_AND, _OR, _XOR, _BUF, _CONST0 = range(5)
_OPCODE = {t: (_BASES.index(t.base), int(t.is_inverting)) for t in GateType}


class PodemStatus(enum.Enum):
    DETECTED = "detected"
    REDUNDANT = "redundant"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    status: PodemStatus
    fault: Fault
    test: Optional[Dict[int, int]] = None  # PI net -> 0/1
    backtracks: int = 0


def _eval3(op: int, inverting: int, values: Sequence[Optional[int]]) -> Optional[int]:
    """Three-valued gate evaluation."""
    value: Optional[int]
    if op == _AND:
        value = 0 if 0 in values else (X if X in values else 1)
    elif op == _OR:
        value = 1 if 1 in values else (X if X in values else 0)
    elif op == _XOR:
        value = X if X in values else sum(values) & 1
    elif op == _BUF:
        value = values[0]
    else:  # CONST0 / CONST1
        value = op - _CONST0
    return X if value is X else value ^ inverting


class _Circuit:
    """A netlist compiled for one fault, with its good and faulty values."""

    def __init__(self, netlist: Netlist, fault: Fault):
        gates = netlist.gates
        self.fault = fault
        self.order = levelize(netlist)
        self.position = {gate_index: p for p, gate_index in enumerate(self.order)}
        self.ops = [_OPCODE[gate.gtype] for gate in gates]
        self.inputs = [gate.inputs for gate in gates]
        self.outputs = [gate.output for gate in gates]
        # Value that sensitises a gate to its other inputs (AND: 1, else 0).
        self.non_controlling = [int(op == _AND) for op, _ in self.ops]
        n_nets = netlist.n_nets
        self.fanout: List[List[int]] = [[] for _ in range(n_nets)]
        self.driver: List[Optional[int]] = [None] * n_nets
        for gate_index, gate in enumerate(gates):
            self.driver[gate.output] = gate_index
            for net in gate.inputs:
                self.fanout[net].append(gate_index)
        self.pis = frozenset(netlist.primary_inputs)
        self.primary_outputs = netlist.primary_outputs
        # Where the fault sits: a forced net (stem) or a forced pin (branch).
        self.pin_gate = -1 if fault.is_stem else fault.gate_index
        self.stem = fault.net if fault.is_stem else -1
        self.good: List[Optional[int]] = [X] * n_nets
        self.bad: List[Optional[int]] = [X] * n_nets
        if self.stem in self.pis:
            self.bad[self.stem] = fault.stuck_at
        for gate_index in self.order:
            self._evaluate(gate_index)

    def _evaluate(self, gate_index: int) -> bool:
        """Re-evaluate one gate in both machines; True if either changed."""
        op, inverting = self.ops[gate_index]
        inputs = self.inputs[gate_index]
        output = self.outputs[gate_index]
        good = _eval3(op, inverting, [self.good[n] for n in inputs])
        bad_inputs = [self.bad[n] for n in inputs]
        if gate_index == self.pin_gate:
            bad_inputs[self.fault.pin] = self.fault.stuck_at
        bad = _eval3(op, inverting, bad_inputs)
        if output == self.stem:
            bad = self.fault.stuck_at
        changed = good != self.good[output] or bad != self.bad[output]
        self.good[output], self.bad[output] = good, bad
        return changed

    def assign(self, pi: int, value: Optional[int]) -> None:
        """Set (or release, with X) one PI and push the change forward."""
        self.good[pi] = value
        if pi != self.stem:
            self.bad[pi] = value
        position, order = self.position, self.order
        queue = [position[g] for g in set(self.fanout[pi])]
        heapq.heapify(queue)
        queued = set(queue)
        while queue:
            gate_index = order[heapq.heappop(queue)]
            if self._evaluate(gate_index):
                for reader in self.fanout[self.outputs[gate_index]]:
                    if position[reader] not in queued:
                        queued.add(position[reader])
                        heapq.heappush(queue, position[reader])

    def detected(self) -> bool:
        good, bad = self.good, self.bad
        return any(good[po] is not X and bad[po] is not X and good[po] != bad[po]
                   for po in self.primary_outputs)

    def possibly_detectable(self) -> bool:
        """Cheap pruning: can the fault still be activated and propagated?"""
        # Activation: the good value at the fault site can still differ
        # from the stuck value.
        site_good = self.good[self.fault.net]
        if site_good is not X and site_good == self.fault.stuck_at:
            return False
        # Propagation (conservative): some PO pair is not provably equal.
        good, bad = self.good, self.bad
        return any(good[po] is X or bad[po] is X or good[po] != bad[po]
                   for po in self.primary_outputs)

    def objective(self) -> Optional[Tuple[int, int]]:
        """Next (net, value): activate the fault, then advance the D-frontier."""
        fault, good, bad = self.fault, self.good, self.bad
        if good[fault.net] is X:
            return fault.net, fault.stuck_at ^ 1
        # Fault is activated; find a D-frontier gate: output not resolved in
        # both machines, some input carrying a definite good/bad difference.
        for gate_index, inputs in enumerate(self.inputs):
            output = self.outputs[gate_index]
            if good[output] is not X and bad[output] is not X:
                continue
            for pin, net in enumerate(inputs):
                g, b = good[net], bad[net]
                if gate_index == self.pin_gate and pin == fault.pin:
                    b = fault.stuck_at
                if g is not X and b is not X and g != b:
                    break
            else:
                continue
            # Set an X input to the non-controlling value.
            for net in inputs:
                if good[net] is X:
                    return net, self.non_controlling[gate_index]
        return None

    def backtrace(self, net: int, value: int) -> Optional[Tuple[int, int]]:
        """Walk an objective back to an unassigned primary input."""
        good, current, want = self.good, net, value
        for _ in range(len(self.ops) + len(self.pis) + 1):
            if current in self.pis:
                return (current, want) if good[current] is X else None
            driver = self.driver[current]
            if driver is None:
                return None
            op, inverting = self.ops[driver]
            if op >= _CONST0:
                return None
            want ^= inverting
            # Pursue the first X input; for AND/OR the wanted value carries
            # through unchanged (non-controlling to satisfy 1/0, controlling
            # to force the output), for XOR it is a free choice.
            current = next((n for n in self.inputs[driver] if good[n] is X), -1)
            if current < 0:
                return None
        return None


def podem(netlist: Netlist, fault: Fault, max_backtracks: int = 5000) -> PodemResult:
    """Run PODEM for one fault."""
    circuit = _Circuit(netlist, fault)
    decisions: List[Tuple[int, bool]] = []  # (pi net, tried_both)
    backtracks = 0

    while True:
        if circuit.detected():
            test = {net: circuit.good[net] or 0 for net in netlist.primary_inputs}
            return PodemResult(PodemStatus.DETECTED, fault, test, backtracks)
        target: Optional[Tuple[int, int]] = None
        if circuit.possibly_detectable():
            objective = circuit.objective()
            if objective is not None:
                target = circuit.backtrace(*objective)
        if target is not None:
            circuit.assign(*target)
            decisions.append((target[0], False))
            continue
        # Dead end: backtrack.
        while decisions:
            pi, tried_both = decisions.pop()
            if tried_both:
                circuit.assign(pi, X)
                continue
            circuit.assign(pi, circuit.good[pi] ^ 1)
            decisions.append((pi, True))
            backtracks += 1
            break
        else:
            return PodemResult(PodemStatus.REDUNDANT, fault, None, backtracks)
        if backtracks > max_backtracks:
            return PodemResult(PodemStatus.ABORTED, fault, None, backtracks)


def classify_faults(
    netlist: Netlist,
    faults: Sequence[Fault],
    max_backtracks: int = 5000,
) -> Tuple[List[Fault], Dict[Fault, Dict[int, int]], List[Fault]]:
    """(redundant, tests for detectable, aborted) over a fault list."""
    redundant: List[Fault] = []
    tests: Dict[Fault, Dict[int, int]] = {}
    aborted: List[Fault] = []
    for fault in faults:
        result = podem(netlist, fault, max_backtracks)
        telemetry.count("atpg.podem.calls")
        telemetry.count("atpg.podem.backtracks", result.backtracks)
        telemetry.count(f"atpg.podem.{result.status.value}")
        if result.status is PodemStatus.REDUNDANT:
            redundant.append(fault)
        elif result.status is PodemStatus.DETECTED:
            tests[fault] = result.test or {}
        else:
            aborted.append(fault)
    return redundant, tests, aborted
