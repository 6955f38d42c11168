"""PODEM ATPG: test generation and redundancy identification."""

import itertools

from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.atpg.podem import PodemStatus, classify_faults, podem
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.faults import Fault, full_fault_universe
from repro.faultsim.simulator import FaultSimulator
from repro.netlist.builders import ripple_adder
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist

from tests.conftest import make_random_netlist


def redundant_or_circuit():
    """y = a OR (a AND b): t/0 is a classic redundant fault."""
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    t = netlist.add_gate(GateType.AND, [a, b], name="t")
    y = netlist.add_gate(GateType.OR, [a, t], name="y")
    netlist.mark_output(y)
    return netlist, t


def test_podem_finds_tests_on_tiny(tiny):
    simulator = FaultSimulator(tiny)
    faults, _ = collapse_faults(tiny)
    for fault in faults:
        result = podem(tiny, fault)
        assert result.status is PodemStatus.DETECTED
        pattern = [result.test[n] for n in tiny.primary_inputs]
        assert simulator.detects(fault, pattern)


def test_podem_proves_redundancy():
    netlist, t = redundant_or_circuit()
    result = podem(netlist, Fault(t, 0))
    assert result.status is PodemStatus.REDUNDANT


def test_podem_detectable_in_redundant_circuit():
    netlist, t = redundant_or_circuit()
    result = podem(netlist, Fault(t, 1))
    assert result.status is PodemStatus.DETECTED


def test_classify_faults_splits_correctly():
    netlist, t = redundant_or_circuit()
    faults = full_fault_universe(netlist)
    redundant, tests, aborted = classify_faults(netlist, faults)
    assert Fault(t, 0) in redundant
    assert not aborted
    simulator = FaultSimulator(netlist)
    for fault, test in tests.items():
        pattern = [test[n] for n in netlist.primary_inputs]
        assert simulator.detects(fault, pattern)


def test_classify_faults_counts_calls_backtracks_and_outcomes():
    netlist, _ = redundant_or_circuit()
    faults = full_fault_universe(netlist)
    instance = telemetry.get_telemetry()
    was_enabled = instance.enabled
    instance.reset()
    instance.enable()
    try:
        redundant, tests, aborted = classify_faults(netlist, faults)
        counters = instance.metrics.snapshot()["counters"]
    finally:
        instance.reset()
        if not was_enabled:
            instance.disable()
    results = [podem(netlist, fault) for fault in faults]
    assert counters["atpg.podem.calls"] == len(faults)
    assert counters["atpg.podem.backtracks"] == sum(r.backtracks for r in results)
    assert counters["atpg.podem.redundant"] == len(redundant) > 0
    assert counters["atpg.podem.detected"] == len(tests) > 0
    assert counters.get("atpg.podem.aborted", 0) == len(aborted) == 0


@given(st.integers(0, 40))
@settings(max_examples=10, deadline=None)
def test_podem_agrees_with_exhaustive_search(seed):
    """Property: PODEM says REDUNDANT iff no input pattern detects the fault.

    Four inputs allow at most 2^4 leaves in the decision tree, so a
    10_000-backtrack limit is never reached: no fault may abort."""
    netlist = make_random_netlist(4, 10, seed=seed)
    simulator = FaultSimulator(netlist)
    faults, _ = collapse_faults(netlist)
    patterns = list(itertools.product((0, 1), repeat=4))
    for fault in faults[::4]:
        truly_detectable = any(simulator.detects(fault, p) for p in patterns)
        result = podem(netlist, fault, max_backtracks=10_000)
        assert result.status is not PodemStatus.ABORTED, fault.describe(netlist)
        if result.status is PodemStatus.DETECTED:
            assert truly_detectable
            pattern = [result.test[n] for n in netlist.primary_inputs]
            assert simulator.detects(fault, pattern)
        else:
            assert not truly_detectable


def test_podem_on_adder_carry_chain():
    """Every collapsed fault of a 4-bit adder is detectable; PODEM finds all."""
    netlist = Netlist()
    a = netlist.new_inputs(4, prefix="a")
    b = netlist.new_inputs(4, prefix="b")
    for net in ripple_adder(netlist, a, b):
        netlist.mark_output(net)
    faults, _ = collapse_faults(netlist)
    simulator = FaultSimulator(netlist)
    for fault in faults:
        result = podem(netlist, fault)
        assert result.status is PodemStatus.DETECTED, fault.describe(netlist)
        pattern = [result.test[n] for n in netlist.primary_inputs]
        assert simulator.detects(fault, pattern)


def test_pin_fault_podem():
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    g1 = netlist.add_gate(GateType.AND, [a, b], name="g1")
    g2 = netlist.add_gate(GateType.OR, [a, b], name="g2")
    netlist.mark_output(g1)
    netlist.mark_output(g2)
    pin_fault = Fault(a, 1, gate_index=0, pin=0)
    result = podem(netlist, pin_fault)
    assert result.status is PodemStatus.DETECTED
    simulator = FaultSimulator(netlist)
    pattern = [result.test[n] for n in netlist.primary_inputs]
    assert simulator.detects(pin_fault, pattern)
