"""Ancilla-control elision for Hadamard-test-shaped circuits.

Because every qubit starts in |0>, a conditional gate that keeps at least
one control inside the main register acts identically with or without an
additional control from the ancilla: in the ancilla-|0> branch the
register is still |0...0>, so any register-controlled gate is inert there
anyway.  The pass therefore strips the ancilla from the control list of
every body gate that retains a register control; gates controlled *only*
by the ancilla must keep it.

Detection is purely structural: an H on the ancilla, a body of gates that
are each either ancilla-controlled or register-controlled, an optional
S-dagger on the ancilla, and a closing H.
"""
from __future__ import annotations

import numpy as np

from .circuit import Circuit, Gate, GateInstance
from .simulator import run_statevector


class NotHadamardForm(Exception):
    """Circuit does not have the literal H ... H sandwich structure."""


def detect_hadamard_form(c: Circuit) -> int:
    """Ancilla index of ``c``'s Hadamard form; raises ``NotHadamardForm``."""
    ancilla = c.ancilla
    if ancilla is None:
        raise NotHadamardForm("no ancilla index recorded on the circuit")
    gates = c.gates
    if not gates:
        raise NotHadamardForm("empty circuit")
    first, last = gates[0], gates[-1]
    if not (first.gate is Gate.H and not first.controls and first.targets == (ancilla,)):
        raise NotHadamardForm(f"gate 0 is not H on ancilla {ancilla}: {first}")
    if not (last.gate is Gate.H and not last.controls and last.targets == (ancilla,)):
        raise NotHadamardForm(f"final gate is not H on ancilla {ancilla}: {last}")
    stop = len(gates) - 1
    if stop >= 2:
        before = gates[stop - 1]
        if before.gate is Gate.S_DAG and before.targets == (ancilla,):
            stop -= 1
    for i in range(1, stop):
        inst = gates[i]
        if ancilla in inst.controls:
            continue
        if ancilla in inst.targets:
            raise NotHadamardForm(
                f"gate {i} targets the ancilla without controlling from it: {inst}")
        if not inst.controls:
            raise NotHadamardForm(
                f"gate {i} is an uncontrolled register gate: {inst}")
    return ancilla


def elide_body(c: Circuit, ancilla: int) -> Circuit:
    """Drop the ancilla from every control list that keeps a register control.

    Runs over every gate without detection: in a Hadamard form the gates
    outside the body carry no ancilla control.  Check a circuit of unknown
    shape with ``detect_hadamard_form`` first.
    """
    return c.with_gates(tuple(_elide_gate(g, ancilla) for g in c.gates))


def _elide_gate(inst: GateInstance, ancilla: int) -> GateInstance:
    if ancilla in inst.controls and len(inst.controls) > 1:
        return inst.with_controls(tuple(q for q in inst.controls if q != ancilla))
    return inst


def statevector_deviation(original: Circuit, reduced: Circuit) -> float:
    """Max per-amplitude deviation; stricter check than <sigma_z> alone."""
    a = run_statevector(original).amps
    b = run_statevector(reduced).amps
    return float(np.max(np.abs(a - b)))
