"""Parameterized circuit builders.

Two families:

* the low-depth ansatz: one ancilla-controlled head gate on the first
  register qubit, then ``d`` layers each made of a ring of controlled
  single-parameter gates q1->q2->...->qn->q1, so that after the head every
  gate is controlled from inside the register;
* the conventional baseline: per layer a column of RY rotations followed
  by a linear CNOT entangler chain, with *every* gate additionally
  controlled from the ancilla.  Used for gate counting and elision
  comparisons only.

Circuits are built over ``n + 1`` wires with the ancilla at index 0 and
register qubits 1..n (top to bottom).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import Circuit, Gate, GateInstance


class Variant(Enum):
    CRY = "cry"          # two CNOTs + two rotations per controlled block
    CU_ALT = "cu_alt"    # single-CNOT alternative block


class Head(Enum):
    X = "x"              # parameter-free CNOT from the ancilla
    RY = "ry"            # controlled-RY head, adds one leading parameter


def default_depth(n: int) -> int:
    """The paper's depth for an ``n``-qubit register, 2n - 3 layers."""
    if n < 2:
        raise ValueError(f"the default depth 2n-3 needs n >= 2, got n={n}; "
                         f"pass an explicit depth (-d)")
    return 2 * n - 3


@dataclass(frozen=True)
class AnsatzSpec:
    n: int
    d: int
    variant: Variant = Variant.CRY
    head: Head = Head.X

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")

    @property
    def parameter_count(self) -> int:
        return self.d * self.n + (1 if self.head is Head.RY else 0)


@dataclass(frozen=True)
class BaselineSpec:
    n: int
    d: int | None = None  # defaults to n, the conventional choice

    @property
    def layers(self) -> int:
        return self.n if self.d is None else self.d

    @property
    def parameter_count(self) -> int:
        return self.layers * self.n


def bind_parameter(params, j: int, value: float) -> tuple[float, ...]:
    params = tuple(params)
    if not 0 <= j < len(params):
        raise IndexError(f"parameter index {j} out of range ({len(params)})")
    return params[:j] + (float(value),) + params[j + 1:]


def _ring_pairs(n: int) -> list[tuple[int, int]]:
    """Control->target pairs of one layer on register qubits 1..n."""
    pairs = [(i, i + 1) for i in range(1, n)]
    pairs.append((n, 1))
    return pairs


def build_ansatz(spec: AnsatzSpec, params) -> Circuit:
    """Full ansatz over ancilla + register; exactly one gate touches the ancilla."""
    params = tuple(params)
    if len(params) != spec.parameter_count:
        raise ValueError(
            f"expected {spec.parameter_count} parameters, got {len(params)}")
    gate = Gate.CRY if spec.variant is Variant.CRY else Gate.CU_ALT
    gates: list[GateInstance] = []
    k = 0
    if spec.head is Head.X:
        gates.append(GateInstance(Gate.CNOT, (0,), (1,)))
    else:
        gates.append(GateInstance(Gate.CRY, (0,), (1,), (params[0],)))
        k = 1
    for _ in range(spec.d):
        if spec.n == 1:
            # the ring degenerates to a bare rotation on the single register qubit
            gates.append(GateInstance(Gate.RY, (), (1,), (params[k],)))
            k += 1
            continue
        for ctrl, tgt in _ring_pairs(spec.n):
            gates.append(GateInstance(gate, (ctrl,), (tgt,), (params[k],)))
            k += 1
    return Circuit(spec.n + 1, tuple(gates), ancilla=0)


def build_baseline(spec: BaselineSpec, params) -> Circuit:
    """Conventional real-amplitude layout with every gate ancilla-controlled."""
    params = tuple(params)
    if len(params) != spec.parameter_count:
        raise ValueError(
            f"expected {spec.parameter_count} parameters, got {len(params)}")
    n = spec.n
    gates: list[GateInstance] = []
    k = 0
    for _ in range(spec.layers):
        for q in range(1, n + 1):
            gates.append(GateInstance(Gate.CRY, (0,), (q,), (params[k],)))
            k += 1
        for q in range(1, n):
            gates.append(GateInstance(Gate.MCX, (0, q), (q + 1,)))
    return Circuit(n + 1, tuple(gates), ancilla=0)


def register_circuit(full: Circuit) -> Circuit:
    """Register-only view of an ansatz: the ancilla-|1> branch action.

    Every gate loses its ancilla control, so the head collapses to its
    target action (CNOT -> X, CRY -> RY); every other gate keeps its
    register controls.  Qubit indices shift down by one.
    """
    if full.ancilla != 0:
        raise ValueError("expected an ansatz circuit with ancilla at index 0")
    down = {q: q - 1 for q in range(1, full.width)}
    gates = []
    for inst in full.gates:
        if 0 in inst.controls:
            inst = inst.with_controls(tuple(q for q in inst.controls if q != 0))
        gates.append(inst.remapped(down))
    return Circuit(full.width - 1, tuple(gates))


def ansatz_state(spec: AnsatzSpec, params) -> np.ndarray:
    """Register statevector prepared in the ancilla-|1> branch (real for RY-type)."""
    from .simulator import run_statevector

    reg = register_circuit(build_ansatz(spec, params))
    return run_statevector(reg).amps
