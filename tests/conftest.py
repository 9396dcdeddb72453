"""Shared helpers: random circuit generation and an independent dense oracle.

The dense embedding here walks basis indices explicitly and places each
gate's target matrix on the rows where every control is 1, instead of
using the simulator's kernel or ``gate_unitary``'s controlled blocks, so
matches between the two are genuine cross-checks rather than the same
code talking to itself.
"""
import numpy as np
import pytest

from lowdepthqc.circuit import Circuit, Gate, GateInstance, target_matrix

RANDOM_GATES = (Gate.H, Gate.X, Gate.SX, Gate.S_DAG, Gate.RY, Gate.RZ, Gate.R,
                Gate.RXX, Gate.CNOT, Gate.ECR, Gate.MCX, Gate.CRY, Gate.CU_ALT)


def embed_gate(inst: GateInstance, width: int) -> np.ndarray:
    """Dense (2^width, 2^width) matrix of one gate, by index bookkeeping.

    The target matrix acts on the basis states whose controls are all 1;
    every other basis state maps to itself.  Qubit 0 is the most
    significant bit of the basis index, matching the text format and the
    simulator's axis ordering.
    """
    m = target_matrix(inst.gate, inst.params)
    masks = [1 << (width - 1 - q) for q in inst.targets]
    k = len(masks)
    dim = 1 << width
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        if not all(col >> (width - 1 - q) & 1 for q in inst.controls):
            full[col, col] = 1
            continue
        sub_col = 0
        for mask in masks:
            sub_col = (sub_col << 1) | bool(col & mask)
        for sub_row in range(1 << k):
            row = col
            for a, mask in enumerate(masks):
                if (sub_row >> (k - 1 - a)) & 1:
                    row |= mask
                else:
                    row &= ~mask
            full[row, col] += m[sub_row, sub_col]
    return full


def dense_unitary(c: Circuit) -> np.ndarray:
    u = np.eye(1 << c.width, dtype=complex)
    for inst in c.gates:
        u = embed_gate(inst, c.width) @ u
    return u


def random_instance(rng: np.random.Generator, width: int,
                    gates=RANDOM_GATES) -> GateInstance:
    while True:
        gate = gates[rng.integers(len(gates))]
        need = gate.n_targets + gate.base_controls
        extra = 0
        if gate is Gate.MCX and width >= 3:
            extra = int(rng.integers(0, width - 2))
        if need + extra > width:
            continue
        qs = rng.choice(width, size=need + extra, replace=False)
        controls = tuple(int(q) for q in qs[:gate.base_controls + extra])
        targets = tuple(int(q) for q in qs[gate.base_controls + extra:])
        params = tuple(rng.uniform(-np.pi, np.pi, gate.n_params))
        return GateInstance(gate, controls, targets, params)


def random_circuit(rng: np.random.Generator, width: int,
                   length: int, gates=RANDOM_GATES) -> Circuit:
    return Circuit(width, tuple(random_instance(rng, width, gates)
                                for _ in range(length)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
