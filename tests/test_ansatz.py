import math

import numpy as np
import pytest

from lowdepthqc.ansatz import (AnsatzSpec, BaselineSpec, Head, Variant,
                               ansatz_state, bind_parameter, build_ansatz,
                               build_baseline, register_circuit)
from lowdepthqc.circuit import Gate, GateInstance
from lowdepthqc.simulator import run_statevector


def test_parameter_counts():
    assert AnsatzSpec(3, 3, head=Head.X).parameter_count == 9
    assert AnsatzSpec(3, 3, head=Head.RY).parameter_count == 10
    assert AnsatzSpec(1, 4, head=Head.X).parameter_count == 4
    assert BaselineSpec(3).parameter_count == 9
    assert BaselineSpec(4, 2).parameter_count == 8


def test_spec_validation():
    with pytest.raises(ValueError):
        AnsatzSpec(0, 1)
    with pytest.raises(ValueError):
        AnsatzSpec(2, 0)
    with pytest.raises(ValueError):
        build_ansatz(AnsatzSpec(2, 2), (0.0,))


def test_ring_structure(rng):
    spec = AnsatzSpec(4, 2, Variant.CU_ALT, Head.X)
    c = build_ansatz(spec, rng.uniform(-3, 3, spec.parameter_count))
    assert c.width == 5
    assert c.gates[0].gate is Gate.CNOT and c.gates[0].controls == (0,)
    body = c.gates[1:]
    assert all(g.gate is Gate.CU_ALT for g in body)
    pairs = [(g.controls[0], g.targets[0]) for g in body[:4]]
    assert pairs == [(1, 2), (2, 3), (3, 4), (4, 1)]
    # exactly one gate touches the ancilla
    assert sum(0 in g.qubits for g in c.gates) == 1


def test_single_qubit_register_degenerates_to_bare_ry(rng):
    spec = AnsatzSpec(1, 3, Variant.CRY, Head.X)
    c = build_ansatz(spec, rng.uniform(-3, 3, 3))
    assert [g.gate for g in c.gates] == [Gate.CNOT, Gate.RY, Gate.RY, Gate.RY]


def test_register_view_matches_full_branch(rng):
    for variant in Variant:
        for head in Head:
            spec = AnsatzSpec(3, 2, variant, head)
            params = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
            full = build_ansatz(spec, params)
            # |1> ancilla branch of the full circuit vs the register view
            amps = run_statevector(_anc_one(full)).amps
            branch = amps.reshape(2, -1)[1]
            reg = run_statevector(register_circuit(full)).amps
            assert np.allclose(branch, reg, atol=1e-12)


def _anc_one(c):
    # ``c`` run from |1> on wire 0 (the ancilla), |0...0> on the register
    return c.with_gates((GateInstance(Gate.X, (), (0,)),) + c.gates)


def test_ansatz_state_is_normalized_and_real(rng):
    spec = AnsatzSpec(3, 3, Variant.CU_ALT, Head.RY)
    psi = ansatz_state(spec, rng.uniform(-math.pi, math.pi, 10))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    assert np.max(np.abs(psi.imag)) < 1e-12


def test_baseline_is_fully_ancilla_controlled(rng):
    spec = BaselineSpec(3)
    c = build_baseline(spec, rng.uniform(-3, 3, spec.parameter_count))
    assert all(0 in g.controls for g in c.gates)


def test_bind_parameter():
    assert bind_parameter((1.0, 2.0, 3.0), 1, 9.0) == (1.0, 9.0, 3.0)
    with pytest.raises(IndexError):
        bind_parameter((1.0,), 3, 0.0)
