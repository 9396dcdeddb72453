import math

import numpy as np
import pytest

from lowdepthqc.ansatz import AnsatzSpec, BaselineSpec, Head, Variant, \
    build_ansatz, build_baseline
from lowdepthqc.circuit import Circuit, Gate, GateInstance
from lowdepthqc.hadamard import GTermKind, build_gterm_circuit
from lowdepthqc.simulator import run_statevector
from lowdepthqc.transpile import (BasisTarget, count_report, decompose,
                                  equivalent_up_to_phase, permuted_amps)

from conftest import random_circuit

NATIVE = {
    BasisTarget.SC: {Gate.RZ, Gate.SX, Gate.X, Gate.ECR},
    BasisTarget.ION: {Gate.RZ, Gate.R, Gate.RXX},
}

# gates whose decomposition needs no extra work wires
SAFE_GATES = (Gate.H, Gate.X, Gate.SX, Gate.S_DAG, Gate.RX, Gate.RY, Gate.RZ,
              Gate.R, Gate.RXX, Gate.RZZ, Gate.CNOT, Gate.ECR, Gate.CZ,
              Gate.SWAP, Gate.CRY, Gate.CU_ALT)


def _check_native(c: Circuit, target: BasisTarget):
    for g in c.gates:
        assert g.gate in NATIVE[target], g.gate
        assert not g.controls


def _check_equivalent(original: Circuit, target: BasisTarget):
    native = decompose(original, target)
    _check_native(native, target)
    a = run_statevector(original).amps
    b = run_statevector(native).amps
    positions = native.metadata.get("final_positions")
    if positions:
        b = permuted_amps(b, positions)
    assert equivalent_up_to_phase(a, b, tol=1e-8), target


def test_random_circuits_decompose_equivalently(rng):
    for trial in range(15):
        width = int(rng.integers(2, 6))
        c = random_circuit(rng, width, int(rng.integers(2, 10)),
                           gates=SAFE_GATES)
        for target in BasisTarget:
            _check_equivalent(c, target)


def test_toffoli_decomposes_equivalently():
    c = Circuit(3, (GateInstance(Gate.H, (), (0,)),
                    GateInstance(Gate.H, (), (1,)),
                    GateInstance(Gate.MCX, (0, 1), (2,))))
    for target in BasisTarget:
        _check_equivalent(c, target)


def test_ansatz_circuits_decompose_equivalently(rng):
    for variant in Variant:
        spec = AnsatzSpec(3, 2, variant, Head.RY)
        c = build_ansatz(spec, rng.uniform(-math.pi, math.pi,
                                           spec.parameter_count))
        for target in BasisTarget:
            _check_equivalent(c, target)


def test_gterm_circuit_decomposes_equivalently(rng):
    spec = AnsatzSpec(2, 1, Variant.CU_ALT, Head.RY)
    mk = lambda: build_ansatz(
        spec, rng.uniform(-math.pi, math.pi, spec.parameter_count))
    c = build_gterm_circuit(GTermKind.SHIFT, mk(), mk())
    for target in BasisTarget:
        _check_equivalent(c, target)


def test_mcx_with_work_qubits_decomposes(rng):
    # 3 controls need one work wire (v-chain)
    c = Circuit(5, (GateInstance(Gate.X, (), (0,)),
                    GateInstance(Gate.X, (), (1,)),
                    GateInstance(Gate.X, (), (2,)),
                    GateInstance(Gate.MCX, (0, 1, 2), (3,))),
                metadata={"work_qubits": [4]})
    for target in BasisTarget:
        _check_equivalent(c, target)


def test_mcx_without_work_qubits_raises():
    from lowdepthqc.circuit import CircuitError

    c = Circuit(4, (GateInstance(Gate.MCX, (0, 1, 2), (3,)),))
    with pytest.raises(CircuitError):
        decompose(c, BasisTarget.ION)


def test_routing_respects_linear_coupling(rng):
    c = random_circuit(rng, 5, 12, gates=SAFE_GATES)
    routed = decompose(c, BasisTarget.SC)
    for g in routed.gates:
        if g.gate is Gate.ECR:
            a, b = g.targets
            assert abs(a - b) == 1, (a, b)


def test_ion_skips_routing():
    c = Circuit(4, (GateInstance(Gate.CNOT, (0,), (3,)),))
    native = decompose(c, BasisTarget.ION)
    assert native.metadata.get("final_positions") in (None, [0, 1, 2, 3])


def test_count_report_shape(rng):
    c = random_circuit(rng, 3, 8, gates=SAFE_GATES)
    r = count_report(c, BasisTarget.ION)
    assert r.g1 == sum(v for k, v in r.histogram.items()
                       if k in ("rz", "r", "sx", "x"))
    assert r.g2 == r.histogram.get("rxx", 0)
    assert r.depth >= 1


def test_ion_beats_sc_on_two_qubit_count(rng):
    # all-to-all routing can only help; SC pays SWAP overhead
    for trial in range(5):
        c = random_circuit(rng, 5, 10, gates=SAFE_GATES)
        ion = count_report(c, BasisTarget.ION)
        sc = count_report(c, BasisTarget.SC)
        assert ion.g2 <= sc.g2


def test_elision_reduces_native_counts(rng):
    spec = AnsatzSpec(3, 3, Variant.CU_ALT, Head.RY)
    mk = lambda: build_ansatz(
        spec, rng.uniform(-math.pi, math.pi, spec.parameter_count))
    u_t, u_lam = mk(), mk()
    elided = build_gterm_circuit(GTermKind.SHIFT_DIAG, u_t, u_lam, elide=True)
    kept = build_gterm_circuit(GTermKind.SHIFT_DIAG, u_t, u_lam, elide=False)
    for target in BasisTarget:
        a = count_report(elided, target)
        b = count_report(kept, target)
        assert a.g2 < b.g2
