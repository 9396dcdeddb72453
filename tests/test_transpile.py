import math

import numpy as np
import pytest

from lowdepthqc.ansatz import AnsatzSpec, BaselineSpec, Head, Variant, \
    build_ansatz, build_baseline
from lowdepthqc.circuit import (Circuit, CircuitError, Gate, GateInstance,
                                target_matrix)
from lowdepthqc.hadamard import GTermKind, build_gterm_circuit
from lowdepthqc.simulator import run_statevector
from lowdepthqc import transpile
from lowdepthqc.transpile import (BasisTarget, Lowering, _emit_1q,
                                  count_report, decompose, emit_1q,
                                  equivalent_up_to_phase, permuted_amps)

from conftest import random_circuit

NATIVE = {
    BasisTarget.SC: {Gate.RZ, Gate.SX, Gate.X, Gate.ECR},
    BasisTarget.ION: {Gate.RZ, Gate.R, Gate.RXX},
}

# kinds decompose lowers whose decomposition needs no extra work wires
SAFE_GATES = (Gate.H, Gate.X, Gate.SX, Gate.S_DAG, Gate.RY, Gate.RZ, Gate.R,
              Gate.CNOT, Gate.CRY, Gate.CU_ALT)


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
    c = Circuit(4, (GateInstance(Gate.MCX, (0, 1, 2), (3,)),))
    with pytest.raises(CircuitError):
        decompose(c, BasisTarget.ION)


def test_kinds_no_circuit_carries_are_not_lowered():
    # the estimator and baseline circuits hold no 2-target gates
    for gate in (Gate.RXX, Gate.ECR):
        inst = GateInstance(gate, (), (0, 1), (0.3,) * gate.n_params)
        for target in BasisTarget:
            with pytest.raises(CircuitError, match=f"cannot lower {gate.value}"):
                decompose(Circuit(2, (inst,)), target)


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
    native = decompose(c, BasisTarget.ION).gates
    assert r.g1 + r.g2 == len(native)
    assert r.g2 == sum(1 for g in native if g.gate is Gate.RXX)
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


def _exact(gates):
    """Kinds, wires and angle bit patterns of a native gate list."""
    return [(g.gate, g.controls, g.targets, tuple(map(float.hex, g.params)))
            for g in gates]


def _random_su2(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q / np.sqrt(np.linalg.det(q))


def test_emit_1q_table_returns_what_the_lowering_computes(rng):
    rz = lambda a: target_matrix(Gate.RZ, (a,))
    ry = lambda a: target_matrix(Gate.RY, (a,))
    h = target_matrix(Gate.H, ())
    products = [_random_su2(rng) for _ in range(40)]
    # within 1e-9 of the identity, and just outside it
    products += [np.exp(0.3j) * (np.eye(2) + eps * _random_su2(rng))
                 for eps in (0.0, 1e-10, 5e-10, 1e-8)]
    products += [rz(a) for a in (0.7, -2.1, 1e-10, 0.0, -0.0)]
    # products at the bindings 0, pi and 2 pi, where gates drop out
    for b in (0.0, math.pi, 2 * math.pi):
        products += [ry(b) @ rz(0.4), rz(b) @ h @ ry(b), ry(b) @ ry(-b),
                     rz(-b) @ h @ rz(b) @ h]
    products.append(np.real(ry(0.7)))                    # real dtype
    # signed zeros: cmath.phase reads -1-0j and -1+0j as -pi and pi
    products += [np.array([[-1, 0], [0, -1]], complex),
                 np.array([[complex(-1, -0.0), 0], [0, complex(-1, -0.0)]]),
                 np.array([[-0.0, 1], [1, -0.0]]),
                 np.array([[complex(0.0, -0.0), 1j], [1j, 0]])]
    for u in products:
        for target in BasisTarget:
            for q in (0, 3):
                want = _exact(_emit_1q(q, u, target))
                assert _exact(emit_1q(q, u, target)) == want      # miss
                assert _exact(emit_1q(q, u, target)) == want      # hit


def test_emit_1q_returns_a_fresh_list_each_call(rng):
    u = _random_su2(rng)
    a = emit_1q(1, u, BasisTarget.SC)
    b = emit_1q(1, u, BasisTarget.SC)
    assert a == b and a is not b
    a.clear()
    assert emit_1q(1, u, BasisTarget.SC) == b


class GateByGate(Lowering):
    """The walk with every CX lowered on its own: a neighbor swap as three
    native CX, each pushing its dressings onto the pending products and
    emitting a fresh entangler."""

    def _native_cx(self, pc, pt):
        pre_c, pre_t, post_c, post_t = self.dressings
        self._push(pc, pre_c)
        if pre_t is not None:
            self._push(pt, pre_t)
        self.flush(pc)
        self.flush(pt)
        if self.target is BasisTarget.SC:
            self.out.append(GateInstance(Gate.ECR, (), (pc, pt)))
        else:
            self.out.append(GateInstance(Gate.RXX, (), (pc, pt), (math.pi / 2,)))
        self._push(pc, post_c)
        self._push(pt, post_t)

    def cx(self, c, t):
        pos = self.pos
        if self.target is BasisTarget.SC:
            while abs(pos[c] - pos[t]) > 1:
                pa = pos[t]
                pb = pa + (1 if pos[c] > pa else -1)
                self._native_cx(pa, pb)
                self._native_cx(pb, pa)
                self._native_cx(pa, pb)
                la, lb = pos.index(pa), pos.index(pb)
                pos[la], pos[lb] = pos[lb], pos[la]
        self._native_cx(pos[c], pos[t])


def _bytes(products: dict) -> dict:
    return {p: None if m is None else m.tobytes() for p, m in products.items()}


def _routed_circuit(rng, width: int) -> Circuit:
    """A rotation on every wire, then a CNOT across the whole chain, an MCX
    whose controls sit at both ends and a CRY back across it."""
    gates = [GateInstance(Gate.RY, (), (q,), (float(rng.uniform(-3, 3)),))
             for q in range(width)]
    gates += [GateInstance(Gate.CNOT, (0,), (width - 1,)),
              GateInstance(Gate.MCX, (width - 1, 0, 2), (1,)),
              GateInstance(Gate.CRY, (width - 2,), (0,),
                           (float(rng.uniform(-3, 3)),))]
    return Circuit(width, tuple(gates), metadata={"work_qubits": [3]})


@pytest.mark.parametrize("width", [5, 6, 7, 8])
def test_swap_block_matches_the_gate_by_gate_walk(rng, width, monkeypatch):
    c = _routed_circuit(rng, width)
    products = [_random_su2(rng) for _ in range(width)]
    for target in BasisTarget:
        walks = []
        for kind in (Lowering, GateByGate):
            walk = kind(c, target)
            # as after a cut: every other wire's first flush goes to its lead
            walk.leads = dict.fromkeys(range(0, width, 2))
            for q, m in enumerate(products):
                walk.u(q, m, tag=q)
            walk.lower(c.gates[width:], width)
            walks.append(walk)
        live, ref = walks
        assert live.out == ref.out
        assert _exact(live.out) == _exact(ref.out)
        assert (live.pos, live.tags) == (ref.pos, ref.tags)
        assert _bytes(live.pending) == _bytes(ref.pending)
        assert _bytes(live.leads) == _bytes(ref.leads)
        for cut in (0, width, width + 1):
            got = decompose(c, target, cut)
            with monkeypatch.context() as m:
                m.setattr(transpile, "Lowering", GateByGate)
                want = decompose(c, target, cut)
            assert got.gates == want.gates
            assert _exact(got.gates) == _exact(want.gates)
            assert got.metadata["final_positions"] == \
                want.metadata["final_positions"]
            assert _bytes(got.metadata.get("leads", {})) == \
                _bytes(want.metadata.get("leads", {}))
