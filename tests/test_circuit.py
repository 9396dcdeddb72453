import math

import numpy as np
import pytest

from lowdepthqc.circuit import (Circuit, CircuitError, CircuitSyntaxError,
                                Gate, GateInstance, controlled_kind, dagger,
                                format_angle, gate_unitary, parse_circuit,
                                serialize_circuit, target_matrix)
from lowdepthqc.circuit import _target_matrix

from conftest import dense_unitary, random_circuit


def test_round_trip_1000_random_circuits(rng):
    for _ in range(1000):
        width = int(rng.integers(1, 8))
        c = random_circuit(rng, width, int(rng.integers(1, 12)))
        again = parse_circuit(serialize_circuit(c))
        assert again.width == c.width
        assert again.gates == c.gates


def test_serialized_angles_survive_exactly(rng):
    for _ in range(200):
        v = float(rng.uniform(-10, 10)) * 10.0 ** int(rng.integers(-8, 8))
        assert float(format_angle(v)) == v


def test_gate_unitaries_are_unitary(rng):
    for _ in range(300):
        c = random_circuit(rng, 4, 1)
        u = gate_unitary(c.gates[0])
        d = u.shape[0]
        assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


def test_dagger_inverts_dense_unitary(rng):
    gates = (Gate.H, Gate.X, Gate.RY, Gate.RZ, Gate.R, Gate.RXX, Gate.CNOT,
             Gate.MCX, Gate.CRY, Gate.CU_ALT)
    for _ in range(50):
        c = random_circuit(rng, 4, 8, gates=gates)
        u = dense_unitary(c)
        v = dense_unitary(dagger(c))
        assert np.allclose(v @ u, np.eye(16), atol=1e-10)


def test_cu_alt_matrix_identities():
    # cos(l/2) X - sin(l/2) Z, self-inverse, X at l = 0
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    for lam in (0.0, 0.7, math.pi, -2.1):
        inst = GateInstance(Gate.CU_ALT, (0,), (1,), (lam,))
        m = gate_unitary(inst)
        base = m[2:, 2:]
        want = math.cos(lam / 2) * x - math.sin(lam / 2) * z
        assert np.allclose(base, want, atol=1e-12)
        assert np.allclose(base @ base, np.eye(2), atol=1e-12)
    inst0 = GateInstance(Gate.CU_ALT, (0,), (1,), (0.0,))
    assert np.allclose(gate_unitary(inst0)[2:, 2:], x)


def test_parse_errors_carry_line_and_column():
    with pytest.raises(CircuitSyntaxError) as e:
        parse_circuit("qubits 2\nh -> 0\nwat\n")
    assert e.value.line == 3
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("h -> 0\n")          # missing header
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 0\n")
    with pytest.raises(CircuitError):
        parse_circuit("qubits 2\nh -> 5\n")  # out of range
    with pytest.raises(CircuitError):
        parse_circuit("qubits 2\nry -> 0\n")  # missing angle


def test_comments_and_blank_lines_are_ignored():
    c = parse_circuit("# preamble\n\nqubits 2\nh -> 0   # tail comment\n\ncnot 0 -> 1\n")
    assert c.width == 2
    assert [g.gate for g in c.gates] == [Gate.H, Gate.CNOT]


def test_instance_validation():
    with pytest.raises(CircuitError):
        GateInstance(Gate.CNOT, (), (1,))           # control required
    with pytest.raises(CircuitError):
        GateInstance(Gate.CNOT, (1,), (1,))         # overlap
    with pytest.raises(CircuitError):
        GateInstance(Gate.RY, (), (0,), ())         # angle count
    with pytest.raises(CircuitError):
        GateInstance(Gate.RY, (), (0,), (float("nan"),))
    with pytest.raises(CircuitError):
        Circuit(2, (GateInstance(Gate.H, (), (3,)),))


@pytest.mark.parametrize("bad", [3, 7, -1])
def test_first_gate_off_the_wires_is_named(bad):
    valid = (GateInstance(Gate.H, (), (0,)), GateInstance(Gate.CNOT, (0,), (2,)),
             GateInstance(Gate.RY, (), (1,), (0.3,)))
    offenders = (GateInstance(Gate.CNOT, (1,), (bad,)),
                 GateInstance(Gate.X, (), (-2,)))
    with pytest.raises(CircuitError) as exc:
        Circuit(3, valid + offenders)
    assert str(exc.value) == f"cnot touches qubit {bad}, circuit width is 3"


def test_mcx_cnot_control_normalization():
    mcx = GateInstance(Gate.MCX, (0, 1), (2,))
    assert mcx.with_controls((0,)).gate is Gate.CNOT
    cnot = GateInstance(Gate.CNOT, (0,), (2,))
    assert cnot.with_controls((0, 1)).gate is Gate.MCX
    assert cnot.with_controls(()).gate is Gate.X
    x = GateInstance(Gate.X, (), (2,))
    assert x.with_controls((0,)).gate is Gate.CNOT
    assert x.with_controls((0, 1)).gate is Gate.MCX
    cry = GateInstance(Gate.CRY, (0,), (1,), (0.3,))
    assert cry.with_controls(()) == GateInstance(Gate.RY, (), (1,), (0.3,))
    with pytest.raises(CircuitError):
        GateInstance(Gate.CU_ALT, (0,), (1,), (0.3,)).with_controls(())


def test_gate_table_arity():
    assert len(Gate) == 13
    assert Gate("cnot") is Gate.CNOT and Gate.CNOT.value == "cnot"
    for g in Gate:
        m = target_matrix(g, (0.1,) * g.n_params)
        assert m.shape == (2 ** g.n_targets,) * 2, g
        controls = tuple(range(g.base_controls))
        targets = tuple(range(g.base_controls, g.base_controls + g.n_targets))
        GateInstance(g, controls, targets, (0.1,) * g.n_params)
        with pytest.raises(CircuitError):
            GateInstance(g, controls, targets, (0.1,) * (g.n_params + 1))
        with pytest.raises(CircuitError):
            GateInstance(g, controls, targets + (9,), (0.1,) * g.n_params)
        if g.base_controls:
            with pytest.raises(CircuitError):
                GateInstance(g, (), targets, (0.1,) * g.n_params)


def test_control_count_rule():
    for gate in (Gate.X, Gate.CNOT, Gate.MCX):
        assert [controlled_kind(gate, k) for k in range(4)] == \
            [Gate.X, Gate.CNOT, Gate.MCX, Gate.MCX]
    for gate in (Gate.RY, Gate.CRY):
        assert [controlled_kind(gate, k) for k in range(3)] == \
            [Gate.RY, Gate.CRY, Gate.CRY]
    others = set(Gate) - {Gate.X, Gate.CNOT, Gate.MCX, Gate.RY, Gate.CRY}
    for gate in others:
        assert all(controlled_kind(gate, k) is gate for k in range(3))


def test_target_matrix_table_is_exact_and_read_only(rng):
    # invert_gate makes -0.0 from a zero angle; its matrix differs in the
    # sign of a zero, so the table must keep the two apart
    assert _target_matrix(Gate.RZ, (-0.0,)).tobytes() != \
        _target_matrix(Gate.RZ, (0.0,)).tobytes()
    # each key twice: the second call of each is answered by the table
    for params in ((-0.0,), (0.0,), (-0.0,), (0.0,)):
        assert target_matrix(Gate.RZ, params).tobytes() == \
            _target_matrix(Gate.RZ, params).tobytes()
    for g in Gate:
        for _ in range(5):
            params = tuple(rng.uniform(-7, 7, g.n_params))
            for _call in range(2):
                m = target_matrix(g, params)
                want = _target_matrix(g, params)
                assert m.dtype == want.dtype and m.shape == want.shape
                assert m.tobytes() == want.tobytes(), g
    m = target_matrix(Gate.H, ())
    with pytest.raises(ValueError):
        m[0, 0] = 0
