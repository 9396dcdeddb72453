import numpy as np
import pytest

from lowdepthqc.circuit import Circuit, Gate, GateInstance
from lowdepthqc.elision import (NotHadamardForm, detect_hadamard_form,
                                elide_body, statevector_deviation)

CONTROLLED_BODY = (Gate.CNOT, Gate.MCX, Gate.CRY, Gate.CU_ALT)


def random_hadamard_form(rng, n: int, length: int, imaginary=False) -> Circuit:
    """H sandwich with a body of controlled gates over register wires 1..n.

    Roughly half the body gates carry an extra ancilla control; the rest
    are ancilla-controlled register rotations/flips.
    """
    gates = [GateInstance(Gate.H, (), (0,))]
    for _ in range(length):
        g = CONTROLLED_BODY[rng.integers(len(CONTROLLED_BODY))]
        params = tuple(rng.uniform(-np.pi, np.pi, g.n_params))
        if rng.random() < 0.5 and n >= 2:
            # register-controlled, with the ancilla stacked on top
            qs = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            controls = (0, int(qs[0]))
            target = int(qs[1])
            if g is Gate.CNOT:
                g = Gate.MCX
        else:
            controls = (0,)
            target = int(rng.integers(1, n + 1))
            if g is Gate.MCX:
                g = Gate.CNOT
        gates.append(GateInstance(g, controls, (target,), params))
    if imaginary:
        gates.append(GateInstance(Gate.S_DAG, (), (0,)))
    gates.append(GateInstance(Gate.H, (), (0,)))
    return Circuit(n + 1, tuple(gates), ancilla=0)


def test_elision_preserves_full_statevector(rng):
    for trial in range(100):
        n = int(rng.integers(2, 7))
        c = random_hadamard_form(rng, n, int(rng.integers(3, 20)),
                                 imaginary=bool(rng.integers(2)))
        reduced = elide_body(c, detect_hadamard_form(c))
        assert statevector_deviation(c, reduced) <= 1e-10


def test_elision_strips_only_double_controls(rng):
    c = random_hadamard_form(rng, 4, 12)
    reduced = elide_body(c, detect_hadamard_form(c))
    for a, b in zip(c.gates, reduced.gates):
        if len(a.controls) > 1 and 0 in a.controls:
            assert 0 not in b.controls
            assert len(b.controls) == len(a.controls) - 1
        else:
            assert a == b


def test_detection_finds_imaginary_variant(rng):
    c = random_hadamard_form(rng, 3, 5, imaginary=True)
    assert c.gates[-2].gate is Gate.S_DAG
    # accepted only as the closing S-dagger: one elsewhere in the body
    # targets the ancilla uncontrolled and is rejected
    assert detect_hadamard_form(c) == 0


def test_detection_rejects_missing_sandwich():
    with pytest.raises(NotHadamardForm):
        detect_hadamard_form(Circuit(2, (), ancilla=0))
    bad = Circuit(2, (GateInstance(Gate.X, (), (0,)),
                      GateInstance(Gate.H, (), (0,))), ancilla=0)
    with pytest.raises(NotHadamardForm):
        detect_hadamard_form(bad)


def test_detection_rejects_uncontrolled_register_gate():
    c = Circuit(2, (GateInstance(Gate.H, (), (0,)),
                    GateInstance(Gate.X, (), (1,)),
                    GateInstance(Gate.H, (), (0,))), ancilla=0)
    with pytest.raises(NotHadamardForm):
        detect_hadamard_form(c)


def test_detection_rejects_ancilla_target():
    c = Circuit(3, (GateInstance(Gate.H, (), (0,)),
                    GateInstance(Gate.CNOT, (1,), (0,)),
                    GateInstance(Gate.H, (), (0,))), ancilla=0)
    with pytest.raises(NotHadamardForm):
        detect_hadamard_form(c)


def test_ancilla_only_controls_are_kept():
    c = Circuit(2, (GateInstance(Gate.H, (), (0,)),
                    GateInstance(Gate.CNOT, (0,), (1,)),
                    GateInstance(Gate.H, (), (0,))), ancilla=0)
    reduced = elide_body(c, detect_hadamard_form(c))
    assert reduced.gates == c.gates
