import math

import numpy as np
import pytest

from lowdepthqc.ansatz import AnsatzSpec, Head, Variant, build_ansatz
from lowdepthqc.circuit import Gate
from lowdepthqc.elision import detect_hadamard_form
from lowdepthqc.hadamard import (AdderSpec, EstimatorMode, GTermKind,
                                 NoisyEnvironments, adder_gates, adder_matrix,
                                 apportion_shots, build_gterm_circuit,
                                 gterm_oracle)
from lowdepthqc.noise import NoiseModel, builtin_profiles
from lowdepthqc.simulator import ancilla_expectation_z, run_statevector


def _random_pair(rng, n, variant=None, head=None):
    variant = variant or list(Variant)[rng.integers(2)]
    head = head or list(Head)[rng.integers(2)]
    d = int(rng.integers(1, 4))
    spec = AnsatzSpec(n, d, variant, head)
    mk = lambda: build_ansatz(
        spec, rng.uniform(-math.pi, math.pi, spec.parameter_count))
    return mk(), mk()


def _whole_circuit(circuit):
    """A Hadamard test's exact ancilla <Z>, its whole circuit simulated."""
    return ancilla_expectation_z(run_statevector(circuit), circuit.ancilla)


def _estimate(kind, u_t, u_lam, mode, **kwargs):
    return mode.evaluate(_whole_circuit(
        build_gterm_circuit(kind, u_t, u_lam, **kwargs)))


def test_adder_is_cyclic_shift():
    for n in range(1, 5):
        dim = 1 << n
        want_plus = np.roll(np.eye(dim), -1, axis=0)
        assert np.array_equal(adder_matrix(AdderSpec(n, "plus")), want_plus)
        assert np.array_equal(adder_matrix(AdderSpec(n, "minus")), want_plus.T)


def test_adder_circuit_truth_table():
    from lowdepthqc.circuit import Circuit, Gate, GateInstance

    for n in range(1, 5):
        for direction in ("plus", "minus"):
            spec = AdderSpec(n, direction)
            gates = adder_gates(spec, list(range(n)))
            m = adder_matrix(spec)
            for k in range(1 << n):
                # |k> from X gates; qubit 0 is the most significant bit
                prep = [GateInstance(Gate.X, (), (q,)) for q in range(n)
                        if (k >> (n - 1 - q)) & 1]
                out = run_statevector(Circuit(n, tuple(prep + gates))).amps
                assert np.allclose(out, m[:, k]), (n, direction, k)


def test_adder_direction_validation():
    with pytest.raises(ValueError):
        AdderSpec(2, "sideways")


def test_gterm_circuits_match_dense_oracle(rng):
    for trial in range(30):
        n = int(rng.integers(2, 5))
        u_t, u_lam = _random_pair(rng, n)
        for kind in GTermKind:
            for direction in (("plus",) if kind is GTermKind.OVERLAP
                              else ("plus", "minus")):
                got = _estimate(kind, u_t, u_lam, EstimatorMode(),
                                direction=direction)
                want = gterm_oracle(kind, u_t, u_lam, direction=direction)
                assert abs(got - want) <= 1e-10, (kind, direction, n)


def test_gterm_imaginary_part(rng):
    u_t, u_lam = _random_pair(rng, 2)
    got = _estimate(GTermKind.OVERLAP, u_t, u_lam, EstimatorMode(),
                    imaginary=True)
    want = gterm_oracle(GTermKind.OVERLAP, u_t, u_lam, imaginary=True)
    assert abs(got - want) <= 1e-10


def test_gterm_circuit_is_valid_hadamard_form(rng):
    u_t, u_lam = _random_pair(rng, 3)
    for elide in (True, False):
        c = build_gterm_circuit(GTermKind.SHIFT_DIAG, u_t, u_lam, elide=elide)
        assert detect_hadamard_form(c) == 0


def test_elided_and_unelided_gterm_agree(rng):
    u_t, u_lam = _random_pair(rng, 3)
    for kind in GTermKind:
        a = _estimate(kind, u_t, u_lam, EstimatorMode())
        c = build_gterm_circuit(kind, u_t, u_lam, elide=False)
        b = _whole_circuit(c)
        assert abs(a - b) <= 1e-12


def test_gterm_widths(rng):
    u_t, u_lam = _random_pair(rng, 4)
    assert build_gterm_circuit(GTermKind.OVERLAP, u_t, u_lam).width == 5
    assert build_gterm_circuit(GTermKind.SHIFT, u_t, u_lam).width == 7
    assert build_gterm_circuit(GTermKind.SHIFT_DIAG, u_t, u_lam).width == 11


def test_sampled_estimator_converges(rng):
    u_t, u_lam = _random_pair(rng, 2)
    exact = _estimate(GTermKind.OVERLAP, u_t, u_lam, EstimatorMode())
    mode = EstimatorMode(shots=200_000, rng=np.random.default_rng(11))
    approx = _estimate(GTermKind.OVERLAP, u_t, u_lam, mode)
    assert abs(approx - exact) < 0.01


def test_apportion_shots_is_exact_and_proportional():
    assert apportion_shots(10, (1.0, 1.0)) == (5, 5)
    assert apportion_shots(10, (1.0, 1.0, 1.0)) == (4, 3, 3)   # ties: earlier
    assert apportion_shots(7, (0.0, -2.0, 5.0)) == (0, 2, 5)   # sign-blind
    assert apportion_shots(6, (0.0, 0.0)) == (3, 3)
    assert apportion_shots(100, (1e-6, 1.0)) == (1, 99)         # floor of one
    for total in (5, 17, 2500, 100_000):
        counts = apportion_shots(total, (1.78, 0.13, 0.13, 3.33, 3.33))
        assert sum(counts) == total and min(counts) >= 1
    for total, weights in ((1, (1.0, 1.0)), (1, (0.0, 0.0))):
        with pytest.raises(ValueError):
            apportion_shots(total, weights)


def test_cut_tests_need_the_structure_of_u_t():
    mode = EstimatorMode(noise=NoiseModel(builtin_profiles()["aqt-ibex"]))
    spec = AnsatzSpec(2, 1, Variant.CU_ALT, Head.RY)
    u_t = build_ansatz(spec, (0.1, 0.2, 0.3))
    tails = mode.tails(u_t, [(GTermKind.OVERLAP, "plus")])
    env = NoisyEnvironments(mode, u_t, build_ansatz(spec, (0.4, 0.5, 0.6)),
                            tails)
    assert [len(values) for values in env.values([0.4])] == [1]
    other = build_ansatz(AnsatzSpec(2, 1, Variant.CRY, Head.RY), (0.4, 0.5, 0.6))
    with pytest.raises(ValueError, match="gate structure"):
        NoisyEnvironments(mode, u_t, other, tails)
