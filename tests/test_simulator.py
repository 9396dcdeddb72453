import numpy as np
import pytest

from lowdepthqc.circuit import Circuit, CircuitError, Gate, GateInstance
from lowdepthqc.simulator import (DENSITY_QUBIT_CAP, ShotConfig,
                                  ancilla_expectation_z, run_density,
                                  run_statevector, sample_from_expectation)

from conftest import RANDOM_GATES, dense_unitary, random_circuit

# MCX is the only gate kind that can take three or more qubits
AT_MOST_TWO_QUBITS = tuple(g for g in RANDOM_GATES if g is not Gate.MCX)


def test_statevector_matches_dense_oracle(rng):
    for _ in range(60):
        width = int(rng.integers(1, 6))
        c = random_circuit(rng, width, int(rng.integers(1, 15)))
        amps = run_statevector(c).amps
        init = np.zeros(1 << width, dtype=complex)
        init[0] = 1.0
        want = dense_unitary(c) @ init
        assert np.allclose(amps, want, atol=1e-10)


def test_density_matches_statevector_for_pure_evolution(rng):
    for _ in range(20):
        width = int(rng.integers(1, 5))
        c = random_circuit(rng, width, 10, AT_MOST_TWO_QUBITS)
        psi = run_statevector(c).amps
        rho = run_density(c)
        assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-10)


def test_density_cap_enforced():
    big = Circuit(DENSITY_QUBIT_CAP + 1)
    with pytest.raises(CircuitError):
        run_density(big)


def test_density_rejects_a_gate_on_three_qubits():
    c = Circuit(3, (GateInstance(Gate.H, (), (0,)),
                    GateInstance(Gate.MCX, (0, 1), (2,))))
    with pytest.raises(CircuitError, match="at most two qubits"):
        run_density(c)


def test_expectation_z_plus_state():
    c = Circuit(2, (GateInstance(Gate.H, (), (0,)),))
    s = run_statevector(c)
    assert abs(ancilla_expectation_z(s, 0)) < 1e-12
    assert abs(ancilla_expectation_z(s, 1) - 1.0) < 1e-12


def _draw(z, shots, seed):
    return sample_from_expectation(z, ShotConfig(shots),
                                   rng=np.random.default_rng(seed))


def test_sampling_unbiased_within_3_sigma():
    # 1000 independent seeds; the mean of +/-1 shots concentrates at z
    z = 0.3
    shots = 400
    sigma = np.sqrt((1 - z * z) / shots)
    misses = 0
    for seed in range(1000):
        if abs(_draw(z, shots, seed) - z) > 3 * sigma:
            misses += 1
    # P(|est - z| > 3 sigma) ~ 0.27%; 1000 trials stay well under 2%
    assert misses <= 20


def test_sampling_is_seed_deterministic():
    assert _draw(0.1, 500, 7) == _draw(0.1, 500, 7)
    c = Circuit(1, (GateInstance(Gate.RY, (), (0,), (0.8,)),))
    z = ancilla_expectation_z(run_statevector(c), 0)
    assert _draw(z, 300, 3) == _draw(z, 300, 3)


def test_sampling_extremes_are_exact():
    assert _draw(1.0, 100, 0) == 1.0
    assert _draw(-1.0, 100, 0) == -1.0
