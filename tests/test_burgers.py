import math

import numpy as np
import pytest

from lowdepthqc.ansatz import (AnsatzSpec, Head, Variant, ansatz_state,
                               bind_parameter, build_ansatz)
from lowdepthqc import burgers
from lowdepthqc.burgers import (FAMILIES, BurgersGrid, FieldState,
                                bracket_oracle, bracket_weights,
                                classical_step, classical_trajectory,
                                family_shots, gterm_values, infidelity,
                                initial_condition_gaussian, step_matrix)
from lowdepthqc.hadamard import (AdderSpec, EstimatorMode, GTermKind,
                                 adder_matrix, build_gterm_circuit,
                                 noisy_expectation)
from lowdepthqc.noise import NoiseModel, builtin_profiles
from lowdepthqc.sgeo import _BINDINGS, _step_slices
from lowdepthqc.simulator import (ShotConfig, ancilla_expectation_z,
                                  run_statevector, sample_from_expectation)


def test_grid_geometry():
    g = BurgersGrid(3, 0.0125, 1e-3)
    assert g.points == 8
    assert g.delta_x == pytest.approx(0.125)
    assert g.xs[0] == 0.0 and g.xs[-1] == pytest.approx(0.875)
    with pytest.raises(ValueError):
        BurgersGrid(0, 0.1, 1e-3)
    with pytest.raises(ValueError):
        BurgersGrid(3, -0.1, 1e-3)


def test_field_state_requires_normalization():
    with pytest.raises(ValueError):
        FieldState(1.0, np.array([1.0, 1.0]))
    s = FieldState(2.0, np.array([1.0, 0.0]))
    assert np.allclose(s.velocity, [2.0, 0.0])


def test_gaussian_initial_condition():
    g = BurgersGrid(4, 0.01, 1e-3)
    ic = initial_condition_gaussian(g, 0.3)
    u = ic.velocity
    assert u.max() == pytest.approx(1.0, abs=1e-2)   # unit bump
    assert int(np.argmax(u)) == g.points // 2        # centered
    assert ic.lam == pytest.approx(np.linalg.norm(u))


def test_classical_step_matches_matrix_form(rng):
    # pointwise update == dense matrix applied to psi, 100 random fields
    for trial in range(100):
        n = int(rng.integers(2, 6))
        g = BurgersGrid(n, float(rng.uniform(0.001, 0.05)),
                        float(rng.uniform(0.0, 0.1)))
        u = rng.normal(size=g.points)
        u /= np.linalg.norm(u) * float(rng.uniform(0.5, 2.0))
        lam = float(np.linalg.norm(u))
        state = FieldState(lam, u / lam)
        direct = classical_step(g, u)
        via_matrix = step_matrix(g, state) @ state.psi
        assert np.max(np.abs(direct - via_matrix)) <= 1e-12


def test_classical_trajectory_shape_and_diffusion():
    g = BurgersGrid(4, 0.005, 0.5)
    ic = initial_condition_gaussian(g, 0.2)
    traj = classical_trajectory(g, ic.velocity, 30)
    assert traj.shape == (31, 16)
    # strong diffusion flattens the bump
    assert traj[-1].max() < traj[0].max()


def test_cost_bracket_matches_dense_oracle(rng):
    for variant in Variant:
        spec = AnsatzSpec(3, 2, variant, Head.RY)
        g = BurgersGrid(3, 0.0125, 1e-2)
        p_t = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
        p_l = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
        u_t = build_ansatz(spec, p_t)
        u_lam = build_ansatz(spec, p_l)
        prev = FieldState(1.7, np.real(ansatz_state(spec, p_t)), u_t)
        got = gterm_values(g, prev, u_lam, EstimatorMode())
        want = bracket_oracle(g, prev, np.real(ansatz_state(spec, p_l)))
        assert abs(got - want) <= 1e-10
        cost = -gterm_values(g, prev, u_lam, EstimatorMode()) ** 2
        assert cost == pytest.approx(-want * want)


def test_cost_coefficients(rng):
    g = BurgersGrid(3, 0.0125, 1e-3)
    dx = g.delta_x
    l1 = 2.0 * g.tau * g.nu / (2 * dx * dx)
    l2 = 4.0 * g.tau / (2 * dx)
    assert bracket_weights(g, 2.0) == pytest.approx(
        (2.0 - 2 * l1, l1, l1, l2, -l2))
    # the weighted families make up the step operator: family f measures
    # Re<psi_t| M_f |psi_lam>, so step_matrix = sum_f w_f M_f^T
    psi = rng.normal(size=g.points)
    state = FieldState(2.0, psi / np.linalg.norm(psi))
    total = np.zeros((g.points, g.points))
    for (kind, direction), w in zip(FAMILIES, bracket_weights(g, state.lam)):
        m = np.eye(g.points)
        if kind is not GTermKind.OVERLAP:
            m = adder_matrix(AdderSpec(g.n, direction))
        if kind is GTermKind.SHIFT_DIAG:
            m = m @ np.diag(state.psi)
        total += w * m.T
    assert np.allclose(total, step_matrix(g, state), atol=1e-12)


def test_infidelity_bounds():
    e = np.array([1.0, 0.0])
    assert infidelity(e, e) == 0.0
    assert infidelity(e, np.array([0.0, 1.0])) == 1.0
    # a diverged state has no fidelity, not a perfect one
    assert math.isnan(infidelity(np.array([np.nan, 0.0]), e))
    assert math.isnan(infidelity(np.array([np.inf, 0.0]), e))
    with pytest.raises(ValueError):
        infidelity(e, np.ones(3))


class _ShotLog(EstimatorMode):
    """Estimator that records the exact value and shot count of every test."""

    def __init__(self, shots):
        super().__init__(shots=shots, rng=np.random.default_rng(0))
        self.spent = []
        self.values = []

    def evaluate(self, z, shots=None):
        self.spent.append(shots)
        self.values.append(z)
        return super().evaluate(z, shots=shots)


def _whole_circuit_values(prev, u_lam, families):
    """Each family's exact ancilla <Z>, its whole circuit simulated."""
    values = []
    for kind, direction in families:
        c = build_gterm_circuit(kind, prev.circuit, u_lam, direction=direction)
        values.append(ancilla_expectation_z(run_statevector(c), c.ancilla))
    return values


def test_binding_shots_follow_bracket_weights():
    # the criterion-8 configuration: n=3, nu=0.01, tau=0.2
    g = BurgersGrid(3, 0.2, 0.01)
    spec = AnsatzSpec(3, 3, Variant.CU_ALT, Head.RY)
    p = tuple(0.1 * k for k in range(spec.parameter_count))
    prev = FieldState(2.04, np.real(ansatz_state(spec, p)),
                      build_ansatz(spec, p))
    weights = np.abs(bracket_weights(g, prev.lam))

    # one shot each, then 2495 by largest remainder of the quotas
    # (510.24, 37.45, 37.45, 954.93, 954.93)
    counts = family_shots(g, prev, 500)
    assert counts == (511, 39, 38, 956, 956)
    assert sum(counts) == 5 * 500
    assert np.all(np.abs(np.array(counts) - 2500 * weights / weights.sum())
                  <= 2.0)
    assert family_shots(g, prev, None) == (None,) * 5

    mode = _ShotLog(500)
    u_lam = build_ansatz(spec, p[::-1])
    gterm_values(g, prev, u_lam, mode)
    assert tuple(mode.spent) == counts
    assert mode.values == _whole_circuit_values(prev, u_lam, FAMILIES)


def test_inviscid_bracket_skips_the_shift_families(rng, monkeypatch):
    # at nu = 0 the shift families weigh 0, so no circuit is built for them
    built = []

    def build(kind, u_t, u_lam, direction="plus"):
        built.append((kind, direction))
        return build_gterm_circuit(kind, u_t, u_lam, direction=direction)

    monkeypatch.setattr(burgers, "build_gterm_circuit", build)
    g = BurgersGrid(3, 0.0125, 0.0)
    spec = AnsatzSpec(3, 2, Variant.CU_ALT, Head.RY)
    p_t = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    p_l = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    prev = FieldState(1.7, np.real(ansatz_state(spec, p_t)),
                      build_ansatz(spec, p_t))
    mode = _ShotLog(None)
    u_lam = build_ansatz(spec, p_l)
    got = gterm_values(g, prev, u_lam, mode)
    live = [FAMILIES[0], FAMILIES[3], FAMILIES[4]]
    assert built == live
    assert mode.values == _whole_circuit_values(prev, u_lam, live)
    want = bracket_oracle(g, prev, np.real(ansatz_state(spec, p_l)))
    assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("profile", ["aqt-ibex", "ibm-brisbane"])
def test_noisy_bracket_draws_as_the_whole_circuits_do(rng, profile):
    """Per binding, a noisy step's bracket from Liouville-space coordinate
    environments equals the one sampled from each whole circuit's
    ``noisy_expectation``, drawing the same shots from an identically
    seeded stream in ``FAMILIES`` order, over two sweeps in which each
    coordinate moves to a random angle after its slice is taken.
    ``gterm_values`` simulates noiseless circuits only."""
    g = BurgersGrid(2, 0.2, 0.01)
    spec = AnsatzSpec(2, 1, Variant.CU_ALT, Head.RY)
    p_t = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    prev = FieldState(1.3, np.real(ansatz_state(spec, p_t)),
                      build_ansatz(spec, p_t))
    model = NoiseModel(builtin_profiles()[profile])
    mode = EstimatorMode(shots=400, noise=model, rng=np.random.default_rng(7))
    reference = np.random.default_rng(7)
    slices = _step_slices(g, prev, spec, mode)
    params = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    for sweep in range(2):
        for j in range(spec.parameter_count):
            got = slices(params, j)
            for b, s in zip(_BINDINGS, got):
                u_lam = build_ansatz(spec, bind_parameter(params, j, b))
                want = 0.0
                for (kind, direction), weight, count in zip(
                        FAMILIES, bracket_weights(g, prev.lam),
                        family_shots(g, prev, mode.shots)):
                    if weight != 0:
                        circ = build_gterm_circuit(kind, prev.circuit, u_lam,
                                                   direction=direction)
                        z = noisy_expectation(circ, model, model.basis)
                        want += weight * sample_from_expectation(
                            z, ShotConfig(count), reference)
                assert abs(s - want) <= 1e-12, (sweep, j, b)
            assert (mode.rng.bit_generator.state
                    == reference.bit_generator.state)
            params = bind_parameter(params, j, rng.uniform(-math.pi, math.pi))
    with pytest.raises(ValueError, match="noiseless"):
        gterm_values(g, prev, build_ansatz(spec, params), mode)
