import math

import numpy as np
import pytest

from lowdepthqc import burgers, sgeo
from lowdepthqc.ansatz import (AnsatzSpec, Head, Variant, ansatz_state,
                               bind_parameter, build_ansatz)
from lowdepthqc.burgers import (FAMILIES, BurgersGrid, FieldState,
                                bracket_oracle, bracket_weights, family_shots,
                                family_targets, gterm_values, infidelity,
                                initial_condition_gaussian)
from lowdepthqc.hadamard import EstimatorMode, build_gterm_circuit
from lowdepthqc.sgeo import (_BINDINGS, _LAMBDA_DOMAIN, SweepConfig,
                             _environment_slices, _slice_optimum, _step_slices,
                             fit_initial_state, optimize_step,
                             reconstruct_bracket)
from lowdepthqc.simulator import (ShotConfig, ancilla_expectation_z,
                                  run_statevector, sample_from_expectation)

def test_reconstruction_is_exact_along_every_parameter(rng):
    spec = AnsatzSpec(3, 2, Variant.CRY, Head.RY)
    grid = BurgersGrid(3, 0.0125, 1e-3)
    p_t = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    prev = FieldState(1.3, np.real(ansatz_state(spec, p_t)),
                      build_ansatz(spec, p_t))
    params = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    mode = EstimatorMode()
    for j in range(spec.parameter_count):
        sums = tuple(
            gterm_values(grid, prev,
                         build_ansatz(spec, bind_parameter(params, j, b)), mode)
            for b in _BINDINGS)
        for lam in rng.uniform(-math.pi, math.pi, 16):
            direct = -gterm_values(
                grid, prev, build_ansatz(spec, bind_parameter(params, j, lam)),
                mode) ** 2
            s = reconstruct_bracket(sums, lam)
            assert abs(-s * s - direct) <= 1e-10


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(sweeps=0)


def test_optimize_step_decreases_cost(rng):
    spec = AnsatzSpec(2, 1, Variant.CRY, Head.RY)
    grid = BurgersGrid(2, 0.01, 1e-3)
    ic = initial_condition_gaussian(grid, 0.3)
    fit = fit_initial_state(ic.psi, spec, seed=1)
    prev = FieldState(ic.lam, np.real(ansatz_state(spec, fit.params)),
                      build_ansatz(spec, fit.params))
    start_cost = -gterm_values(grid, prev, build_ansatz(spec, fit.params),
                               EstimatorMode()) ** 2
    res = optimize_step(grid, prev, spec, fit.params, SweepConfig(sweeps=5))
    assert res.cost <= start_cost + 1e-12
    # the Lambda a run takes from these parameters
    oracle = bracket_oracle(grid, prev, np.real(ansatz_state(spec, res.params)))
    assert res.cost == pytest.approx(-oracle ** 2, abs=1e-9)
    assert res.trace[0].sweep == 0


def test_optimize_step_rejects_bad_parameter_count():
    spec = AnsatzSpec(2, 1, Variant.CRY, Head.X)
    grid = BurgersGrid(2, 0.01, 1e-3)
    ic = initial_condition_gaussian(grid, 0.3)
    prev = FieldState(ic.lam, ic.psi, build_ansatz(spec, (0.0, 0.0)))
    with pytest.raises(ValueError):
        optimize_step(grid, prev, spec, (0.0,), SweepConfig())


def test_plant_and_recover_fit(rng):
    # a state the ansatz can express exactly is recovered to optimizer
    # resolution (coordinate descent stalls at flat plateaus ~1e-5)
    spec = AnsatzSpec(3, 2, Variant.CRY, Head.RY)
    planted = tuple(rng.uniform(-2.0, 2.0, spec.parameter_count))
    target = np.real(ansatz_state(spec, planted))
    res = fit_initial_state(target, spec, threshold=1e-4, seed=4)
    assert res.reached_threshold
    assert res.infidelity <= 1e-4


def test_fit_gaussian_reaches_deep_infidelity():
    grid = BurgersGrid(3, 0.0125, 1e-3)
    ic = initial_condition_gaussian(grid, 0.3)
    spec = AnsatzSpec(3, 3, Variant.CRY, Head.RY)
    res = fit_initial_state(ic.psi, spec, threshold=1e-6, seed=0)
    assert res.infidelity <= 1e-4


def test_fit_validates_dimension():
    spec = AnsatzSpec(3, 2, Variant.CRY, Head.RY)
    with pytest.raises(ValueError):
        fit_initial_state(np.ones(4) / 2.0, spec)


def test_signed_search_stays_on_its_branch():
    # S(l) = -0.5 + sin(l/2): |S| peaks at S = -1.5 (l = -pi), while the
    # largest S on the positive branch is 0.5 (l = pi)
    sums = (-0.5, 0.5, -0.5)
    lam, cost = _slice_optimum(sums)
    assert lam == pytest.approx(-math.pi, abs=1e-6)
    assert cost == pytest.approx(-2.25, abs=1e-9)
    lam, cost = _slice_optimum(sums, sign=1.0)
    assert lam == pytest.approx(math.pi, abs=1e-6)
    assert cost == pytest.approx(-0.25, abs=1e-9)


def test_closed_form_optimum_beats_a_dense_scan(rng):
    lo, hi = _LAMBDA_DOMAIN
    scan = np.linspace(lo, hi, 1 << 17)   # scan error < 1e-9 for these slices
    c, s = np.cos(scan / 2), np.sin(scan / 2)
    coeffs = np.array([(1 + c - s) / 2, s, (1 - c - s) / 2])
    for sums in rng.uniform(-1.0, 1.0, (200, 3)):
        sums = tuple(sums)
        scanned = sums @ coeffs
        for sign in (None, 1.0, -1.0):
            lam, cost = _slice_optimum(sums, sign)
            s = reconstruct_bracket(sums, lam)
            assert lo <= lam <= hi
            assert cost == -s * s
            if sign is None:
                got, best = s * s, np.max(scanned ** 2)
            else:
                got, best = sign * s, np.max(sign * scanned)
            assert best - 1e-12 <= got <= best + 1e-9


def test_sampled_step_runs_every_sweep():
    # noisy costs cannot signal convergence, so no sweep is cut short
    spec = AnsatzSpec(2, 1, Variant.CRY, Head.RY)
    grid = BurgersGrid(2, 0.01, 1e-3)
    ic = initial_condition_gaussian(grid, 0.3)
    fit = fit_initial_state(ic.psi, spec, seed=1)
    prev = FieldState(ic.lam, np.real(ansatz_state(spec, fit.params)),
                      build_ansatz(spec, fit.params))
    cfg = SweepConfig(sweeps=4,
                      mode=EstimatorMode(shots=300,
                                         rng=np.random.default_rng(2)))
    res = optimize_step(grid, prev, spec, fit.params, cfg)
    assert len(res.trace) == 4 * spec.parameter_count
    assert bracket_oracle(grid, prev,
                          np.real(ansatz_state(spec, res.params))) > 0


def _whole_circuit(circuit):
    """A Hadamard test's exact ancilla <Z>, its whole circuit simulated."""
    return ancilla_expectation_z(run_statevector(circuit), circuit.ancilla)


def _binding_slices(bracket):
    """Slice source that evaluates ``bracket(params)`` at each binding."""
    def slices(params, j):
        return tuple(bracket(bind_parameter(params, j, b)) for b in _BINDINGS)
    return slices


def _sweep_both(spec, env, circ, rng):
    """Largest gap between two slice sources over one sweep in which each
    coordinate moves to a random angle after its slice is taken, so the
    environment's forward carry sees every update."""
    params = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    worst = 0.0
    for j in range(spec.parameter_count):
        got, want = env(params, j), circ(params, j)
        worst = max(worst, float(np.max(np.abs(np.subtract(got, want)))))
        params = bind_parameter(params, j, rng.uniform(-math.pi, math.pi))
    return worst


@pytest.mark.parametrize("head", list(Head))
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_environment_slices_match_the_circuit_path(n, variant, head, rng):
    """The exact step's slices, each family's value against its rows of
    ``family_targets`` and the fit's overlaps from coordinate environments
    equal those of whole circuits."""
    spec = AnsatzSpec(n, 2, variant, head)
    grid = BurgersGrid(n, 0.01, 1e-2)
    p_t = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    prev = FieldState(1.3, np.real(ansatz_state(spec, p_t)),
                      build_ansatz(spec, p_t))
    mode = EstimatorMode()
    step = _step_slices(grid, prev, spec, mode)
    circuits = _binding_slices(
        lambda p: gterm_values(grid, prev, build_ansatz(spec, p), mode))
    assert _sweep_both(spec, step, circuits, rng) <= 1e-12

    families = _environment_slices(spec, family_targets(prev.psi), tuple)
    tests = _binding_slices(lambda p: tuple(
        _whole_circuit(build_gterm_circuit(kind, prev.circuit,
                                           build_ansatz(spec, p),
                                           direction=direction))
        for kind, direction in FAMILIES))
    assert _sweep_both(spec, families, tests, rng) <= 1e-12

    target = rng.normal(size=1 << n)
    target /= np.linalg.norm(target)
    fit = _environment_slices(spec, [target], lambda values: values[0])
    overlaps = _binding_slices(
        lambda p: float(np.real(np.vdot(target, ansatz_state(spec, p)))))
    assert _sweep_both(spec, fit, overlaps, rng) <= 1e-12


@pytest.mark.parametrize("nu", [0.01, 0.0])
def test_sampled_bracket_draws_as_the_whole_circuits_do(rng, nu):
    """Per binding, a sampled step's bracket from coordinate environments
    equals the one sampled from each whole circuit's exact value, drawing
    the same shots from an identically seeded stream in ``FAMILIES``
    order; at nu = 0 the shift families weigh 0 and draw nothing."""
    g = BurgersGrid(3, 0.2, nu)
    spec = AnsatzSpec(3, 2, Variant.CU_ALT, Head.RY)
    p_t = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    prev = FieldState(1.3, np.real(ansatz_state(spec, p_t)),
                      build_ansatz(spec, p_t))
    mode = EstimatorMode(shots=400, rng=np.random.default_rng(7))
    reference = np.random.default_rng(7)
    slices = _step_slices(g, prev, spec, mode)
    params = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    for j in range(spec.parameter_count):
        got = slices(params, j)
        for b, s in zip(_BINDINGS, got):
            u_lam = build_ansatz(spec, bind_parameter(params, j, b))
            want = 0.0
            for (kind, direction), weight, count in zip(
                    FAMILIES, bracket_weights(g, prev.lam),
                    family_shots(g, prev, mode.shots)):
                if weight != 0:
                    z = _whole_circuit(build_gterm_circuit(
                        kind, prev.circuit, u_lam, direction=direction))
                    want += weight * sample_from_expectation(
                        z, ShotConfig(count), reference)
            assert abs(s - want) <= 1e-12
        assert mode.rng.bit_generator.state == reference.bit_generator.state
        params = bind_parameter(params, j, rng.uniform(-math.pi, math.pi))
    live = sum(w != 0 for w in bracket_weights(g, prev.lam))
    assert mode.circuits == 3 * live * spec.parameter_count


def test_exact_mode_builds_no_hadamard_test_circuit(monkeypatch):
    """Neither an exact nor a sampled noiseless step builds a circuit."""
    class Built(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Built

    monkeypatch.setattr(sgeo, "gterm_values", refuse)
    monkeypatch.setattr(burgers, "build_gterm_circuit", refuse)
    spec = AnsatzSpec(3, 2, Variant.CRY, Head.RY)
    grid = BurgersGrid(3, 0.0125, 1e-3)
    ic = initial_condition_gaussian(grid, 0.3)
    fit = fit_initial_state(ic.psi, spec, seed=1)
    prev = FieldState(ic.lam, np.real(ansatz_state(spec, fit.params)),
                      build_ansatz(spec, fit.params))
    res = optimize_step(grid, prev, spec, fit.params, SweepConfig(sweeps=3))
    assert len(res.trace) >= spec.parameter_count
    sampled = SweepConfig(sweeps=2, mode=EstimatorMode(
        shots=50, rng=np.random.default_rng(0)))
    res = optimize_step(grid, prev, spec, fit.params, sampled)
    assert len(res.trace) == 2 * spec.parameter_count
    assert sampled.mode.circuits == 2 * 3 * 5 * spec.parameter_count
