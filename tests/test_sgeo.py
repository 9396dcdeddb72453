import math

import numpy as np
import pytest

from lowdepthqc.ansatz import (AnsatzSpec, Head, Variant, ansatz_state,
                               bind_parameter, build_ansatz)
from lowdepthqc.burgers import (BurgersGrid, FieldState, bracket_oracle,
                                evaluate_cost_direct, gterm_values, infidelity,
                                initial_condition_gaussian)
from lowdepthqc.hadamard import EstimatorMode
from lowdepthqc.sgeo import (_LAMBDA_DOMAIN, SweepConfig, _slice_optimum,
                             fit_initial_state, optimize_step,
                             reconstruct_bracket, reconstruction_coeffs)

BINDINGS = (0.0, math.pi, 2 * math.pi)


def test_coefficients_interpolate_the_bindings():
    for lam, want in zip(BINDINGS, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        assert np.allclose(reconstruction_coeffs(lam), want, atol=1e-15)


def test_reconstruction_is_exact_along_every_parameter(rng):
    spec = AnsatzSpec(3, 2, Variant.CRY, Head.RY)
    grid = BurgersGrid(3, 0.0125, 1e-3)
    p_t = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    prev = FieldState(1.3, np.real(ansatz_state(spec, p_t)),
                      build_ansatz(spec, p_t))
    params = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    mode = EstimatorMode.exact()
    for j in range(spec.parameter_count):
        sums = tuple(
            sum(gterm_values(grid, prev,
                             build_ansatz(spec, bind_parameter(params, j, b)),
                             mode))
            for b in BINDINGS)
        for lam in rng.uniform(-math.pi, math.pi, 16):
            direct = evaluate_cost_direct(
                grid, prev, build_ansatz(spec, bind_parameter(params, j, lam)))
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
    start_cost = evaluate_cost_direct(grid, prev, build_ansatz(spec, fit.params))
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
