"""Sequential grid-based explicit optimization (coordinate descent).

Every gate carrying a parameter here (RY, controlled-RY and the
single-CNOT controlled block) has matrix entries affine in
{1, cos(lambda/2), sin(lambda/2)}, so the cost bracket along any single
parameter is determined by its values at the three bindings
{0, pi, 2pi}:

    S(lambda) = c0(lambda) S(0) + cpi(lambda) S(pi) + c2pi(lambda) S(2pi)

with c0 = (1 + cos(l/2) - sin(l/2))/2, cpi = sin(l/2) and
c2pi = (1 - cos(l/2) - sin(l/2))/2.  Fifteen circuit estimates per
parameter (the five estimator families at each of the three bindings)
therefore buy the whole 1-D cost slice in closed form.  Its optimum is
closed-form too, as in Rotosolve and NFT: the slice is
a + b cos(l/2) + c sin(l/2), so the optimum over the domain
[-pi - pi/32, pi] lies at 2 atan2(c, b), one of its antipodes or an
endpoint, and costs no further quantum evaluations.

The reconstruction is exact for the ideal circuits, so for the exact
and the sampled estimators.  Under a noise model it is not, for two
reasons (measured on aqt-ibex, n=3, d=3, cu_alt, without shots):

* the single-CNOT block lowers to RY(-l/2) MCX RY(l/2), and the noise
  channels between the two rotations add cos(l) and sin(l) terms to the
  slice, which three bindings cannot resolve.  The reconstructed bracket
  misses the directly evaluated one by 4.4e-3 to 1.6e-2, depending on
  the state and the parameter;
* ``transpile._emit_1q`` drops 1-qubit runs that are the identity or a
  bare RZ, so the native gate list (310 or 311 gates for the head
  parameter) and with it the noise change with the binding.  This adds
  about 1e-4 (1.5e-5 on the head parameter, which has no CNOT block).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ansatz import AnsatzSpec, ansatz_state, bind_parameter, build_ansatz
from .burgers import (BurgersGrid, FieldState, GTermBundle, gterm_values,
                      infidelity)
from .hadamard import EstimatorMode

_BINDINGS = (0.0, math.pi, 2 * math.pi)


def reconstruction_coeffs(lam: float) -> tuple[float, float, float]:
    c = math.cos(lam / 2)
    s = math.sin(lam / 2)
    return (0.5 * (1 + c - s), s, 0.5 * (1 - c - s))


def _slice_bracket(sums: tuple[float, float, float], lam: float) -> float:
    s0, spi, s2pi = sums
    c0, cpi, c2pi = reconstruction_coeffs(lam)
    return c0 * s0 + cpi * spi + c2pi * s2pi


def reconstruct_bracket(bundle: GTermBundle, lam: float) -> float:
    return _slice_bracket(bundle.sums, lam)


def reconstruct_cost(bundle: GTermBundle, lam: float) -> float:
    s = reconstruct_bracket(bundle, lam)
    return -s * s


@dataclass(frozen=True)
class SweepConfig:
    sweeps: int = 10
    tol: float = 1e-8
    mode: EstimatorMode = field(default_factory=EstimatorMode.exact)

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError(f"need sweeps >= 1, got {self.sweeps}")


@dataclass(frozen=True)
class TraceEntry:
    sweep: int
    param_index: int
    value: float
    cost: float


@dataclass(frozen=True)
class OptimizeResult:
    params: tuple[float, ...]
    cost: float
    bracket: float
    trace: tuple[TraceEntry, ...]


# The lambda domain of every coordinate update.  It reaches pi/32 below
# -pi because the former 64-point grid search did: its refinement cell
# around the first grid point spanned one grid step (2 pi/64) below it.
# The acceptance verdicts depend on this reach; [-pi, pi] turns criterion
# 8 to FAIL and the full 4 pi period turns criterion 4 to FAIL.
_LAMBDA_DOMAIN = (-math.pi - math.pi / 32, math.pi)


def _slice_optimum(sums: tuple[float, float, float],
                   sign: float | None = None) -> tuple[float, float]:
    """Closed-form optimum of the slice over ``_LAMBDA_DOMAIN``.

    S(l) = a + b cos(l/2) + c sin(l/2) with a = (S0 + S2pi)/2,
    b = (S0 - S2pi)/2 and c = Spi - a, so the extrema of S are at
    l = 2 atan2(c, b) and its antipodes l -/+ 2 pi; those inside the
    domain and the two endpoints are the only candidates.  Maximizes
    S^2, or sign * S with ``sign``, which keeps the bracket on that
    sign's branch.  Either way the returned cost is -S^2.
    """
    s0, spi, s2pi = sums
    a = (s0 + s2pi) / 2
    b = (s0 - s2pi) / 2
    c = spi - a
    peak = 2 * math.atan2(c, b)
    lo, hi = _LAMBDA_DOMAIN
    candidates = [lam for lam in (peak - 2 * math.pi, peak, peak + 2 * math.pi)
                  if lo <= lam <= hi] + [lo, hi]

    def objective(lam: float) -> float:
        s = a + b * math.cos(lam / 2) + c * math.sin(lam / 2)
        return s * s if sign is None else sign * s

    best = max(candidates, key=objective)
    s = _slice_bracket(sums, best)
    return best, -s * s


def _best_of_last(entries: list[tuple[tuple[float, ...], float, float]],
                  window: int = 5):
    """The retained iterate is the best of the last few coordinate updates,
    a guard against a shot-noise stumble on the final coordinate."""
    tail = entries[-window:]
    return min(tail, key=lambda e: e[1])


def optimize_step(grid: BurgersGrid, prev: FieldState, spec: AnsatzSpec,
                  lam_init, cfg: SweepConfig) -> OptimizeResult:
    """One variational time step: coordinate descent over all parameters.

    Each update maximizes the bracket on the branch that keeps the sign of
    ``prev.lam``: the cost -S^2 cannot tell a state from its negation, and
    the next Lambda is the signed bracket.  With a sampled estimator every
    one of ``cfg.sweeps`` sweeps runs, and each parameter's update uses
    the running mean of its slice over the sweeps so far, so the shot
    noise of the final angles falls with the number of sweeps instead of
    staying at that of the last sweep's draw.
    """
    params = tuple(float(v) for v in lam_init)
    if len(params) != spec.parameter_count:
        raise ValueError(
            f"expected {spec.parameter_count} parameters, got {len(params)}")
    sign = 1.0 if prev.lam >= 0 else -1.0
    sampled = cfg.mode.shots is not None
    slices: dict[int, tuple[float, float, float]] = {}
    trace: list[TraceEntry] = []
    iterates: list[tuple[tuple[float, ...], float, float]] = []
    prev_best = math.inf
    for sweep in range(cfg.sweeps):
        for j in range(len(params)):
            triples = []
            for binding in _BINDINGS:
                u_lam = build_ansatz(spec, bind_parameter(params, j, binding))
                triples.append(gterm_values(grid, prev, u_lam, cfg.mode))
            sums = GTermBundle(*triples).sums
            if sampled:
                mean = slices.get(j, sums)
                sums = tuple(m + (x - m) / (sweep + 1)
                             for m, x in zip(mean, sums))
                slices[j] = sums
            best_lam, best_cost = _slice_optimum(sums, sign)
            params = bind_parameter(params, j, best_lam)
            bracket = _slice_bracket(sums, best_lam)
            trace.append(TraceEntry(sweep, j, best_lam, best_cost))
            iterates.append((params, best_cost, bracket))
        if sampled:
            continue
        sweep_best = min(e.cost for e in trace if e.sweep == sweep)
        if prev_best - sweep_best < cfg.tol:
            break
        prev_best = sweep_best
    final_params, final_cost, final_bracket = _best_of_last(iterates)
    return OptimizeResult(final_params, final_cost, final_bracket, tuple(trace))


# ---------------------------------------------------------------------------
# Initial-state fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    params: tuple[float, ...]
    infidelity: float
    reached_threshold: bool


def _overlap_bracket(target: np.ndarray, spec: AnsatzSpec, params) -> float:
    return float(np.real(np.vdot(target, ansatz_state(spec, params))))


def fit_initial_state(target: np.ndarray, spec: AnsatzSpec,
                      cfg: SweepConfig | None = None,
                      threshold: float = 1e-6, restarts: int = 8,
                      seed: int = 0) -> FitResult:
    """SGEO against the pure-overlap cost C = -[Re<target|psi(lambda)>]^2.

    Exact statevector overlaps throughout; state preparation happens
    before any hardware run, so sampling it buys nothing.  Failing the
    threshold returns the best candidate found rather than raising.
    """
    target = np.asarray(target, dtype=float).reshape(-1)
    if target.shape != (1 << spec.n,):
        raise ValueError(f"target has dim {target.shape}, expected {1 << spec.n}")
    cfg = cfg or SweepConfig(sweeps=40)
    rng = np.random.default_rng(seed)
    best: FitResult | None = None
    for attempt in range(restarts):
        if attempt == 0:
            params = tuple(0.0 for _ in range(spec.parameter_count))
        else:
            params = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
        prev_cost = math.inf
        for _ in range(cfg.sweeps):
            for j in range(len(params)):
                sums = tuple(
                    _overlap_bracket(target, spec, bind_parameter(params, j, b))
                    for b in _BINDINGS)
                lam, cost = _slice_optimum(sums)
                params = bind_parameter(params, j, lam)
            if prev_cost - cost < cfg.tol:
                break
            prev_cost = cost
        err = infidelity(ansatz_state(spec, params), target)
        if best is None or err < best.infidelity:
            best = FitResult(params, err, err <= threshold)
        if best.reached_threshold:
            break
    return best
