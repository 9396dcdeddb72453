"""Sequential grid-based explicit optimization (coordinate descent).

Every gate carrying a parameter here (RY, controlled-RY and the
single-CNOT controlled block) has matrix entries affine in
{1, cos(lambda/2), sin(lambda/2)}, so the cost bracket along any single
parameter is

    S(lambda) = a + b cos(lambda/2) + c sin(lambda/2),

and its values at the three bindings {0, pi, 2pi} fix the coefficients:
a = (S(0) + S(2pi))/2, b = (S(0) - S(2pi))/2 and c = S(pi) - a.
Fifteen circuit estimates per parameter (the five estimator families at
each of the three bindings) therefore buy the whole 1-D cost slice in
closed form.  Its optimum is closed-form too, as in Rotosolve and NFT:
over the domain [-pi - pi/32, pi] it lies at 2 atan2(c, b), one of its
antipodes or an endpoint, and costs no further quantum evaluations.

One driver, ``_descend``, sweeps these updates for both callers, which
differ only in their bracket: ``optimize_step`` estimates the Burgers
bracket, and ``fit_initial_state`` takes the overlap with its target.

The reconstruction is exact for the ideal circuits, so for the exact
and the sampled estimators.  Under a noise model it is not, for two
reasons (measured on aqt-ibex, n=3, d=3, cu_alt, without shots):

* elision drops a ring gate's ancilla control on the premise that the
  register is |0...0> in the ancilla-|0> branch.  Noise breaks that
  premise, so U_lam acts on both branches, and the slice gains cos(l)
  and sin(l) terms, which three bindings cannot resolve.  The
  reconstructed bracket misses the directly evaluated one by 4.4e-3 to
  1.6e-2, depending on the state and the parameter.  The local
  depolarizing channels between the two rotations of a lowered block
  are not the cause: they commute past those rotations;
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
from .burgers import BurgersGrid, FieldState, gterm_values, infidelity
from .hadamard import EstimatorMode

_BINDINGS = (0.0, math.pi, 2 * math.pi)
# Descents of the initial fit: one from zero angles, then random restarts.
_FIT_RESTARTS = 8


def _slice_coeffs(sums: tuple[float, float, float]) -> tuple[float, float, float]:
    """(a, b, c) of the slice from its values ``sums`` at the bindings."""
    s0, spi, s2pi = sums
    a = (s0 + s2pi) / 2
    return a, (s0 - s2pi) / 2, spi - a


def reconstruct_bracket(sums: tuple[float, float, float], lam: float) -> float:
    """The slice S(lam) from its values ``sums`` at the bindings 0, pi, 2pi."""
    a, b, c = _slice_coeffs(sums)
    return a + b * math.cos(lam / 2) + c * math.sin(lam / 2)


@dataclass(frozen=True)
class SweepConfig:
    sweeps: int = 10
    mode: EstimatorMode = field(default_factory=EstimatorMode.exact)

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError(f"need sweeps >= 1, got {self.sweeps}")

    @property
    def tol(self) -> float:
        """Least gain in a sweep's best cost that earns another sweep."""
        return 1e-4 if self.mode.noise is not None else 1e-8


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

    The extrema of S(l) = a + b cos(l/2) + c sin(l/2) are at
    l = 2 atan2(c, b) and its antipodes l -/+ 2 pi; those inside the
    domain and the two endpoints are the only candidates.  Maximizes
    S^2, or sign * S with ``sign``, which keeps the bracket on that
    sign's branch.  Either way the returned cost is -S^2.
    """
    _, b, c = _slice_coeffs(sums)
    peak = 2 * math.atan2(c, b)
    lo, hi = _LAMBDA_DOMAIN
    candidates = [lam for lam in (peak - 2 * math.pi, peak, peak + 2 * math.pi)
                  if lo <= lam <= hi] + [lo, hi]

    def objective(lam: float) -> float:
        s = reconstruct_bracket(sums, lam)
        return s * s if sign is None else sign * s

    best = max(candidates, key=objective)
    s = reconstruct_bracket(sums, best)
    return best, -s * s


def _descend(params: tuple[float, ...], bracket, cfg: SweepConfig,
             sign: float | None = None):
    """Coordinate descent from ``params`` on the bracket S = ``bracket(p)``:
    maximizes S^2, or sign * S with ``sign``, until a sweep's best cost
    gains less than ``cfg.tol``.  A sampled run does every sweep, each
    update on the running mean of its slice so far, so the shot noise of
    the final angles falls with the sweeps.  Returns the iterates as
    (params, cost), and the trace."""
    sampled = cfg.mode.shots is not None
    slices: dict[int, tuple[float, float, float]] = {}
    trace: list[TraceEntry] = []
    iterates: list[tuple[tuple[float, ...], float]] = []
    prev_best = math.inf
    for sweep in range(cfg.sweeps):
        sweep_best = math.inf
        for j in range(len(params)):
            sums = tuple(bracket(bind_parameter(params, j, b)) for b in _BINDINGS)
            if sampled:
                mean = slices.get(j, sums)
                sums = tuple(m + (x - m) / (sweep + 1)
                             for m, x in zip(mean, sums))
                slices[j] = sums
            lam, cost = _slice_optimum(sums, sign)
            params = bind_parameter(params, j, lam)
            trace.append(TraceEntry(sweep, j, lam, cost))
            iterates.append((params, cost))
            sweep_best = min(sweep_best, cost)
        if not sampled and prev_best - sweep_best < cfg.tol:
            break
        prev_best = sweep_best
    return iterates, trace


def _best_of_last(iterates: list[tuple[tuple[float, ...], float]]):
    """The best of the last five coordinate updates, a guard against a
    shot-noise stumble on the final coordinate."""
    return min(iterates[-5:], key=lambda e: e[1])


def optimize_step(grid: BurgersGrid, prev: FieldState, spec: AnsatzSpec,
                  lam_init, cfg: SweepConfig) -> OptimizeResult:
    """One variational time step on the bracket that ``cfg.mode`` estimates.

    Each update keeps the sign of ``prev.lam``: the cost -S^2 cannot tell a
    state from its negation, and the next Lambda is the signed bracket.
    """
    params = tuple(float(v) for v in lam_init)
    if len(params) != spec.parameter_count:
        raise ValueError(
            f"expected {spec.parameter_count} parameters, got {len(params)}")

    def bracket(p):
        return gterm_values(grid, prev, build_ansatz(spec, p), cfg.mode)

    sign = 1.0 if prev.lam >= 0 else -1.0
    iterates, trace = _descend(params, bracket, cfg, sign)
    return OptimizeResult(*_best_of_last(iterates), tuple(trace))


# ---------------------------------------------------------------------------
# Initial-state fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    params: tuple[float, ...]
    infidelity: float
    reached_threshold: bool


def fit_initial_state(target: np.ndarray, spec: AnsatzSpec,
                      threshold: float = 1e-6, seed: int = 0) -> FitResult:
    """Up to ``_FIT_RESTARTS`` descents of up to 40 sweeps on
    S = Re<target|psi(lambda)>, each keeping its last iterate, from zero
    angles and then random restarts.

    Exact statevector overlaps throughout; state preparation happens
    before any hardware run, so sampling it buys nothing.  Failing the
    threshold returns the best candidate found rather than raising.
    """
    target = np.asarray(target, dtype=float).reshape(-1)
    if target.shape != (1 << spec.n,):
        raise ValueError(f"target has dim {target.shape}, expected {1 << spec.n}")

    def bracket(p):
        return float(np.real(np.vdot(target, ansatz_state(spec, p))))

    rng = np.random.default_rng(seed)
    best: FitResult | None = None
    for attempt in range(_FIT_RESTARTS):
        if attempt == 0:
            params = tuple(0.0 for _ in range(spec.parameter_count))
        else:
            params = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
        iterates, _ = _descend(params, bracket, SweepConfig(sweeps=40))
        params = iterates[-1][0]
        err = infidelity(ansatz_state(spec, params), target)
        if best is None or err < best.infidelity:
            best = FitResult(params, err, err <= threshold)
        if best.reached_threshold:
            break
    return best
