"""Sequential grid-based explicit optimization (coordinate descent).

Every gate carrying a parameter here (RY, controlled-RY and the
single-CNOT controlled block) has matrix entries affine in
{1, cos(lambda/2), sin(lambda/2)}, so the cost bracket along any single
parameter is

    S(lambda) = a + b cos(lambda/2) + c sin(lambda/2),

and its values at the three bindings {0, pi, 2pi} fix the coefficients:
a = (S(0) + S(2pi))/2, b = (S(0) - S(2pi))/2 and c = S(pi) - a.
The slice's optimum is closed-form too, as in Rotosolve and NFT: over
the domain [-pi - pi/32, pi] it lies at 2 atan2(c, b), one of its
antipodes or an endpoint, and costs no further evaluations.

One driver, ``_descend``, sweeps these updates, taking each
coordinate's three slice values from a slice source.  There are two:

* coordinate environments (``_environment_slices``), for noiseless
  modes: a bracket of Re<t|psi(lambda)> over known 2^n targets t.  The
  fit and exact steps take one target, the profile or the Euler update
  ``burgers.step_target``; sampled steps take the five family rows
  M_f^dag psi_t (``burgers.family_targets``) that it sums, and draw
  their shots (``burgers.estimate_bracket``).  The ansatz is one gate per
  parameter, psi = R_{>j} G_j(lambda_j) R_{<j}|0>, so a slice value is
  Re<l_j|G_j(b) r_j>.  One backward pass per sweep stores every
  l_j = R_{>j}^dag t, and the forward pass carries r_j = R_{<j}|0>, so a
  coordinate costs a few 2^n-vector gate actions and inner products per
  target, and no circuit is simulated (the environment trick of NFT and
  Rotosolve).  What does not move is planned once per source: the
  register gate skeleton, each gate's qubits and the three binding
  unitaries G_j(b) of each parameter.  The moving angles, which never
  repeat, bind straight from the table-free ``circuit._target_matrix``
  and are kept nowhere;
* coordinate environments in Liouville space
  (``_noisy_environment_slices``), for noisy modes: the bracket of the
  Hadamard tests of the weighted families, cut after U_lam, at each
  binding.  Each family's lowered tail is carried back to the cut once
  per time step as an observable (``EstimatorMode.tails``).  Once per
  sweep, one backward pass carries the families' observables together
  through the native opening H and U_lam and stores them at each
  parameter's cut; a forward carry holds the density and the lowering
  before parameter j's gate.  A binding lowers only that gate and the
  few after it up to the cut, walks what they emit on n + 1 qubits and
  takes one trace per family (``hadamard.NoisyEnvironments``).  Each
  whole circuit's ``hadamard.noisy_expectation`` is their reference, as
  the whole noiseless circuits of ``gterm_values`` are for the first.

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
* ``transpile.emit_1q`` drops 1-qubit runs that are the identity or a
  bare RZ, so the native gate list (310 or 311 gates for the head
  parameter) and with it the noise change with the binding.  This adds
  about 1e-4 (1.5e-5 on the head parameter, which has no CNOT block).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

# the benchmark's probes wrap build_ansatz ("ansatz.build") and
# gterm_values ("burgers.gterm") here; no step calls the latter, which
# stays bound while the benchmark wraps it
from .ansatz import (AnsatzSpec, Head, ansatz_state, bind_parameter,
                     build_ansatz, register_circuit)
from .burgers import (FAMILIES, BurgersGrid, FieldState,  # noqa: F401
                      estimate_bracket, family_targets, gterm_values,
                      infidelity, step_target, weighted_families)
from .circuit import _target_matrix, gate_unitary, inverse_params
from .hadamard import EstimatorMode, NoisyEnvironments
from .simulator import _apply_matrix

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
    mode: EstimatorMode = field(default_factory=EstimatorMode)

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
    a, b, c = _slice_coeffs(sums)
    peak = 2 * math.atan2(c, b)
    lo, hi = _LAMBDA_DOMAIN
    candidates = [lam for lam in (peak - 2 * math.pi, peak, peak + 2 * math.pi)
                  if lo <= lam <= hi] + [lo, hi]

    def objective(lam: float) -> float:
        s = a + b * math.cos(lam / 2) + c * math.sin(lam / 2)
        return s * s if sign is None else sign * s

    best = max(candidates, key=objective)
    s = reconstruct_bracket(sums, best)
    return best, -s * s


def _descend(params: tuple[float, ...], slices, cfg: SweepConfig,
             sign: float | None = None):
    """Coordinate descent from ``params`` on the bracket S whose slice
    along parameter j at ``params`` is ``slices(params, j)``, its values
    at the bindings: maximizes S^2, or sign * S with ``sign``, until a
    sweep's best cost gains less than ``cfg.tol``.  Each sweep asks for
    the coordinates in order, j = 0, 1, ....  A sampled run does every
    sweep, each update on the running mean of its slice so far, so the
    shot noise of the final angles falls with the sweeps.  Returns the
    iterates as (params, cost), and the trace."""
    sampled = cfg.mode.shots is not None
    means: dict[int, tuple[float, float, float]] = {}
    trace: list[TraceEntry] = []
    iterates: list[tuple[tuple[float, ...], float]] = []
    prev_best = math.inf
    for sweep in range(cfg.sweeps):
        sweep_best = math.inf
        for j in range(len(params)):
            sums = slices(params, j)
            if sampled:
                mean = means.get(j, sums)
                sums = tuple(m + (x - m) / (sweep + 1)
                             for m, x in zip(mean, sums))
                means[j] = sums
            lam, cost = _slice_optimum(sums, sign)
            params = bind_parameter(params, j, lam)
            trace.append(TraceEntry(sweep, j, lam, cost))
            iterates.append((params, cost))
            sweep_best = min(sweep_best, cost)
        if not sampled and prev_best - sweep_best < cfg.tol:
            break
        prev_best = sweep_best
    return iterates, trace


def _environment_slices(spec: AnsatzSpec, targets, bracket):
    """Slice source for S = bracket(values), where ``values`` holds
    Re<t|psi(params)> for each row t of ``targets``, from coordinate
    environments on the register statevector.

    Parameter j drives register gate j + 1 behind the X head, gate j
    behind the RY head.  The source's plan is built once: the register
    gate skeleton, each parameter gate's kind and qubits, its three
    binding unitaries, and the state after the head.  At j = 0 a backward
    pass stores l_j = R_{>j}^dag t for every j and row; each later call
    first applies gate j - 1 at its updated angle to the forward carry
    r = R_{<j}|0>.  So ``_descend``'s order of calls is what keeps the
    carry valid.  Every angle binds straight from the table-free
    ``circuit._target_matrix`` into a copy of its gate's identity frame,
    the unitary ``circuit.gate_unitary`` builds, and is kept nowhere.
    """
    shape = [2] * spec.n
    offset = 1 if spec.head is Head.X else 0
    gates = register_circuit(build_ansatz(
        spec, (0.0,) * spec.parameter_count)).gates
    start = np.zeros(shape, dtype=complex)
    start[(0,) * spec.n] = 1.0
    for inst in gates[:offset]:
        start = _apply_matrix(start, gate_unitary(inst), inst.qubits)
    gates = gates[offset:]
    kinds = [inst.gate for inst in gates]
    qubits = [inst.qubits for inst in gates]
    # every parameter's gate has one target, on the last 2x2 block
    frames = [np.eye(2 << len(inst.controls), dtype=complex) for inst in gates]

    def bind(j, params):
        u = frames[j].copy()
        u[-2:, -2:] = _target_matrix(kinds[j], params)
        return u

    bindings = [[bind(j, (b,)) for b in _BINDINGS] for j in range(len(gates))]
    rows = list(np.asarray(targets, dtype=complex).reshape([-1] + shape))
    lefts, right = [], None

    def slices(params, j):
        nonlocal lefts, right
        if j == 0:
            lefts = [rows]
            for k in range(len(gates) - 1, 0, -1):
                mat = bind(k, inverse_params(kinds[k], (params[k],)))
                lefts.append([_apply_matrix(t, mat, qubits[k])
                              for t in lefts[-1]])
            lefts.reverse()
            right = start
        else:
            right = _apply_matrix(right, bind(j - 1, (params[j - 1],)),
                                  qubits[j - 1])
        phis = (_apply_matrix(right, u, qubits[j]) for u in bindings[j])
        return tuple(bracket([float(np.vdot(t, phi).real) for t in lefts[j]])
                     for phi in phis)
    return slices


def _noisy_environment_slices(grid: BurgersGrid, prev: FieldState,
                              spec: AnsatzSpec, mode: EstimatorMode):
    """Slice source of a noisy step: the bracket from the Hadamard tests of
    the weighted families at each binding (``estimate_bracket``), read
    from Liouville-space coordinate environments.  The families' tails
    are built once, for the step's U_t; at j = 0 a sweep starts
    (``hadamard.NoisyEnvironments``), and each later call first binds
    parameter j - 1 at its updated angle in the forward carry, so, as for
    ``_environment_slices``, ``_descend``'s order of calls keeps it valid.
    """
    families = weighted_families(grid, prev)
    tails = mode.tails(prev.circuit, families)
    env = None

    def slices(params, j):
        nonlocal env
        if j == 0:
            env = NoisyEnvironments(mode, prev.circuit,
                                    build_ansatz(spec, params), tails)
        else:
            env.advance(params[j - 1])
        return tuple(estimate_bracket(grid, prev, dict(zip(families, zs)), mode)
                     for zs in env.values(_BINDINGS))
    return slices


def _step_slices(grid: BurgersGrid, prev: FieldState, spec: AnsatzSpec,
                 mode: EstimatorMode):
    """The slice source of a time step from ``prev`` under ``mode``."""
    if mode.noise is not None:
        return _noisy_environment_slices(grid, prev, spec, mode)
    if mode.shots is not None:
        return _environment_slices(
            spec, family_targets(prev.psi), lambda values: estimate_bracket(
                grid, prev, dict(zip(FAMILIES, values)), mode))
    return _environment_slices(
        spec, [step_target(grid, prev)], itemgetter(0))


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

    sign = 1.0 if prev.lam >= 0 else -1.0
    iterates, trace = _descend(params, _step_slices(grid, prev, spec, cfg.mode),
                               cfg, sign)
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

    Exact overlaps from coordinate environments throughout; state
    preparation happens before any hardware run, so sampling it buys
    nothing.  Failing the threshold returns the best candidate found
    rather than raising.
    """
    target = np.asarray(target, dtype=float).reshape(-1)
    if target.shape != (1 << spec.n,):
        raise ValueError(f"target has dim {target.shape}, expected {1 << spec.n}")

    rng = np.random.default_rng(seed)
    best: FitResult | None = None
    # each descent starts at j = 0, which resets the source's carries
    slices = _environment_slices(spec, [target], itemgetter(0))
    for attempt in range(_FIT_RESTARTS):
        if attempt == 0:
            params = tuple(0.0 for _ in range(spec.parameter_count))
        else:
            params = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
        iterates, _ = _descend(params, slices, SweepConfig(sweeps=40))
        params = iterates[-1][0]
        err = infidelity(ansatz_state(spec, params), target)
        if best is None or err < best.infidelity:
            best = FitResult(params, err, err <= threshold)
        if best.reached_threshold:
            break
    return best
