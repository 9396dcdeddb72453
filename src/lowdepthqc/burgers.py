"""Viscous Burgers' equation on a periodic grid of [0, 1), quantum-state encoded.

The velocity field u is carried as u = Lambda * psi with psi a normalized
(real) state of n qubits.  One explicit-Euler step with central
differences is the matrix

    u' = [Lambda + l1 (A + A^dag - 2 I) - l2 D (A - A^dag)] psi,

where A is the cyclic shift with (A psi)_k = psi_{k+1}, D = diag(psi),
l1 = Lambda*tau*nu / (2 dx^2) and l2 = Lambda^2*tau / (2 dx).  The
variational step minimizes the negated squared projection of that target
onto the ansatz state, C(lambda) = -S^2, where the bracket

    S = sum_f w_f <Z>_f

runs over the five Hadamard-test ``FAMILIES`` (overlap, shift+/-,
shift_diag+/-) with the signed weights of ``bracket_weights``.  The
signed bracket at the optimum is the next Lambda.  ``estimate_bracket``
draws S from the families' exact values, which a noiseless run reads
against the rows of ``family_targets``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .hadamard import (AdderSpec, EstimatorMode, GTermKind, adder_matrix,
                       apportion_shots, build_gterm_circuit)
from .simulator import ancilla_expectation_z, run_statevector


# An exact run's coordinate environments hold (d n + 2) 2^n complex128
# values, under 0.5 GB at n = 16 with the default depth d = 2n - 3; a
# sampled run holds five times that.
MAX_GRID_QUBITS = 16


@dataclass(frozen=True)
class BurgersGrid:
    n: int
    tau: float
    nu: float

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GRID_QUBITS:
            raise ValueError(
                f"need 1 <= n <= {MAX_GRID_QUBITS}, got {self.n}")
        if not (0 < self.tau < math.inf and 0 <= self.nu < math.inf):
            raise ValueError(f"need finite tau > 0 and nu >= 0, got {self.tau}, {self.nu}")

    @property
    def points(self) -> int:
        return 1 << self.n

    @property
    def delta_x(self) -> float:
        return 1 / self.points

    @property
    def xs(self) -> np.ndarray:
        return self.delta_x * np.arange(self.points)


@dataclass(frozen=True)
class FieldState:
    """Velocity field u = lam * psi plus the circuit that prepares psi.

    ``circuit`` is the ansatz-form preparation (ancilla wire 0); it is
    what the measurement circuits conjugate by, and may be None for
    purely classical states.
    """

    lam: float
    psi: np.ndarray
    circuit: Circuit | None = None

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        object.__setattr__(self, "psi", psi)
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"psi must be normalized, |psi| = {norm}")

    @property
    def velocity(self) -> np.ndarray:
        return self.lam * self.psi


# The five estimator families of the bracket, in the order of their weights.
FAMILIES = ((GTermKind.OVERLAP, "plus"),
            (GTermKind.SHIFT, "plus"), (GTermKind.SHIFT, "minus"),
            (GTermKind.SHIFT_DIAG, "plus"), (GTermKind.SHIFT_DIAG, "minus"))


def bracket_weights(grid: BurgersGrid, lam: float) -> tuple[float, ...]:
    """Signed weights (Lambda - 2 l1, l1, l1, l2, -l2) of the ``FAMILIES``."""
    dx = grid.delta_x
    l1 = lam * grid.tau * grid.nu / (2 * dx * dx)
    l2 = lam * lam * grid.tau / (2 * dx)
    return (lam - 2 * l1, l1, l1, l2, -l2)


def initial_condition_gaussian(grid: BurgersGrid, sigma: float) -> FieldState:
    """Unit-height Gaussian bump centered mid-domain."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    u = np.exp(-((grid.xs - 0.5) ** 2) / (2 * sigma * sigma))
    lam = float(np.linalg.norm(u))
    return FieldState(lam, u / lam)


def classical_step(grid: BurgersGrid, u: np.ndarray) -> np.ndarray:
    """Pointwise explicit-Euler update of the raw velocity vector."""
    u = np.asarray(u, dtype=float)
    up = np.roll(u, -1)   # u_{k+1}
    um = np.roll(u, 1)    # u_{k-1}
    dx = grid.delta_x
    diffusion = grid.tau * grid.nu * (up + um - 2 * u) / (2 * dx * dx)
    advection = grid.tau * u * (up - um) / (2 * dx)
    return u + diffusion - advection


def step_matrix(grid: BurgersGrid, state: FieldState) -> np.ndarray:
    """Dense update operator; classical_step(u) == step_matrix @ psi."""
    dim = grid.points
    ap = adder_matrix(AdderSpec(grid.n, "plus"))
    am = ap.T
    _, l1, _, l2, _ = bracket_weights(grid, state.lam)
    d = np.diag(state.psi)
    return (state.lam * np.eye(dim) + l1 * (ap + am - 2 * np.eye(dim))
            - l2 * d @ (ap - am))


def classical_trajectory(grid: BurgersGrid, u0: np.ndarray,
                         steps: int) -> np.ndarray:
    """Array of shape (steps + 1, N) holding u at every time slice."""
    out = np.empty((steps + 1, grid.points))
    out[0] = u0
    for k in range(steps):
        out[k + 1] = classical_step(grid, out[k])
    return out


# ---------------------------------------------------------------------------
# Cost assembly
# ---------------------------------------------------------------------------

def family_targets(psi: np.ndarray) -> np.ndarray:
    """The rows M_f^dag psi of the ``FAMILIES``, so that family f's test of a
    state phi has ancilla <Z> = Re<row_f|phi>: psi, A^dag psi, A psi,
    D A^dag psi and D A psi, with D = diag(psi)."""
    after, before = np.roll(psi, 1), np.roll(psi, -1)
    return np.array([psi, after, before, psi * after, psi * before])


def estimate_bracket(grid: BurgersGrid, prev: FieldState, values,
                     mode: EstimatorMode) -> float:
    """The bracket S from the exact value ``values[family]`` of each of the
    ``FAMILIES`` of nonzero weight, one ``mode.evaluate`` test each.  A
    sampled ``mode`` spends ``5 * mode.shots`` shots on them, split by the
    weights (``family_shots``), and draws them in ``FAMILIES`` order.
    """
    s = 0.0
    for family, weight, count in zip(FAMILIES, bracket_weights(grid, prev.lam),
                                     family_shots(grid, prev, mode.shots)):
        if weight != 0:
            s += weight * mode.evaluate(values[family], shots=count)
    return s


def gterm_values(grid: BurgersGrid, prev: FieldState, u_lam: Circuit,
                 mode: EstimatorMode) -> float:
    """The bracket S from the Hadamard tests of the families of nonzero
    weight (``estimate_bracket``), each circuit simulated whole and
    noiseless: the reference for coordinate environments.  A noisy
    ``mode`` raises a ValueError; a noisy step reads its tests from
    ``hadamard.NoisyEnvironments``, whose reference is
    ``hadamard.noisy_expectation``.
    """
    if mode.noise is not None:
        raise ValueError("gterm_values simulates noiseless circuits only")
    families = weighted_families(grid, prev)
    tests = (build_gterm_circuit(kind, prev.circuit, u_lam, direction=direction)
             for kind, direction in families)
    zs = [ancilla_expectation_z(run_statevector(c), c.ancilla) for c in tests]
    return estimate_bracket(grid, prev, dict(zip(families, zs)), mode)


def weighted_families(grid: BurgersGrid, prev: FieldState) -> list[tuple]:
    """The ``FAMILIES`` of nonzero weight, the Hadamard tests a step runs
    from ``prev``, whose preparation circuit they conjugate by."""
    if prev.circuit is None:
        raise ValueError("previous state carries no preparation circuit")
    return [family for family, weight in zip(
        FAMILIES, bracket_weights(grid, prev.lam)) if weight != 0]


def family_shots(grid: BurgersGrid, prev: FieldState,
                 shots: int | None) -> tuple[int | None, ...]:
    """Shots for each of the ``FAMILIES`` at one binding.

    For equal per-shot variances, the split of a fixed budget that
    minimizes the bracket's shot-noise variance is proportional to the
    weight magnitudes, so ``5 * shots`` is apportioned that way and
    ``shots`` stays the mean per circuit.  ``None`` (no sampling) passes
    through.
    """
    if shots is None:
        return (None,) * len(FAMILIES)
    return apportion_shots(len(FAMILIES) * shots,
                           bracket_weights(grid, prev.lam))


def bracket_oracle(grid: BurgersGrid, prev: FieldState,
                   psi_lam: np.ndarray) -> float:
    """Dense-matrix value of the bracket: Re <psi_lam| M |psi_t>."""
    target = step_matrix(grid, prev) @ prev.psi
    return float(np.real(np.vdot(psi_lam, target)))


def infidelity(psi_opt: np.ndarray, psi_classical: np.ndarray) -> float:
    """1 - |<classical|opt>|^2, clipped to [0, 1] against rounding; NaN
    when the overlap is not finite, as from a run that diverged."""
    a = np.asarray(psi_opt).reshape(-1)
    b = np.asarray(psi_classical).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    f = abs(np.vdot(b, a)) ** 2
    if not math.isfinite(f):
        return math.nan
    return float(min(1.0, max(0.0, 1.0 - f)))
