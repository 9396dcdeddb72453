"""Device noise models built from published calibration snapshots.

The default recipe converts each reported gate error into a single
depolarizing channel via the average-gate-fidelity relation
p = (1 - F) * d / (d - 1) with d = 2 (one qubit) or 4 (two qubits);
the thermal recipe adds amplitude damping and pure dephasing from
(T1, T2, duration).  Channels attach to post-transpilation native
gates, so a scheme that needs fewer native gates accumulates less
noise; RZ is a frame change and carries none.

Readout error is a per-qubit classical confusion matrix
[[1-P10, P01], [P10, 1-P01]] applied analytically to the measured
ancilla probabilities.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import Gate, GateInstance
from .transpile import BasisTarget


class MissingPairError(Exception):
    """No two-qubit error entry covers a coupling the circuit uses."""


@dataclass(frozen=True)
class QubitCalibration:
    t1: float          # microseconds
    t2: float
    p01: float         # probability of reading 0 given prepared 1
    p10: float
    err_1q: float      # average 1q gate error


@dataclass(frozen=True)
class DeviceCalibration:
    name: str
    qubits: tuple[QubitCalibration, ...]
    pair_errors: dict = field(default_factory=dict)
    all_to_all: bool = False
    default_2q_error: float | None = None

    def __post_init__(self):
        rates = [*self.pair_errors.values(), self.default_2q_error or 0.0]
        for i, q in enumerate(self.qubits):
            if not (q.t1 > 0 and q.t2 > 0):
                raise ValueError(f"qubit {i} needs t1, t2 > 0, got {q.t1}, {q.t2}")
            rates += (q.p01, q.p10, q.err_1q)
        for p in rates:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"error rate out of range: {p}")

    def qubit(self, q: int) -> QubitCalibration:
        if not 0 <= q < len(self.qubits):
            raise MissingPairError(f"{self.name} has no calibration for qubit {q}")
        return self.qubits[q]

    def two_qubit_error(self, a: int, b: int) -> float:
        for key in ((a, b), (b, a)):
            if key in self.pair_errors:
                return self.pair_errors[key]
        if self.default_2q_error is not None:
            return self.default_2q_error
        raise MissingPairError(f"{self.name} has no 2q error for pair ({a}, {b})")

    def scaled(self, alpha: float) -> "DeviceCalibration":
        """All gate errors multiplied by alpha (readout untouched)."""
        qubits = tuple(replace(q, err_1q=min(1.0, q.err_1q * alpha))
                       for q in self.qubits)
        pairs = {k: min(1.0, v * alpha) for k, v in self.pair_errors.items()}
        d2 = None if self.default_2q_error is None else min(
            1.0, self.default_2q_error * alpha)
        return replace(self, qubits=qubits, pair_errors=pairs, default_2q_error=d2)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

class DepolarizingChannel:
    """rho -> (1-p) rho + p * Tr_q(rho) (x) I/2^k over the touched qubits."""

    def __init__(self, qubits: tuple[int, ...], p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"depolarizing p out of range: {p}")
        self.qubits = tuple(qubits)
        self.p = p

    def superop(self) -> np.ndarray:
        """Superoperator on ``qubits``, index order (rows, then columns).

        Shared between equal channels; treat it as read-only.
        """
        return _depolarizing_superop(len(self.qubits), self.p)

    def kraus(self) -> list[np.ndarray]:
        """Explicit Kraus family (for trace-preservation checks)."""
        paulis = [np.eye(2, dtype=complex),
                  np.array([[0, 1], [1, 0]], dtype=complex),
                  np.array([[0, -1j], [1j, 0]]),
                  np.diag([1, -1]).astype(complex)]
        k = len(self.qubits)
        dim = 1 << k
        ops = []
        for combo in range(4 ** k):
            m = np.eye(1, dtype=complex)
            c = combo
            for _ in range(k):
                m = np.kron(m, paulis[c % 4])
                c //= 4
            coeff = math.sqrt(1 - self.p + self.p / (dim * dim)) \
                if combo == 0 else math.sqrt(self.p) / dim
            ops.append(coeff * m)
        return ops


@functools.lru_cache(maxsize=256)
def _depolarizing_superop(k: int, p: float) -> np.ndarray:
    dim = 1 << k
    vec_id = np.eye(dim, dtype=complex).reshape(-1)
    return ((1.0 - p) * np.eye(dim * dim, dtype=complex)
            + (p / dim) * np.outer(vec_id, vec_id))


class KrausChannel:
    """Generic channel from an explicit operator list on one qubit."""

    def __init__(self, qubit: int, operators: list[np.ndarray]):
        self.qubits = (qubit,)
        self.operators = [np.asarray(k, dtype=complex) for k in operators]
        total = sum(k.conj().T @ k for k in self.operators)
        if not np.allclose(total, np.eye(2), atol=1e-12):
            raise ValueError("Kraus operators are not trace preserving")

    def superop(self) -> np.ndarray:
        """Superoperator on the qubit, index order (row, column)."""
        return sum(np.kron(k, k.conj()) for k in self.operators)

    def kraus(self) -> list[np.ndarray]:
        return list(self.operators)


def amplitude_damping(qubit: int, gamma: float) -> KrausChannel:
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]])
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]])
    return KrausChannel(qubit, [k0, k1])


def dephasing(qubit: int, p: float) -> KrausChannel:
    k0 = math.sqrt(1 - p) * np.eye(2)
    k1 = math.sqrt(p) * np.diag([1.0, -1.0])
    return KrausChannel(qubit, [k0, k1])


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------

# Native gate durations in seconds; only the thermal recipe reads them.
_SC_1Q_DURATION = 60e-9
_SC_2Q_DURATION = 660e-9
_ION_1Q_DURATION = 15e-6
_ION_2Q_DURATION = 200e-6

RECIPES = ("depol_only", "depol_plus_thermal")

_NOISELESS = (Gate.RZ,)
_ONE_QUBIT_NATIVE = (Gate.X, Gate.SX, Gate.R)
_TWO_QUBIT_NATIVE = (Gate.ECR, Gate.RXX)


class NoiseModel:
    def __init__(self, cal: DeviceCalibration, recipe: str = "depol_only"):
        if recipe not in RECIPES:
            raise ValueError(f"unknown recipe {recipe!r}")
        self.cal = cal
        self.recipe = recipe

    @property
    def basis(self) -> BasisTarget:
        """Native target the device runs: ION when all-to-all, SC otherwise."""
        return BasisTarget.ION if self.cal.all_to_all else BasisTarget.SC

    def channels_for(self, inst: GateInstance) -> list:
        g = inst.gate
        if g in _NOISELESS:
            return []
        channels: list = []
        if g in _ONE_QUBIT_NATIVE and not inst.controls:
            q = inst.targets[0]
            err = self.cal.qubit(q).err_1q
            p = err * 2.0  # (1-F) d/(d-1), d=2
            channels.append(DepolarizingChannel((q,), min(1.0, p)))
            if self.recipe == "depol_plus_thermal":
                dur = _ION_1Q_DURATION if g is Gate.R else _SC_1Q_DURATION
                channels += self._thermal((q,), dur)
        elif g in _TWO_QUBIT_NATIVE and not inst.controls:
            a, b = inst.targets
            err = self.cal.two_qubit_error(a, b)
            p = err * 4.0 / 3.0  # d=4
            channels.append(DepolarizingChannel((a, b), min(1.0, p)))
            if self.recipe == "depol_plus_thermal":
                dur = _ION_2Q_DURATION if g is Gate.RXX else _SC_2Q_DURATION
                channels += self._thermal((a, b), dur)
        else:
            raise ValueError(
                f"noise model only attaches to native gates, got {g.value}")
        return channels

    def _thermal(self, qubits: tuple[int, ...], duration: float) -> list:
        out = []
        for q in qubits:
            c = self.cal.qubit(q)
            t1 = c.t1 * 1e-6
            t2 = min(c.t2 * 1e-6, 2 * t1)
            gamma = 1.0 - math.exp(-duration / t1)
            out.append(amplitude_damping(q, gamma))
            rate_phi = max(0.0, 1.0 / t2 - 0.5 / t1)
            p_z = 0.5 * (1.0 - math.exp(-duration * rate_phi))
            if p_z > 0:
                out.append(dephasing(q, p_z))
        return out

    def readout_probs(self, q: int) -> tuple[float, float]:
        c = self.cal.qubit(q)
        return (c.p01, c.p10)


# ---------------------------------------------------------------------------
# Built-in profiles
# ---------------------------------------------------------------------------

def _q(t1, t2, p01_pct, p10_pct, err1q_e4) -> QubitCalibration:
    return QubitCalibration(t1, t2, p01_pct / 100.0, p10_pct / 100.0,
                            err1q_e4 * 1e-4)


def builtin_profiles() -> dict[str, DeviceCalibration]:
    brisbane = DeviceCalibration(
        name="ibm-brisbane",
        qubits=(
            _q(230.13, 47.19, 1.07, 7.03, 1.98),
            _q(277.15, 216.71, 1.46, 1.95, 1.24),
            _q(187.00, 70.44, 1.27, 0.58, 2.06),
            _q(289.31, 316.62, 1.75, 3.71, 12.90),
            _q(327.73, 285.37, 1.22, 1.56, 1.90),
            _q(252.21, 216.01, 1.56, 2.00, 2.02),
            _q(286.37, 100.14, 0.78, 1.46, 1.37),
            _q(375.57, 319.88, 0.83, 0.92, 2.08),
        ),
        pair_errors={(4, 5): 4.30e-3, (1, 0): 3.57e-3, (2, 1): 4.39e-3,
                     (3, 2): 13.37e-3, (4, 3): 25.76e-3, (6, 7): 4.44e-3,
                     (6, 5): 5.89e-3, (7, 8): 3.21e-3},
    )
    sherbrook = DeviceCalibration(
        name="ibm-sherbrook",
        qubits=(
            _q(512.8, 304.55, 0.73, 0.92, 4.22),
            _q(281.82, 324.96, 10.54, 11.67, 12.8),
            _q(224.95, 194.79, 14.74, 15.82, 2.31),
            _q(178.94, 214.92, 3.36, 3.17, 2.04),
            _q(269.13, 500.95, 3.76, 2.05, 1.44),
            _q(296.69, 303.84, 3.22, 4.39, 1.96),
            _q(124.46, 123.99, 13.28, 8.88, 41.9),
            _q(282.8, 162.34, 10.54, 9.66, 2.88),
        ),
        pair_errors={(1, 0): 14.91e-3, (1, 2): 6.13e-3, (3, 2): 4.63e-3,
                     (4, 3): 4.79e-3, (5, 4): 3.88e-3, (6, 5): 71.81e-3,
                     (7, 6): 100.96e-3},
    )
    # The CZ column doubles as the generic entangler error.
    kingston_cz = {(0, 1): 2.08e-3, (1, 2): 2.42e-3, (2, 3): 2.52e-3,
                   (3, 4): 2.13e-3, (4, 5): 1.48e-3, (5, 6): 1.46e-3,
                   (6, 7): 6.98e-3}
    kingston = DeviceCalibration(
        name="ibm-kingston",
        qubits=(
            _q(381.83, 410.94, 2.19, 4.88, 2.93),
            _q(318.63, 502.68, 0.83, 0.73, 2.77),
            _q(303.25, 116.85, 0.43, 0.58, 1.07),
            _q(363.83, 469.64, 0.97, 0.58, 3.92),
            _q(210.52, 85.45, 1.12, 1.90, 1.77),
            _q(406.03, 248.17, 0.73, 0.34, 1.14),
            _q(227.77, 117.05, 0.92, 0.83, 3.58),
            _q(351.20, 194.05, 3.32, 2.34, 2.70),
        ),
        pair_errors=kingston_cz,
    )
    ibex = DeviceCalibration(
        name="aqt-ibex",
        qubits=tuple(QubitCalibration(1e7, 1e6, 0.0, 0.0, 3e-4)
                     for _ in range(12)),
        all_to_all=True,
        default_2q_error=1.3e-2,
    )
    return {c.name: c for c in (brisbane, sherbrook, kingston, ibex)}


def load_calibration_csv(path: str, name: str | None = None) -> DeviceCalibration:
    """Table-shaped CSV: one row per qubit with columns qubit, t1, t2,
    p01, p10, err_1q, and optional pair_a, pair_b, err_2q columns adding
    one coupling per row.  A missing column, an unreadable value, or
    qubit indices that are not 0, 1, ... each once raise ValueError."""
    qubits: list[tuple[int, QubitCalibration]] = []
    pairs: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fh:
        try:
            for row in csv.DictReader(fh):
                qubits.append((int(row["qubit"]), QubitCalibration(
                    float(row["t1"]), float(row["t2"]),
                    float(row["p01"]), float(row["p10"]), float(row["err_1q"]))))
                if row.get("pair_a") not in (None, ""):
                    pairs[(int(row["pair_a"]), int(row["pair_b"]))] = float(row["err_2q"])
        except KeyError as exc:
            raise ValueError(f"{path} has no column {exc}") from None
    qubits.sort(key=lambda row: row[0])
    indices = [q for q, _ in qubits]
    if indices != list(range(len(qubits))):
        raise ValueError(f"{path} needs one row for each of qubits "
                         f"0..{len(qubits) - 1}, got qubits {indices}")
    return DeviceCalibration(name or path, tuple(c for _, c in qubits), pairs)
