"""Exact statevector and density-matrix simulation.

Gates are applied with bit-masked tensor kernels (reshape to a rank-n
tensor, fix control axes at |1>, contract the target axes); no full 2^n
unitary is ever materialized.  Qubit 0 is the most significant bit of the
amplitude index, matching numpy's C-order axis layout.

Density evolution works on superoperators: each gate and the channels a
noise model attaches to it fold into one, 1-qubit runs merge into the next
2-qubit gate, and only the qubits that are live at a gate are simulated.
It takes gates on at most two qubits, as ``transpile.decompose`` emits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitError, gate_unitary, target_matrix

DENSITY_QUBIT_CAP = 12


@dataclass(frozen=True)
class ShotConfig:
    shots: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")


@dataclass
class StateVector:
    n: int
    amps: np.ndarray


@dataclass
class DensityMatrix:
    n: int
    rho: np.ndarray


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def _controlled_slice(tensor: np.ndarray, controls: tuple[int, ...]):
    idx = [slice(None)] * tensor.ndim
    for c in controls:
        idx[c] = 1
    return tuple(idx)


def _sub_axis(axis: int, fixed: tuple[int, ...]) -> int:
    """Axis index inside the subarray after the ``fixed`` axes are removed."""
    return axis - sum(1 for f in fixed if f < axis)


def _apply_single_uncontrolled(tensor, mat, axis):
    """Hot path: uncontrolled 1-qubit matrix via broadcast matmul."""
    left = 1 << axis
    right = tensor.size >> (axis + 1)
    view = tensor.reshape(left, 2, right)
    if mat[0, 1] == 0 and mat[1, 0] == 0:   # diagonal (RZ and friends)
        view *= mat.diagonal().reshape(1, 2, 1)
        return tensor
    if right >= left:
        view[:] = np.matmul(mat, view)
    else:
        # axis near the end: one big gemm beats many tiny batched ones
        moved = view.transpose(1, 0, 2).reshape(2, -1)
        view[:] = np.matmul(mat, moved).reshape(2, left, right).transpose(1, 0, 2)
    return tensor


_PAIR_SWAP = np.array([0, 2, 1, 3])


def _apply_pair_adjacent(tensor, mat, lo):
    """Uncontrolled 2-qubit matrix on adjacent axes (lo, lo + 1)."""
    left = 1 << lo
    right = tensor.size >> (lo + 2)
    view = tensor.reshape(left, 4, right)
    if right >= left:
        view[:] = np.matmul(mat, view)
    else:
        moved = view.transpose(1, 0, 2).reshape(4, -1)
        view[:] = np.matmul(mat, moved).reshape(4, left, right).transpose(1, 0, 2)
    return tensor


def _apply_matrix_tensor(tensor, mat, controls, targets):
    """Apply a gate's target matrix to a rank-(2,...,2) tensor, in place
    where possible."""
    if not controls and len(targets) == 1:
        return _apply_single_uncontrolled(tensor, mat, targets[0])
    if (not controls and len(targets) == 2 and tensor.flags.c_contiguous
            and abs(targets[0] - targets[1]) == 1):
        a, b = targets
        if b == a + 1:
            return _apply_pair_adjacent(tensor, mat, a)
        swapped = mat[np.ix_(_PAIR_SWAP, _PAIR_SWAP)]
        return _apply_pair_adjacent(tensor, swapped, b)
    idx = _controlled_slice(tensor, controls)
    sub = tensor[idx]
    axes = [_sub_axis(t, controls) for t in targets]
    if len(targets) == 1:
        out = np.tensordot(mat, sub, axes=([1], [axes[0]]))
        out = np.moveaxis(out, 0, axes[0])
    else:
        moved = np.moveaxis(sub, axes, (0, 1))
        shape = moved.shape
        flat = moved.reshape(4, -1)
        flat = mat @ flat
        out = np.moveaxis(flat.reshape(shape), (0, 1), axes)
    tensor[idx] = out
    return tensor


def run_statevector(c: Circuit, init: np.ndarray | None = None) -> StateVector:
    """State of applying the gate list in order to |0...0> (or ``init``)."""
    n = c.width
    if init is None:
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = 1.0
    else:
        amps = np.asarray(init, dtype=complex).copy()
        if amps.shape != (1 << n,):
            raise CircuitError(f"init has dimension {amps.shape}, expected {1 << n}")
    tensor = amps.reshape([2] * n)
    for inst in c.gates:
        tensor = _apply_matrix_tensor(tensor, target_matrix(inst.gate, inst.params),
                                      inst.controls, inst.targets)
    return StateVector(n, tensor.reshape(-1))


def ancilla_expectation_z(s: StateVector, ancilla: int) -> float:
    """<sigma_z> on one qubit: sum over bitstrings of (-1)^bit |amp|^2."""
    if not 0 <= ancilla < s.n:
        raise CircuitError(f"ancilla {ancilla} out of range for {s.n} qubits")
    probs = np.abs(s.amps.reshape([2] * s.n)) ** 2
    other = tuple(i for i in range(s.n) if i != ancilla)
    p = probs.sum(axis=other)
    return float(p[0] - p[1])


def sample_from_expectation(exact_z: float, cfg: ShotConfig,
                            rng: np.random.Generator) -> float:
    """Binomial estimate of <sigma_z> from ``cfg.shots`` shots drawn from ``rng``."""
    p0 = min(1.0, max(0.0, (1.0 + exact_z) / 2.0))
    n0 = rng.binomial(cfg.shots, p0)
    return (2 * n0 - cfg.shots) / cfg.shots


# ---------------------------------------------------------------------------
# Density path
# ---------------------------------------------------------------------------

def run_density(c: Circuit, noise=None, keep=None) -> DensityMatrix:
    """rho after interleaving each gate's unitary with its noise channels.

    Every gate acts on at most two qubits; a wider one raises
    CircuitError, so lower the circuit with ``transpile.decompose`` first.
    ``noise`` follows the NoiseModel protocol: ``channels_for(inst)``
    returns channel objects with ``qubits`` (a subset of the gate's
    qubits) and ``superop()``.  ``None`` or an empty model gives the pure-state projector.

    ``keep`` lists the qubits whose reduced state is returned, in that
    order (all of them by default).  Only live qubits are simulated: a
    qubit enters as |0><0| when a gate first acts on it, and a qubit
    outside ``keep`` is traced out after its last multi-qubit gate.  The
    1-qubit gates and channels that follow act on a discarded qubit
    alone, so they cannot change the kept marginal and are skipped.
    """
    n = c.width
    if n > DENSITY_QUBIT_CAP:
        raise CircuitError(
            f"density simulation capped at {DENSITY_QUBIT_CAP} qubits, got {n}")
    from .noise import DepolarizingChannel

    keep = tuple(range(n)) if keep is None else tuple(keep)
    if len(set(keep)) != len(keep) or not all(0 <= q < n for q in keep):
        raise CircuitError(f"keep {keep} is not a set of qubits of {n}")
    last_multi = {}
    for i, inst in enumerate(c.gates):
        qubits = inst.qubits
        if len(qubits) > 2:
            raise CircuitError(
                f"density simulation takes gates on at most two qubits, "
                f"got {inst.gate.value} on {qubits}")
        if len(qubits) == 2:
            for q in qubits:
                last_multi[q] = i

    live: list[int] = []              # simulated qubits, in axis order
    tensor = np.ones((), dtype=complex)

    def allocate(q):
        nonlocal tensor
        if q in live:
            return
        k = len(live)
        grown = np.zeros((1 << k, 2, 1 << k, 2), dtype=complex)
        grown[:, 0, :, 0] = tensor.reshape(1 << k, 1 << k)
        tensor = grown.reshape([2] * (2 * k + 2))
        live.append(q)

    def trace_out(q):
        nonlocal tensor
        a = live.index(q)
        tensor = np.ascontiguousarray(
            np.trace(tensor, axis1=a, axis2=len(live) + a))
        live.remove(q)

    def superop_axes(qubits):
        rows = [live.index(q) for q in qubits]
        return rows + [len(live) + a for a in rows]

    # Each 1-qubit gate and its channels fold into a pending superoperator
    # on its qubit, kept as D(survival) (u (x) u*) s: a 1-qubit
    # depolarizing channel D commutes with every 1-qubit unitary, so runs
    # of unitaries and depolarizing channels only multiply u and the
    # survival factor; other channels fold into the 4x4 s.  A 2-qubit
    # gate absorbs the pending superoperators of both its qubits and its
    # own channels into one 16x16 superoperator, so the density tensor is
    # touched once per 2-qubit gate.
    pending: dict[int, list] = {}

    def take(q):
        entry = pending.pop(q, None)
        if entry is None:
            return None
        s, u, survival = entry
        sop = _unitary_superop(u)
        if s is not None:
            sop = sop @ s
        if survival < 1.0:
            sop = DepolarizingChannel((q,), 1.0 - survival).superop() @ sop
        return sop

    def flush(q):
        nonlocal tensor
        sop = take(q)
        if sop is not None:
            allocate(q)
            tensor = _apply_superop(tensor, sop, superop_axes((q,)))

    for i, inst in enumerate(c.gates):
        qubits = inst.qubits
        if (len(qubits) == 1 and qubits[0] not in keep
                and last_multi.get(qubits[0], -1) < i):
            continue
        channels = noise.channels_for(inst) if noise is not None else []
        if len(qubits) == 1:
            q = qubits[0]
            entry = pending.setdefault(q, [None, _I2, 1.0])
            entry[1] = target_matrix(inst.gate, inst.params) @ entry[1]
            for ch in channels:
                if isinstance(ch, DepolarizingChannel):
                    pending[q][2] *= 1.0 - ch.p
                else:
                    pending[q] = [ch.superop() @ take(q), _I2, 1.0]
            continue
        sop = _unitary_superop(gate_unitary(inst))
        for ch in channels:
            sop = _embed_superop(ch.superop(), ch.qubits, qubits) @ sop
        parts = [take(q) for q in qubits]
        if parts[0] is not None or parts[1] is not None:
            sop = sop @ _pair_superop(*parts)
        for q in qubits:
            allocate(q)
        tensor = _apply_superop(tensor, sop, superop_axes(qubits))
        for q in qubits:
            if q not in keep and last_multi.get(q) == i:
                trace_out(q)
    for q in keep:
        flush(q)
        allocate(q)
    k = len(live)
    order = [live.index(q) for q in keep]
    rho = tensor.transpose(order + [k + a for a in order])
    return DensityMatrix(k, rho.reshape(1 << k, 1 << k))


_I2 = np.eye(2, dtype=complex)
_IDENTITY_SUPEROP = np.eye(4, dtype=complex)


def _unitary_superop(u: np.ndarray) -> np.ndarray:
    """u (x) u*, the superoperator of rho -> u rho u^dagger."""
    d = u.shape[0]
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)


def _apply_superop(tensor: np.ndarray, sop: np.ndarray, axes) -> np.ndarray:
    """Contract a superoperator (rows, then columns index order) into the
    density tensor axes ``axes``; returns a C-contiguous tensor."""
    perm = list(axes) + [i for i in range(tensor.ndim) if i not in axes]
    flat = tensor.transpose(perm).reshape(sop.shape[1], -1)
    out = (sop @ flat).reshape(tensor.shape)
    return np.ascontiguousarray(out.transpose(np.argsort(perm)))


def _pair_superop(sa, sb) -> np.ndarray:
    """16x16 superoperator on qubits (a, b) from a 4x4 one on each
    (``None`` for identity)."""
    sa = _IDENTITY_SUPEROP if sa is None else sa
    sb = _IDENTITY_SUPEROP if sb is None else sb
    t = np.einsum("wxyz,WXYZ->wWxXyYzZ",
                  sa.reshape(2, 2, 2, 2), sb.reshape(2, 2, 2, 2))
    return t.reshape(16, 16)


def _embed_superop(sop: np.ndarray, own: tuple[int, ...],
                   qubits: tuple[int, ...]) -> np.ndarray:
    """A channel's superoperator on its ``own`` qubits (the gate's qubits,
    or one of them), expressed on the gate's ``qubits``."""
    if tuple(own) == tuple(qubits):
        return sop
    return (_pair_superop(sop, None) if tuple(own) == qubits[:1]
            else _pair_superop(None, sop))


def density_expectation_z(d: DensityMatrix, ancilla: int) -> float:
    probs = np.real(np.diagonal(d.rho)).reshape([2] * d.n)
    other = tuple(i for i in range(d.n) if i != ancilla)
    p = probs.sum(axis=other)
    return float(p[0] - p[1])
