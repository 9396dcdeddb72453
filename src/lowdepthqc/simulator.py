"""Exact statevector and density-matrix simulation.

One kernel applies every gate: ``_apply_matrix`` moves the gate's axes of
a rank-(2,...,2) tensor to the front, does one matmul and moves them
back.  The statevector path contracts each gate's full unitary over its
qubits (``circuit.gate_unitary``, controls first, so a control acts through
the block structure of that unitary); no 2^n matrix is ever built.  Qubit
0 is the most significant bit of the amplitude index, matching numpy's
C-order axis layout.

Density evolution contracts superoperators with the same kernel: each
gate and the channels a noise model attaches to it fold into one, 1-qubit
runs merge into the next 2-qubit gate, and only the qubits that are live
at a gate are simulated.  It takes gates on at most two qubits, as
``transpile.decompose`` emits.  A pass can resume from the last one
(``DensityResume``): the walk is snapshotted after each 2-qubit gate,
and the next pass starts from the snapshot within the native gates the
two share.  ``observable_before`` runs the same evolution backward in
the Heisenberg picture: it carries an observable from the end of a
circuit to its start through the adjoint of each gate's superoperator,
so one pass serves every input state; ``observable_before_1q`` does so
for a layer of 1-qubit gates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitError, gate_unitary, target_matrix
from .noise import DepolarizingChannel

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


def _apply_matrix(tensor: np.ndarray, mat: np.ndarray, axes) -> np.ndarray:
    """Contract ``mat`` into the tensor axes ``axes`` (the matrix's index
    order, first axis most significant); returns a C-contiguous tensor.

    A gate unitary acts on statevector axes, a superoperator on density
    axes (rows, then columns).
    """
    perm = list(axes) + [i for i in range(tensor.ndim) if i not in axes]
    flat = tensor.transpose(perm).reshape(mat.shape[1], -1)
    out = (mat @ flat).reshape(tensor.shape)
    return np.ascontiguousarray(out.transpose(np.argsort(perm)))


def run_statevector(c: Circuit) -> StateVector:
    """State of applying the gate list in order to |0...0>."""
    n = c.width
    tensor = np.zeros([2] * n, dtype=complex)
    tensor[(0,) * n] = 1.0
    for inst in c.gates:
        tensor = _apply_matrix(tensor, gate_unitary(inst), inst.qubits)
    return StateVector(n, tensor.reshape(-1))


def ancilla_expectation_z(s: StateVector, ancilla: int) -> float:
    """<sigma_z> on one qubit: sum over bitstrings of (-1)^bit |amp|^2."""
    return _expectation_z(np.abs(s.amps) ** 2, s.n, ancilla)


def density_expectation_z(d: DensityMatrix, ancilla: int) -> float:
    """<sigma_z> on one qubit from the diagonal of rho."""
    return _expectation_z(np.real(np.diagonal(d.rho)), d.n, ancilla)


def _expectation_z(probs: np.ndarray, n: int, qubit: int) -> float:
    """p(qubit=0) - p(qubit=1) from the 2^n basis-state probabilities."""
    if not 0 <= qubit < n:
        raise CircuitError(f"qubit {qubit} out of range for {n} qubits")
    other = tuple(i for i in range(n) if i != qubit)
    p = probs.reshape([2] * n).sum(axis=other)
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

def run_density(c: Circuit, noise=None, keep=None,
                resume: DensityResume | None = None) -> DensityMatrix:
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

    ``resume`` carries a pass from one call to the next: the pass starts
    from its snapshot at the last 2-qubit gate within the gates it shares
    with the previous one, and the result is bit for bit a fresh pass's.
    Only a pass that keeps every qubit in order resumes, because the
    trace-out rule looks ahead.
    """
    n = c.width
    keep = _check_density(c, keep)
    gates = c.gates
    start, walk = 0, _DensityWalk()
    if resume is not None:
        if keep != tuple(range(n)):
            raise CircuitError("only a pass that keeps every qubit resumes")
        start, walk = resume.restart(c, noise)
    last_multi = {}
    for i, inst in enumerate(gates):
        if len(inst.qubits) == 2:
            for q in inst.qubits:
                last_multi[q] = i

    for i in range(start, len(gates)):
        inst = gates[i]
        qubits = inst.qubits
        if (len(qubits) == 1 and qubits[0] not in keep
                and last_multi.get(qubits[0], -1) < i):
            continue
        channels = noise.channels_for(inst) if noise is not None else []
        if len(qubits) == 1:
            walk.add(inst, channels)
            continue
        walk.apply(inst, channels)
        for q in qubits:
            if q not in keep and last_multi.get(q) == i:
                walk.trace_out(q)
        if resume is not None:
            resume.snapshots.append((i + 1, walk.copy()))
    for q in keep:
        walk.flush(q)
        walk.allocate(q)
    live = walk.live
    k = len(live)
    order = [live.index(q) for q in keep]
    rho = walk.tensor.transpose(order + [k + a for a in order])
    return DensityMatrix(k, rho.reshape(1 << k, 1 << k))


class _DensityWalk:
    """The state of a forward density pass: the simulated (live) qubits in
    axis order, the density tensor over them, and each qubit's pending
    ``_QubitRun``.

    Each 1-qubit gate and its channels fold into the pending run of its
    qubit.  A 2-qubit gate absorbs the pending runs of both its qubits and
    its own channels into one 16x16 superoperator, so the tensor changes
    once per 2-qubit gate.  Every step replaces the tensor and never writes
    into it, so a copy may share it.
    """

    def __init__(self):
        self.live: list[int] = []
        self.tensor = np.ones((), dtype=complex)
        self.pending: dict[int, _QubitRun] = {}

    def copy(self) -> "_DensityWalk":
        other = _DensityWalk()
        other.live = list(self.live)
        other.tensor = self.tensor
        self.tensor.setflags(write=False)
        other.pending = {q: run.copy() for q, run in self.pending.items()}
        return other

    def allocate(self, q: int) -> None:
        if q in self.live:
            return
        k = len(self.live)
        grown = np.zeros((1 << k, 2, 1 << k, 2), dtype=complex)
        grown[:, 0, :, 0] = self.tensor.reshape(1 << k, 1 << k)
        self.tensor = grown.reshape([2] * (2 * k + 2))
        self.live.append(q)

    def trace_out(self, q: int) -> None:
        a = self.live.index(q)
        self.tensor = np.ascontiguousarray(
            np.trace(self.tensor, axis1=a, axis2=len(self.live) + a))
        self.live.remove(q)

    def _axes(self, qubits) -> list[int]:
        rows = [self.live.index(q) for q in qubits]
        return rows + [len(self.live) + a for a in rows]

    def _take(self, q: int):
        run = self.pending.pop(q, None)
        return None if run is None else run.superop()

    def add(self, inst, channels) -> None:
        q = inst.qubits[0]
        if q not in self.pending:
            self.pending[q] = _QubitRun(q)
        self.pending[q].add(inst, channels)

    def apply(self, inst, channels) -> None:
        qubits = inst.qubits
        sop = gate_superop(inst, channels)
        parts = [self._take(q) for q in qubits]
        if parts[0] is not None or parts[1] is not None:
            sop = sop @ _pair_superop(*parts)
        for q in qubits:
            self.allocate(q)
        self.tensor = _apply_matrix(self.tensor, sop, self._axes(qubits))

    def flush(self, q: int) -> None:
        sop = self._take(q)
        if sop is not None:
            self.allocate(q)
            self.tensor = _apply_matrix(self.tensor, sop, self._axes((q,)))


class DensityResume:
    """What one ``run_density`` pass leaves for the next to resume from:
    its circuit, noise model and a snapshot of the walk after each 2-qubit
    gate, the only gates that change the tensor.  ``simulated`` counts the
    gates the last pass walked."""

    def __init__(self):
        self.circuit = None
        self.noise = None
        self.snapshots: list[tuple[int, _DensityWalk]] = []
        self.simulated = 0

    def restart(self, c: Circuit, noise) -> tuple[int, _DensityWalk]:
        """Where a pass of ``c`` under ``noise`` starts: the index of the
        first gate to walk and the walk up to it.  The snapshots past the
        gates ``c`` shares with the previous pass are dropped; the 1-qubit
        gates between the last one kept and the first new gate are walked
        again."""
        shared = 0
        if (self.circuit is not None and noise is self.noise
                and c.width == self.circuit.width):
            old, new = self.circuit.gates, c.gates
            m = min(len(old), len(new))
            while shared < m and (old[shared] is new[shared]
                                  or old[shared] == new[shared]):
                shared += 1
        while self.snapshots and self.snapshots[-1][0] > shared:
            self.snapshots.pop()
        self.circuit, self.noise = c, noise
        start, walk = self.snapshots[-1] if self.snapshots else (0, _DensityWalk())
        self.simulated = len(c.gates) - start
        return start, walk.copy()


def observable_before(c: Circuit, noise, qubit: int, observable: np.ndarray,
                      keep) -> np.ndarray:
    """The observable W on the qubits ``keep`` (in that order) with
    Tr[W rho] = Tr[O rho'] for every state rho of those qubits, where O is
    the 1-qubit ``observable`` on ``qubit`` and rho' is what ``run_density``
    gives after ``c`` from rho, every other qubit entering in |0>.

    One backward pass in the Heisenberg picture: the transpose of W is
    carried through the transpose of each gate's superoperator, each
    1-qubit run merging into the 2-qubit gate before it.  It mirrors
    ``run_density``'s live-qubit rule: a qubit joins as the identity at
    its last multi-qubit gate (the 1-qubit gates after it act on the
    identity, which every channel's adjoint keeps, and are skipped), and a
    qubit outside ``keep`` is projected on |0> at its first gate.
    """
    n = c.width
    keep = _check_density(c, keep)
    if not 0 <= qubit < n:
        raise CircuitError(f"qubit {qubit} out of range for {n} qubits")
    first = {}
    for i, inst in enumerate(c.gates):
        for q in inst.qubits:
            first.setdefault(q, i)

    live = [qubit]                    # qubits the observable acts on, in axis order
    tensor = np.asarray(observable, dtype=complex).T.copy()
    pending: dict[int, list] = {}     # 1-qubit gates met on a wire, latest first

    def channels(inst):
        return noise.channels_for(inst) if noise is not None else ()

    def take(q):
        gates = pending.pop(q, None)
        if gates is None:
            return None
        run = _QubitRun(q)
        for inst in reversed(gates):
            run.add(inst, channels(inst))
        return run.superop().T

    def axes(qubits):
        rows = [live.index(q) for q in qubits]
        return rows + [len(live) + a for a in rows]

    def join(q):
        nonlocal tensor
        if q in live:
            return
        d = 1 << len(live)
        tensor = tensor.reshape(d, 1, d, 1) * _I2.reshape(1, 2, 1, 2)
        live.append(q)
        tensor = tensor.reshape([2] * (2 * len(live)))

    def flush(q):
        nonlocal tensor
        sop = take(q)
        if sop is not None:
            tensor = _apply_matrix(tensor, sop, axes((q,)))

    def project(q):
        nonlocal tensor
        if q not in live:
            return                    # only 1-qubit gates: it never reaches O
        flush(q)
        k, a = len(live), live.index(q)
        index = [slice(None)] * (2 * k)
        index[a] = index[k + a] = 0
        tensor = np.ascontiguousarray(tensor[tuple(index)])
        live.remove(q)

    for i in range(len(c.gates) - 1, -1, -1):
        inst = c.gates[i]
        qubits = inst.qubits
        if len(qubits) == 1:
            if qubits[0] in live:
                pending.setdefault(qubits[0], []).append(inst)
        else:
            sop = gate_superop(inst, channels(inst)).T
            for q in qubits:
                join(q)
            parts = [take(q) for q in qubits]
            if parts[0] is not None or parts[1] is not None:
                sop = sop @ _pair_superop(*parts)
            tensor = _apply_matrix(tensor, sop, axes(qubits))
        for q in qubits:
            if first[q] == i and q not in keep:
                project(q)
    if qubit not in keep and qubit in live:
        project(qubit)                # no gate acts on it
    for q in keep:
        flush(q)
        join(q)
    k = len(live)
    order = [live.index(q) for q in keep]
    x = tensor.transpose(order + [k + a for a in order])
    return np.ascontiguousarray(x.reshape(1 << k, 1 << k).T)


def observable_before_1q(observable: np.ndarray, gates, noise) -> np.ndarray:
    """The observable M with Tr[M rho] = Tr[W rho'] for every density rho
    of the qubits of W = ``observable``, where rho' is rho after the
    1-qubit ``gates``, each followed by the channels ``noise`` attaches to
    it.  The gates on one qubit merge into one superoperator, as in
    ``run_density``, and the transpose of W is carried through its
    transpose, as in ``observable_before``."""
    runs: dict[int, _QubitRun] = {}
    for inst in gates:
        if len(inst.qubits) != 1:
            raise CircuitError(f"expected 1-qubit gates, got {inst.gate.value} "
                               f"on {inst.qubits}")
        q = inst.qubits[0]
        if q not in runs:
            runs[q] = _QubitRun(q)
        runs[q].add(inst, noise.channels_for(inst))
    k = observable.shape[0].bit_length() - 1
    tensor = np.asarray(observable, dtype=complex).T.reshape([2] * (2 * k))
    for q, run in runs.items():
        tensor = _apply_matrix(tensor, run.superop().T, (q, k + q))
    return np.ascontiguousarray(tensor.reshape(observable.shape).T)


class _QubitRun:
    """A run of 1-qubit gates and their channels on qubit ``q``, kept as
    D(survival) (u (x) u*) s: a 1-qubit depolarizing channel D commutes
    with every 1-qubit unitary, so unitaries and depolarizing channels
    only multiply u and the survival factor; other channels fold into the
    4x4 s."""

    def __init__(self, q: int):
        self.q = q
        self.s = None
        self.u = _I2
        self.survival = 1.0

    def copy(self) -> "_QubitRun":
        other = _QubitRun(self.q)
        other.s, other.u, other.survival = self.s, self.u, self.survival
        return other

    def add(self, inst, channels) -> None:
        self.u = target_matrix(inst.gate, inst.params) @ self.u
        for ch in channels:
            if isinstance(ch, DepolarizingChannel):
                self.survival *= 1.0 - ch.p
            else:
                self.s = ch.superop() @ self.superop()
                self.u, self.survival = _I2, 1.0

    def superop(self) -> np.ndarray:
        sop = _unitary_superop(self.u)
        if self.s is not None:
            sop = sop @ self.s
        if self.survival < 1.0:
            sop = DepolarizingChannel((self.q,), 1.0 - self.survival).superop() @ sop
        return sop


def check_density_width(n: int) -> None:
    """Raise CircuitError when ``n`` qubits exceed ``DENSITY_QUBIT_CAP``."""
    if n > DENSITY_QUBIT_CAP:
        raise CircuitError(
            f"density simulation capped at {DENSITY_QUBIT_CAP} qubits, got {n}")


def _check_density(c: Circuit, keep) -> tuple[int, ...]:
    """``keep`` as a tuple (all qubits for None), once ``c`` passes the
    width cap, ``keep`` names distinct qubits of ``c``, and every gate
    acts on at most two qubits."""
    n = c.width
    check_density_width(n)
    keep = tuple(range(n)) if keep is None else tuple(keep)
    if len(set(keep)) != len(keep) or not all(0 <= q < n for q in keep):
        raise CircuitError(f"keep {keep} is not a set of qubits of {n}")
    for inst in c.gates:
        if len(inst.qubits) > 2:
            raise CircuitError(
                f"density simulation takes gates on at most two qubits, "
                f"got {inst.gate.value} on {inst.qubits}")
    return keep


def gate_superop(inst, channels) -> np.ndarray:
    """Superoperator of a gate on at most two qubits followed by
    ``channels``, each on the gate's qubits or one of them."""
    sop = _unitary_superop(gate_unitary(inst))
    for ch in channels:
        sop = _embed_superop(ch.superop(), ch.qubits, inst.qubits) @ sop
    return sop


_I2 = np.eye(2, dtype=complex)
_IDENTITY_SUPEROP = np.eye(4, dtype=complex)


def _unitary_superop(u: np.ndarray) -> np.ndarray:
    """u (x) u*, the superoperator of rho -> u rho u^dagger."""
    d = u.shape[0]
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)


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
