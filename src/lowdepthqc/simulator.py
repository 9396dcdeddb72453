"""Exact statevector and density-matrix simulation.

One kernel applies every gate: ``_apply_matrix`` moves the gate's axes of
a rank-(2,...,2) tensor to the front, does one matmul and moves them
back.  The statevector path contracts each gate's full unitary over its
qubits (``circuit.gate_unitary``, controls first, so a control acts through
the block structure of that unitary); no 2^n matrix is ever built.  Qubit
0 is the most significant bit of the amplitude index, matching numpy's
C-order axis layout.

Density evolution contracts superoperators with the same kernel, in one
walker with a direction (``_DensityWalk``).  Forward, ``run_density``
carries rho over every wire, from |0...0> or a given start, through
each gate's superoperator, folded with the channels a noise model
attaches to the gate.  Backward, ``observable_before`` carries an
observable from the end of a circuit to its start through the
transposed superoperators, in the Heisenberg picture, so one pass
serves every input state; it is the only pass that drops wires, and so
the one that reads a noisy <Z>.  Either way 1-qubit runs merge into the
next 2-qubit gate, each maximal run of 2-qubit gates on one qubit pair
multiplies into one 16x16 superoperator before it touches the tensor
(gate fusion), and only the qubits that are live at a contraction are
simulated; the gates act on at most two qubits, as
``transpile.decompose`` emits.  Each 2-qubit gate's superoperator and
each 1-qubit run's fold come from exact tables (``gate_superop``,
``run_superop``).  Passes chain at a cut in a circuit: ``run_density``
starts from a given rho on every wire, and ``observable_before`` carries
a stack of observables on a trailing axis back together, so a noisy
estimator can walk a circuit's head once, carry its observables back
through its tail once, and walk only the gates between the two for each
binding of a parameter (``hadamard.NoisyEnvironments``).
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .circuit import (TABLE_SIZE, Circuit, CircuitError, GateInstance,
                      gate_unitary, target_matrix)
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
    if not 0 <= ancilla < s.n:
        raise CircuitError(f"qubit {ancilla} out of range for {s.n} qubits")
    other = tuple(i for i in range(s.n) if i != ancilla)
    p = (np.abs(s.amps) ** 2).reshape([2] * s.n).sum(axis=other)
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

def run_density(c: Circuit, noise=None, start=None) -> np.ndarray:
    """rho on all ``c.width`` qubits after interleaving each gate's unitary
    with its noise channels, from the density ``start`` on those qubits,
    or from |0...0> when it is None.

    Every gate acts on at most two qubits; a wider one raises
    CircuitError, so lower the circuit with ``transpile.decompose`` first.
    ``noise`` follows the NoiseModel protocol: ``channels_for(inst)``
    returns channel objects with ``qubits`` (a subset of the gate's
    qubits) and ``superop()``; it is hashable, as the superoperator tables
    key on it.  ``None`` or an empty model gives the pure-state projector.

    The pass is a forward ``_DensityWalk``: from |0...0>, a qubit enters
    as |0><0| when a pair block on it is first contracted, or at the end.
    Passes chain: walking A from |0...0> and then B from its rho is
    walking A and B, with every block and 1-qubit run cut at the seam.
    """
    keep = _check_density(c, range(c.width))
    walk = _DensityWalk(noise)
    if start is not None:
        d = 1 << c.width
        rho = np.asarray(start, dtype=complex)
        if rho.shape != (d, d):
            raise CircuitError(f"start density of shape {rho.shape} on "
                               f"{c.width} qubits")
        walk.live, walk.tensor = list(keep), rho.reshape([2] * (2 * c.width))
    return walk.run(c.gates, _block_ends(c.gates), keep)


def observable_before(c: Circuit, noise, qubits, observable: np.ndarray,
                      keep) -> np.ndarray:
    """The observable W on the qubits ``keep`` (in that order) with
    Tr[W rho] = Tr[O rho'] for every state rho of those qubits, where O is
    ``observable`` on ``qubits`` (in that order) and rho' is what
    ``run_density`` gives after ``c`` from rho, every other qubit entering
    in |0>.  ``observable`` may be a stack of matrices on a trailing axis,
    carried back together into a stack of W.  The pass is a backward
    ``_DensityWalk``: a qubit joins as the identity when the pair block of
    its last 2-qubit gate is contracted, and a qubit outside ``keep`` is
    projected on |0> at its first gate.
    """
    keep = _check_density(c, keep)
    qubits = _qubits_of(c, qubits, "observable qubits")
    k = len(qubits)
    o = np.array(observable, dtype=complex)
    if o.shape[:2] != (1 << k, 1 << k) or o.ndim > 3:
        raise CircuitError(f"observable of shape {o.shape} on {k} qubits")
    walk = _DensityWalk(noise, backward=True)
    walk.live = list(qubits)
    walk.tensor = o.swapaxes(0, 1).reshape([2] * (2 * k) + list(o.shape[2:]))
    ends = _block_ends(c.gates, backward=True)
    return np.ascontiguousarray(walk.run(c.gates, ends, keep).swapaxes(0, 1))


def _block_ends(gates, backward: bool = False) -> list[bool]:
    """Per gate, whether a walk in the given direction contracts a pair
    block there.  A 2-qubit gate continues its block when the next 2-qubit
    gate on either of its wires, in walk order, acts on the same pair;
    otherwise the block ends at it.  A 1-qubit gate ends none."""
    ends = [False] * len(gates)
    later: dict[int, int] = {}   # wire -> its next 2-qubit gate in walk order
    for i in (range(len(gates)) if backward
              else range(len(gates) - 1, -1, -1)):
        qubits = gates[i].qubits
        if len(qubits) == 2:
            a, b = qubits
            ends[i] = later.get(a, -1) != later.get(b, -2)
            later[a] = later[b] = i
    return ends


class _DensityWalk:
    """A density pass over gates on at most two qubits, forward or
    backward.  Forward it carries rho through each gate's superoperator,
    first gate first; backward it carries the transpose of an observable
    through each transposed superoperator, last gate first.  Its state is
    the live qubits in axis order, the tensor over them (rows, then
    columns), each wire's pending 1-qubit gates and the open pair blocks.
    A wire's pending gates fold with their channels into one 4x4
    superoperator (``run_superop``) when a 2-qubit gate takes them into its
    own.  A 2-qubit gate multiplies into the block open on its pair, in
    the qubit order of the block's first gate, or opens one; the block is
    contracted into the tensor at the gate that ends it (``_block_ends``),
    so the tensor changes once per run of 2-qubit gates on one pair.
    Blocks on disjoint pairs can be open at the same time.

    The direction decides three things.  A wire enters as |0><0| forward
    and as the identity backward.  Only a backward walk drops wires: one
    outside ``keep`` leaves by projection on |0> at its first gate, and
    the 1-qubit gates on a wire that is neither live nor in an open block
    are skipped, as they act on the identity, which every channel's
    adjoint keeps; a forward walk's ``keep`` is every wire.  A run folds
    in circuit order, and the runs left at the end fold in ``keep`` order
    forward and, backward, in the order in which their wires first appear
    in the circuit.

    A backward walk may carry a stack of observables on a trailing axis
    of the tensor, which every contraction passes through.
    """

    def __init__(self, noise, backward: bool = False):
        self.noise = noise
        self.backward = backward
        self.live: list[int] = []
        self.tensor = np.ones((), dtype=complex)
        self.pending: dict[int, list] = {}
        # each wire of an open block -> (the block's qubit order, its product)
        self.blocks: dict[int, tuple] = {}

    def run(self, gates, ends, keep) -> np.ndarray:
        """Walk ``gates`` with their block ``ends``, forward from the first
        or backward from the last, and return the tensor as a matrix over
        ``keep``, in that order (a stack of them, when the tensor carries
        a trailing axis)."""
        # backward, where a wire outside keep leaves: at its first gate
        leaves = {}
        if self.backward:
            for i, inst in enumerate(gates):
                for q in inst.qubits:
                    leaves.setdefault(q, i)
        steps = (range(len(gates) - 1, -1, -1) if self.backward
                 else range(len(gates)))
        for i in steps:
            inst = gates[i]
            qubits = inst.qubits
            if len(qubits) == 2:
                self.apply(inst, ends[i])
            elif (not self.backward or qubits[0] in self.live
                  or qubits[0] in self.blocks):
                self.pending.setdefault(qubits[0], []).append(inst)
            for q in qubits:
                if q not in keep and leaves.get(q) == i:
                    self.leave(q)
        for q in [q for q in self.live if q not in keep]:
            self.leave(q)             # an observed qubit that no gate acts on
        if self.backward:
            for q in sorted(self.pending, key=leaves.__getitem__):
                self.flush(q)
        for q in keep:
            self.flush(q)
            self.enter(q)
        k = len(self.live)
        order = [self.live.index(q) for q in keep]
        x = self.tensor.transpose(order + [k + a for a in order]
                                  + list(range(2 * k, self.tensor.ndim)))
        return x.reshape((1 << k, 1 << k) + x.shape[2 * k:])

    def enter(self, q: int) -> None:
        if q in self.live:
            return
        d = 1 << len(self.live)
        stack = self.tensor.shape[2 * len(self.live):]
        if self.backward:
            grown = (self.tensor.reshape((d, 1, d, 1) + stack)
                     * _I2.reshape((1, 2, 1, 2) + (1,) * len(stack)))
        else:
            grown = np.zeros((d, 2, d, 2), dtype=complex)
            grown[:, 0, :, 0] = self.tensor.reshape(d, d)
        self.live.append(q)
        self.tensor = grown.reshape([2] * (2 * len(self.live)) + list(stack))

    def leave(self, q: int) -> None:
        """Backward, project wire ``q`` on |0> once its run is folded in;
        its first gate has ended every block on it."""
        if q not in self.live:
            return                    # only 1-qubit gates: it never reaches O
        self.flush(q)
        k, a = len(self.live), self.live.index(q)
        index = [slice(None)] * (2 * k)
        index[a] = index[k + a] = 0
        # np.array keeps the last wire's 0-d result 0-d
        self.tensor = np.array(self.tensor[tuple(index)], order="C")
        self.live.remove(q)

    def _axes(self, qubits) -> list[int]:
        rows = [self.live.index(q) for q in qubits]
        return rows + [len(self.live) + a for a in rows]

    def _take(self, q: int):
        gates = self.pending.pop(q, None)
        if gates is None:
            return None
        return run_superop(gates, self.noise, self.backward)

    def apply(self, inst, end: bool) -> None:
        """Multiply the 2-qubit gate, with the runs pending on its wires,
        into the block open on its pair or into a new one, and contract the
        block into the tensor when ``end``.  By ``_block_ends``, a block
        open on either wire is on this gate's pair."""
        qubits = inst.qubits
        order, block = self.blocks.pop(qubits[0], (qubits, None))
        self.blocks.pop(qubits[1], None)
        sop = gate_superop(inst, self.noise, self.backward)
        if order != qubits:
            sop = sop[_SWAP_PAIR]     # ECR is not symmetric
        parts = [self._take(q) for q in order]
        if parts[0] is not None or parts[1] is not None:
            sop = sop @ _pair_superop(*parts)
        if block is not None:
            sop = sop @ block
        if not end:
            self.blocks[order[0]] = self.blocks[order[1]] = (order, sop)
            return
        for q in order:
            self.enter(q)
        self.tensor = _apply_matrix(self.tensor, sop, self._axes(order))

    def flush(self, q: int) -> None:
        sop = self._take(q)
        if sop is not None:
            self.enter(q)
            self.tensor = _apply_matrix(self.tensor, sop, self._axes((q,)))


# ---------------------------------------------------------------------------
# Superoperator tables
# ---------------------------------------------------------------------------

def _channels(noise, inst):
    return noise.channels_for(inst) if noise is not None else ()


def _bits(params) -> bytes:
    return struct.pack(f"{len(params)}d", *params)


def gate_superop(inst: GateInstance, noise, backward: bool = False
                 ) -> np.ndarray:
    """Superoperator of a 2-qubit gate followed by the channels ``noise``
    attaches to it, each on the gate's qubits or on one of them; its
    transpose for a backward walk.  The result is read-only and shared: a
    table of ``circuit.TABLE_SIZE`` entries, least recently used first
    out, keeps it under the noise model itself (never its ``id``), the
    direction, and the gate's kind, qubits and angles' bit patterns, so a
    hit is what a fresh computation returns.  ``gate_superop.cache_info()``
    counts its hits and misses."""
    return _gate_table(noise, backward, inst.gate, inst.controls,
                       inst.targets, _bits(inst.params))


@functools.lru_cache(maxsize=TABLE_SIZE)
def _gate_table(noise, backward, gate, controls, targets, bits) -> np.ndarray:
    inst = GateInstance(gate, controls, targets,
                        struct.unpack(f"{len(bits) // 8}d", bits))
    sop = _unitary_superop(gate_unitary(inst))
    for ch in _channels(noise, inst):
        part = ch.superop()
        if len(ch.qubits) == 1:
            part = (_pair_superop(part, None) if ch.qubits[0] == inst.qubits[0]
                    else _pair_superop(None, part))
        sop = part @ sop
    sop = np.ascontiguousarray(sop.T if backward else sop)
    sop.setflags(write=False)
    return sop


gate_superop.cache_info = _gate_table.cache_info
gate_superop.cache_clear = _gate_table.cache_clear


def run_superop(gates, noise, backward: bool = False) -> np.ndarray:
    """Superoperator of a run of 1-qubit ``gates`` on one qubit, in
    circuit order, each followed by the channels ``noise`` attaches to it;
    its transpose for a backward walk.  Read-only and shared, from a table
    like ``gate_superop``'s, keyed on the noise model, the direction, the
    qubit, the kinds and the bit patterns of all the angles.
    ``run_superop.cache_info()`` counts its hits and misses."""
    params = [p for inst in gates for p in inst.params]
    return _run_table(noise, backward, gates[0].qubits[0],
                      tuple(inst.gate for inst in gates), _bits(params))


@functools.lru_cache(maxsize=TABLE_SIZE)
def _run_table(noise, backward, q, kinds, bits) -> np.ndarray:
    params = iter(struct.unpack(f"{len(bits) // 8}d", bits))
    gates = [GateInstance(g, (), (q,), tuple(next(params)
                                             for _ in range(g.n_params)))
             for g in kinds]
    if backward:
        sop = np.ascontiguousarray(_fold(gates[::-1], noise).T)
    else:
        sop = _fold(gates, noise)
    sop.setflags(write=False)
    return sop


run_superop.cache_info = _run_table.cache_info
run_superop.cache_clear = _run_table.cache_clear


def _fold(gates, noise) -> np.ndarray:
    """Superoperator of 1-qubit ``gates`` on one qubit q, in order, each
    followed by the channels ``noise`` attaches to it.  The run is kept as
    D(survival) (u (x) u*) s: a 1-qubit depolarizing channel D commutes
    with every 1-qubit unitary, so unitaries and depolarizing channels
    only multiply u and the survival factor; other channels fold into the
    4x4 s."""
    q = gates[0].qubits[0]
    s, u, survival = None, _I2, 1.0
    for inst in gates:
        u = target_matrix(inst.gate, inst.params) @ u
        for ch in _channels(noise, inst):
            if isinstance(ch, DepolarizingChannel):
                survival *= 1.0 - ch.p
            else:
                s = ch.superop() @ _fold_part(q, s, u, survival)
                u, survival = _I2, 1.0
    return _fold_part(q, s, u, survival)


def _fold_part(q: int, s, u: np.ndarray, survival: float) -> np.ndarray:
    sop = _unitary_superop(u)
    if s is not None:
        sop = sop @ s
    if survival < 1.0:
        sop = DepolarizingChannel((q,), 1.0 - survival).superop() @ sop
    return sop


def check_density_width(n: int) -> None:
    """Raise CircuitError when ``n`` qubits exceed ``DENSITY_QUBIT_CAP``."""
    if n > DENSITY_QUBIT_CAP:
        raise CircuitError(
            f"density simulation capped at {DENSITY_QUBIT_CAP} qubits, got {n}")


def _check_density(c: Circuit, keep) -> tuple[int, ...]:
    """``keep`` as a tuple, once ``c`` passes the width cap, ``keep`` names
    distinct qubits of ``c``, and every gate acts on at most two qubits."""
    check_density_width(c.width)
    keep = _qubits_of(c, keep, "keep")
    for inst in c.gates:
        if len(inst.qubits) > 2:
            raise CircuitError(
                f"density simulation takes gates on at most two qubits, "
                f"got {inst.gate.value} on {inst.qubits}")
    return keep


def _qubits_of(c: Circuit, qubits, what: str) -> tuple[int, ...]:
    """``qubits`` as a tuple, once they are distinct qubits of ``c``."""
    qubits = tuple(qubits)
    if (len(set(qubits)) != len(qubits)
            or not all(0 <= q < c.width for q in qubits)):
        raise CircuitError(f"{what} {qubits} is not a set of qubits of {c.width}")
    return qubits


_I2 = np.eye(2, dtype=complex)
_IDENTITY_SUPEROP = np.eye(4, dtype=complex)
# the index (row a, row b, column a, column b) read as one on (b, a):
# indexing a superoperator's rows and columns with it swaps its qubits
_SWAP = np.arange(16).reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(16)
_SWAP_PAIR = np.ix_(_SWAP, _SWAP)


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

