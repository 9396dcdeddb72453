"""Lowering to device-native gate sets, line routing, and gate counting.

Two targets:

* SC: {ECR, RZ, X, SX} with nearest-neighbor connectivity on a line;
* ION: {RXX, RZ, R} with all-to-all connectivity.

``decompose`` takes the gate kinds that the estimator and baseline
circuits contain: uncontrolled 1-target gates, CNOT/MCX, CRY and CU_ALT.
Any other kind raises ``CircuitError``.

One walk over the circuit lowers each gate and emits native gates as it
goes.  A 1-qubit unitary multiplies onto the pending 1-qubit product of
its wire's current physical position.  A CNOT first routes (SC only: the
target walks next to the control by neighbor swaps, each three CNOTs),
then flushes the pending products of both wires in the native 1-qubit
basis, emits the native entangler and leaves its fixed post-dressings
pending.  Dressings follow from CX = (RZ(pi/2) x RX(-pi/2)) RZX(pi/2) up
to phase, with RZX(pi/2) obtained from ECR or RXX(pi/2) by Hadamard
conjugations.  What a native CX leaves pending is the same two products
every time, kept once per target, and its entangler is one shared
instance per wire pair and target.  A swap's first CNOT flushes both
wires, so what its other two emit, and the products they leave pending
(those of the first), depend on the wire pair alone: the walk lowers the
first as any CNOT and extends its output by that pair's block of native
gates, built once.

Multi-controlled X expands through the clean-work-qubit chain (2k-3
Toffolis for k controls) when the circuit carries enough work wires,
and each Toffoli through the standard 6-CNOT network.

The walk can also be cut in two, for the noisy estimator's split after
U_lam: one half, a ``Lowering`` of the opening, stops with its last
1-qubit products still pending, and the other, ``decompose`` from the
cut, hands back, per wire left pending there, the product that it
multiplies onto the pending one before the wire's first flush.  Lowering
that product times the pending one with ``emit_1q`` gives the native
gates the whole walk emits at that flush.

The walk (``Lowering``) tags each pending product with the earliest
logical gate whose angle it holds; a product of fixed dressings carries
no tag, and a flush drops the tag with the product.  Routing depends on
the gate structure alone, so a copy of the walk before a parameter's
gate, lowering that gate at a new angle and the gates after it, emits
what a whole walk at those angles would.  From the first boundary
between logical gates at which no pending product holds the angle of
that gate or of an earlier one, the walk's state, and so all it emits
after, is the same whatever those angles are.  The noisy estimator cuts
its coordinate environments there (``hadamard.NoisyEnvironments``).

A lowering re-derives the same few 1-qubit products many times over, so
the two pure functions on that path answer from exact tables of
``circuit.TABLE_SIZE`` entries each, least recently used first out:
``emit_1q`` keyed on the wire, the bytes of the product as complex128
and the target, and ``circuit.target_matrix`` keyed on the kind and the
angles' bit patterns.  Two more tables of that size serve the density
walk: ``simulator.gate_superop`` (a native 2-qubit gate with its
channels) and ``simulator.run_superop`` (a 1-qubit run's fold), keyed on
the noise model, the direction, the qubits, the kinds and the angles'
bit patterns.  No key is rounded, so a table returns what the function
computes; each function's ``cache_info()`` counts the traffic.  The
tables of CX dressings and their pending products (one entry per
target), of entanglers (per target and ordered wire pair) and of swap
blocks (per ordered neighbor pair) are unbounded, as the wire pairs bound
them; each is built on first use, so a run that never lowers holds none.
A swap block's inner flushes are computed once, so ``emit_1q``'s
traffic does not count them.
"""
from __future__ import annotations

import cmath
import copy
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import (TABLE_SIZE, Circuit, CircuitError, Gate, GateInstance,
                      target_matrix)


class BasisTarget(Enum):
    SC = "sc"
    ION = "ion"

    __hash__ = object.__hash__    # identity, as for ``Gate``


@dataclass(frozen=True)
class GateCountReport:
    g1: int
    g2: int
    depth: int


def _mat(gate: Gate, *params: float) -> np.ndarray:
    return target_matrix(gate, tuple(params))


_I2 = np.eye(2, dtype=complex)
_CX_MATRIX = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                       [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _kron_factor(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a Kronecker-product unitary into its 2x2 factors."""
    k = q.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vt = np.linalg.svd(k)
    if s[1] > 1e-9:
        raise CircuitError("matrix does not factor as a Kronecker product")
    a = (u[:, 0] * math.sqrt(s[0])).reshape(2, 2)
    b = (vt[0] * math.sqrt(s[0])).reshape(2, 2)
    da = np.linalg.det(a)
    a = a / np.sqrt(da)
    b = b * np.sqrt(da)
    return a, b


@functools.lru_cache(maxsize=None)
def _cx_dressings(target: BasisTarget):
    """(pre_c, pre_t, post_c, post_t) 1q matrices around the native entangler.

    With pre-rotations fixed to Hadamards, the post-rotations are the
    (unique up to phase) local factors of CX (pre_c x pre_t)^dag M2^dag;
    solving for them numerically keeps the identity correct by
    construction for either entangler convention.
    """
    h = _mat(Gate.H)
    if target is BasisTarget.SC:
        pre_c, pre_t = h, h
        m2 = target_matrix(Gate.ECR, ())
    else:
        pre_c, pre_t = h, None
        m2 = target_matrix(Gate.RXX, (math.pi / 2,))
    pre = np.kron(pre_c, pre_t if pre_t is not None else np.eye(2))
    post_c, post_t = _kron_factor(_CX_MATRIX @ pre.conj().T @ m2.conj().T)
    return pre_c, pre_t, post_c, post_t


@functools.lru_cache(maxsize=None)
def _post_products(target: BasisTarget) -> tuple[np.ndarray, np.ndarray]:
    """The products (post_c @ I2, post_t @ I2) that pushing the
    post-dressings onto two flushed wires forms: what every native CX
    leaves pending on its control and target."""
    _, _, post_c, post_t = _cx_dressings(target)
    return post_c @ _I2, post_t @ _I2


@functools.lru_cache(maxsize=None)
def _entangler(pc: int, pt: int, target: BasisTarget) -> GateInstance:
    """The native entangler of a CX from wire ``pc`` to wire ``pt``, one
    shared instance per pair and target."""
    if target is BasisTarget.SC:
        return GateInstance(Gate.ECR, (), (pc, pt))
    return GateInstance(Gate.RXX, (), (pc, pt), (math.pi / 2,))


@functools.lru_cache(maxsize=None)
def _swap_block(pa: int, pb: int) -> tuple[GateInstance, ...]:
    """The native gates of the last two of a neighbor swap's three CX on
    SC, (pb, pa) then (pa, pb), after the first, (pa, pb), has flushed
    both wires and left its post-dressings pending; they leave those
    dressings pending again.  Each product is the one the walk forms."""
    sc = BasisTarget.SC
    pre_c, pre_t, _, _ = _cx_dressings(sc)
    post_c, post_t = _post_products(sc)
    return (*emit_1q(pb, pre_c @ post_t, sc), *emit_1q(pa, pre_t @ post_c, sc),
            _entangler(pb, pa, sc),
            *emit_1q(pa, pre_c @ post_t, sc), *emit_1q(pb, pre_t @ post_c, sc),
            _entangler(pa, pb, sc))


def _zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """(beta, gamma, delta) with U ~ RZ(beta) RY(gamma) RZ(delta)."""
    det = np.linalg.det(u)
    v = u / cmath.sqrt(det)
    gamma = 2 * math.atan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[1, 0]) < 1e-12:
        beta = -2 * cmath.phase(v[0, 0])
        delta = 0.0
    elif abs(v[0, 0]) < 1e-12:
        beta = 2 * cmath.phase(v[1, 0])
        delta = 0.0
    else:
        plus = -2 * cmath.phase(v[0, 0])     # beta + delta
        minus = 2 * cmath.phase(v[1, 0])     # beta - delta
        beta = (plus + minus) / 2
        delta = (plus - minus) / 2
    return beta, gamma, delta


def _is_identity(u: np.ndarray) -> bool:
    ph = u[0, 0] if abs(u[0, 0]) > 0.5 else u[0, 1]
    if abs(abs(ph) - 1) > 1e-9:
        return False
    return bool(np.allclose(u / ph, np.eye(2), atol=1e-9))


def emit_1q(q: int, u: np.ndarray, target: BasisTarget) -> list[GateInstance]:
    """Native gates for the 1-qubit unitary ``u`` on wire ``q``, up to phase;
    none for the identity.  A fresh list of shared instances, from the
    table described in the module docstring."""
    return list(_emit_1q_table(q, np.asarray(u, complex).tobytes(), target))


@functools.lru_cache(maxsize=TABLE_SIZE)
def _emit_1q_table(q: int, u_bytes: bytes, target: BasisTarget
                   ) -> tuple[GateInstance, ...]:
    u = np.frombuffer(u_bytes, complex).reshape(2, 2)
    return tuple(_emit_1q(q, u, target))


emit_1q.cache_info = _emit_1q_table.cache_info


def _emit_1q(q: int, u: np.ndarray, target: BasisTarget) -> list[GateInstance]:
    if _is_identity(u):
        return []
    beta, gamma, delta = _zyz_angles(u)
    out: list[GateInstance] = []

    def rz(angle):
        if abs(angle) > 1e-9:
            out.append(GateInstance(Gate.RZ, (), (q,), (float(angle),)))

    if abs(gamma) < 1e-9:
        rz(beta + delta)
        return out
    if target is BasisTarget.ION:
        rz(delta)
        out.append(GateInstance(Gate.R, (), (q,), (float(gamma), math.pi / 2)))
        rz(beta)
        return out
    # ZXZXZ form: RZ(beta+pi) SX RZ(gamma+pi) SX RZ(delta) up to phase
    rz(delta)
    out.append(GateInstance(Gate.SX, (), (q,)))
    rz(gamma + math.pi)
    out.append(GateInstance(Gate.SX, (), (q,)))
    rz(beta + math.pi)
    return out


class Lowering:
    """Lowers logical gates and emits native ones in the same pass.

    ``pos[logical]`` is the wire's physical position; ``pending[physical]``
    is the 1-qubit product not yet emitted on that wire, and
    ``tags[physical]`` the index, in its circuit, of the earliest logical
    gate whose angle that product holds (fixed dressings carry no tag).
    The first flush of a wire in ``leads`` stores its product there in
    place of emitting it.  A copy resumes the walk where this one stands.
    """

    def __init__(self, c: Circuit, target: BasisTarget):
        self.target = target
        self.dressings = _cx_dressings(target)
        self.post = _post_products(target)
        self.work = list(c.metadata.get("work_qubits", []))
        self.pos = list(range(c.width))
        self.pending: dict[int, np.ndarray] = {}
        self.tags: dict[int, int] = {}
        self.leads: dict[int, np.ndarray | None] = {}
        self.out: list[GateInstance] = []

    def copy(self) -> "Lowering":
        """The walk as it stands, with nothing emitted; products are never
        written in place, so the two share them."""
        other = copy.copy(self)
        other.pos = list(self.pos)
        other.pending, other.tags = dict(self.pending), dict(self.tags)
        other.leads, other.out = dict(self.leads), []
        return other

    def earliest_tag(self) -> float:
        """The earliest logical gate whose angle a pending product holds."""
        return min(self.tags.values(), default=math.inf)

    def _push(self, p: int, m: np.ndarray):
        self.pending[p] = m @ self.pending.get(p, _I2)

    def flush(self, p: int):
        m = self.pending.pop(p, None)
        if m is None:
            return
        self.tags.pop(p, None)
        if p in self.leads and self.leads[p] is None:
            self.leads[p] = m
        else:
            self.out.extend(emit_1q(p, m, self.target))

    def _native_cx(self, pc: int, pt: int):
        pre_c, pre_t, _, _ = self.dressings
        self._push(pc, pre_c)
        if pre_t is not None:
            self._push(pt, pre_t)
        self.flush(pc)
        self.flush(pt)
        self.out.append(_entangler(pc, pt, self.target))
        self.pending[pc], self.pending[pt] = self.post

    def u(self, q: int, m: np.ndarray, tag: int | None = None):
        """Multiply ``m`` onto wire ``q``'s pending product; ``tag`` is the
        index of the logical gate whose angle ``m`` holds."""
        p = self.pos[q]
        self._push(p, m)
        if tag is not None:
            self.tags[p] = min(self.tags.get(p, tag), tag)

    def cx(self, c: int, t: int):
        pos = self.pos
        if self.target is BasisTarget.SC:
            # walk the target next to the control, one neighbor swap at a time
            while abs(pos[c] - pos[t]) > 1:
                pa = pos[t]
                pb = pa + (1 if pos[c] > pa else -1)
                self._native_cx(pa, pb)
                # the first CX settles both wires, so the other two emit a
                # block fixed by the pair and leave the same products pending
                self.out.extend(_swap_block(pa, pb))
                la, lb = pos.index(pa), pos.index(pb)
                pos[la], pos[lb] = pos[lb], pos[la]
        self._native_cx(pos[c], pos[t])

    def toffoli(self, c1: int, c2: int, t: int):
        tq = _mat(Gate.RZ, math.pi / 4)       # T up to phase
        tdg = _mat(Gate.RZ, -math.pi / 4)
        h = _mat(Gate.H)
        self.u(t, h)
        self.cx(c2, t); self.u(t, tdg)
        self.cx(c1, t); self.u(t, tq)
        self.cx(c2, t); self.u(t, tdg)
        self.cx(c1, t); self.u(c2, tq); self.u(t, tq); self.u(t, h)
        self.cx(c1, c2); self.u(c1, tq); self.u(c2, tdg)
        self.cx(c1, c2)

    def mcx(self, controls: tuple[int, ...], t: int):
        k = len(controls)
        if k == 1:
            self.cx(controls[0], t)
            return
        if k == 2:
            self.toffoli(controls[0], controls[1], t)
            return
        free = [w for w in self.work if w not in controls and w != t]
        if len(free) < k - 2:
            raise CircuitError(
                f"mcx with {k} controls needs {k - 2} work qubits, "
                f"{len(free)} available")
        chain = []
        self.toffoli(controls[0], controls[1], free[0])
        chain.append((controls[0], controls[1], free[0]))
        for i in range(k - 3):
            self.toffoli(controls[2 + i], free[i], free[i + 1])
            chain.append((controls[2 + i], free[i], free[i + 1]))
        self.toffoli(controls[-1], free[k - 3], t)
        for c1, c2, w in reversed(chain):
            self.toffoli(c1, c2, w)

    def lower(self, gates, first: int = 0) -> None:
        """Walk the logical ``gates`` in order, the first being gate
        ``first`` of its circuit."""
        for i, inst in enumerate(gates, first):
            g, ctr, tg, p = inst.gate, inst.controls, inst.targets, inst.params
            if not ctr and g.n_targets == 1:
                self.u(tg[0], _mat(g, *p), i if p else None)
            elif g in (Gate.CNOT, Gate.MCX):
                self.mcx(ctr, tg[0])
            elif g is Gate.CRY:
                half = p[0] / 2
                self.u(tg[0], _mat(Gate.RY, half), i)
                self.mcx(ctr, tg[0])
                self.u(tg[0], _mat(Gate.RY, -half), i)
                self.mcx(ctr, tg[0])
            elif g is Gate.CU_ALT:
                half = p[0] / 2
                self.u(tg[0], _mat(Gate.RY, -half), i)
                self.mcx(ctr, tg[0])
                self.u(tg[0], _mat(Gate.RY, half), i)
            else:
                raise CircuitError(f"cannot lower {g.value}")

    def emit(self, gates, first: int) -> list[GateInstance]:
        """``lower`` the ``gates`` and return the native gates they emit."""
        self.out = []
        self.lower(gates, first)
        return self.out


def decompose(c: Circuit, target: BasisTarget, cut: int = 0) -> Circuit:
    """Lower ``c`` to the native basis in one walk; tracks the routing
    permutation in ``metadata["final_positions"]``.

    ``cut`` emits only what the gates from index ``cut`` on add: the
    gates before it are walked for their routing and for the wires they
    leave a product pending on, and each such wire's first flush goes, as
    the product the later gates multiplied onto the pending one, to
    ``metadata["leads"]``.  So, for the products ``pending`` that a
    ``Lowering`` of the gates before the cut leaves,
    ``emit_1q(p, leads[p] @ pending[p])`` is what the whole walk emits at
    that flush, and the two halves together emit the whole walk's gates,
    each lead-in moved to the cut past gates on other wires only.
    """
    walk = Lowering(c, target)
    walk.lower(c.gates[:cut])
    if cut:
        walk.out = []
        walk.leads = dict.fromkeys(walk.pending)
        walk.pending = dict.fromkeys(walk.pending, _I2)
    walk.lower(c.gates[cut:], cut)
    for q in sorted(walk.pending):
        walk.flush(q)
    meta = dict(c.metadata)
    if cut:
        meta["leads"] = walk.leads
    meta["final_positions"] = walk.pos
    return Circuit(c.width, tuple(walk.out), c.ancilla, meta)


def count_report(c: Circuit, target: BasisTarget) -> GateCountReport:
    native = decompose(c, target)
    g2 = 0
    depth = [0] * native.width
    # native gates carry no controls: each touches its one or two targets
    for inst in native.gates:
        touched = inst.targets
        if len(touched) == 2:
            a, b = touched
            da, db = depth[a], depth[b]
            depth[a] = depth[b] = (da if da > db else db) + 1
            g2 += 1
        else:
            depth[touched[0]] += 1
    return GateCountReport(len(native.gates) - g2, g2, max(depth, default=0))


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------

def permuted_amps(amps: np.ndarray, positions: list[int]) -> np.ndarray:
    """Undo a routing permutation: positions[logical] = physical wire."""
    n = len(positions)
    tensor = amps.reshape([2] * n)
    # axis l of the output must come from physical axis positions[l]
    return np.transpose(tensor, axes=positions).reshape(-1)


def equivalent_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    k = int(np.argmax(np.abs(b)))
    if abs(b[k]) < tol:
        return bool(np.allclose(a, b, atol=tol))
    ph = a[k] / b[k]
    if abs(abs(ph) - 1) > tol:
        return False
    return bool(np.max(np.abs(a - ph * b)) <= tol)
