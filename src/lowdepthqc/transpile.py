"""Lowering to device-native gate sets, line routing, and gate counting.

Two targets:

* SC: {ECR, RZ, X, SX} with nearest-neighbor connectivity on a line;
* ION: {RXX, RZ, R} with all-to-all connectivity.

The pipeline lowers everything to bare CNOTs plus arbitrary 1-qubit
unitaries, routes (SC only), replaces each CNOT by the native entangler
with fixed 1-qubit dressings, then merges runs of 1-qubit unitaries per
wire and re-emits them in the native 1-qubit basis.  Dressings follow
from CX = (RZ(pi/2) x RX(-pi/2)) RZX(pi/2) up to phase, with RZX(pi/2)
obtained from ECR or RXX(pi/2) by Hadamard conjugations.

Multi-controlled X expands through the clean-work-qubit chain (2k-3
Toffolis for k controls) when the circuit carries enough work wires,
and each Toffoli through the standard 6-CNOT network.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .circuit import (Circuit, CircuitError, Gate, GateInstance, target_matrix)


class BasisTarget(Enum):
    SC = "sc"
    ION = "ion"

    @property
    def all_to_all(self) -> bool:
        return self is BasisTarget.ION

    @property
    def native_2q(self) -> Gate:
        return Gate.ECR if self is BasisTarget.SC else Gate.RXX


@dataclass(frozen=True)
class GateCountReport:
    g1: int
    g2: int
    depth: int
    histogram: dict = field(compare=False)


# ---------------------------------------------------------------------------
# Stage 1: lower to CNOT + 1q matrices
# ---------------------------------------------------------------------------

_ATOL = 1e-12


def _mat(gate: Gate, *params: float) -> np.ndarray:
    return target_matrix(gate, tuple(params))


class _Lowered:
    """Worklist of ('u', q, matrix) and ('cx', c, t) items."""

    def __init__(self, width: int, work: list[int]):
        self.width = width
        self.work = work
        self.items: list[tuple] = []

    def u(self, q: int, m: np.ndarray):
        self.items.append(("u", q, m))

    def cx(self, c: int, t: int):
        self.items.append(("cx", c, t))

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


def _lower(c: Circuit) -> _Lowered:
    out = _Lowered(c.width, list(c.metadata.get("work_qubits", [])))
    h = _mat(Gate.H)
    for inst in c.gates:
        g, ctr, tg, p = inst.gate, inst.controls, inst.targets, inst.params
        if g in (Gate.H, Gate.X, Gate.SX, Gate.S_DAG, Gate.RX, Gate.RY,
                 Gate.RZ, Gate.R) and not ctr:
            out.u(tg[0], _mat(g, *p))
        elif g is Gate.CNOT:
            out.cx(ctr[0], tg[0])
        elif g is Gate.MCX:
            out.mcx(ctr, tg[0])
        elif g is Gate.CRY:
            half = p[0] / 2
            out.u(tg[0], _mat(Gate.RY, half))
            out.mcx(ctr, tg[0])
            out.u(tg[0], _mat(Gate.RY, -half))
            out.mcx(ctr, tg[0])
        elif g is Gate.CU_ALT:
            half = p[0] / 2
            out.u(tg[0], _mat(Gate.RY, -half))
            out.mcx(ctr, tg[0])
            out.u(tg[0], _mat(Gate.RY, half))
        elif g is Gate.CZ:
            out.u(tg[0], h)
            out.mcx(ctr, tg[0])
            out.u(tg[0], h)
        elif g is Gate.SWAP:
            a, b = tg
            out.cx(a, b); out.cx(b, a); out.cx(a, b)
        elif g is Gate.RZZ:
            a, b = tg
            out.cx(a, b)
            out.u(b, _mat(Gate.RZ, p[0]))
            out.cx(a, b)
        elif g is Gate.RXX:
            a, b = tg
            out.u(a, h); out.u(b, h)
            out.cx(a, b)
            out.u(b, _mat(Gate.RZ, p[0]))
            out.cx(a, b)
            out.u(a, h); out.u(b, h)
        elif g is Gate.ECR:
            a, b = tg
            # invert the CX-from-ECR dressing: ECR = (Qc x Qt)^dag CX (H x H)
            _, _, post_c, post_t = _cx_dressings(BasisTarget.SC)
            out.u(a, h); out.u(b, h)
            out.cx(a, b)
            out.u(a, post_c.conj().T)
            out.u(b, post_t.conj().T)
        else:
            raise CircuitError(f"cannot lower {g.value}")
    return out


# ---------------------------------------------------------------------------
# Stage 2: routing on a line (SC)
# ---------------------------------------------------------------------------

def _route_items(items: list[tuple], width: int) -> tuple[list[tuple], list[int]]:
    """Greedy SWAP insertion; returns routed items + final logical->physical map."""
    pos = list(range(width))       # pos[logical] = physical

    def phys(q):
        return pos[q]

    def do_swap(out, pa, pb):
        out.append(("cx", pa, pb))
        out.append(("cx", pb, pa))
        out.append(("cx", pa, pb))
        la = pos.index(pa)
        lb = pos.index(pb)
        pos[la], pos[lb] = pos[lb], pos[la]

    out: list[tuple] = []
    for item in items:
        if item[0] == "u":
            out.append(("u", phys(item[1]), item[2]))
            continue
        _, c, t = item
        pc, pt = phys(c), phys(t)
        # walk the target next to the control, one neighbor swap at a time
        while abs(pc - pt) > 1:
            step = 1 if pc > pt else -1
            do_swap(out, pt, pt + step)
            pc, pt = phys(c), phys(t)
        out.append(("cx", pc, pt))
    return out, pos


# ---------------------------------------------------------------------------
# Stage 3: native 2q substitution and 1q re-emission
# ---------------------------------------------------------------------------

def _h() -> np.ndarray:
    return _mat(Gate.H)


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


_DRESSING_CACHE: dict[BasisTarget, tuple] = {}


def _cx_dressings(target: BasisTarget):
    """(pre_c, pre_t, post_c, post_t) 1q matrices around the native entangler.

    With pre-rotations fixed to Hadamards, the post-rotations are the
    (unique up to phase) local factors of CX (pre_c x pre_t)^dag M2^dag;
    solving for them numerically keeps the identity correct by
    construction for either entangler convention.
    """
    if target in _DRESSING_CACHE:
        return _DRESSING_CACHE[target]
    h = _h()
    if target is BasisTarget.SC:
        pre_c, pre_t = h, h
        m2 = target_matrix(Gate.ECR, ())
    else:
        pre_c, pre_t = h, None
        m2 = target_matrix(Gate.RXX, (math.pi / 2,))
    pre = np.kron(pre_c, pre_t if pre_t is not None else np.eye(2))
    post_c, post_t = _kron_factor(_CX_MATRIX @ pre.conj().T @ m2.conj().T)
    _DRESSING_CACHE[target] = (pre_c, pre_t, post_c, post_t)
    return _DRESSING_CACHE[target]


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


def decompose(c: Circuit, target: BasisTarget) -> Circuit:
    """Full pipeline to the native basis; tracks the routing permutation."""
    low = _lower(c)
    items = low.items
    if target is BasisTarget.SC:
        items, pos = _route_items(items, c.width)
    else:
        pos = list(range(c.width))
    pre_c, pre_t, post_c, post_t = _cx_dressings(target)
    native = target.native_2q
    pending: dict[int, np.ndarray] = {}

    out: list[GateInstance] = []

    def push(q, m):
        pending[q] = m @ pending.get(q, np.eye(2, dtype=complex))

    def flush(q):
        m = pending.pop(q, None)
        if m is not None:
            out.extend(_emit_1q(q, m, target))

    for item in items:
        if item[0] == "u":
            push(item[1], item[2])
            continue
        _, cq, tq = item
        if pre_c is not None:
            push(cq, pre_c)
        if pre_t is not None:
            push(tq, pre_t)
        flush(cq)
        flush(tq)
        if native is Gate.ECR:
            out.append(GateInstance(Gate.ECR, (), (cq, tq)))
        else:
            out.append(GateInstance(Gate.RXX, (), (cq, tq), (math.pi / 2,)))
        if post_c is not None:
            push(cq, post_c)
        if post_t is not None:
            push(tq, post_t)
    for q in sorted(pending):
        flush(q)
    meta = dict(c.metadata)
    meta["final_positions"] = pos
    return Circuit(c.width, tuple(out), c.ancilla, meta)


def count_report(c: Circuit, target: BasisTarget) -> GateCountReport:
    native = decompose(c, target)
    hist: dict[str, int] = {}
    g1 = g2 = 0
    wire_depth = [0] * native.width
    for inst in native.gates:
        hist[inst.gate.value] = hist.get(inst.gate.value, 0) + 1
        touched = inst.qubits
        if len(touched) == 2:
            g2 += 1
        else:
            g1 += 1
        level = max(wire_depth[q] for q in touched) + 1
        for q in touched:
            wire_depth[q] = level
    return GateCountReport(g1, g2, max(wire_depth, default=0), hist)


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
