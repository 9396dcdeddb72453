"""Gate-level circuit IR with a canonical, bit-exact text form.

The IR is deliberately small: a fixed gate vocabulary, instances carrying
explicit control/target lists, and an immutable ``Circuit`` that every
pass and simulator in this package consumes.  Multi-controlled gates stay
first-class (no eager decomposition) so control-list rewrites can act on
them before any basis translation.

The vocabulary holds the kinds that some circuit builds or some lowering
emits, thirteen in all, each defined once on its ``Gate`` member:

* logical: H, X, RY, S_DAG (imaginary-part readout), CNOT, MCX, CRY and
  CU_ALT, the last four controlled;
* native: RZ, SX, X and ECR (superconducting), RZ, R and RXX (trapped ion).

``controlled_kind`` is the one rule for a kind's name by its control
count (X/CNOT/MCX, RY/CRY), and ``GateInstance.with_controls`` applies
it, so adding or stripping a control never needs a table of its own.

Conventions fixed here and relied on everywhere else:

* qubit 0 is the topmost wire; in basis-state indices it is the most
  significant bit,
* angles are radians stored as 64-bit floats,
* canonical text uses scientific notation with 17 decimal digits, which
  round-trips float64 exactly.
"""
from __future__ import annotations

import functools
import math
import operator
import re
import struct
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np


class CircuitError(Exception):
    """Invalid gate instance or circuit structure."""


class CircuitSyntaxError(CircuitError):
    """Malformed circuit text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class Gate(Enum):
    """Gate kinds, each with its arity: text name, angle count, target
    count, and the controls its name implies (MCX takes one or more)."""

    H = ("h", 0, 1, 0)
    X = ("x", 0, 1, 0)
    SX = ("sx", 0, 1, 0)
    S_DAG = ("s_dag", 0, 1, 0)
    RY = ("ry", 1, 1, 0)
    RZ = ("rz", 1, 1, 0)
    R = ("r", 2, 1, 0)
    RXX = ("rxx", 1, 2, 0)
    CNOT = ("cnot", 0, 1, 1)
    ECR = ("ecr", 0, 2, 0)
    MCX = ("mcx", 0, 1, 1)
    CRY = ("cry", 1, 1, 1)
    CU_ALT = ("cu_alt", 1, 1, 1)

    # members are singletons compared by identity, so the C-level identity
    # hash serves in place of Enum's Python-level hash of the name
    __hash__ = object.__hash__

    def __new__(cls, name: str, n_params: int, n_targets: int, base_controls: int):
        member = object.__new__(cls)
        member._value_ = name
        member.n_params = n_params
        member.n_targets = n_targets
        member.base_controls = base_controls
        return member


_NAMED_GATES = {g.value: g for g in Gate}

# kinds whose name follows their control count, indexed by that count
_BY_CONTROLS = {g: family
                for family in ((Gate.X, Gate.CNOT, Gate.MCX), (Gate.RY, Gate.CRY))
                for g in family}


def controlled_kind(gate: Gate, k: int) -> Gate:
    """Kind that ``gate``'s target action takes under ``k`` controls:
    X/CNOT/MCX for 0/1/2+, RY/CRY for 0/1+; any other kind keeps its name."""
    family = _BY_CONTROLS.get(gate)
    return gate if family is None else family[min(k, len(family) - 1)]


@dataclass(frozen=True)
class GateInstance:
    """One gate application: kind, ordered controls, ordered targets, angles.

    Single-target kinds may carry controls beyond their base count (e.g. a
    CRY with two controls is a doubly-controlled RY); this is what lets the
    ancilla-control elision pass operate uniformly on control lists.
    """

    gate: Gate
    controls: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    # controls + targets, stored once; derived, so outside eq and hash
    qubits: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.gate
        if len(self.params) != g.n_params:
            raise CircuitError(
                f"{g.value} expects {g.n_params} angle(s), got {len(self.params)}")
        for p in self.params:
            if not math.isfinite(p):
                raise CircuitError(f"{g.value} angle is not finite: {p!r}")
        if len(self.targets) != g.n_targets:
            raise CircuitError(
                f"{g.value} expects {g.n_targets} target(s), got {len(self.targets)}")
        if g.n_targets == 2 and self.controls:
            raise CircuitError(f"{g.value} takes no controls")
        if len(self.controls) < g.base_controls:
            raise CircuitError(
                f"{g.value} expects at least {g.base_controls} control(s)")
        touched = self.controls + self.targets
        if len(set(touched)) != len(touched):
            raise CircuitError(f"{g.value} control/target lists overlap: {touched}")
        object.__setattr__(self, "qubits", touched)

    def validate(self, width: int) -> None:
        for q in self.qubits:
            if not 0 <= q < width:
                raise CircuitError(
                    f"{self.gate.value} touches qubit {q}, circuit width is {width}")

    def with_controls(self, controls: tuple[int, ...]) -> "GateInstance":
        return GateInstance(controlled_kind(self.gate, len(controls)), controls,
                            self.targets, self.params)

    def remapped(self, mapping: dict[int, int]) -> "GateInstance":
        return GateInstance(
            self.gate,
            tuple(mapping[q] for q in self.controls),
            tuple(mapping[q] for q in self.targets),
            self.params,
        )


_QUBITS = operator.attrgetter("qubits")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``width`` wires; immutable after construction."""

    width: int
    gates: tuple[GateInstance, ...] = ()
    ancilla: int | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.width < 1:
            raise CircuitError(f"width must be >= 1, got {self.width}")
        if self.ancilla is not None and not 0 <= self.ancilla < self.width:
            raise CircuitError(f"ancilla index {self.ancilla} out of range")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        # one pass over every wire touched; the gate-by-gate check runs
        # only when it fails, to name the first offender
        touched = chain.from_iterable(map(_QUBITS, gates))
        if not set(range(self.width)).issuperset(touched):
            for inst in gates:
                inst.validate(self.width)

    def __len__(self) -> int:
        return len(self.gates)

    def with_gates(self, gates) -> "Circuit":
        return Circuit(self.width, tuple(gates), self.ancilla, dict(self.metadata))


def dagger(c: Circuit) -> Circuit:
    """Exact inverse circuit (reversed order, each gate inverted)."""
    return c.with_gates(tuple(invert_gate(g) for g in reversed(c.gates)))


_SELF_INVERSE = frozenset((Gate.H, Gate.X, Gate.CNOT, Gate.MCX, Gate.ECR,
                           Gate.CU_ALT))


def invert_gate(inst: GateInstance) -> GateInstance:
    if inst.gate in _SELF_INVERSE:
        return inst
    return GateInstance(inst.gate, inst.controls, inst.targets,
                        inverse_params(inst.gate, inst.params))


def inverse_params(gate: Gate, params: tuple[float, ...]) -> tuple[float, ...]:
    """The angles at which ``gate`` undoes itself at ``params``: a rotation
    angle negated (so a zero angle gives -0.0), R's phase kept, and a
    self-inverse kind's angles as they are."""
    if gate in _SELF_INVERSE:
        return params
    if gate in (Gate.RY, Gate.RZ, Gate.RXX, Gate.CRY):
        return (-params[0],)
    if gate is Gate.R:
        theta, phi = params
        return (-theta, phi)
    raise CircuitError(f"no inverse for {gate.value}")


# ---------------------------------------------------------------------------
# Gate matrices
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_PX = np.array([[0, 1], [1, 0]], dtype=complex)
_PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PZ = np.array([[1, 0], [0, -1]], dtype=complex)
_XX = np.kron(_PX, _PX)
# echoed cross-resonance: (IX - XY)/sqrt(2), first factor = qubit 0
_ECR = (np.kron(_I2, _PX) - np.kron(_PX, _PY)) / math.sqrt(2)


# bound on each memo table: here, in ``transpile.emit_1q``, in
# ``simulator.gate_superop``, ``simulator.run_superop`` and
# ``simulator._permutations``, and in ``burgers.family_shots``
TABLE_SIZE = 4096


def target_matrix(gate: Gate, params: tuple[float, ...]) -> np.ndarray:
    """Unitary applied to the target wire(s) when all controls are |1>.

    2x2 for single-target kinds, 4x4 for two-target kinds.  The result is
    read-only and shared: a table of ``TABLE_SIZE`` entries, least recently
    used first out, keeps it under the kind and the angles' 64-bit
    patterns, so ``-0.0`` (which ``invert_gate`` makes from a zero angle)
    and ``0.0`` stay apart.  ``target_matrix.cache_info()`` counts its hits
    and misses.
    """
    return _target_matrix_table(gate, struct.pack(f"{len(params)}d", *params))


@functools.lru_cache(maxsize=TABLE_SIZE)
def _target_matrix_table(gate: Gate, bits: bytes) -> np.ndarray:
    m = _target_matrix(gate, struct.unpack(f"{len(bits) // 8}d", bits))
    m.setflags(write=False)
    return m


target_matrix.cache_info = _target_matrix_table.cache_info


def _target_matrix(gate: Gate, params: tuple[float, ...]) -> np.ndarray:
    if gate is Gate.H:
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if gate is Gate.X or gate is Gate.CNOT or gate is Gate.MCX:
        return _PX.copy()
    if gate is Gate.SX:
        return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    if gate is Gate.S_DAG:
        return np.array([[1, 0], [0, -1j]], dtype=complex)
    if gate is Gate.RY or gate is Gate.CRY:
        t = params[0] / 2
        return np.array([[math.cos(t), -math.sin(t)],
                         [math.sin(t), math.cos(t)]], dtype=complex)
    if gate is Gate.RZ:
        t = params[0] / 2
        return np.array([[np.exp(-1j * t), 0], [0, np.exp(1j * t)]])
    if gate is Gate.R:
        theta, phi = params
        t = theta / 2
        return np.array([
            [math.cos(t), -1j * np.exp(-1j * phi) * math.sin(t)],
            [-1j * np.exp(1j * phi) * math.sin(t), math.cos(t)],
        ])
    if gate is Gate.CU_ALT:
        t = params[0] / 2
        return math.cos(t) * _PX - math.sin(t) * _PZ
    if gate is Gate.RXX:
        t = params[0] / 2
        return math.cos(t) * np.eye(4) - 1j * math.sin(t) * _XX
    return _ECR.copy()  # the one kind left


def gate_unitary(inst: GateInstance) -> np.ndarray:
    """Full unitary of an instance over its touched qubits (controls first)."""
    base = target_matrix(inst.gate, inst.params)
    dim_t = base.shape[0]
    k = len(inst.controls)
    dim = dim_t << k
    u = np.eye(dim, dtype=complex)
    u[dim - dim_t:, dim - dim_t:] = base
    return u


# ---------------------------------------------------------------------------
# Canonical text form
# ---------------------------------------------------------------------------

def format_angle(v: float) -> str:
    """Scientific notation, 17 decimal digits, unpadded exponent: pi -> 3.14159265358979312e0."""
    mant, exp = f"{v:.17e}".split("e")
    return f"{mant}e{int(exp)}"


def serialize_circuit(c: Circuit) -> str:
    lines = [f"qubits {c.width}"]
    for inst in c.gates:
        name = inst.gate.value
        if inst.params:
            name += "(" + ",".join(format_angle(p) for p in inst.params) + ")"
        parts = [name]
        if inst.controls:
            parts.append(",".join(str(q) for q in inst.controls))
        parts.append("->")
        parts.append(",".join(str(q) for q in inst.targets))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


_GATE_RE = re.compile(
    r"""^\s*
        (?P<name>[a-z_][a-z0-9_]*)
        (?:\(\s*(?P<params>[^)]*)\))?
        (?:\s+(?P<controls>\d+(?:\s*,\s*\d+)*))?
        \s*->\s*
        (?P<targets>\d+(?:\s*,\s*\d+)*)
        \s*$""",
    re.VERBOSE,
)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def parse_circuit(text: str) -> Circuit:
    width = None
    gates: list[GateInstance] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if width is None:
            m = re.match(r"^qubits\s+(\d+)$", line)
            if not m:
                raise CircuitSyntaxError("expected 'qubits <N>' header", lineno, 1)
            width = int(m.group(1))
            if width < 1:
                raise CircuitSyntaxError("qubit count must be >= 1", lineno, 8)
            continue
        m = _GATE_RE.match(line)
        if not m:
            raise CircuitSyntaxError(f"malformed gate line {line!r}", lineno,
                                     len(raw.rstrip()) + 1)
        name = m.group("name")
        gate = _NAMED_GATES.get(name)
        if gate is None:
            raise CircuitSyntaxError(f"unknown gate {name!r}", lineno,
                                     raw.find(name) + 1)
        params: tuple[float, ...] = ()
        if m.group("params") is not None:
            try:
                params = tuple(float(tok) for tok in m.group("params").split(","))
            except ValueError:
                raise CircuitSyntaxError("bad angle literal", lineno,
                                         raw.find("(") + 2) from None
        controls = _parse_int_list(m.group("controls")) if m.group("controls") else ()
        targets = _parse_int_list(m.group("targets"))
        try:
            inst = GateInstance(gate, controls, targets, params)
            inst.validate(width)
        except CircuitError as exc:
            raise CircuitSyntaxError(str(exc), lineno, 1) from None
        gates.append(inst)
    if width is None:
        raise CircuitSyntaxError("empty program: missing 'qubits <N>' header", 1, 1)
    return Circuit(width, tuple(gates))
