"""Builders and estimators for the overlap / shift / shift-diagonal tests.

Each circuit estimates Re<0| U_t^dag M U_lam |0> on the ancilla for
M in {I, A, A^dag, A D_t^dag, A^dag D_t^dag}, where A is the cyclic
basis-shift (decrement) permutation and D_t = diag(amplitudes of U_t|0>).

Construction is mechanical: lay out the body (U_lam, optional copy
network + second-register inverse evolution, adder, first-register
inverse evolution), give *every* body gate an ancilla control, then run
the elision pass so only the gates with no register control keep it.
The diagonal operator needs no explicit gate: copying the basis index
into a second register and uncomputing it with the inverse evolution
projects in exactly the right way.

Every circuit of one U_lam opens with the same H and U_lam; only what
follows (copy network, inverse evolutions, adder, closing H) depends on
the family and on U_t.  Every noisy <Z> is read backward:
``readout_observable`` carries the readout-folded ancilla Z back through
a lowered, noisy circuit, through a whole one to its start for
``noisy_expectation``.  A noisy estimator cuts each circuit after U_lam:
per family and U_t, a ``TailObservable`` carries the Z back through the
tail to the cut, once.  Each family's value is one trace of the
opening's density on its n + 1 wires against its tail observable with
the family's lead-in, the native lowering of what the opening leaves
pending, folded in by the same backward walk; the tail keeps one such
observable per pending product it meets.  ``EstimatorMode.noisy_values``
lowers and walks one opening whole, the reference;
``NoisyEnvironments``, which a time step uses, walks per binding only
the native gates that the binding changes, between a forward carry and
the tail observables carried back once per sweep to the parameter's
cut.  ``EstimatorMode.evaluate`` counts a test and draws its shots from
its exact value, however found.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# the benchmark's probes wrap these names where this module looks them up:
# transpile.decompose ("transpile"), elide_body ("elision.elide"),
# run_density ("simulator.density"), run_statevector ("simulator.sv") and
# sample_from_expectation (the shot counter)
from . import transpile
from .circuit import Circuit, Gate, GateInstance, controlled_kind, dagger
from .elision import elide_body
from .simulator import (ShotConfig, observable_before, run_density,
                        run_statevector, sample_from_expectation)


class GTermKind(Enum):
    OVERLAP = "overlap"
    SHIFT = "shift"
    SHIFT_DIAG = "shift_diag"

    __hash__ = object.__hash__    # identity, as for ``Gate``


@dataclass(frozen=True)
class AdderSpec:
    n: int
    direction: str = "plus"  # "plus" = A (decrement), "minus" = A^dag

    def __post_init__(self):
        if self.direction not in ("plus", "minus"):
            raise ValueError(f"direction must be 'plus' or 'minus', got {self.direction}")


def adder_matrix(spec: AdderSpec) -> np.ndarray:
    """Permutation with A|k> = |(k-1) mod 2^n>, so (A u)_k = u_{k+1}."""
    dim = 1 << spec.n
    mat = np.roll(np.eye(dim), -1, axis=0)
    return mat.T if spec.direction == "minus" else mat


def adder_gates(spec: AdderSpec, qubits: list[int]) -> list[GateInstance]:
    """MCX staircase for the shift on ``qubits`` (most significant first).

    The staircase borrows clean work qubits only at decomposition time;
    in the IR the multi-controlled gates act on the register directly.
    """
    if len(qubits) != spec.n:
        raise ValueError(f"expected {spec.n} qubits, got {len(qubits)}")
    lsb_first = list(reversed(qubits))
    gates = [GateInstance(controlled_kind(Gate.X, j), tuple(lsb_first[:j]),
                          (lsb_first[j],))
             for j in range(spec.n)]
    if spec.direction == "minus":
        gates.reverse()  # every staircase gate is self-inverse
    return gates


# ---------------------------------------------------------------------------
# Circuit assembly
# ---------------------------------------------------------------------------

def _embedded_body(full_ansatz: Circuit, register_map: dict[int, int]) -> list[GateInstance]:
    """Re-index an ansatz circuit (ancilla 0, register 1..n) into a wider circuit."""
    mapping = {0: 0, **register_map}
    return [g.remapped(mapping) for g in full_ansatz.gates]


def _ancilla_controlled(body) -> list[GateInstance]:
    # the embedded ansatz heads already carry the ancilla control
    return [g if 0 in g.controls else g.with_controls((0,) + g.controls)
            for g in body]


def _opening(u_lam: Circuit) -> list[GateInstance]:
    """The H and ancilla-controlled U_lam that every estimator circuit of
    ``u_lam`` opens with, before elision; U_lam acts on the first
    register, wires 1..n as in the ansatz, so its gates embed as they are."""
    return [GateInstance(Gate.H, (), (0,))] + _ancilla_controlled(u_lam.gates)


def build_gterm_circuit(kind: GTermKind, u_t: Circuit, u_lam: Circuit,
                        direction: str = "plus", imaginary: bool = False,
                        elide: bool = True) -> Circuit:
    """Hadamard-form circuit whose ancilla <sigma_z> is the requested term.

    ``u_t`` and ``u_lam`` are ansatz-form circuits (ancilla at wire 0,
    register at 1..n).  ``elide=False`` keeps every body gate
    ancilla-controlled, for the elision-safety comparisons.
    ``metadata["cut"]`` is the number of gates of the opening H and U_lam.
    """
    if u_t.width != u_lam.width:
        raise ValueError(f"width mismatch: {u_t.width} vs {u_lam.width}")
    n = u_t.width - 1
    work = max(n - 2, 0)
    reg1 = {q: q for q in range(1, n + 1)}
    if kind is GTermKind.OVERLAP:
        width = 1 + n
    elif kind is GTermKind.SHIFT:
        width = 1 + n + work
    elif kind is GTermKind.SHIFT_DIAG:
        width = 1 + 2 * n + work
        reg2 = {q: n + work + q for q in range(1, n + 1)}
    else:
        raise ValueError(f"unknown kind {kind}")

    body: list[GateInstance] = []         # everything after U_lam
    if kind is GTermKind.SHIFT_DIAG:
        for q in range(1, n + 1):
            body.append(GateInstance(Gate.CNOT, (q,), (reg2[q],)))
        body += _embedded_body(dagger(u_t), reg2)
    if kind in (GTermKind.SHIFT, GTermKind.SHIFT_DIAG):
        body += adder_gates(AdderSpec(n, direction), [reg1[q] for q in range(1, n + 1)])
    body += _embedded_body(dagger(u_t), reg1)

    opening = _opening(u_lam)
    gates = opening + _ancilla_controlled(body)
    if imaginary:
        gates.append(GateInstance(Gate.S_DAG, (), (0,)))
    gates.append(GateInstance(Gate.H, (), (0,)))

    meta = {"work_qubits": list(range(n + 1, n + 1 + work)),
            "gterm_kind": kind.value, "direction": direction,
            "cut": len(opening)}
    circ = Circuit(width, tuple(gates), ancilla=0, metadata=meta)
    if elide:
        circ = elide_body(circ, 0)
    return circ


# ---------------------------------------------------------------------------
# Dense oracle
# ---------------------------------------------------------------------------

def gterm_oracle(kind: GTermKind, u_t: Circuit, u_lam: Circuit,
                 direction: str = "plus", imaginary: bool = False) -> float:
    """Dense-matrix value of the same bracket, via register statevectors."""
    from .ansatz import register_circuit

    psi_t = run_statevector(register_circuit(u_t)).amps
    psi_lam = run_statevector(register_circuit(u_lam)).amps
    n = u_t.width - 1
    if kind is GTermKind.OVERLAP:
        m = np.eye(1 << n)
    else:
        m = adder_matrix(AdderSpec(n, direction))
        if kind is GTermKind.SHIFT_DIAG:
            m = m @ np.diag(psi_t.conj())
    val = np.vdot(psi_t, m @ psi_lam)
    return float(val.imag) if imaginary else float(val.real)


# ---------------------------------------------------------------------------
# Estimation modes
# ---------------------------------------------------------------------------

@dataclass
class EstimatorMode:
    """How a Hadamard-test expectation is turned into a number.

    ``rng`` is advanced by every sampled estimate, so a driver seeding it
    once gets a reproducible stream across a whole optimization run.
    ``circuits`` counts the Hadamard tests a device would have run so far;
    ``density_passes`` counts the density-matrix passes of a noisy
    estimator, forward or backward, and ``native_gates`` the native gates
    they walked: a lead-in counts when its tail's table misses
    (``lead_in_misses``) and not when it hits (``lead_in_hits``).
    """

    shots: int | None = None
    noise: object | None = None          # NoiseModel, when noisy
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    circuits: int = 0
    density_passes: int = 0
    native_gates: int = 0
    lead_in_hits: int = 0
    lead_in_misses: int = 0
    # (U_t, {family: TailObservable}) of the U_t last asked for
    _tails: tuple = field(default=(None, None), repr=False, compare=False)

    def evaluate(self, z: float, shots: int | None = None) -> float:
        """One Hadamard test of exact ancilla <Z> ``z``: counts it and, in a
        sampled mode, draws ``shots`` shots (the mode's count by default)."""
        self.circuits += 1
        if self.shots is not None:
            count = self.shots if shots is None else shots
            z = sample_from_expectation(z, ShotConfig(count), rng=self.rng)
        return z

    def tails(self, u_t: Circuit, families) -> dict:
        """The ``TailObservable`` of each (kind, direction) of ``families``
        against U_t.  A tail depends only on U_t, the noise model and the
        gate structure of U_lam, which must be U_t's (the angles may
        differ), so the tails are built, with U_t in U_lam's place, when a
        U_t first comes (once per time step) and reused while it comes
        back."""
        key, tails = self._tails
        if key != u_t:
            tails = {}
            self._tails = (u_t, tails)
        for kind, direction in families:
            if (kind, direction) not in tails:
                circuit = build_gterm_circuit(kind, u_t, u_t, direction=direction)
                tail = TailObservable(circuit, self.noise, u_t.width)
                tails[kind, direction] = tail
                self.walked(tail.gates)
        return tails

    def walked(self, gates: int) -> None:
        """Count one density pass over ``gates`` native gates."""
        self.density_passes += 1
        self.native_gates += gates

    def lead_ins(self, tails, pending: dict) -> np.ndarray:
        """Each tail's observable for an opening that leaves the ``pending``
        products, with the lead-in folded in (``TailObservable.observable``),
        stacked on a trailing axis."""
        out = []
        for tail in tails:
            m, lead_in = tail.observable(pending)
            if lead_in is None:
                self.lead_in_hits += 1
            else:
                self.lead_in_misses += 1
                self.native_gates += len(lead_in)
            out.append(m)
        return np.stack(out, axis=-1)

    def noisy_values(self, u_t: Circuit, u_lam: Circuit, families) -> list[float]:
        """Exact noisy ancilla <Z> of the Hadamard test of U_lam against U_t
        for each (kind, direction) of ``families``, with the circuits cut
        after U_lam: the density of the opening H and U_lam, with each
        wire's pending 1-qubit product, is evolved once for all the
        families, and each family's value is one trace against its tail's
        observable for that pending product.  The reference for
        ``NoisyEnvironments``, which a time step uses.
        """
        _check_structure(u_t, u_lam)
        tails = self.tails(u_t, families)
        opening = _elided_opening(u_lam)
        native = transpile.decompose(opening, self.noise.basis, flush=False)
        rho = run_density(native, noise=self.noise)
        self.walked(len(native.gates))
        return _traces(self.lead_ins([tails[f] for f in families],
                                     native.metadata["pending"]), rho)


def _check_structure(u_t: Circuit, u_lam: Circuit) -> None:
    """A ValueError unless U_lam has the gates of U_t, up to the angles."""
    if ([(g.gate, g.controls, g.targets) for g in u_lam.gates]
            != [(g.gate, g.controls, g.targets) for g in u_t.gates]):
        raise ValueError("U_lam must have the gate structure of U_t")


def _traces(observables: np.ndarray, rho: np.ndarray) -> list[float]:
    """Tr[W rho] for each W of a stack on a trailing axis."""
    return np.real(np.einsum("ijf,ji->f", observables, rho)).tolist()


def _elided_opening(u_lam: Circuit) -> Circuit:
    return elide_body(Circuit(u_lam.width, tuple(_opening(u_lam)), ancilla=0), 0)


def _bound(inst: GateInstance, angle: float) -> GateInstance:
    """The 1-parameter gate ``inst`` at ``angle``."""
    return GateInstance(inst.gate, inst.controls, inst.targets, (angle,))


class NoisyEnvironments:
    """The noisy Hadamard tests of U_lam against U_t for ``families``, one
    parameter of U_lam at a time over one sweep of ``sgeo``'s coordinate
    descent, from coordinate environments in Liouville space.

    Parameter j drives logical gate ``at[j]`` of the elided opening H and
    U_lam.  A binding of it changes only the native gates that the
    lowering emits from 1-qubit products holding its angle, so each test
    is split at two boundaries between logical gates:

    * before gate ``at[j]``, the forward carry: ``walk`` is the lowering
      up to there (routing positions, and pending products tagged with
      the earliest gate whose angle each holds, ``transpile.Lowering``)
      and ``rho`` the density of the native gates it has emitted;
    * at ``cuts[j]``, the first boundary after gate ``at[j]`` where no
      pending product holds the angle of a gate up to ``at[j]``, the
      environment: the families' tail observables with their lead-ins
      (``TailObservable``), carried back together, once per sweep,
      through the native gates that the sweep's first opening emits
      after the cut.  Since the sweep began only the parameters up to j
      have moved, and no native gate after the cut depends on them, so
      the environment still holds.  When a product holding such an
      angle is pending at the opening's end (``cuts[j]`` is None), each
      binding reads its lead-ins from the tails' tables instead.

    Per binding, a copy of ``walk`` lowers only gate ``at[j]`` and the
    gates up to the cut, and what they emit is walked from ``rho``; each
    family's value is then one trace against its environment.  The
    native gates and their noise are those of the whole lowered circuit,
    as in ``EstimatorMode.noisy_values``.
    """

    def __init__(self, mode: EstimatorMode, u_t: Circuit, u_lam: Circuit,
                 families):
        """The sweep that starts at U_lam, at its first coordinate."""
        _check_structure(u_t, u_lam)
        self.mode, self.width = mode, u_lam.width
        tails = mode.tails(u_t, families)
        self.tails = [tails[f] for f in families]
        opening = _elided_opening(u_lam)
        self.gates = list(opening.gates)
        self.at = [i for i, inst in enumerate(self.gates) if inst.params]
        walk = transpile.Lowering(opening, mode.noise.basis)
        # native gates emitted, and the earliest tag pending, by boundary
        emitted, earliest = [0], [walk.earliest_tag()]
        for i, inst in enumerate(self.gates):
            if i == self.at[0]:
                self.walk = walk.copy()
            walk.lower((inst,), i)
            emitted.append(len(walk.out))
            earliest.append(walk.earliest_tag())
        ends = range(len(self.gates) + 1)
        self.cuts = [next((k for k in ends[i + 1:] if earliest[k] > i), None)
                     for i in self.at]
        env = mode.lead_ins(self.tails, walk.pending)
        self.envs, stop = {}, len(walk.out)
        for k in sorted({k for k in self.cuts if k is not None}, reverse=True):
            if emitted[k] < stop:
                env = self._back(walk.out[emitted[k]:stop], env)
            self.envs[k], stop = env, emitted[k]
        self.j = 0
        self.rho = self._forward(walk.out[:emitted[self.at[0]]])

    def _forward(self, gates, start=None) -> np.ndarray:
        """The density after ``gates`` from ``start`` (|0...0> if None)."""
        self.mode.walked(len(gates))
        return run_density(Circuit(self.width, tuple(gates)),
                           noise=self.mode.noise, start=start)

    def _back(self, gates, env: np.ndarray) -> np.ndarray:
        """The stack of observables ``env`` carried back through ``gates``."""
        self.mode.walked(len(gates))
        wires = range(self.width)
        return observable_before(Circuit(self.width, tuple(gates)),
                                 self.mode.noise, wires, env, wires)

    def advance(self, angle: float) -> None:
        """Bind the current parameter to ``angle`` and move the head on to
        the next one."""
        i = self.at[self.j]
        self.gates[i] = _bound(self.gates[i], angle)
        self.j += 1
        self.rho = self._forward(
            self.walk.emit(self.gates[i:self.at[self.j]], i), self.rho)

    def values(self, angles) -> list[list[float]]:
        """Each family's noisy <Z> with the current parameter bound to each
        of ``angles``."""
        i, cut = self.at[self.j], self.cuts[self.j]
        out = []
        for angle in angles:
            walk = self.walk.copy()
            gates = [_bound(self.gates[i], angle)] + self.gates[i + 1:cut]
            rho = self._forward(walk.emit(gates, i), self.rho)
            env = (self.envs[cut] if cut is not None
                   else self.mode.lead_ins(self.tails, walk.pending))
            out.append(_traces(env, rho))
        return out


class TailObservable:
    """One estimator circuit from its cut on, under a noise model, as the
    observable ``w`` on the ``wires`` = n + 1 wires of the opening H and
    U_lam: the circuit's ancilla <Z> is Tr[w rho] for the density rho
    that the opening and the lead-ins leave.

    ``decompose`` lowers the circuit from its cut, and
    ``readout_observable`` carries the readout-folded ancilla Z back
    through the native tail and its channels to the cut; the tail's
    wires beyond the opening's enter in |0>.  The lead-in of a wire that
    the opening leaves a product pending on is the native lowering of
    ``leads[p] @ pending[p]``, with its channels: the gates the whole
    circuit emits at that wire's first flush in the tail, moved to the
    cut past gates on other wires only.  So the native gates and their
    noise are the whole circuit's.  ``observable`` carries ``w`` back
    through the lead-ins with ``observable_before`` too, on all
    ``wires``, once per pending product: the table lives as long as
    the tail, one time step.
    """

    def __init__(self, circuit: Circuit, noise, wires: int):
        native = transpile.decompose(circuit, noise.basis,
                                     cut=circuit.metadata["cut"])
        self.wires = range(wires)
        self.w = readout_observable(native, noise, self.wires)
        self.leads = native.metadata["leads"]
        self.noise = noise
        self.gates = len(native.gates)
        self._table: dict[tuple, np.ndarray] = {}

    def observable(self, pending: dict[int, np.ndarray]) -> tuple:
        """(M, lead-in) for an opening that leaves the ``pending`` products:
        the circuit's ancilla <Z> is Tr[M rho] for the opening's density
        rho, where M is ``w`` carried back through the native lead-in
        gates and their channels.  M comes from a table keyed on the exact
        bytes of the products, so the lead-in (its native gates) is None
        when the table already holds it."""
        key = tuple(pending[p].tobytes() for p in self.leads)
        m = self._table.get(key)
        if m is not None:
            return m, None
        lead_in = [inst for p, lead in self.leads.items()
                   for inst in transpile.emit_1q(p, lead @ pending[p],
                                                     self.noise.basis)]
        m = self._table[key] = observable_before(
            Circuit(len(self.wires), tuple(lead_in)), self.noise, self.wires,
            self.w, self.wires)
        return m, lead_in


def apportion_shots(total: int, weights) -> tuple[int, ...]:
    """Split ``total`` shots across circuits in proportion to ``|weights|``.

    Largest-remainder apportionment, so the counts sum to ``total``
    exactly; every circuit with a nonzero weight gets at least one shot,
    and all-zero weights split evenly.  Earlier circuits win remainder
    ties, which keeps the split deterministic.
    """
    w = np.abs(np.asarray(weights, dtype=float))
    if not w.any():
        w = np.ones_like(w)
    floor = (w > 0).astype(int)
    if total < floor.sum():
        raise ValueError(f"cannot split {total} shots over {w.size} circuits")
    quota = (total - floor.sum()) * w / w.sum()
    counts = floor + np.floor(quota).astype(int)
    order = np.argsort(-(quota - np.floor(quota)), kind="stable")
    counts[order[:total - counts.sum()]] += 1
    return tuple(int(c) for c in counts)


def readout_observable(native: Circuit, noise, keep) -> np.ndarray:
    """The observable W on the wires ``keep`` (in that order) whose trace
    with the state at the start of ``native`` is the ancilla <Z> read at
    its end under ``noise``, readout error included; every other wire
    starts in |0>.  ``native`` is a ``transpile.decompose`` output: its
    ``ancilla`` is the logical one, which ends on the wire that
    ``metadata["final_positions"]`` names.  The readout confusion of that
    wire folds into Z, which ``observable_before`` carries back."""
    anc = native.metadata["final_positions"][native.ancilla]
    p01, p10 = noise.readout_probs(anc)
    readout_z = np.diag([1.0 - 2.0 * p10, 2.0 * p01 - 1.0])
    return observable_before(native, noise, (anc,), readout_z, keep)


def noisy_expectation(circuit: Circuit, noise, basis) -> float:
    """The ancilla <Z> of ``circuit`` transpiled to the native ``basis`` and
    run under ``noise``, readout included: its ``readout_observable`` on no
    wire, a 1x1 matrix, as every wire starts in |0>."""
    native = transpile.decompose(circuit, basis)
    return float(readout_observable(native, noise, ())[0, 0].real)
