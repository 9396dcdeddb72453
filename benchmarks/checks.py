"""The benchmark's workloads and the checks of their outputs.

Each check compares an output of the CLI with a value computed here,
apart from the program, or with a property the method must have:

* the classical reference is an explicit-Euler, central-difference
  trajectory built from this module's own shift matrix; it must
  reproduce ``lambda_classical`` and the ``u_classical`` snapshots;
* fidelities recomputed from ``fields.csv`` must match ``series.csv``;
* exact runs: the bracket S = <psi_k | FD(u_{k-1})> recomputed from
  consecutive snapshots must equal ``lambda_vqa``, and -S^2 the reported
  cost, so the whole circuit-estimator stack is checked against a dense
  computation at every step;
* sampled runs: every binding spends exactly 5 x ``--shots`` shots, and
  with every gate and readout error set to zero the transpiled, routed
  density path reproduces the dense Re<psi_t|M|psi_lambda>;
* ``gatecount``: the bands of acceptance criterion 6, and for the small
  registers each lowered circuit prepares its source's state up to
  global phase and the recorded qubit permutation.

A check returns the failures of each operation (a time step, or one
register size of the gate-count sweep) as lists of messages.
"""
from __future__ import annotations

import csv
import math
import sys
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lowdepthqc.ansatz import (AnsatzSpec, BaselineSpec, Head, Variant,  # noqa: E402
                               ansatz_state, bind_parameter, build_ansatz,
                               build_baseline)
from lowdepthqc.hadamard import (GTermKind, build_gterm_circuit,  # noqa: E402
                                 noisy_expectation)
from lowdepthqc.noise import NoiseModel, builtin_profiles  # noqa: E402
from lowdepthqc.simulator import run_statevector  # noqa: E402
from lowdepthqc.transpile import BasisTarget, decompose  # noqa: E402

CSV_TOL = 1e-9          # the CLI writes 12 significant digits
NOISELESS_TOL = 1e-10
BINDINGS = (0.0, math.pi, 2 * math.pi)

Failures = dict[int, list[str]]


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------

def shift_matrix(points: int) -> np.ndarray:
    """S with (S u)_k = u_{k+1}, periodic."""
    s = np.zeros((points, points))
    for k in range(points):
        s[k, (k + 1) % points] = 1.0
    return s


def euler_step(u: np.ndarray, dx: float, tau: float, nu: float) -> np.ndarray:
    """One explicit-Euler step of u_t + u u_x = nu u_xx / 2, central
    differences: the scheme the CLI documents, l1 = Lambda tau nu / (2 dx^2)."""
    s = shift_matrix(len(u))
    up, um = s @ u, s.T @ u
    return (u + tau * nu * (up + um - 2 * u) / (2 * dx * dx)
            - tau * u * (up - um) / (2 * dx))


def reference_trajectory(n: int, nu: float, tau: float, sigma: float,
                         steps: int) -> np.ndarray:
    """Gaussian bump at the middle of [0, 1), stepped ``steps`` times."""
    points = 1 << n
    dx = 1.0 / points
    x = dx * np.arange(points)
    u = np.exp(-((x - 0.5) ** 2) / (2 * sigma * sigma))
    out = [u]
    for _ in range(steps):
        out.append(euler_step(out[-1], dx, tau, nu))
    return np.array(out)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b) ** 2 / (np.dot(a, a) * np.dot(b, b)))


def family_matrices(psi_t: np.ndarray):
    """(kind, direction, M) for the five estimator circuits of a binding."""
    s = shift_matrix(len(psi_t))
    d = np.diag(psi_t.conj())
    return ((GTermKind.OVERLAP, "plus", np.eye(len(psi_t))),
            (GTermKind.SHIFT, "plus", s), (GTermKind.SHIFT, "minus", s.T),
            (GTermKind.SHIFT_DIAG, "plus", s @ d),
            (GTermKind.SHIFT_DIAG, "minus", s.T @ d))


def quiet_model(profile: str) -> tuple[NoiseModel, BasisTarget]:
    """The profile's model with every gate and readout error at zero; the
    basis and routing stay those of the profile."""
    cal = builtin_profiles()[profile].scaled(0.0)
    cal = replace(cal, qubits=tuple(replace(q, p01=0.0, p10=0.0)
                                    for q in cal.qubits))
    basis = BasisTarget.ION if cal.all_to_all else BasisTarget.SC
    return NoiseModel(cal), basis


def noiseless_limit(profile: str, spec: AnsatzSpec, params, binding: float) -> float:
    """Largest gap between the zero-error density path and the dense value
    over the five circuits of binding (parameter 0 at ``binding``)."""
    model, basis = quiet_model(profile)
    bound = bind_parameter(params, 0, binding)
    u_t, u_lam = build_ansatz(spec, params), build_ansatz(spec, bound)
    psi_t, psi_lam = ansatz_state(spec, params), ansatz_state(spec, bound)
    worst = 0.0
    for kind, direction, m in family_matrices(psi_t):
        circ = build_gterm_circuit(kind, u_t, u_lam, direction=direction)
        got = noisy_expectation(circ, model, basis)
        want = float(np.real(np.vdot(psi_t, m @ psi_lam)))
        worst = max(worst, abs(got - want))
    return worst


def shot_failures(bindings, shots: int, per_step: int, steps: int) -> Failures:
    """``bindings`` holds [step, shots spent, number of such bindings]."""
    fails: Failures = {k: [] for k in range(1, steps + 1)}
    for step, spent, count in bindings:
        if spent != 5 * shots:
            fails.setdefault(step, []).append(
                f"{count} binding(s) spent {spent} shots, not {5 * shots}")
    for step in fails:
        total = sum(c for s, _, c in bindings if s == step)
        if total != per_step:
            fails[step].append(f"{total} bindings, not {per_step}")
    return fails


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dynamics:
    """A ``run`` or ``noisy-run`` of the variational Burgers' solver."""

    variant: str
    nu: float
    tau: float
    steps: int
    shots: int | None = None
    profile: str | None = None
    floor: tuple[float, float] | None = None   # (t, lowest fidelity)
    beats_do_nothing: bool = False
    n: int = 3
    d: int = 3
    sigma: float = 0.3
    sweeps: int = 10          # the CLI's default; sampled runs do them all
    worst_infidelity: float = 1e-2   # exact runs only (criterion 4)

    @property
    def operations(self) -> int:
        return self.steps

    @property
    def spec(self) -> AnsatzSpec:
        return AnsatzSpec(self.n, self.d, Variant(self.variant), Head.RY)

    def argv(self) -> list[str]:
        args = ["noisy-run" if self.profile else "run",
                "-n", str(self.n), "-d", str(self.d), "--variant", self.variant,
                "--nu", repr(self.nu), "--tau", repr(self.tau),
                "--sigma", repr(self.sigma), "--steps", str(self.steps),
                "--sweeps", str(self.sweeps),
                "--snapshots", *[repr(k * self.tau) for k in range(self.steps + 1)]]
        if self.profile:
            args += ["--shots", str(self.shots), "--profile", self.profile]
        return args

    def check(self, out: Path, probe: dict, seed: int) -> Failures:
        series = read_csv(out / "series.csv")
        fields = read_csv(out / "fields.csv")
        fails = self.check_fields(series, fields)
        if self.profile:
            per_step = self.sweeps * self.spec.parameter_count * len(BINDINGS)
            for k, msgs in shot_failures(probe["bindings"], self.shots,
                                         per_step, self.steps).items():
                fails[k] += msgs
            for k in range(1, self.steps + 1):
                gap = noiseless_limit(self.profile, self.spec,
                                      probe["params"][k - 1],
                                      BINDINGS[(k - 1) % len(BINDINGS)])
                if not gap <= NOISELESS_TOL:
                    fails[k].append(f"noiseless limit misses the dense value by {gap:.2e}")
        return fails

    def check_fields(self, series, fields) -> Failures:
        ref = reference_trajectory(self.n, self.nu, self.tau, self.sigma, self.steps)
        rows = {int(r["step"]): {k: float(v) for k, v in r.items()} for r in series}
        u_cl: dict[int, list[float]] = {}
        u_vqa: dict[int, list[float]] = {}
        for r in fields:
            u_cl.setdefault(int(r["step"]), []).append(float(r["u_classical"]))
            u_vqa.setdefault(int(r["step"]), []).append(float(r["u_vqa"]))
        fails: Failures = {k: [] for k in range(self.steps + 1)}
        for k in range(self.steps + 1):
            msgs = fails[k]
            if k not in rows or k not in u_vqa:
                msgs.append("no series row or snapshot")
                continue
            row, v = rows[k], np.array(u_vqa[k])
            scale = float(np.max(np.abs(ref[k])))
            if not abs(row["lambda_classical"] - np.linalg.norm(ref[k])) <= CSV_TOL * scale:
                msgs.append(f"lambda_classical {row['lambda_classical']} is not "
                            f"|u_ref| = {np.linalg.norm(ref[k])}")
            if not np.max(np.abs(np.array(u_cl[k]) - ref[k])) <= CSV_TOL * scale:
                msgs.append("u_classical differs from the reference")
            f = fidelity(v, np.array(u_cl[k]))
            if not abs(f - row["fidelity"]) <= CSV_TOL:
                msgs.append(f"fidelity {row['fidelity']} but fields give {f}")
            if not abs(row["fidelity"] + row["infidelity"] - 1.0) <= CSV_TOL:
                msgs.append("fidelity + infidelity != 1")
            if k == 0:
                continue
            if self.profile is None:
                if not row["infidelity"] < self.worst_infidelity:
                    msgs.append(f"infidelity {row['infidelity']:.3e} >= "
                                f"{self.worst_infidelity:g}")
                prev = np.array(u_vqa[k - 1])
                dx = 1.0 / (1 << self.n)
                s = float(np.dot(v / np.linalg.norm(v),
                                 euler_step(prev, dx, self.tau, self.nu)))
                lam = row["lambda_vqa"]
                if not abs(s - lam) <= CSV_TOL * abs(lam):
                    msgs.append(f"S = {s!r} from the fields, lambda_vqa = {lam!r}")
                if not abs(-s * s - row["cost"]) <= CSV_TOL * s * s:
                    msgs.append(f"-S^2 = {-s * s!r}, cost = {row['cost']!r}")
            if self.floor and math.isclose(row["t"], self.floor[0]) \
                    and not row["fidelity"] >= self.floor[1]:
                msgs.append(f"fidelity {row['fidelity']:.4f} at t={row['t']:g} "
                            f"is below {self.floor[1]}")
            if self.beats_do_nothing:
                idle = fidelity(ref[0], ref[k])
                if not row["fidelity"] > idle:
                    msgs.append(f"fidelity {row['fidelity']:.4f} does not beat "
                                f"the do-nothing {idle:.4f}")
        fails[1] = fails.pop(0) + fails[1]   # step 0 is part of the first step
        return fails


def gatecount_rng(seed: int, n: int) -> np.random.Generator:
    """The stream ``gatecount`` draws register size ``n``'s angles from."""
    child = np.random.SeedSequence(entropy=seed,
                                   spawn_key=(zlib.crc32(f"gatecount-{n}".encode()),))
    return np.random.default_rng(child)


def gatecount_circuits(seed: int, n: int):
    """(scheme, source circuit) for register size ``n``, as the CLI builds them."""
    rng = gatecount_rng(seed, n)
    low = AnsatzSpec(n, 2 * n - 3, Variant.CU_ALT, Head.RY)
    base = BaselineSpec(n)
    p_low = tuple(rng.uniform(-math.pi, math.pi, low.parameter_count))
    p_base = tuple(rng.uniform(-math.pi, math.pi, base.parameter_count))
    return (("low_depth", build_gterm_circuit(
                GTermKind.SHIFT_DIAG, *(2 * (build_ansatz(low, p_low),)))),
            ("conventional", build_gterm_circuit(
                GTermKind.SHIFT_DIAG, *(2 * (build_baseline(base, p_base),)),
                elide=False)))


def lowering_failure(source, native) -> str | None:
    """None when ``native`` prepares ``source``'s state up to global phase
    and its recorded qubit permutation."""
    a = run_statevector(source).amps
    b = run_statevector(native).amps.reshape([2] * native.width)
    b = np.transpose(b, axes=native.metadata["final_positions"]).reshape(-1)
    k = int(np.argmax(np.abs(a)))
    phase = b[k] / a[k]
    gap = float(np.max(np.abs(b - phase * a)))
    if abs(abs(phase) - 1.0) > 1e-9 or gap > 1e-9:
        return f"lowered state differs by {gap:.2e} (|phase| {abs(phase):.6f})"
    return None


def gate_counts(native) -> tuple[int, int]:
    g2 = sum(len(g.qubits) == 2 for g in native.gates)
    return len(native.gates) - g2, g2


def band_failures(rows: list[dict[str, str]], sizes) -> Failures:
    """Criterion 6 on the ``gatecount.csv`` rows."""
    fails: Failures = {n: [] for n in sizes}
    by = {(int(r["n"]), r["basis"], r["scheme"]): (int(r["g1"]), int(r["g2"]))
          for r in rows}
    for n in sizes:
        for scheme in ("low_depth", "conventional"):
            ion, sc = by.get((n, "ion", scheme)), by.get((n, "sc", scheme))
            if ion is None or sc is None:
                fails[n].append(f"no {scheme} rows")
            elif not ion[1] < sc[1]:
                fails[n].append(f"{scheme}: ion g2 {ion[1]} not below sc g2 {sc[1]}")
    low_ion, low_sc = by.get((3, "ion", "low_depth")), by.get((3, "sc", "low_depth"))
    conv_ion = by.get((3, "ion", "conventional"))
    if low_ion and low_sc and conv_ion:
        within = lambda got, want: abs(got - want) <= 0.5 * want  # noqa: E731
        if not conv_ion[1] >= 3 * low_ion[1]:
            fails[3].append(f"ion g2 ratio {conv_ion[1] / low_ion[1]:.2f} < 3")
        if not (within(low_ion[0], 242) and within(low_ion[1], 43)):
            fails[3].append(f"low-depth ion {low_ion} not within 50% of (242, 43)")
        if not (within(low_sc[0], 1868) and within(low_sc[1], 181)):
            fails[3].append(f"low-depth sc {low_sc} not within 50% of (1868, 181)")
    return fails


@dataclass(frozen=True)
class Gatecount:
    """The native gate-count sweep of the paper's table."""

    n_max: int = 6
    lowered: tuple[int, ...] = (3, 4)   # sizes whose lowering is simulated

    @property
    def operations(self) -> int:
        return self.n_max - 2

    def argv(self) -> list[str]:
        return ["gatecount", "--n-max", str(self.n_max)]

    def check(self, out: Path, probe: dict, seed: int) -> Failures:
        rows = read_csv(out / "gatecount.csv")
        fails = band_failures(rows, range(3, self.n_max + 1))
        by = {(int(r["n"]), r["basis"], r["scheme"]): (int(r["g1"]), int(r["g2"]))
              for r in rows}
        for n in self.lowered:
            for scheme, source in gatecount_circuits(seed, n):
                for basis in BasisTarget:
                    native = decompose(source, basis)
                    msg = lowering_failure(source, native)
                    if msg:
                        fails[n].append(f"{scheme} {basis.value}: {msg}")
                    if by.get((n, basis.value, scheme)) != gate_counts(native):
                        fails[n].append(f"{scheme} {basis.value}: row "
                                        f"{by.get((n, basis.value, scheme))} is not "
                                        f"the lowered count {gate_counts(native)}")
        return fails
