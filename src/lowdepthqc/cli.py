"""Experiment driver: config handling, run orchestration, CSV emission.

Subcommands:

* ``elide``     check/rewrite a Hadamard-form circuit file
* ``fit``       fit the ansatz to the Gaussian initial profile
* ``run``       noiseless variational Burgers' dynamics
* ``noisy-run`` the same through a device noise model
* ``gatecount`` native gate-count sweep over register sizes
* ``classical`` finite-difference reference trajectory only

Exit codes: 0 success, 2 config error, 3 threshold miss under --assert.
All randomness flows from the single config seed through named
substreams, so a config+seed pair reproduces every CSV byte for byte.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import typing
import zlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .ansatz import AnsatzSpec, BaselineSpec, Head, Variant, ansatz_state, \
    build_ansatz, build_baseline, default_depth
from .burgers import (MAX_GRID_QUBITS, BurgersGrid, FieldState,
                      bracket_oracle, classical_trajectory, infidelity,
                      initial_condition_gaussian)
from .circuit import (CircuitError, parse_circuit, serialize_circuit,
                      target_matrix)
from .elision import (NotHadamardForm, detect_hadamard_form, elide_body,
                      statevector_deviation)
from .hadamard import EstimatorMode, GTermKind, build_gterm_circuit
from .noise import (RECIPES, MissingPairError, NoiseModel, builtin_profiles,
                    load_calibration_csv)
from .sgeo import SweepConfig, fit_initial_state, optimize_step
from .simulator import check_density_width, gate_superop, run_superop
from .transpile import BasisTarget, count_report, decompose, emit_1q


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    seed: int = 0
    out: Path = Path("runs/latest")
    n: int = 3
    d: int | None = None
    variant: Variant = Variant.CRY
    head: Head = Head.RY
    nu: float = 1e-3
    tau: float | None = None          # defaults to delta_x / 10
    steps: int = 40
    sigma: float = 0.3
    fit_threshold: float = 1e-4
    sweeps: int = 10
    shots: int | None = None
    profile: str | None = None
    profile_csv: str | None = None
    recipe: str = "depol_only"
    snapshots: tuple[float, ...] = ()
    n_max: int = 6
    assert_thresholds: bool = False

    @property
    def depth(self) -> int:
        return self.d if self.d is not None else default_depth(self.n)

    def grid(self) -> BurgersGrid:
        dx = 1 / (1 << self.n)
        tau = self.tau if self.tau is not None else dx / 10
        return BurgersGrid(self.n, tau, self.nu)

    def ansatz(self) -> AnsatzSpec:
        return AnsatzSpec(self.n, self.depth, self.variant, self.head)


@dataclass
class RunRecord:
    config: dict
    csv_paths: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def save(self, out: Path):
        out.mkdir(parents=True, exist_ok=True)
        # JSON has no NaN or infinity; a diverged run's summary holds them
        summary = {k: None if isinstance(v, float) and not math.isfinite(v)
                   else v for k, v in self.summary.items()}
        with open(out / "run.json", "w") as fh:
            json.dump({"config": self.config, "csv_paths": self.csv_paths,
                       "summary": summary}, fh, indent=2, default=str,
                      allow_nan=False)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    import yaml     # only a --config run pays for the import
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    return data


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
# n_max >= 3 because gatecount's table starts at n=3
_LOWER_BOUNDS = {"seed": 0, "steps": 0, "sweeps": 1, "shots": 1, "n_max": 3}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    data = _load_config(getattr(args, "config", None))
    merged = dict(data)
    for key, value in vars(args).items():
        # subcommand-specific positionals (circuit path etc.) stay on args
        if value is None or not hasattr(cfg, key):
            continue
        merged[key] = value
    for key, value in merged.items():
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, value))
    for key, low in _LOWER_BOUNDS.items():
        value = getattr(cfg, key)
        if value is not None and value < low:
            raise ConfigError(f"{key} must be >= {low}, got {value}")
    if cfg.n_max > MAX_GRID_QUBITS:
        raise ConfigError(f"n_max must be <= {MAX_GRID_QUBITS}, got {cfg.n_max}")
    if not 0 < cfg.sigma < math.inf:
        raise ConfigError(f"sigma must be finite and > 0, got {cfg.sigma}")
    if not 0 <= cfg.fit_threshold < math.inf:
        raise ConfigError(
            f"fit_threshold must be finite and >= 0, got {cfg.fit_threshold}")
    if cfg.recipe not in RECIPES:
        raise ConfigError(
            f"unknown recipe {cfg.recipe!r}; available: {list(RECIPES)}")
    try:
        tau = cfg.grid().tau
        cfg.ansatz()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for t in cfg.snapshots:
        if not (math.isfinite(t) and 0 <= round(t / tau) <= cfg.steps):
            raise ConfigError(f"snapshot time {t:g} is not a step of the run "
                              f"(t = 0..{cfg.steps * tau:g} in steps of {tau:g})")
    return cfg


def _coerce(key: str, value):
    """``value`` converted to the declared type of config field ``key``."""
    kind = _FIELD_TYPES[key]
    if type(None) in typing.get_args(kind):
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    try:
        if typing.get_origin(kind) is tuple:
            return tuple(float(v) for v in value)
        if issubclass(kind, Enum):
            return value if isinstance(value, kind) else kind(str(value).lower())
        if kind in (bool, int) and isinstance(value, bool) != (kind is bool):
            raise TypeError
        converted = kind(value)
        if kind is int and converted != float(value):
            raise ValueError
        return converted
    except (TypeError, ValueError):
        raise ConfigError(f"bad value {value!r} for {key}") from None


def _substream(seed: int, tag: str) -> np.random.Generator:
    digest = zlib.crc32(tag.encode())
    child = np.random.SeedSequence(entropy=seed, spawn_key=(digest,))
    return np.random.default_rng(child)


def _estimator(cfg: ExperimentConfig, tag: str) -> EstimatorMode:
    model = None
    if cfg.profile or cfg.profile_csv:
        if cfg.profile_csv:
            try:
                cal = load_calibration_csv(cfg.profile_csv)
            except ValueError as exc:
                raise ConfigError(f"bad profile CSV: {exc}") from None
        else:
            profiles = builtin_profiles()
            if cfg.profile not in profiles:
                raise ConfigError(
                    f"unknown profile {cfg.profile!r}; available: {sorted(profiles)}")
            cal = profiles[cfg.profile]
        model = NoiseModel(cal, cfg.recipe)
        _check_couplings(cfg, model)
    return EstimatorMode(shots=cfg.shots, noise=model,
                         rng=_substream(cfg.seed, tag))


def _check_couplings(cfg: ExperimentConfig, model: NoiseModel) -> None:
    """Fail before any work when the widest estimator circuit (shift_diag)
    is wider than density simulation takes, or the calibration misses a
    qubit or coupling that it uses.  The native 2-qubit structure, SC
    routing included, does not depend on the angles, so one lowering at
    zero angles covers every circuit of the run."""
    spec = cfg.ansatz()
    u = build_ansatz(spec, (0.0,) * spec.parameter_count)
    native = decompose(build_gterm_circuit(GTermKind.SHIFT_DIAG, u, u), model.basis)
    check_density_width(native.width)
    try:
        for inst in native.gates:
            model.channels_for(inst)
    except MissingPairError as exc:
        raise ConfigError(f"profile does not cover the circuits: {exc}") from None


def _fit(cfg: ExperimentConfig, ic):
    return fit_initial_state(ic.psi, cfg.ansatz(), threshold=cfg.fit_threshold,
                             seed=cfg.seed)


# memo tables of the lowering and the density walk, whose traffic a run's
# summary reports
_TABLES = {"emit_1q_cache": emit_1q, "target_matrix_cache": target_matrix,
           "gate_superop_cache": gate_superop, "run_superop_cache": run_superop}


def _table_counts() -> dict:
    return {name: fn.cache_info() for name, fn in _TABLES.items()}


def _table_traffic(before: dict) -> dict:
    """Hits and misses of each memo table since ``before``."""
    return {name: {"hits": info.hits - before[name].hits,
                   "misses": info.misses - before[name].misses}
            for name, info in _table_counts().items()}


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return v


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_elide(args) -> int:
    cfg = _build_config(args)
    text = Path(args.circuit).read_text()
    circuit = parse_circuit(text)
    ancilla = args.ancilla if args.ancilla is not None else 0
    circuit = type(circuit)(circuit.width, circuit.gates, ancilla)
    reduced = elide_body(circuit, detect_hadamard_form(circuit))
    dev = statevector_deviation(circuit, reduced)
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "elided.txt").write_text(serialize_circuit(reduced))
    removed = sum(len(a.controls) - len(b.controls)
                  for a, b in zip(circuit.gates, reduced.gates))
    print(f"elide: removed {removed} ancilla controls, "
          f"max statevector deviation {dev:.3e}")
    rec = RunRecord({"circuit": args.circuit}, [str(out / "elided.txt")],
                    {"removed_controls": removed, "max_deviation": dev})
    rec.save(out)
    if cfg.assert_thresholds and dev > 1e-10:
        return 3
    return 0


def cmd_fit(args) -> int:
    cfg = _build_config(args)
    result = _fit(cfg, initial_condition_gaussian(cfg.grid(), cfg.sigma))
    out = cfg.out
    _write_csv(out / "fit_params.csv", ["index", "value"],
               list(enumerate(result.params)))
    print(f"fit: n={cfg.n} d={cfg.depth} infidelity {result.infidelity:.3e} "
          f"(threshold {cfg.fit_threshold:g})")
    rec = RunRecord({"n": cfg.n, "d": cfg.depth, "sigma": cfg.sigma,
                     "seed": cfg.seed},
                    [str(out / "fit_params.csv")],
                    {"infidelity": result.infidelity})
    rec.save(out)
    if cfg.assert_thresholds and not result.reached_threshold:
        return 3
    return 0


def _run_dynamics(cfg: ExperimentConfig, mode: EstimatorMode, tables: dict):
    """Shared noiseless/noisy dynamics loop; returns (record, series rows).
    ``tables`` holds the memo counts from the command's start."""
    grid = cfg.grid()
    spec = cfg.ansatz()
    t_start = time.time()
    ic = initial_condition_gaussian(grid, cfg.sigma)
    fit = _fit(cfg, ic)
    params = fit.params
    psi0 = np.real(ansatz_state(spec, params))
    state = FieldState(ic.lam, psi0, build_ansatz(spec, params))
    classical = classical_trajectory(grid, ic.velocity, cfg.steps)

    sweep = SweepConfig(cfg.sweeps, mode)
    series = []
    traces = []
    fmap = {}

    def record(step: int, st: FieldState, cost: float):
        t = step * grid.tau
        u_cl = classical[step]
        norm = float(np.linalg.norm(u_cl))
        # an overflowed reference has no direction to be faithful to
        err = infidelity(st.psi, u_cl / norm) if math.isfinite(norm) else math.nan
        series.append((step, t, err, 1.0 - err, st.lam, norm, cost))
        fmap[step] = st

    record(0, state, -ic.lam * ic.lam)
    for step in range(1, cfg.steps + 1):
        res = optimize_step(grid, state, spec, params, sweep)
        params = res.params
        psi = np.real(ansatz_state(spec, params))
        # estimators pick the parameters; the Lambda update is classical
        # post-processing of those parameters (noiseless bracket), matching
        # how hardware runs score their optimized states
        lam = bracket_oracle(grid, state, psi)
        state = FieldState(lam, psi, build_ansatz(spec, params))
        record(step, state, res.cost)
        for e in res.trace:
            traces.append((step, e.sweep, e.param_index, e.value, e.cost))
        if not all(map(math.isfinite, series[-1])):
            print(f"stopped at step {step} of {cfg.steps}: the run diverged")
            break

    snapshots = {step: fmap[step]
                 for step in (round(t / grid.tau) for t in cfg.snapshots)
                 if step in fmap}

    worst = float(np.max([row[2] for row in series]))   # NaN if any is
    final = series[-1]
    summary = {"steps_run": final[0],
               "final_infidelity": final[2], "worst_infidelity": worst,
               "final_fidelity": final[3], "fit_infidelity": fit.infidelity,
               "coordinate_updates": len(traces),
               "estimator_circuits": mode.circuits,
               "density_passes": mode.density_passes,
               "native_gates_simulated": mode.native_gates,
               "lead_in_table": {"hits": mode.lead_in_hits,
                                 "misses": mode.lead_in_misses},
               **_table_traffic(tables),
               "wall_time_s": time.time() - t_start}
    return grid, classical, series, traces, snapshots, summary


def _emit_dynamics(cfg: ExperimentConfig, grid, classical, series, traces,
                   snapshots, summary, label: str) -> RunRecord:
    out = cfg.out
    paths = []
    p = out / "series.csv"
    _write_csv(p, ["step", "t", "infidelity", "fidelity", "lambda_vqa",
                   "lambda_classical", "cost"], series)
    paths.append(str(p))
    p = out / "cost_trace.csv"
    _write_csv(p, ["step", "sweep", "param_index", "lambda_value", "cost"], traces)
    paths.append(str(p))
    rows = []
    for step, st in sorted(snapshots.items()):
        u_cl = classical[step]
        u_vqa = st.velocity
        for k in range(grid.points):
            rows.append((step, step * grid.tau, k, grid.xs[k],
                         float(u_cl[k]), float(u_vqa[k])))
    if rows:
        p = out / "fields.csv"
        _write_csv(p, ["step", "t", "k", "x", "u_classical", "u_vqa"], rows)
        paths.append(str(p))
    rec = RunRecord({"kind": label, "seed": cfg.seed, "n": cfg.n,
                     "d": cfg.depth, "nu": cfg.nu, "tau": grid.tau,
                     "steps": cfg.steps, "variant": cfg.variant.value,
                     "head": cfg.head.value, "shots": cfg.shots,
                     "profile": cfg.profile}, paths, summary)
    rec.save(out)
    return rec


def cmd_run(args) -> int:
    tables = _table_counts()
    cfg = _build_config(args)
    if cfg.profile or cfg.profile_csv:
        raise ConfigError("run is noiseless; a noise profile needs noisy-run")
    mode = _estimator(cfg, "run")
    parts = _run_dynamics(cfg, mode, tables)
    rec = _emit_dynamics(cfg, *parts, label="burgers_run")
    s = rec.summary
    print(f"run: {s['steps_run']} steps, worst infidelity {s['worst_infidelity']:.3e}, "
          f"final {s['final_infidelity']:.3e}")
    if cfg.assert_thresholds and not s["worst_infidelity"] < 1e-2:
        return 3
    return 0


def cmd_noisy_run(args) -> int:
    tables = _table_counts()
    cfg = _build_config(args)
    if not (cfg.profile or cfg.profile_csv):
        raise ConfigError("noisy-run requires a noise profile "
                          "(--profile or profile_csv)")
    mode = _estimator(cfg, "noisy-run")
    parts = _run_dynamics(cfg, mode, tables)
    rec = _emit_dynamics(cfg, *parts, label="noisy_burgers")
    s = rec.summary
    print(f"noisy-run [{cfg.profile}]: {s['steps_run']} steps, "
          f"final fidelity {s['final_fidelity']:.4f}")
    return 0


def cmd_gatecount(args) -> int:
    cfg = _build_config(args)
    tables = _table_counts()
    rows = []
    for n in range(3, cfg.n_max + 1):
        low = AnsatzSpec(n, default_depth(n), cfg.variant, cfg.head)
        base = BaselineSpec(n)
        rng = _substream(cfg.seed, f"gatecount-{n}")
        p_low = tuple(rng.uniform(-math.pi, math.pi, low.parameter_count))
        p_base = tuple(rng.uniform(-math.pi, math.pi, base.parameter_count))
        u_low = build_ansatz(low, p_low)
        u_base = build_baseline(base, p_base)
        for scheme, u, elide in (("low_depth", u_low, True),
                                 ("conventional", u_base, False)):
            circ = build_gterm_circuit(GTermKind.SHIFT_DIAG, u, u, elide=elide)
            for basis in BasisTarget:
                r = count_report(circ, basis)
                rows.append((n, basis.value, scheme, r.g1, r.g2, r.depth))
    out = cfg.out
    _write_csv(out / "gatecount.csv",
               ["n", "basis", "scheme", "g1", "g2", "depth"], rows)
    for row in rows:
        print("gatecount: n=%d %s %-12s g1=%-5d g2=%-4d depth=%d" % row)
    rec = RunRecord({"n_max": cfg.n_max, "variant": cfg.variant.value},
                    [str(out / "gatecount.csv")], _table_traffic(tables))
    rec.save(out)
    if cfg.assert_thresholds:
        by = {(r[0], r[1], r[2]): r for r in rows}
        g2_low = by[(3, "ion", "low_depth")][4]
        g2_conv = by[(3, "ion", "conventional")][4]
        if g2_conv < 3 * g2_low:
            return 3
    return 0


def cmd_classical(args) -> int:
    cfg = _build_config(args)
    grid = cfg.grid()
    ic = initial_condition_gaussian(grid, cfg.sigma)
    traj = classical_trajectory(grid, ic.velocity, cfg.steps)
    rows = []
    for step in range(cfg.steps + 1):
        for k in range(grid.points):
            rows.append((step, step * grid.tau, k, grid.xs[k], float(traj[step, k])))
    out = cfg.out
    _write_csv(out / "classical.csv", ["step", "t", "k", "x", "u"], rows)
    print(f"classical: {cfg.steps} steps written to {out / 'classical.csv'}")
    RunRecord({"n": cfg.n, "nu": cfg.nu, "steps": cfg.steps},
              [str(out / "classical.csv")], {}).save(out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, seed: bool = True,
                check: bool = True):
    """``--config`` and ``--out``, and ``--seed`` and ``--assert`` for a
    subcommand that reads them."""
    p.add_argument("--config", help="YAML config file")
    if seed:
        p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    if check:
        p.add_argument("--assert", dest="assert_thresholds",
                       action="store_true", default=None,
                       help="exit 3 when an acceptance threshold is missed")


_MODEL_FLAGS = {
    "n": {"type": int}, "d": {"type": int},
    "variant": {"choices": [v.value for v in Variant]},
    "head": {"choices": [h.value for h in Head]},
    "nu": {"type": float}, "tau": {"type": float}, "sigma": {"type": float},
    "steps": {"type": int}, "sweeps": {"type": int}, "shots": {"type": int},
    "snapshots": {"type": float, "nargs": "*"},
}


def _add_model(p: argparse.ArgumentParser, *keys: str):
    """Flags for the config keys ``keys``, or for all model keys: each
    subcommand takes only the flags it reads."""
    for key in keys or _MODEL_FLAGS:
        flag = "-" + key if len(key) == 1 else "--" + key
        p.add_argument(flag, dest=key, default=None, **_MODEL_FLAGS[key])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lowdepthqc",
        description="Low-depth Hadamard-test experiments for Burgers' dynamics")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("elide", help="elide ancilla controls in a circuit file")
    p.add_argument("circuit", help="circuit text file")
    p.add_argument("--ancilla", type=int, default=None)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_elide)

    p = sub.add_parser("fit", help="fit the ansatz to the Gaussian profile")
    _add_common(p); _add_model(p, "n", "d", "variant", "head", "sigma")
    p.add_argument("--fit-threshold", type=float, default=None, dest="fit_threshold")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("run", help="noiseless variational dynamics")
    _add_common(p); _add_model(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("noisy-run", help="dynamics through a device noise model")
    _add_common(p, check=False); _add_model(p)
    p.add_argument("--profile", default=None,
                   help="builtin noise profile name")
    p.add_argument("--profile-csv", default=None, dest="profile_csv")
    p.add_argument("--recipe", choices=RECIPES, default=None)
    p.set_defaults(func=cmd_noisy_run)

    p = sub.add_parser("gatecount", help="native gate-count sweep")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--variant", choices=[v.value for v in Variant],
                   default=Variant.CU_ALT.value)
    p.set_defaults(func=cmd_gatecount)

    p = sub.add_parser("classical", help="classical reference trajectory")
    _add_common(p, seed=False, check=False)
    _add_model(p, "n", "nu", "tau", "sigma", "steps")
    p.set_defaults(func=cmd_classical)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CircuitError, NotHadamardForm, MissingPairError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
