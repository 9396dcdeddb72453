"""End-to-end acceptance checks.

Each test covers one headline claim of the package and prints a single
PASS/FAIL verdict line with the measured numbers, so a full run leaves a
nine-line scoreboard in the captured output.  The noisy-dynamics checks
(7 and 8) run density-matrix simulations through device noise profiles,
each estimator circuit cut after U_lam, and do every optimizer sweep of
a sampled run; on a 2-core machine they take about 11 s each (5 and 2.5
minutes when every circuit was simulated whole), and no test carries
the ``slow`` marker.  Criterion 4's 56-step noiseless run takes about
2 s.
"""
import csv
import math

import numpy as np

from lowdepthqc.ansatz import AnsatzSpec, BaselineSpec, Head, Variant, \
    ansatz_state, bind_parameter, build_ansatz, build_baseline
from lowdepthqc.burgers import (BurgersGrid, FieldState, classical_step,
                                gterm_values, initial_condition_gaussian,
                                step_matrix)
from lowdepthqc.circuit import parse_circuit, serialize_circuit
from lowdepthqc.cli import main
from lowdepthqc.elision import (detect_hadamard_form, elide_body,
                                statevector_deviation)
from lowdepthqc.hadamard import (EstimatorMode, GTermKind, build_gterm_circuit,
                                 gterm_oracle)
from lowdepthqc.noise import (DepolarizingChannel, amplitude_damping,
                              dephasing)
from lowdepthqc.sgeo import _BINDINGS, fit_initial_state, reconstruct_bracket
from lowdepthqc.simulator import (ShotConfig, _apply_matrix as _apply_superop,
                                  ancilla_expectation_z, run_statevector,
                                  sample_from_expectation)
from lowdepthqc.transpile import BasisTarget, count_report

from conftest import random_circuit
from test_elision import random_hadamard_form


def _verdict(num: int, name: str, ok: bool, detail: str):
    line = f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _read_series(out):
    with open(out / "series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {float(r["t"]): (float(r["fidelity"]), float(r["infidelity"]))
            for r in rows}


def _snapshot_gradient(out, t_want):
    with open(out / "fields.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh)
                if abs(float(r["t"]) - t_want) < 1e-9]
    u = np.array([float(r["u_vqa"]) for r in rows])
    return float(np.max(np.abs(np.diff(u)))) if len(u) else float("nan")


def test_criterion_1_elision_equivalence():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        c = random_hadamard_form(rng, n, int(rng.integers(3, 20)),
                                 imaginary=bool(rng.integers(2)))
        reduced = elide_body(c, detect_hadamard_form(c))
        worst = max(worst, statevector_deviation(c, reduced))
    _verdict(1, "ancilla-control elision", worst <= 1e-10,
             f"max statevector deviation {worst:.2e} over 200 circuits")


def test_criterion_2_sgeo_reconstruction_exactness():
    rng = np.random.default_rng(2)
    spec = AnsatzSpec(3, 3, Variant.CRY, Head.RY)
    grid = BurgersGrid(3, 0.0125, 1e-3)
    p_t = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    prev = FieldState(1.4, np.real(ansatz_state(spec, p_t)),
                      build_ansatz(spec, p_t))
    params = tuple(rng.uniform(-math.pi, math.pi, spec.parameter_count))
    mode = EstimatorMode()
    worst = 0.0
    for j in range(spec.parameter_count):
        sums = tuple(
            gterm_values(grid, prev,
                         build_ansatz(spec, bind_parameter(params, j, b)), mode)
            for b in _BINDINGS)
        for lam in rng.uniform(-math.pi, math.pi, 64):
            direct = -gterm_values(
                grid, prev, build_ansatz(spec, bind_parameter(params, j, lam)),
                mode) ** 2
            s = reconstruct_bracket(sums, lam)
            worst = max(worst, abs(-s * s - direct))
    _verdict(2, "analytic cost reconstruction", worst <= 1e-10,
             f"max |reconstructed - direct| {worst:.2e}, "
             f"64 angles x {spec.parameter_count} parameters")


def test_criterion_3_circuits_match_dense_oracles():
    rng = np.random.default_rng(3)
    worst = 0.0
    checks = 0
    for n in (2, 3, 4):
        spec = AnsatzSpec(n, 2, Variant.CU_ALT, Head.RY)
        for _ in range(50):
            mk = lambda: build_ansatz(
                spec, rng.uniform(-math.pi, math.pi, spec.parameter_count))
            u_t, u_lam = mk(), mk()
            for kind in GTermKind:
                for direction in (("plus",) if kind is GTermKind.OVERLAP
                                  else ("plus", "minus")):
                    circuit = build_gterm_circuit(kind, u_t, u_lam,
                                                  direction=direction)
                    got = ancilla_expectation_z(run_statevector(circuit),
                                                circuit.ancilla)
                    want = gterm_oracle(kind, u_t, u_lam, direction=direction)
                    worst = max(worst, abs(got - want))
                    checks += 1
    _verdict(3, "estimator circuits vs dense oracle", worst <= 1e-10,
             f"max deviation {worst:.2e} over {checks} circuit evaluations")


def test_criterion_4_noiseless_dynamics(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "-n", "3", "-d", "3", "--nu", "0.001", "--steps", "56",
                 "--sigma", "0.3", "--seed", "0",
                 "--snapshots", "0.0", "0.7", "--out", str(out)])
    assert code == 0
    series = _read_series(out)
    worst = max(infid for _, infid in series.values())
    g0 = _snapshot_gradient(out, 0.0)
    g7 = _snapshot_gradient(out, 0.7)
    ok = worst < 1e-2 and g7 > 2 * g0
    _verdict(4, "noiseless shock dynamics", ok,
             f"worst infidelity {worst:.2e} over 56 steps; "
             f"max field gradient {g0:.3f} -> {g7:.3f} at t=0.7")


def test_criterion_5_initial_state_fit():
    grid = BurgersGrid(3, 0.0125, 1e-3)
    ic = initial_condition_gaussian(grid, 0.3)
    spec = AnsatzSpec(3, 3, Variant.CRY, Head.RY)
    res = fit_initial_state(ic.psi, spec, threshold=1e-6, seed=0)
    _verdict(5, "Gaussian initial-state fit", res.infidelity <= 1e-4,
             f"infidelity {res.infidelity:.2e} (bound 1e-4)")


def test_criterion_6_gate_counts():
    rng = np.random.default_rng(6)
    reports = {}
    for scheme, make in (("low_depth", lambda n: (
                             AnsatzSpec(n, 2 * n - 3, Variant.CU_ALT, Head.RY),
                             build_ansatz, True)),
                         ("conventional", lambda n: (
                             BaselineSpec(n), build_baseline, False))):
        for n in (3, 4, 5):
            spec, build, elide = make(n)
            params = tuple(rng.uniform(-math.pi, math.pi,
                                       spec.parameter_count))
            u = build(spec, params)
            circ = build_gterm_circuit(GTermKind.SHIFT_DIAG, u, u, elide=elide)
            for basis in BasisTarget:
                reports[(scheme, n, basis)] = count_report(circ, basis)

    low_ion = reports[("low_depth", 3, BasisTarget.ION)]
    low_sc = reports[("low_depth", 3, BasisTarget.SC)]
    conv_ion = reports[("conventional", 3, BasisTarget.ION)]
    ratio = conv_ion.g2 / low_ion.g2
    within = lambda got, want: abs(got - want) <= 0.5 * want
    ion_below_sc = all(reports[(s, n, BasisTarget.ION)].g2
                       < reports[(s, n, BasisTarget.SC)].g2
                       for s in ("low_depth", "conventional")
                       for n in (3, 4, 5))
    ok = (ratio >= 3.0
          and within(low_ion.g1, 242) and within(low_ion.g2, 43)
          and within(low_sc.g1, 1868) and within(low_sc.g2, 181)
          and ion_below_sc)
    _verdict(6, "native gate counts", ok,
             f"n=3 ION g2 ratio {ratio:.2f} (conv {conv_ion.g2} / "
             f"low {low_ion.g2}); low ION ({low_ion.g1},{low_ion.g2}) vs "
             f"(242,43); low SC ({low_sc.g1},{low_sc.g2}) vs (1868,181); "
             f"ION<SC everywhere: {ion_below_sc}")


def _noisy_run(out, profile, steps, shots, seed, snapshots=()):
    args = ["noisy-run", "-n", "3", "-d", "3", "--variant", "cu_alt",
            "--nu", "0.01", "--tau", "0.2", "--steps", str(steps),
            "--shots", str(shots), "--profile", profile,
            "--seed", str(seed), "--out", str(out)]
    if snapshots:
        args += ["--snapshots", *[str(s) for s in snapshots]]
    assert main(args) == 0
    return _read_series(out)


def test_criterion_7_noise_ordering(tmp_path):
    ion = _noisy_run(tmp_path / "aqt", "aqt-ibex", 3, 20000, 2,
                     snapshots=(0.0, 0.6))
    ion_02 = ion[0.2][0]
    ion_06 = ion[0.6][0]
    g0 = _snapshot_gradient(tmp_path / "aqt", 0.0)
    g6 = _snapshot_gradient(tmp_path / "aqt", 0.6)
    ibm = {}
    for profile in ("ibm-brisbane", "ibm-sherbrook", "ibm-kingston"):
        series = _noisy_run(tmp_path / profile, profile, 1, 20000, 0)
        ibm[profile] = series[0.2][0]
    ok = (ion_02 >= 0.95 and ion_06 >= 0.90 and g6 > g0
          and all(f <= 0.60 for f in ibm.values()))
    ibm_text = ", ".join(f"{k} {v:.3f}" for k, v in ibm.items())
    _verdict(7, "device noise ordering", ok,
             f"aqt-ibex t=0.2 {ion_02:.4f} (>=0.95), t=0.6 {ion_06:.4f} "
             f"(>=0.90), shock gradient {g0:.3f} -> {g6:.3f}; "
             f"IBM t=0.2 (<=0.60): {ibm_text}")


def test_criterion_8_low_shot_analogue(tmp_path):
    first, second = [], []
    for seed in range(5):
        series = _noisy_run(tmp_path / f"s{seed}", "aqt-ibex", 2, 500, seed)
        first.append(series[0.2][0])
        second.append(series[0.4][0])
    med1 = float(np.median(first))
    med2 = float(np.median(second))
    ok = abs(med1 - 0.9748) <= 0.05 and abs(med2 - 0.9566) <= 0.05
    _verdict(8, "low-shot trapped-ion analogue", ok,
             f"5-seed median fidelities {med1:.4f} / {med2:.4f} "
             f"vs 0.9748 / 0.9566 (+/-0.05)")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(9)

    # channel trace preservation, through each channel's superoperator as
    # the density simulator contracts it
    worst_trace = 0.0
    channels = [DepolarizingChannel((0,), 0.05), DepolarizingChannel((0, 2), 0.02),
                amplitude_damping(1, 0.1), dephasing(2, 0.07)]
    for channel in channels:
        for _ in range(10):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = a @ a.conj().T
            rho /= np.trace(rho)
            axes = [*channel.qubits, *(3 + q for q in channel.qubits)]
            out = _apply_superop(rho.reshape([2] * 6), channel.superop(), axes)
            worst_trace = max(worst_trace,
                              abs(np.trace(out.reshape(8, 8)).real - 1.0))

    # classical step: matrix form == pointwise form
    worst_step = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g = BurgersGrid(n, float(rng.uniform(0.001, 0.05)),
                        float(rng.uniform(0.0, 0.1)))
        u = rng.normal(size=g.points)
        lam = float(np.linalg.norm(u))
        state = FieldState(lam, u / lam)
        worst_step = max(worst_step, float(np.max(np.abs(
            classical_step(g, u) - step_matrix(g, state) @ state.psi))))

    # sampling concentration at 3 sigma over 1000 seeds
    z, shots = 0.3, 400
    sigma = math.sqrt((1 - z * z) / shots)
    misses = sum(abs(sample_from_expectation(z, ShotConfig(shots),
                                             rng=np.random.default_rng(s)) - z)
                 > 3 * sigma for s in range(1000))

    # parse/serialize round trip on 1000 random circuits
    trips = 0
    for _ in range(1000):
        c = random_circuit(rng, int(rng.integers(1, 8)),
                           int(rng.integers(1, 12)))
        again = parse_circuit(serialize_circuit(c))
        trips += (again.width == c.width and again.gates == c.gates)

    ok = (worst_trace <= 1e-12 and worst_step <= 1e-12
          and misses <= 20 and trips == 1000)
    _verdict(9, "property suites", ok,
             f"trace dev {worst_trace:.1e}; step dev {worst_step:.1e}; "
             f"3-sigma misses {misses}/1000; round trips {trips}/1000")
