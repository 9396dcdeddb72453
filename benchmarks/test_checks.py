"""The benchmark's checks accept real outputs and reject corrupted ones.

Runs in a few seconds, without the benchmark's workloads:

    python3 -m pytest benchmarks/test_checks.py
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
from lowdepthqc.cli import main
from lowdepthqc.transpile import BasisTarget, decompose

CHILD = Path(__file__).resolve().parent / "child.py"


def test_fidelity_off_by_1e6_is_rejected(tmp_path):
    workload = checks.Dynamics(variant="cry", nu=0.001, tau=0.0125, steps=1)
    assert main(workload.argv() + ["--seed", "0", "--out", str(tmp_path)]) == 0
    series = checks.read_csv(tmp_path / "series.csv")
    fields = checks.read_csv(tmp_path / "fields.csv")
    assert workload.check_fields(series, fields) == {1: []}

    series[1]["fidelity"] = repr(float(series[1]["fidelity"]) + 1e-6)
    assert any("fidelity" in m for m in workload.check_fields(series, fields)[1])


def test_binding_one_shot_short_is_rejected(tmp_path):
    probe_path = tmp_path / "probe.json"
    args = ["run", "-n", "2", "-d", "1", "--steps", "1", "--shots", "300",
            "--seed", "9", "--out", str(tmp_path / "out")]
    subprocess.run([sys.executable, str(CHILD), str(probe_path), "run", "--",
                    *args], check=True, capture_output=True)
    bindings = json.loads(probe_path.read_text())["bindings"]
    per_step = 10 * 3 * 3        # sweeps x parameters x bindings
    assert bindings == [[1, 1500, per_step]]
    assert checks.shot_failures(bindings, 300, per_step, 1) == {1: []}

    short = [[1, 1500, per_step - 1], [1, 1499, 1]]
    assert checks.shot_failures(short, 300, per_step, 1)[1]


def test_lowered_circuit_missing_a_gate_is_rejected():
    (_, source), _ = checks.gatecount_circuits(0, 3)
    native = decompose(source, BasisTarget.ION)
    assert checks.lowering_failure(source, native) is None

    gates = native.gates
    i = next(i for i in range(len(gates) // 2, len(gates))
             if len(gates[i].qubits) == 2)
    dropped = native.with_gates(gates[:i] + gates[i + 1:])
    assert checks.lowering_failure(source, dropped) is not None


def test_gatecount_row_outside_band_is_rejected():
    rows = []
    for scheme, source in checks.gatecount_circuits(0, 3):
        for basis in BasisTarget:
            g1, g2 = checks.gate_counts(decompose(source, basis))
            rows.append({"n": "3", "basis": basis.value, "scheme": scheme,
                         "g1": str(g1), "g2": str(g2)})
    assert checks.band_failures(rows, [3]) == {3: []}

    low_ion = next(r for r in rows
                   if r["basis"] == "ion" and r["scheme"] == "low_depth")
    low_ion["g2"] = "70"          # the band is 43 +/- 50%
    assert checks.band_failures(rows, [3])[3]


def test_quiet_model_has_no_error_left():
    for profile in ("aqt-ibex", "ibm-brisbane"):
        model, _ = checks.quiet_model(profile)
        cal = model.cal
        assert all((q.err_1q, q.p01, q.p10) == (0.0, 0.0, 0.0) for q in cal.qubits)
        assert not any(cal.pair_errors.values()) and not cal.default_2q_error


def test_noiseless_limit_meets_the_dense_value():
    spec = checks.Dynamics(variant="cu_alt", nu=0.01, tau=0.2, steps=1).spec
    params = np.random.default_rng(3).uniform(-math.pi, math.pi,
                                              spec.parameter_count)
    assert checks.noiseless_limit("aqt-ibex", spec, tuple(params),
                                  math.pi) <= checks.NOISELESS_TOL


def test_round_without_outputs_fails_every_operation(tmp_path):
    import run
    runner = run.Runner("exact-dynamics", 0, 1.0)
    ops = runner.workload.operations
    probe = {"steps": [[k, k + 1.0] for k in range(ops)], "params": [],
             "bindings": []}
    runner.check(run.Round(0, 0.0, float(ops), 40.0, probe, tmp_path))
    assert ops > 1 and (runner.attempted, runner.failed) == (ops, ops)
