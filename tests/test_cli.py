import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lowdepthqc.ansatz import AnsatzSpec, Head, Variant, build_ansatz
from lowdepthqc.burgers import MAX_GRID_QUBITS
from lowdepthqc.circuit import serialize_circuit
from lowdepthqc.cli import main
from lowdepthqc.hadamard import GTermKind, build_gterm_circuit


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_classical_csv_schema(tmp_path):
    out = tmp_path / "run"
    assert main(["classical", "-n", "3", "--steps", "4",
                 "--out", str(out)]) == 0
    rows = _read_csv(out / "classical.csv")
    assert rows[0] == ["step", "t", "k", "x", "u"]
    assert len(rows) == 1 + 5 * 8
    record = json.loads((out / "run.json").read_text())
    assert record["csv_paths"]


def test_csv_rows_use_crlf(tmp_path):
    out = tmp_path / "run"
    main(["classical", "-n", "2", "--steps", "1", "--out", str(out)])
    raw = (out / "classical.csv").read_bytes()
    assert b"\r\n" in raw


def test_run_is_byte_deterministic(tmp_path):
    args = ["run", "-n", "2", "-d", "1", "--steps", "2", "--shots", "300",
            "--seed", "9"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(args + ["--out", str(out)]) == 0
        outs.append((out / "series.csv").read_bytes()
                    + (out / "cost_trace.csv").read_bytes())
    assert outs[0] == outs[1]


def test_diverged_run_fails_its_assert(tmp_path):
    """A run whose state overflows reports no infidelity (null in a strict
    JSON file), not 0, and --assert rejects it whichever step diverged
    first."""
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["run", "-n", "2", "-d", "1", "--tau", "1e200",
                     "--steps", "2", "--assert", "--out", str(out)]) == 3
    summary = _strict_json(out / "run.json")["summary"]
    assert summary["worst_infidelity"] is None
    assert summary["final_infidelity"] is None


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_diverged_run_stops_at_its_first_non_finite_row(tmp_path, capsys):
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["run", "-n", "2", "-d", "1", "--tau", "1e200",
                     "--steps", "6", "--out", str(out)]) == 0
    assert "stopped at step 1 of 6" in capsys.readouterr().out
    series = _read_csv(out / "series.csv")
    assert [row[0] for row in series[1:]] == ["0", "1"]
    assert not all(math.isfinite(float(v)) for v in series[-1])
    trace = _read_csv(out / "cost_trace.csv")[1:]
    assert trace and {row[0] for row in trace} == {"1"}
    summary = _strict_json(out / "run.json")["summary"]
    assert summary["steps_run"] == 1
    assert summary["coordinate_updates"] == len(trace)


def test_run_seed_changes_sampled_output(tmp_path):
    base = ["run", "-n", "2", "-d", "1", "--steps", "1", "--shots", "300"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(base + ["--seed", "1", "--out", str(a)])
    main(base + ["--seed", "2", "--out", str(b)])
    assert (a / "series.csv").read_bytes() != (b / "series.csv").read_bytes()


def test_run_series_schema_and_snapshots(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "-n", "2", "-d", "1", "--steps", "2",
                 "--snapshots", "0.0", "--out", str(out)]) == 0
    rows = _read_csv(out / "series.csv")
    assert rows[0] == ["step", "t", "infidelity", "fidelity", "lambda_vqa",
                       "lambda_classical", "cost"]
    assert len(rows) == 4  # header + steps 0..2
    fields = _read_csv(out / "fields.csv")
    assert fields[0] == ["step", "t", "k", "x", "u_classical", "u_vqa"]
    trace = _read_csv(out / "cost_trace.csv")
    assert trace[0] == ["step", "sweep", "param_index", "lambda_value", "cost"]


def test_fit_command(tmp_path):
    out = tmp_path / "fit"
    assert main(["fit", "-n", "2", "-d", "1", "--out", str(out),
                 "--assert"]) == 0
    rows = _read_csv(out / "fit_params.csv")
    assert rows[0] == ["index", "value"]
    assert len(rows) == 1 + AnsatzSpec(2, 1, head=Head.RY).parameter_count


def test_gatecount_command(tmp_path):
    out = tmp_path / "gc"
    assert main(["gatecount", "--n-max", "3", "--out", str(out)]) == 0
    rows = _read_csv(out / "gatecount.csv")
    assert rows[0] == ["n", "basis", "scheme", "g1", "g2", "depth"]
    assert len(rows) == 1 + 4  # one n, 2 bases x 2 schemes
    summary = json.loads((out / "run.json").read_text())["summary"]
    assert summary["emit_1q_cache"]["hits"] > 0
    assert summary["target_matrix_cache"]["hits"] > 0


def test_elide_command(tmp_path, rng):
    spec = AnsatzSpec(2, 1, Variant.CRY, Head.RY)
    mk = lambda: build_ansatz(
        spec, rng.uniform(-math.pi, math.pi, spec.parameter_count))
    c = build_gterm_circuit(GTermKind.OVERLAP, mk(), mk(), elide=False)
    src = tmp_path / "circuit.txt"
    src.write_text(serialize_circuit(c))
    out = tmp_path / "elide"
    assert main(["elide", str(src), "--out", str(out), "--assert"]) == 0
    assert (out / "elided.txt").exists()


def test_config_file_and_override(tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("n: 2\nd: 1\nsteps: 1\nseed: 3\n")
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfgfile), "--steps", "2",
                 "--out", str(out)]) == 0
    rows = _read_csv(out / "series.csv")
    assert len(rows) == 4  # CLI --steps overrides the file


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("bogus_key: 1\n")
    assert main(["run", "--config", str(bad)]) == 2
    for text in ("variant: nope\n", "steps: abc\n", "nu: fast\n",
                 "snapshots: 0.5\n", "tol: 1e-3\n", "a: 0.0\n", "b: 2.0\n",
                 "fit_restarts: 4\n", "nu: .nan\n", "tau: .inf\n",
                 "sigma: .nan\n"):
        bad.write_text(text)
        assert main(["run", "--config", str(bad)]) == 2, text
    assert main(["noisy-run", "-n", "2", "-d", "1",
                 "--out", str(tmp_path / "x")]) == 2  # profile required
    assert main(["noisy-run", "-n", "2", "-d", "1", "--profile", "wat",
                 "--out", str(tmp_path / "y")]) == 2


def test_unparseable_circuit_exits_2(tmp_path, capsys):
    src = tmp_path / "junk.txt"
    src.write_text("not a circuit\n")
    assert main(["elide", str(src), "--out", str(tmp_path / "o")]) == 2
    # a kind outside the vocabulary
    src.write_text("qubits 3\nh -> 0\ncz 0 -> 1\nh -> 0\n")
    assert main(["elide", str(src), "--out", str(tmp_path / "o")]) == 2
    assert "unknown gate 'cz'" in capsys.readouterr().err


def test_fit_reports_the_state_run_starts_from(tmp_path):
    model = ["-n", "4", "-d", "5"]
    assert main(["fit", *model, "--out", str(tmp_path / "fit")]) == 0
    assert main(["run", *model, "--sweeps", "80", "--steps", "0",
                 "--out", str(tmp_path / "run")]) == 0
    fit = json.loads((tmp_path / "fit" / "run.json").read_text())["summary"]
    run = json.loads((tmp_path / "run" / "run.json").read_text())["summary"]
    assert fit["infidelity"] == run["fit_infidelity"]


@pytest.mark.parametrize("shots, circuits, passes, lead_ins", [
    # exact slices come from coordinate environments, with no circuit run
    (None, 0, 0, (0, 0)),
    # 2 sweeps x 3 parameters x 3 bindings x 5 families of nonzero weight,
    # each read from coordinate environments and sampled
    (50, 90, 0, (0, 0)),
    # the same tests, cut after U_lam and read from Liouville-space
    # environments: one backward pass per family's tail (5), and per sweep
    # 3 forward carries, 9 spans and 2 backward segments between the cuts
    # (28); each sweep reads the five lead-ins at its start, which the
    # second finds in the tables
    (50, 90, 33, (5, 5)),
], ids=["None-0", "50-90", "noisy-50-90"])
def test_run_json_counts_updates_and_circuits(tmp_path, shots, circuits,
                                              passes, lead_ins):
    argv = ["run", "-n", "2", "-d", "1", "--steps", "1", "--sweeps", "2",
            "--out", str(tmp_path)]
    if passes:
        argv = ["noisy-run", "--profile", "aqt-ibex"] + argv[1:]
    if shots is not None:
        argv += ["--shots", str(shots)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "run.json").read_text())["summary"]
    traces = _read_csv(tmp_path / "cost_trace.csv")[1:]
    assert summary["coordinate_updates"] == len(traces)
    assert summary["estimator_circuits"] == circuits
    assert summary["density_passes"] == passes
    assert (summary["native_gates_simulated"] > 0) == (passes > 0)
    # a noisy run reads the tail observables with their lead-ins folded in
    # from a table whose misses alone lower and simulate gates
    table = summary["lead_in_table"]
    assert (table["hits"], table["misses"]) == lead_ins
    # the memo tables' traffic: only a noisy run lowers to native gates
    emit, matrices = summary["emit_1q_cache"], summary["target_matrix_cache"]
    assert set(emit) == set(matrices) == {"hits", "misses"}
    assert (emit["hits"] + emit["misses"] > 0) == (passes > 0)
    assert matrices["hits"] + matrices["misses"] > 0
    # and the density walk's superoperator tables: only a noisy run walks
    for name in ("gate_superop_cache", "run_superop_cache"):
        assert set(summary[name]) == {"hits", "misses"}
        assert (summary[name]["hits"] > 0) == (passes > 0)
    if shots is not None:
        assert len(traces) == 2 * 3


@pytest.mark.parametrize("argv", [
    ["run", "--sweeps", "0"],
    ["run", "--steps", "-1"],
    ["run", "--sigma", "-1"],
    ["noisy-run", "--profile", "aqt-ibex", "--shots", "0"],
    ["gatecount", "--n-max", "2", "--assert"],
    ["run", "-n", "2", "-d", "1", "--steps", "2", "--snapshots", "5.0", "-1"],
    ["run", "-n", "2", "-d", "1", "--steps", "2", "--snapshots", "0.0", "-1"],
    ["run", "--seed", "-1"],
    ["gatecount", "--seed", "-1"],
    ["run", "--sigma", "nan"],
    ["run", "--sigma", "inf"],
    ["run", "--nu", "nan"],
    ["run", "--nu", "inf"],
    ["run", "--tau", "nan"],
    ["run", "--tau", "inf"],
    ["gatecount", "--n-max", str(MAX_GRID_QUBITS + 1)],
    ["gatecount", "--n-max", "40"],
])
def test_bad_cli_input_exits_2_before_any_work(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--nu", "0.01"],
    ["fit", "--tau", "0.1"],
    ["fit", "--steps", "3"],
    ["fit", "--sweeps", "1"],
    ["fit", "--shots", "5"],
    ["fit", "--snapshots", "0.1"],
    ["classical", "-d", "2"],
    ["classical", "--variant", "cry"],
    ["classical", "--head", "x"],
    ["classical", "--sweeps", "1"],
    ["classical", "--shots", "5"],
    ["classical", "--snapshots", "0.1"],
    ["classical", "--steps", "1", "--seed", "3"],
    ["classical", "--steps", "1", "--assert"],
    ["elide", "c.txt", "--seed", "3"],
    ["noisy-run", "-n", "2", "-d", "1", "--steps", "1", "--sweeps", "1",
     "--profile", "aqt-ibex", "--assert"],
])
def test_flag_the_subcommand_ignores_exits_2(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", [["classical", "--steps", "1"], ["fit"],
                                     ["run", "--steps", "1"]])
@pytest.mark.parametrize("n", [64, MAX_GRID_QUBITS + 1])
def test_oversized_register_exits_2_before_any_work(tmp_path, capsys,
                                                    command, n):
    out = tmp_path / "out"
    assert main(command + ["-n", str(n), "--out", str(out)]) == 2
    assert f"n <= {MAX_GRID_QUBITS}, got {n}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, variant, layers", [
    (["run"], Variant.CRY, set()),
    (["noisy-run", "--variant", "cu_alt", "--profile", "ibm-brisbane"],
     Variant.CU_ALT, {"simulator.density", "transpile"}),
], ids=("run", "noisy-run"))
def test_benchmark_probes_attach(tmp_path, command, variant, layers):
    """The benchmark's child process wraps package functions by name, so a
    renamed function would leave its probe silently unattached."""
    root = Path(__file__).resolve().parents[1]
    probe = tmp_path / "probe.json"
    argv = [sys.executable, str(root / "benchmarks" / "child.py"), str(probe),
            "trace", "--", *command, "-n", "2", "-d", "1", "--steps", "1",
            "--shots", "50", "--sweeps", "1", "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(probe.read_text())
    bindings = data["bindings"]
    assert {shots for _, shots, _ in bindings} == {5 * 50}
    spec = AnsatzSpec(2, 1, variant, Head.RY)
    assert sum(count for *_, count in bindings) == 3 * spec.parameter_count
    spans = {span[0] for span in data["spans"]}
    assert {"hadamard.evaluate", "sgeo.optimize", "sgeo.fit"} | layers <= spans


def test_density_cap_exits_2_before_the_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("an over-wide run reached the initial-state fit")

    monkeypatch.setattr("lowdepthqc.cli.fit_initial_state", no_fit)
    # a 20-qubit linear chain covers the 14 wires of the n=5 shift_diag circuit
    chain = tmp_path / "chain.csv"
    rows = ["qubit,t1,t2,p01,p10,err_1q,pair_a,pair_b,err_2q"]
    rows += [f"{q},200,150,0.01,0.02,0.0003,{q},{q + 1},0.005" for q in range(19)]
    rows.append("19,200,150,0.01,0.02,0.0003,,,")
    chain.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main(["noisy-run", "-n", "5", "-d", "1", "--steps", "1",
                 "--sweeps", "1", "--shots", "10", "--profile-csv", str(chain),
                 "--out", str(out)]) == 2
    assert "density simulation capped at 12 qubits, got 14" in capsys.readouterr().err
    assert not out.exists()


def _calibration_csv(path, columns, qubits=range(12), **values):
    values = {"t1": "200", "t2": "150", "p01": "0.01", "p10": "0.02",
              "err_1q": "0.0003", **values}
    rows = [",".join(columns)]
    for q in qubits:
        rows.append(",".join(str(q) if c == "qubit" else values[c]
                             for c in columns))
    path.write_text("\n".join(rows) + "\n")


def test_bad_noise_input_exits_2(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("bad noise input reached the initial-state fit")

    monkeypatch.setattr("lowdepthqc.cli.fit_initial_state", no_fit)
    quick = ["noisy-run", "-n", "2", "-d", "1", "--steps", "1",
             "--sweeps", "1", "--shots", "10"]
    cfg = tmp_path / "recipe.yaml"
    cfg.write_text("recipe: bogus\nprofile: aqt-ibex\n")
    out = tmp_path / "recipe"
    assert main(quick + ["--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown recipe 'bogus'" in capsys.readouterr().err
    assert not out.exists()

    no_p01 = tmp_path / "no_p01.csv"
    _calibration_csv(no_p01, ["qubit", "t1", "t2", "p10", "err_1q"])
    out = tmp_path / "column"
    assert main(quick + ["--profile-csv", str(no_p01), "--out", str(out)]) == 2
    assert "no column 'p01'" in capsys.readouterr().err
    assert not out.exists()

    # every qubit calibrated, but no 2-qubit error for any coupling
    no_pairs = tmp_path / "no_pairs.csv"
    _calibration_csv(no_pairs, ["qubit", "t1", "t2", "p01", "p10", "err_1q"])
    assert main(quick + ["--profile-csv", str(no_pairs),
                         "--out", str(tmp_path / "pairs")]) == 2
    assert "has no 2q error for pair" in capsys.readouterr().err

    # each calibration must reach the qubit it names, with physical values
    full = ["qubit", "t1", "t2", "p01", "p10", "err_1q"]
    thermal = quick + ["--recipe", "depol_plus_thermal"]
    for tag, qubits, values, message in (
            ("gap", [0, 2], {}, "qubits 0..1, got qubits [0, 2]"),
            ("twice", [0, 1, 1], {}, "qubits 0..2, got qubits [0, 1, 1]"),
            ("t1", range(12), {"t1": "0"}, "needs t1, t2 > 0"),
            ("t2", range(12), {"t2": "-5"}, "needs t1, t2 > 0"),
            ("err_1q", range(12), {"err_1q": "-0.1"}, "error rate out of range")):
        path = tmp_path / f"{tag}.csv"
        _calibration_csv(path, full, qubits, **values)
        out = tmp_path / tag
        assert main(thermal + ["--profile-csv", str(path),
                               "--out", str(out)]) == 2, tag
        assert message in capsys.readouterr().err, tag
        assert not out.exists()


@pytest.mark.parametrize("pair", [(3, 3), (0, 99), (-1, 0)])
def test_calibration_pairs_must_name_calibrated_qubits(tmp_path, capsys,
                                                       monkeypatch, pair):
    def no_fit(*args, **kwargs):
        raise AssertionError("a bad calibration pair reached the initial-state fit")

    monkeypatch.setattr("lowdepthqc.cli.fit_initial_state", no_fit)
    # a linear chain over 4 qubits, with one pair naming no coupling of it
    path = tmp_path / "pairs.csv"
    rows = ["qubit,t1,t2,p01,p10,err_1q,pair_a,pair_b,err_2q"]
    rows += [f"{q},200,150,0.01,0.02,0.0003,{q},{q + 1},0.005" for q in range(3)]
    rows.append(f"3,200,150,0.01,0.02,0.0003,{pair[0]},{pair[1]},0.005")
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main(["noisy-run", "-n", "2", "-d", "1", "--steps", "1",
                 "--sweeps", "1", "--shots", "10", "--profile-csv", str(path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"pair ({pair[0]}, {pair[1]}) does not name two distinct " \
           "calibrated qubits of 0..3" in err
    assert not out.exists()
