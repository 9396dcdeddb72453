import math

import numpy as np
import pytest

from lowdepthqc.circuit import Circuit, Gate, GateInstance
from lowdepthqc.noise import (DepolarizingChannel, DeviceCalibration,
                              GateDurations, KrausChannel, MissingPairError,
                              NoiseModel, QubitCalibration, amplitude_damping,
                              builtin_profiles, dephasing,
                              load_calibration_csv)
from lowdepthqc.simulator import run_density, run_statevector


def _random_density(rng, n):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _apply_dense(channel, rho, n):
    tensor = rho.reshape([2] * (2 * n)).copy()
    out = channel.apply(tensor, n)
    return out.reshape(rho.shape)


def test_channels_preserve_trace(rng):
    n = 3
    channels = [DepolarizingChannel((0,), 0.05),
                DepolarizingChannel((0, 2), 0.02),
                amplitude_damping(1, 0.1),
                dephasing(2, 0.07)]
    for channel in channels:
        for _ in range(10):
            rho = _random_density(rng, n)
            out = _apply_dense(channel, rho, n)
            assert abs(np.trace(out).real - 1.0) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-10


def test_depolarizing_fast_path_matches_kraus(rng):
    n = 3
    for qubits in ((1,), (0, 2)):
        channel = DepolarizingChannel(qubits, 0.08)
        rho = _random_density(rng, n)
        fast = _apply_dense(channel, rho, n)
        slow = np.zeros_like(rho)
        for k in channel.kraus():
            full = _embed(k, qubits, n)
            slow += full @ rho @ full.conj().T
        assert np.max(np.abs(fast - slow)) <= 1e-12


def _embed(m, qs, width):
    dim = 1 << width
    full = np.zeros((dim, dim), dtype=complex)
    k = len(qs)
    for col in range(dim):
        bits = [(col >> (width - 1 - q)) & 1 for q in range(width)]
        sub_col = 0
        for q in qs:
            sub_col = (sub_col << 1) | bits[q]
        for sub_row in range(1 << k):
            row_bits = list(bits)
            for a, q in enumerate(qs):
                row_bits[q] = (sub_row >> (k - 1 - a)) & 1
            row = 0
            for b in row_bits:
                row = (row << 1) | b
            full[row, col] += m[sub_row, sub_col]
    return full


def test_kraus_completeness_is_enforced():
    bad = [np.eye(2) * 0.5]
    with pytest.raises(ValueError):
        KrausChannel(0, bad)


def test_depolarizing_probability_conversion():
    cal = DeviceCalibration(
        "toy", (QubitCalibration(100.0, 80.0, 0.0, 0.0, 1e-3),) * 2,
        {(0, 1): 1e-2}, False, None)
    model = NoiseModel(cal)
    x = GateInstance(Gate.X, (), (0,))
    (ch,) = model.channels_for(x)
    assert ch.p == pytest.approx(2 * 1e-3)
    ecr = GateInstance(Gate.ECR, (), (0, 1))
    (ch2,) = model.channels_for(ecr)
    assert ch2.p == pytest.approx(4 / 3 * 1e-2)
    rz = GateInstance(Gate.RZ, (), (0,), (0.3,))
    assert model.channels_for(rz) == []


def test_zero_noise_density_matches_statevector(rng):
    cal = DeviceCalibration(
        "ideal", (QubitCalibration(1e9, 1e9, 0.0, 0.0, 0.0),) * 3,
        {}, True, 0.0)
    model = NoiseModel(cal)
    c = Circuit(3, (GateInstance(Gate.SX, (), (0,)),
                    GateInstance(Gate.RZ, (), (1,), (0.4,)),
                    GateInstance(Gate.RXX, (), (0, 2), (0.9,))))
    psi = run_statevector(c).amps
    rho = run_density(c, noise=model).rho
    assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) <= 1e-12


def test_thermal_recipe_adds_relaxation_channels():
    cal = DeviceCalibration(
        "toy", (QubitCalibration(100.0, 80.0, 0.0, 0.0, 1e-3),) * 2,
        {(0, 1): 1e-2}, False, None)
    model = NoiseModel(cal, recipe="depol_plus_thermal")
    x = GateInstance(Gate.X, (), (0,))
    kinds = [type(ch).__name__ for ch in model.channels_for(x)]
    assert kinds.count("KrausChannel") == 2  # amplitude damping + dephasing


def test_noise_monotone_in_error_rate(rng):
    # scaling all error rates up can only lower the ancilla signal
    from lowdepthqc.ansatz import AnsatzSpec, Head, Variant, build_ansatz
    from lowdepthqc.hadamard import EstimatorMode, GTermKind, estimate_gterm
    from lowdepthqc.transpile import BasisTarget

    spec = AnsatzSpec(2, 1, Variant.CU_ALT, Head.RY)
    mk = lambda: build_ansatz(
        spec, rng.uniform(-math.pi, math.pi, spec.parameter_count))
    u_t, u_lam = mk(), mk()
    cal = builtin_profiles()["aqt-ibex"]
    values = []
    for alpha in (0.0, 1.0, 3.0):
        model = NoiseModel(cal.scaled(alpha))
        mode = EstimatorMode.noisy(model, BasisTarget.ION)
        values.append(abs(estimate_gterm(GTermKind.OVERLAP, u_t, u_lam, mode)))
    assert values[0] >= values[1] >= values[2]


def test_builtin_profiles_present():
    profiles = builtin_profiles()
    assert set(profiles) == {"ibm-brisbane", "ibm-sherbrook", "ibm-kingston",
                             "aqt-ibex"}
    for name, cal in profiles.items():
        assert len(cal.qubits) >= 8
        if name == "aqt-ibex":
            assert cal.all_to_all
        assert cal.name == name


def test_pair_error_lookup_and_missing_pair():
    cal = builtin_profiles()["ibm-brisbane"]
    assert cal.two_qubit_error(4, 5) == cal.two_qubit_error(5, 4)
    with pytest.raises(MissingPairError):
        cal.two_qubit_error(0, 7)
    ibex = builtin_profiles()["aqt-ibex"]
    assert ibex.two_qubit_error(0, 11) == pytest.approx(1.3e-2)


def test_t2_flags():
    # physical constraint: T2 <= 2 T1; flag violating qubits
    cal = DeviceCalibration(
        "toy", (QubitCalibration(10.0, 25.0, 0.0, 0.0, 1e-3),
                QubitCalibration(10.0, 15.0, 0.0, 0.0, 1e-3)),
        {}, True, 1e-2)
    assert cal.t2_flags() == [0]


def test_readout_confusion_matrix():
    cal = DeviceCalibration(
        "toy", (QubitCalibration(100.0, 80.0, 0.02, 0.05, 1e-3),),
        {}, True, 1e-2)
    model = NoiseModel(cal)
    m = model.confusion_matrix(0)
    # columns are true states: P(measure 0 | prepared 0) = 1 - p10
    assert np.allclose(m, [[0.95, 0.02], [0.05, 0.98]])
    assert np.allclose(m.sum(axis=0), 1.0)


def test_calibration_csv_round_trip(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("qubit,t1,t2,p01,p10,err_1q,pair_a,pair_b,err_2q\n"
                 "0,100.0,80.0,0.01,0.02,0.0002,0,1,0.004\n"
                 "1,120.0,90.0,0.015,0.025,0.0003,,,\n")
    cal = load_calibration_csv(str(p), name="file-device")
    assert len(cal.qubits) == 2
    assert cal.qubit(1).t1 == 120.0
    assert cal.two_qubit_error(0, 1) == pytest.approx(0.004)


def _gate_by_gate_density(c, model):
    """Reference evolution: dense unitary per gate, then each channel."""
    from conftest import embed_gate

    n = c.width
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for inst in c.gates:
        u = embed_gate(inst, n)
        rho = u @ rho @ u.conj().T
        for ch in model.channels_for(inst):
            rho = _apply_dense(ch, rho, n)
    return rho


def _partial_trace(rho, n, keep):
    t = rho.reshape([2] * (2 * n))
    gone = [q for q in range(n) if q not in keep]
    for q in sorted(gone, reverse=True):
        m = t.ndim // 2
        t = np.trace(t, axis1=q, axis2=m + q)
    rest = [q for q in range(n) if q in keep]
    order = [rest.index(q) for q in keep]
    m = len(keep)
    t = t.transpose(order + [m + a for a in order])
    return t.reshape(1 << m, 1 << m)


def _random_native_circuit(rng, width, length):
    from conftest import random_circuit

    gates = (Gate.X, Gate.SX, Gate.RZ, Gate.R, Gate.ECR, Gate.RXX,
             Gate.RZZ)
    # leave the last qubit idle and end on a run of 1-qubit gates, so
    # that lazy allocation and skipped trailing gates are exercised
    c = random_circuit(rng, width - 1, length, gates)
    tail = random_circuit(rng, width - 1, 4, (Gate.SX, Gate.RZ, Gate.X))
    return Circuit(width, c.gates + tail.gates)


@pytest.mark.parametrize("recipe", ["depol_only", "depol_plus_thermal"])
def test_fused_density_matches_gate_by_gate(rng, recipe):
    model = NoiseModel(builtin_profiles()["aqt-ibex"], recipe)
    for _ in range(6):
        width = int(rng.integers(2, 6))
        c = _random_native_circuit(rng, width, 25)
        want = _gate_by_gate_density(c, model)
        got = run_density(c, noise=model).rho
        assert np.max(np.abs(got - want)) <= 1e-12


def test_reduced_density_is_the_partial_trace(rng):
    model = NoiseModel(builtin_profiles()["aqt-ibex"], "depol_plus_thermal")
    for _ in range(6):
        width = int(rng.integers(3, 6))
        c = _random_native_circuit(rng, width, 25)
        full = _gate_by_gate_density(c, model)
        for keep in ((0,), (width - 1,), (2, 0), tuple(range(width))[::-1]):
            got = run_density(c, noise=model, keep=keep)
            assert got.n == len(keep)
            assert np.max(np.abs(got.rho - _partial_trace(full, width, keep))) <= 1e-12
