import math

import numpy as np
import pytest

from lowdepthqc.circuit import Circuit, Gate, GateInstance
from lowdepthqc.hadamard import noisy_expectation
from lowdepthqc.noise import (DepolarizingChannel, DeviceCalibration,
                              KrausChannel, MissingPairError, NoiseModel,
                              QubitCalibration, amplitude_damping,
                              builtin_profiles, dephasing,
                              load_calibration_csv)
from lowdepthqc.simulator import (_apply_matrix as _apply_superop, run_density,
                                  run_statevector)
from lowdepthqc.transpile import BasisTarget

# criterion 9's channels, the depolarizing pair on non-adjacent qubits
CHANNELS = (DepolarizingChannel((0,), 0.05), DepolarizingChannel((0, 2), 0.02),
            amplitude_damping(1, 0.1), dephasing(2, 0.07))


def _random_density(rng, n):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _through_superop(channel, rho, n):
    """rho after ``channel.superop()``, contracted as run_density does."""
    axes = [*channel.qubits, *(n + q for q in channel.qubits)]
    out = _apply_superop(rho.reshape([2] * (2 * n)), channel.superop(), axes)
    return out.reshape(rho.shape)


def _kraus_sum(channel, rho, n):
    """Reference: sum of K rho K^dagger over the densely embedded ``kraus()``."""
    out = np.zeros_like(rho)
    for k in channel.kraus():
        full = _embed(k, channel.qubits, n)
        out += full @ rho @ full.conj().T
    return out


def test_channels_preserve_trace(rng):
    n = 3
    for channel in CHANNELS:
        for _ in range(10):
            rho = _random_density(rng, n)
            out = _through_superop(channel, rho, n)
            assert abs(np.trace(out).real - 1.0) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-10


def test_superop_matches_kraus_sum(rng):
    n = 3
    for channel in CHANNELS:
        for _ in range(10):
            rho = _random_density(rng, n)
            got = _through_superop(channel, rho, n)
            assert np.max(np.abs(got - _kraus_sum(channel, rho, n))) <= 1e-12


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
    rho = run_density(c, noise=model)
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
    from lowdepthqc.hadamard import GTermKind, build_gterm_circuit

    spec = AnsatzSpec(2, 1, Variant.CU_ALT, Head.RY)
    mk = lambda: build_ansatz(
        spec, rng.uniform(-math.pi, math.pi, spec.parameter_count))
    circ = build_gterm_circuit(GTermKind.OVERLAP, mk(), mk())
    cal = builtin_profiles()["aqt-ibex"]
    values = []
    for alpha in (0.0, 1.0, 3.0):
        model = NoiseModel(cal.scaled(alpha))
        values.append(abs(noisy_expectation(circ, model, model.basis)))
    assert values[0] >= values[1] >= values[2]


def test_estimator_takes_its_basis_from_the_calibration(rng):
    from lowdepthqc.ansatz import AnsatzSpec, Head, Variant, build_ansatz
    from lowdepthqc.hadamard import (EstimatorMode, GTermKind,
                                     build_gterm_circuit)

    spec = AnsatzSpec(2, 1, Variant.CU_ALT, Head.RY)
    mk = lambda: build_ansatz(
        spec, rng.uniform(-math.pi, math.pi, spec.parameter_count))
    u_t, u_lam = mk(), mk()
    circ = build_gterm_circuit(GTermKind.SHIFT, u_t, u_lam)
    model = NoiseModel(builtin_profiles()["ibm-brisbane"])
    assert model.basis is BasisTarget.SC
    assert NoiseModel(builtin_profiles()["aqt-ibex"]).basis is BasisTarget.ION
    [got] = EstimatorMode(noise=model).noisy_values(
        u_t, u_lam, [(GTermKind.SHIFT, "plus")])
    assert abs(got - noisy_expectation(circ, model, BasisTarget.SC)) <= 1e-12


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


def test_thermal_recipe_clamps_t2_at_twice_t1():
    # physical constraint: T2 <= 2 T1; a reported T2 beyond it is read as
    # 2 T1, which leaves no pure dephasing
    cal = DeviceCalibration(
        "toy", (QubitCalibration(10.0, 25.0, 0.0, 0.0, 1e-3),
                QubitCalibration(10.0, 15.0, 0.0, 0.0, 1e-3)),
        {}, True, 1e-2)
    model = NoiseModel(cal, recipe="depol_plus_thermal")
    counts = [len(model.channels_for(GateInstance(Gate.X, (), (q,))))
              for q in (0, 1)]
    assert counts == [2, 3]  # depolarizing, damping, dephasing


def test_readout_confusion_matrix():
    # columns are true states: P(measure 0 | prepared 0) = 1 - p10 and
    # P(measure 0 | prepared 1) = p01, folded into the ancilla <Z>
    cal = DeviceCalibration(
        "toy", (QubitCalibration(100.0, 80.0, 0.02, 0.05, 0.0),),
        {}, True, 1e-2)
    model = NoiseModel(cal)
    for gates, want in (((), 0.95 - 0.05),
                        ((GateInstance(Gate.X, (), (0,)),), 0.02 - 0.98)):
        z = noisy_expectation(Circuit(1, gates, ancilla=0), model,
                              BasisTarget.ION)
        assert z == pytest.approx(want, abs=1e-12)


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
    """Reference evolution: dense unitary per gate, then each channel's
    dense Kraus sum."""
    from conftest import embed_gate

    n = c.width
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for inst in c.gates:
        u = embed_gate(inst, n)
        rho = u @ rho @ u.conj().T
        for ch in model.channels_for(inst):
            rho = _kraus_sum(ch, rho, n)
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

    gates = (Gate.X, Gate.SX, Gate.RZ, Gate.R, Gate.ECR, Gate.RXX)
    # leave the last qubit idle and end on a run of 1-qubit gates, so
    # that lazy allocation and skipped trailing gates are exercised
    c = random_circuit(rng, width - 1, length, gates)
    tail = random_circuit(rng, width - 1, 4, (Gate.SX, Gate.RZ, Gate.X))
    return Circuit(width, c.gates + tail.gates)


def _angles(rng, gate):
    return tuple(rng.uniform(-math.pi, math.pi, gate.n_params))


def _paired_native_circuit(rng, segments=3):
    """A native circuit on five wires of a line whose 2-qubit gates come
    in runs on one pair, as routing makes them.  Each segment interleaves
    runs on two disjoint pairs, (0, 1) and (2, 3) or (1, 2) and (3, 4),
    ibm-brisbane's couplings; each gate is an ECR or an RXX in either
    orientation, followed by up to two 1-qubit gates on its pair."""
    lines = ((0, 1), (1, 2), (2, 3), (3, 4))
    ones = (Gate.X, Gate.SX, Gate.RZ, Gate.R)
    gates = []
    for _ in range(segments):
        first = int(rng.integers(2))
        for _ in range(int(rng.integers(2, 5))):
            for pair in (lines[first], lines[first + 2]):
                kind = (Gate.ECR, Gate.RXX)[rng.integers(2)]
                qubits = pair if rng.integers(2) else pair[::-1]
                gates.append(GateInstance(kind, (), qubits, _angles(rng, kind)))
                for _ in range(int(rng.integers(3))):
                    one = ones[rng.integers(len(ones))]
                    gates.append(GateInstance(one, (), (int(rng.choice(pair)),),
                                              _angles(rng, one)))
    return Circuit(5, tuple(gates))


def _inside_runs(gates):
    """Each index just after a 2-qubit gate whose next 2-qubit gate on
    either wire acts on the same pair: a cut there splits a run."""
    cuts = []
    for i, inst in enumerate(gates):
        if len(inst.qubits) != 2:
            continue
        for later in gates[i + 1:]:
            if len(later.qubits) == 2 and set(later.qubits) & set(inst.qubits):
                if set(later.qubits) == set(inst.qubits):
                    cuts.append(i + 1)
                break
    return cuts


@pytest.mark.parametrize("recipe", ["depol_only", "depol_plus_thermal"])
def test_fused_density_matches_gate_by_gate(rng, recipe):
    model = NoiseModel(builtin_profiles()["aqt-ibex"], recipe)
    for _ in range(6):
        width = int(rng.integers(2, 6))
        c = _random_native_circuit(rng, width, 25)
        want = _gate_by_gate_density(c, model)
        got = run_density(c, noise=model)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("recipe", ["depol_only", "depol_plus_thermal"])
def test_density_passes_chain_at_a_cut(rng, recipe):
    """Walking B from the density that A leaves equals walking A and B from
    |0...0>, and carrying observables back through A from what B leaves of
    them equals carrying them back through A and B, at every cut: in
    random native circuits, whose 1-qubit runs stay pending across
    2-qubit gates on other wires, and in runs of 2-qubit gates on one
    pair, where a cut leaves a block open.  A stack of observables on a
    trailing axis is carried back as each one alone."""
    from lowdepthqc.circuit import CircuitError
    from lowdepthqc.simulator import observable_before

    model = NoiseModel(builtin_profiles()["aqt-ibex"], recipe)
    circuits = [_random_native_circuit(rng, int(rng.integers(2, 6)), 25)
                for _ in range(3)] + [_paired_native_circuit(rng, 2)]
    assert _inside_runs(circuits[-1].gates)
    for c in circuits:
        wires = range(c.width)
        whole = run_density(c, noise=model)
        assert np.max(np.abs(whole - _gate_by_gate_density(c, model))) <= 1e-12
        # a stack on one wire carried back to all, where wires join it, on
        # all carried back to one, where they leave it, and on all
        for observed, kept in (((0,), wires), (wires, (c.width - 1,)),
                               (wires, wires)):
            obs = np.stack([_random_density(rng, len(observed))
                            for _ in range(3)], -1)
            back = observable_before(c, model, observed, obs, kept)
            for f in range(3):
                alone = observable_before(c, model, observed, obs[..., f],
                                          kept)
                assert np.max(np.abs(back[..., f] - alone)) <= 1e-12
        # the last, on all wires, is carried back in two passes at each cut
        for cut in range(len(c.gates) + 1):
            head = Circuit(c.width, c.gates[:cut])
            tail = Circuit(c.width, c.gates[cut:])
            rho = run_density(tail, noise=model,
                              start=run_density(head, noise=model))
            assert np.max(np.abs(rho - whole)) <= 1e-12, cut
            w = observable_before(head, model, wires, observable_before(
                tail, model, wires, obs, wires), wires)
            assert np.max(np.abs(w - back)) <= 1e-12, cut
        with pytest.raises(CircuitError, match="start density"):
            run_density(c, noise=model, start=np.eye(2))


def test_reduced_density_is_the_partial_trace(rng):
    """The forward pass, which keeps every qubit, is the gate-by-gate
    density; the backward pass, which drops qubits, reads each reduced
    state: carried back from the matrix unit |i><j| on the qubits ``keep``
    to those qubits, or to none, the observable reads rho_keep[j, i] in
    |0...0>.  The last qubit is idle, so it is observed without a gate."""
    from lowdepthqc.simulator import observable_before

    model = NoiseModel(builtin_profiles()["aqt-ibex"], "depol_plus_thermal")
    for _ in range(6):
        width = int(rng.integers(3, 6))
        c = _random_native_circuit(rng, width, 25)
        full = _gate_by_gate_density(c, model)
        assert np.max(np.abs(run_density(c, noise=model) - full)) <= 1e-12
        for keep in ((0,), (width - 1,), (2, 0)):
            dim = 1 << len(keep)
            units = np.eye(dim * dim).reshape(dim * dim, dim, dim)
            want = _partial_trace(full, width, keep)
            for start in (keep, ()):
                got = np.array([observable_before(c, model, keep, u, start)[0, 0]
                                for u in units]).reshape(dim, dim).T
                assert np.max(np.abs(got - want)) <= 1e-12, (keep, start)


def _check_adjoint(rng, model, c, keep, observed_sets):
    """Tr[W sigma], for a random observable on each of ``observed_sets``
    carried back through ``c`` to the qubits ``keep``, equals Tr[O rho']
    for a random state sigma of those qubits evolved gate by gate, every
    other qubit starting in |0>."""
    from conftest import embed_gate
    from lowdepthqc.simulator import observable_before

    width, k = c.width, len(keep)
    sigma = _random_density(rng, k)
    perm = list(np.argsort(keep))
    index = [0] * (2 * width)
    for q in keep:
        index[q] = index[width + q] = slice(None)
    start = np.zeros([2] * (2 * width), dtype=complex)
    start[tuple(index)] = sigma.reshape([2] * (2 * k)).transpose(
        perm + [k + p for p in perm])
    rho = start.reshape(1 << width, 1 << width)
    for inst in c.gates:
        u = embed_gate(inst, width)
        rho = u @ rho @ u.conj().T
        for ch in model.channels_for(inst):
            rho = _kraus_sum(ch, rho, width)
    for observed in observed_sets:
        dim = 1 << len(observed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        obs = a + a.conj().T
        want = np.trace(obs @ _partial_trace(rho, width, observed))
        w = observable_before(c, model, observed, obs, keep)
        assert w.shape == (1 << k, 1 << k)
        assert abs(np.trace(w @ sigma) - want) <= 1e-12, (observed, keep)


def test_observable_before_is_the_adjoint_of_the_evolution(rng):
    """Tr[W sigma] for the observable carried back through a noisy native
    circuit equals Tr[O rho'] for the state evolved forward from sigma on
    the kept qubits, every other qubit starting in |0>.  The next-to-last
    qubit is idle and the last carries only 1-qubit gates, so untouched and
    never-entangled qubits, observed, kept or neither, are covered too.
    O acts on one qubit, on two or on all the kept ones, and a circuit of
    1-qubit gates only, the shape of a lead-in, is carried back as well."""
    from conftest import random_circuit

    model = NoiseModel(builtin_profiles()["aqt-ibex"], "depol_plus_thermal")
    for _ in range(6):
        idle = int(rng.integers(2, 5))
        width = idle + 2
        lone = (GateInstance(Gate.SX, (), (idle + 1,)),
                GateInstance(Gate.R, (), (idle + 1,),
                             tuple(rng.uniform(-math.pi, math.pi, 2))),
                GateInstance(Gate.SX, (), (idle + 1,)))
        c = _random_native_circuit(rng, idle + 1, 25)
        c = Circuit(width, lone[:1] + c.gates + lone[1:])
        for keep in ((0,), (idle,), (idle + 1,), (2, 0),
                     tuple(range(width))[::-1]):
            qubit = int(rng.integers(width))
            pair = tuple(int(q) for q in rng.permutation(width)[:2])
            _check_adjoint(rng, model, c, keep, ((qubit,), pair, keep))
        ones = random_circuit(rng, width, 12, (Gate.SX, Gate.RZ, Gate.R, Gate.X))
        for keep in (tuple(range(width)), (idle + 1, 0)):
            _check_adjoint(rng, model, ones, keep,
                           (keep, (int(rng.integers(width)),)))


@pytest.mark.parametrize("recipe", ["depol_only", "depol_plus_thermal"])
@pytest.mark.parametrize("profile", ["aqt-ibex", "ibm-brisbane"])
def test_pair_blocks_are_exact(rng, profile, recipe):
    """Runs of 2-qubit gates on one pair, in both orientations, with
    1-qubit gates between them and runs on a disjoint pair interleaved,
    give the gate-by-gate density forward and its adjoint backward.  Cut
    inside a run, so that a block is open at the cut, the circuit reads
    the same <O> from the head's density and the tail's observable."""
    from lowdepthqc.simulator import observable_before

    model = NoiseModel(builtin_profiles()[profile], recipe)
    for _ in range(3):
        c = _paired_native_circuit(rng)
        full = _gate_by_gate_density(c, model)
        assert np.max(np.abs(run_density(c, noise=model) - full)) <= 1e-12
        _check_adjoint(rng, model, c, (0, 3), ((1,), (2, 4), (0, 3)))
        _check_adjoint(rng, model, c, (4, 2, 0, 1, 3), ((3, 1),))
        cuts = _inside_runs(c.gates)
        assert cuts
        cut = cuts[rng.integers(len(cuts))]
        head = run_density(Circuit(5, c.gates[:cut]), noise=model)
        for observed in ((0,), (3, 1)):
            dim = 1 << len(observed)
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            obs = a + a.conj().T
            want = np.trace(obs @ _partial_trace(full, 5, observed))
            w = observable_before(Circuit(5, c.gates[cut:]), model, observed,
                                  obs, range(5))
            assert abs(np.trace(w @ head) - want) <= 1e-12, (cut, observed)


def test_superop_tables_never_mix_models(rng):
    """Walks under aqt-ibex with each recipe and under its scaled(2.0)
    copy, in turn and sharing the superoperator tables, then again from
    the filled tables, equal by bytes the walks each model makes after the
    tables are cleared, and the forward walk is the gate-by-gate density:
    no model reads another model's entries, and a hit is what a fresh
    computation returns.  Angles are keyed by their bit
    patterns, so RXX(0.0) and RXX(-0.0) take two entries."""
    from lowdepthqc.simulator import gate_superop, observable_before, run_superop

    ibex = builtin_profiles()["aqt-ibex"]
    models = (NoiseModel(ibex, "depol_only"),
              NoiseModel(ibex, "depol_plus_thermal"),
              NoiseModel(ibex.scaled(2.0)))
    c = _paired_native_circuit(rng)
    z = np.diag([1.0, -1.0])

    def walks(model):
        return (run_density(c, noise=model),
                observable_before(c, model, (1,), z, (0, 2)))

    def clear():
        gate_superop.cache_clear()
        run_superop.cache_clear()

    clear()
    first = [walks(m) for m in models]
    again = [walks(m) for m in models]
    assert gate_superop.cache_info().hits > 0
    assert run_superop.cache_info().hits > 0
    for model, shared, repeat in zip(models, first, again):
        want = _gate_by_gate_density(c, model)
        assert np.max(np.abs(shared[0] - want)) <= 1e-12
        clear()
        for a, b, fresh in zip(shared, repeat, walks(model)):
            assert a.tobytes() == b.tobytes() == fresh.tobytes()
    misses = gate_superop.cache_info().misses
    for angle in (0.0, -0.0):
        gate_superop(GateInstance(Gate.RXX, (), (0, 1), (angle,)), models[0])
    assert gate_superop.cache_info().misses == misses + 2


def test_observable_before_enforces_the_density_cap():
    from lowdepthqc.circuit import CircuitError
    from lowdepthqc.simulator import DENSITY_QUBIT_CAP, observable_before

    wide = Circuit(DENSITY_QUBIT_CAP + 1, (GateInstance(Gate.SX, (), (0,)),))
    with pytest.raises(CircuitError, match="capped at"):
        observable_before(wide, None, (0,), np.diag([1.0, -1.0]), (0,))


def test_observable_before_rejects_a_bad_observable():
    """The observed qubits must be distinct qubits of the circuit, and the
    observable must act on exactly that many."""
    from lowdepthqc.circuit import CircuitError
    from lowdepthqc.simulator import observable_before

    c = Circuit(3, (GateInstance(Gate.RXX, (), (0, 2), (0.3,)),))
    z = np.diag([1.0, -1.0])
    for qubits, obs in (((0, 0), np.kron(z, z)), ((3,), z),
                        ((0, 1), z), ((0,), np.kron(z, z))):
        with pytest.raises(CircuitError):
            observable_before(c, None, qubits, obs, (0, 1))


def test_observable_before_drops_the_last_live_wire():
    """Carried back to no qubit, an observable is the 1x1 matrix of its
    reading in |0...0>, which is W[0, 0] of the same observable carried
    back to one qubit; with no gate, the observed qubit leaves at the end."""
    from lowdepthqc.simulator import observable_before

    model = NoiseModel(builtin_profiles()["aqt-ibex"])
    z = np.diag([1.0, -1.0])
    for c in (Circuit(2, (GateInstance(Gate.RXX, (), (0, 1), (0.3,)),)),
              Circuit(2)):
        got = observable_before(c, model, (0,), z, ())
        assert got.shape == (1, 1)
        for q in (0, 1):
            w = observable_before(c, model, (0,), z, (q,))
            assert abs(got[0, 0] - w[0, 0]) <= 1e-12


@pytest.mark.parametrize("recipe", ["depol_only", "depol_plus_thermal"])
@pytest.mark.parametrize("profile", ["aqt-ibex", "ibm-brisbane",
                                     "ibm-sherbrook", "ibm-kingston"])
def test_noisy_expectation_is_the_forward_reading(rng, profile, recipe):
    """``noisy_expectation`` carries the readout-folded Z back to the
    start; it equals the forward reading: the full density after the
    lowered circuit, p0 of the ancilla's final wire, and the readout
    confusion folded into p0.  All five families, at n = 2 and 3."""
    from lowdepthqc.ansatz import AnsatzSpec, Head, Variant, build_ansatz
    from lowdepthqc.burgers import FAMILIES
    from lowdepthqc.hadamard import build_gterm_circuit
    from lowdepthqc.transpile import decompose

    model = NoiseModel(builtin_profiles()[profile], recipe)
    for spec in (AnsatzSpec(2, 1, Variant.CRY, Head.X),
                 AnsatzSpec(3, 1, Variant.CU_ALT, Head.RY)):
        u_t, u_lam = (build_ansatz(spec, tuple(rng.uniform(
            -math.pi, math.pi, spec.parameter_count))) for _ in range(2))
        for kind, direction in FAMILIES:
            circuit = build_gterm_circuit(kind, u_t, u_lam, direction=direction)
            native = decompose(circuit, model.basis)
            anc = native.metadata["final_positions"][circuit.ancilla]
            probs = np.real(np.diagonal(run_density(native, noise=model)))
            other = tuple(q for q in range(native.width) if q != anc)
            p0 = probs.reshape([2] * native.width).sum(axis=other)[0]
            p01, p10 = model.readout_probs(anc)
            p0 = (1.0 - p10) * p0 + p01 * (1.0 - p0)
            got = noisy_expectation(circuit, model, model.basis)
            assert abs(got - (2.0 * p0 - 1.0)) <= 1e-12, (spec.n, kind, direction)


@pytest.mark.parametrize("recipe", ["depol_only", "depol_plus_thermal"])
@pytest.mark.parametrize("profile", ["aqt-ibex", "ibm-brisbane",
                                     "ibm-sherbrook", "ibm-kingston"])
def test_cut_tests_match_the_whole_circuit(rng, profile, recipe):
    """Each family's value from the opening's density and the tail
    observable with the lead-in folded in is the whole circuit's
    ``noisy_expectation``: both variants and heads, random angles, then one
    parameter bound to 0, pi and 2 pi in turn on the same mode, where
    ``emit_1q`` drops gates, then the random angles again, which the
    lead-in table answers."""
    from lowdepthqc.ansatz import (AnsatzSpec, Head, Variant, bind_parameter,
                                   build_ansatz)
    from lowdepthqc.burgers import FAMILIES
    from lowdepthqc.hadamard import EstimatorMode, build_gterm_circuit

    model = NoiseModel(builtin_profiles()[profile], recipe)
    for n in (2, 3, 4) if profile == "aqt-ibex" else (2, 3):
        for variant, head in ((Variant.CRY, Head.X), (Variant.CU_ALT, Head.RY),
                              (Variant.CRY, Head.RY),
                              (Variant.CU_ALT, Head.X))[:4 - 2 * (n > 2)]:
            spec = AnsatzSpec(n, 1, variant, head)
            draw = lambda: tuple(rng.uniform(-math.pi, math.pi,  # noqa: E731
                                             spec.parameter_count))
            u_t, p_lam = build_ansatz(spec, draw()), draw()
            j = int(rng.integers(spec.parameter_count))
            mode = EstimatorMode(noise=model)
            wants = {}
            for b in (None, 0.0, math.pi, 2 * math.pi, None):
                u_lam = build_ansatz(spec, p_lam if b is None
                                     else bind_parameter(p_lam, j, b))
                values = mode.noisy_values(u_t, u_lam, FAMILIES)
                for (kind, direction), got in zip(FAMILIES, values):
                    if (b, kind, direction) not in wants:
                        whole = build_gterm_circuit(kind, u_t, u_lam,
                                                    direction=direction)
                        wants[b, kind, direction] = noisy_expectation(
                            whole, model, model.basis)
                    assert abs(got - wants[b, kind, direction]) <= 1e-12, \
                        (n, variant, head, b, kind)
            # the repeated binding reads all five families from the table
            assert mode.lead_in_hits >= len(FAMILIES)
            assert mode.lead_in_misses >= len(FAMILIES)
            assert mode.lead_in_hits + mode.lead_in_misses == 5 * len(FAMILIES)


@pytest.mark.parametrize("recipe", ["depol_only", "depol_plus_thermal"])
@pytest.mark.parametrize("profile", ["aqt-ibex", "ibm-brisbane",
                                     "ibm-sherbrook", "ibm-kingston"])
def test_noisy_environment_slices_match_the_circuit_path(rng, profile,
                                                         recipe):
    """A noisy step's slices from Liouville-space coordinate environments
    equal the brackets of the Hadamard tests cut after U_lam at each
    binding (``gterm_values``), over two sweeps in which each coordinate
    moves to a random angle after its slice is taken, so that the forward
    carry and the second sweep's environments see every update: n = 1..3
    (and 4 on aqt-ibex) at d = 2, both variants and heads, and the n = 3,
    d = 3 cu_alt ansatz of the noisy benchmarks.  Every cu_alt ring has
    a parameter whose angle is still pending at the opening's end, and so
    reads its own lead-ins; in the n = 3, d = 3 one, the span of the
    parameter before it reaches the end, on a line of qubits through the
    routing of the last ring gate."""
    from lowdepthqc.ansatz import (AnsatzSpec, Head, Variant, ansatz_state,
                                   bind_parameter, build_ansatz)
    from lowdepthqc.burgers import (FAMILIES, BurgersGrid, FieldState,
                                    gterm_values)
    from lowdepthqc.hadamard import EstimatorMode, NoisyEnvironments
    from lowdepthqc.sgeo import _step_slices

    model = NoiseModel(builtin_profiles()[profile], recipe)
    sizes = (1, 2, 3, 4) if profile == "aqt-ibex" else (1, 2, 3)
    specs = [AnsatzSpec(n, 2, variant, head)
             for n in sizes for variant in Variant for head in Head]
    specs.append(AnsatzSpec(3, 3, Variant.CU_ALT, Head.RY))
    bindings = (0.0, math.pi, 2 * math.pi)
    for spec in specs:
        draw = lambda: tuple(rng.uniform(-math.pi, math.pi,  # noqa: E731
                                         spec.parameter_count))
        p_t = draw()
        prev = FieldState(1.3, np.real(ansatz_state(spec, p_t)),
                          build_ansatz(spec, p_t))
        grid = BurgersGrid(spec.n, 0.2, 0.1)   # every family weighs
        mode = EstimatorMode(noise=model)
        mode.tails(prev.circuit, FAMILIES)
        reference = EstimatorMode(noise=model, _tails=mode._tails)
        step = _step_slices(grid, prev, spec, mode)
        params = draw()
        for sweep in range(2):
            for j in range(spec.parameter_count):
                got = step(params, j)
                want = [gterm_values(grid, prev, build_ansatz(
                    spec, bind_parameter(params, j, b)), reference)
                    for b in bindings]
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, \
                    (spec, sweep, j)
                params = bind_parameter(params, j, rng.uniform(-3, 3))
        cuts = NoisyEnvironments(mode, prev.circuit, prev.circuit,
                                 FAMILIES[:1]).cuts
        # at n = 1 the ring is a bare RY, flushed by the next layer's
        assert (cuts[-1] is None) == (spec.variant is Variant.CU_ALT
                                      and spec.n > 1)
        if spec.d == 3:
            # the opening is H and one gate per parameter
            assert cuts[-2] == 1 + spec.parameter_count


