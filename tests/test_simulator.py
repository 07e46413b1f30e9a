import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vqesim.ansatz import ROTATIONS, Gate, ParameterizedCircuit, build_he
from vqesim.pipeline import build_ansatz
from vqesim.pauli import PauliSum, string_actions
from vqesim.simulator import (DensityMatrix, NoiseModel, SimulationError,
                              Statevector, amplitude_damping_kraus,
                              dephasing_kraus, expectation_exact,
                              expectation_sampled, run_density_matrix,
                              run_statevector, schedule_circuit)
from vqesim.simulator import (MAX_DENSITY_MATRIX_QUBITS,
                              MAX_STATEVECTOR_QUBITS, TABLE1_DURATIONS_NS)
from vqesim.simulator import (_INDEX_CACHE_MAX_LEN, _apply_1q, _apply_2q,
                              _cnot_index, _idle_kraus, _pauli_expectations,
                              _superoperator)

import vqesim.simulator as simulator

from oracles import (GATES_1Q, apply_kraus_full, circuit_unitary, embed_1q,
                     embed_cnot, idle_kraus_full, noisy_density_matrix,
                     pauli_matrix, pauli_sum_matrix, rotation,
                     tensor_statevector)


def all_zero_state(n_qubits):
    # |0...0> as the engine makes it: the state of an empty circuit
    return run_statevector(ParameterizedCircuit(n_qubits, (), 0))


def density_matrix(s):
    return DensityMatrix(s.n_qubits, np.outer(s.amplitudes, s.amplitudes.conj()))


def bell_state():
    c = ParameterizedCircuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))), 0)
    return run_statevector(c)


def random_circuit(n_qubits, n_gates, rng):
    gates = []
    kinds = ["H", "X", "RY", "RX", "RZ"] + (["CNOT"] if n_qubits > 1 else [])
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind == "CNOT":
            q0, q1 = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate("CNOT", (int(q0), int(q1))))
        elif kind in ("RX", "RY", "RZ"):
            gates.append(Gate(kind, (int(rng.integers(n_qubits)),),
                              angle=float(rng.uniform(-np.pi, np.pi))))
        else:
            gates.append(Gate(kind, (int(rng.integers(n_qubits)),)))
    return ParameterizedCircuit(n_qubits, tuple(gates), 0)


# ---------------------------------------------------------------------------
# statevector engine

def test_empty_circuit_is_zero_state():
    c = ParameterizedCircuit(2, (), 0)
    np.testing.assert_allclose(run_statevector(c).amplitudes, [1, 0, 0, 0])


def test_single_hadamard():
    c = ParameterizedCircuit(2, (Gate("H", (0,)),), 0)
    s = run_statevector(c)
    np.testing.assert_allclose(s.amplitudes,
                               [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0],
                               atol=1e-15)


def test_random_circuits_match_unitary_oracle():
    rng = np.random.default_rng(31)
    for _ in range(8):
        c = random_circuit(4, 12, rng)
        got = run_statevector(c).amplitudes
        expected = circuit_unitary(c)[:, 0]
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", ["he_v3_12", "qucc_toy4"])
def test_compiled_statevector_matches_tensor_oracle(kind, toy4_problem):
    if kind == "he_v3_12":
        c = build_he("v3", 12, 1)
    else:
        c, _ = build_ansatz("qucc", toy4_problem)
    rng = np.random.default_rng(34)
    for _ in range(2):
        bound = c.bind(rng.uniform(-np.pi, np.pi, c.n_parameters))
        np.testing.assert_allclose(run_statevector(bound).amplitudes,
                                   tensor_statevector(bound),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_apply_1q_matches_embedded_gate_on_every_qubit(n):
    rng = np.random.default_rng(35 + n)
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for q in range(n):
        np.testing.assert_allclose(_apply_1q(psi, u, q),
                                   embed_1q(u, q, n) @ psi,
                                   rtol=0, atol=1e-12)


def test_compiled_statevector_is_keyed_on_the_layout():
    gates = (Gate("H", (0,)), Gate("RY", (1,), angle=0.7),
             Gate("CNOT", (0, 1)), Gate("RX", (2,), angle=-1.1),
             Gate("CNOT", (1, 2)), Gate("RZ", (0,), angle=0.4))
    flipped = gates[:4] + (Gate("CNOT", (2, 1)),) + gates[5:]
    moved = gates[:3] + (Gate("RX", (0,), angle=-1.1),) + gates[4:]
    layouts = [ParameterizedCircuit(3, g, 0) for g in (gates, flipped, moved)]
    for _ in range(2):   # alternately, so every program is reused
        for c in layouts:
            np.testing.assert_allclose(run_statevector(c).amplitudes,
                                       tensor_statevector(c),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("ansatz", ["he_v3", "qucc"])
def test_engines_from_theta_equal_the_bound_run(toy4_problem, ansatz):
    c, _ = build_ansatz(ansatz, toy4_problem, depth=1)
    theta = np.random.default_rng(64).uniform(-np.pi, np.pi, c.n_parameters)
    bound = c.bind(theta)
    np.testing.assert_array_equal(run_statevector(c, theta).amplitudes,
                                  run_statevector(bound).amplitudes)
    nm = NoiseModel()   # table-1 noise
    np.testing.assert_array_equal(run_density_matrix(c, nm, theta).rho,
                                  run_density_matrix(bound, nm).rho)


def random_parameterized_circuit(n_qubits, n_gates, n_parameters, rng):
    """random_circuit's layouts, each rotation on a parameter with a
    random scale (qUCC's are 2 * coefficient) or, one in four, fixed; a
    last RY per parameter keeps every parameter in use."""
    gates = list(random_circuit(n_qubits, n_gates, rng).gates)
    for i, g in enumerate(gates):
        if g.kind in ROTATIONS and rng.uniform() < 0.75:
            gates[i] = Gate(g.kind, g.qubits, param=(
                int(rng.integers(n_parameters)), float(rng.uniform(-3, 3))))
    gates += [Gate("RY", (0,), param=(k, 1.0)) for k in range(n_parameters)]
    return ParameterizedCircuit(n_qubits, tuple(gates), n_parameters)


def _oracle_gate(g, theta):
    if g.kind in ROTATIONS:
        return rotation(g.kind, g.angle_at(theta))
    return GATES_1Q[g.kind]


# every kind, parameter scales 1 and -0.8, fixed angles, and qubit 3
# untouched; no gates; CNOTs only
BUILD_CIRCUITS = {
    "every_kind": ParameterizedCircuit(4, (
        Gate("H", (0,)), Gate("RX", (0,), param=(0, 1.0)),
        Gate("RY", (1,), param=(1, -0.8)), Gate("Y", (1,)),
        Gate("RZ", (2,), angle=0.3), Gate("CNOT", (0, 1)),
        Gate("X", (0,)), Gate("RZ", (0,), param=(0, -0.8)),
        Gate("Z", (1,)), Gate("RX", (1,), angle=-1.2),
        Gate("RY", (1,), angle=2.1), Gate("CNOT", (1, 2)),
        Gate("RZ", (2,), param=(1, 1.0)), Gate("H", (2,))), 2),
    "no_gates": ParameterizedCircuit(2, (), 0),
    "cnots_only": ParameterizedCircuit(3, (
        Gate("CNOT", (0, 1)), Gate("CNOT", (2, 0))), 0),
}


@pytest.mark.parametrize("noisy", [False, True], ids=["psi", "rho"])
@pytest.mark.parametrize("name", BUILD_CIRCUITS)
def test_batched_build_matches_oracle_gate_products(name, noisy):
    c = BUILD_CIRCUITS[name]
    theta = np.random.default_rng(66).uniform(-np.pi, np.pi, c.n_parameters)
    nm = NoiseModel() if noisy else None
    prog = simulator._program(c, nm)
    ops, psi0, stack = simulator._compiled_call(
        c, theta, MAX_STATEVECTOR_QUBITS, nm)
    assert ops == prog.ops
    # each one-qubit gate lies in one row, once
    entries = prog.table[prog.table < len(c.gates)]
    assert sorted(entries) == [i for i, g in enumerate(c.gates)
                               if g.kind != "CNOT"]
    unitaries = []
    for row in prog.table:
        u = np.eye(2, dtype=complex)
        for i in row[row < len(c.gates)]:   # the first gate acts first
            u = _oracle_gate(c.gates[i], theta) @ u
        unitaries.append(u)
    expected = (np.array(unitaries) if not noisy else
                np.array([w @ np.kron(u, u.conj())
                          for w, u in zip(prog.idle, unitaries)]))
    np.testing.assert_allclose(stack, expected, rtol=0, atol=1e-15)
    # rows 0..n-1 are the prefixes: psi0 is the product of their columns 0
    expected = np.ones(1, dtype=complex)
    for q in reversed(range(c.n_qubits)):   # qubit 0 least significant
        expected = np.kron(expected, unitaries[q][:, 0])
    np.testing.assert_allclose(psi0, expected, rtol=0, atol=1e-15)
    assert stack.shape[0] == len(prog.table)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_engines_from_theta_equal_the_bound_run_on_random_layouts(n):
    rng = np.random.default_rng(67 + n)
    nm = NoiseModel(t1_us=0.2, t2_us=0.2)
    for _ in range(4):
        c = random_parameterized_circuit(n, 24, 3, rng)
        theta = rng.uniform(-np.pi, np.pi, c.n_parameters)
        bound = c.bind(theta)
        np.testing.assert_array_equal(run_statevector(c, theta).amplitudes,
                                      run_statevector(bound).amplitudes)
        np.testing.assert_array_equal(run_density_matrix(c, nm, theta).rho,
                                      run_density_matrix(bound, nm).rho)


def test_each_engine_call_makes_one_batched_build(monkeypatch, toy4_problem):
    c, _ = build_ansatz("qucc", toy4_problem)
    theta = np.random.default_rng(68).uniform(-1, 1, c.n_parameters)
    calls = []
    build = simulator._compiled_call
    monkeypatch.setattr(simulator, "_compiled_call",
                        lambda *args: calls.append(1) or build(*args))
    run_statevector(c, theta)
    assert len(calls) == 1
    small = build_he("v3", 3, 1)
    run_density_matrix(small, NoiseModel(), np.zeros(small.n_parameters))
    assert len(calls) == 2


def test_writing_into_a_compiled_table_raises_and_changes_nothing():
    rng = np.random.default_rng(69)
    c = random_parameterized_circuit(3, 20, 2, rng)
    c = ParameterizedCircuit(3, c.gates + (Gate("CNOT", (0, 2)),),
                             c.n_parameters)   # so the program holds a gather
    theta = rng.uniform(-np.pi, np.pi, c.n_parameters)
    nm = NoiseModel(t1_us=0.2, t2_us=0.2)
    psi = run_statevector(c, theta).amplitudes
    rho = run_density_matrix(c, nm, theta).rho
    prog = simulator._program(c, nm)
    gathers = [op for bits, op in prog.ops if bits is None]
    assert gathers
    for table in (*prog.angles, prog.table, *prog.rotations, prog.fixed,
                  prog.idle, *gathers):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0
    np.testing.assert_array_equal(run_statevector(c, theta).amplitudes, psi)
    np.testing.assert_array_equal(run_density_matrix(c, nm, theta).rho, rho)


def test_each_circuit_compiles_its_program_once_per_noise_key():
    c = random_parameterized_circuit(3, 20, 2, np.random.default_rng(70))
    models = [None, NoiseModel(), NoiseModel(t1_us=0.1, t2_us=0.1)]
    programs = [simulator._program(c, nm) for nm in models]
    # an equal model, built anew, has the same key
    assert all(simulator._program(c, nm and NoiseModel(
        nm.t1_us, nm.t2_us, dict(nm.durations_ns))) is prog
               for nm, prog in zip(models, programs))
    twin = ParameterizedCircuit(c.n_qubits, c.gates, c.n_parameters)
    assert twin == c and simulator._program(twin) is not programs[0]
    assert len(set(map(id, programs))) == 3 and len(c.programs) == 3
    assert list(c.programs)[0] is None


def test_threads_compiling_one_circuit_run_one_program():
    # trial threads share a circuit and race to compile its first program:
    # the first one stored is the one every thread runs
    c = random_parameterized_circuit(4, 60, 3, np.random.default_rng(71))
    theta = np.random.default_rng(72).uniform(-np.pi, np.pi, c.n_parameters)
    twin = ParameterizedCircuit(c.n_qubits, c.gates, c.n_parameters)
    expected = run_statevector(twin, theta).amplitudes
    barrier = threading.Barrier(8)

    def run():
        barrier.wait(timeout=10)
        return simulator._program(c), run_statevector(c, theta).amplitudes

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(run) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert list(c.programs) == [None]
    for prog, psi in results:
        assert prog is c.programs[None]
        np.testing.assert_array_equal(psi, expected)


@pytest.mark.parametrize("length_delta", [-1, 1])
def test_engines_reject_theta_of_the_wrong_length(length_delta):
    c = build_he("v3", 3, 1)
    theta = np.zeros(c.n_parameters + length_delta)
    with pytest.raises(SimulationError, match="parameters"):
        run_statevector(c, theta)
    with pytest.raises(SimulationError, match="parameters"):
        run_density_matrix(c, NoiseModel(), theta)
    with pytest.raises(SimulationError, match="parameters"):
        run_statevector(c.bind(np.zeros(c.n_parameters)), [0.0])


def test_run_rejects_unbound_and_oversize():
    c = ParameterizedCircuit(1, (Gate("RY", (0,), param=(0, 1.0)),), 1)
    with pytest.raises(SimulationError):
        run_statevector(c)
    # a gate-free circuit is rejected before any amplitude is allocated
    too_big = ParameterizedCircuit(MAX_STATEVECTOR_QUBITS + 1, (), 0)
    with pytest.raises(SimulationError, match="exceeds cap"):
        run_statevector(too_big)


# ---------------------------------------------------------------------------
# exact expectation

def test_expectation_zero_state_zi():
    s = all_zero_state(2)
    assert expectation_exact(s, PauliSum(2, {"ZI": 1.0})) == pytest.approx(1.0)


def test_expectation_bell_state():
    s = bell_state()
    assert expectation_exact(s, PauliSum(2, {"ZZ": 1.0})) == pytest.approx(1.0)
    assert expectation_exact(s, PauliSum(2, {"ZI": 1.0})) == pytest.approx(0.0, abs=1e-14)


def test_expectation_matches_dense_oracle():
    rng = np.random.default_rng(33)
    c = random_circuit(4, 15, rng)
    psi = run_statevector(c)
    letters = ["".join(rng.choice(list("IXYZ"), size=4)) for _ in range(20)]
    h = PauliSum(4, {l: rng.normal() for l in letters})
    dense = pauli_sum_matrix(h.terms, 4)
    expected = np.real(psi.amplitudes.conj() @ dense @ psi.amplitudes)
    assert abs(expectation_exact(psi, h) - expected) < 1e-11
    rho = density_matrix(psi)
    assert abs(expectation_exact(rho, h) - expected) < 1e-11


def test_expectation_matches_dense_oracle_at_toy4_scale(toy4_problem):
    # the full 8-qubit Hamiltonian (361 terms) through the compiled form
    h = toy4_problem.hamiltonian
    n = toy4_problem.n_qubits
    dense = pauli_sum_matrix(h.terms, n)
    c = build_he("v3", n, 1)
    rng = np.random.default_rng(41)
    bound = c.bind(rng.uniform(-np.pi, np.pi, c.n_parameters))
    psi = run_statevector(bound)
    expected = np.real(psi.amplitudes.conj() @ dense @ psi.amplitudes)
    first = expectation_exact(psi, h)
    assert abs(first - expected) <= 1e-12
    assert expectation_exact(psi, h) == first
    rho = run_density_matrix(bound, NoiseModel())
    expected = np.real(np.trace(rho.rho @ dense))
    first = expectation_exact(rho, h)
    assert abs(first - expected) <= 1e-12
    assert expectation_exact(rho, h) == first


def test_expectation_rejects_non_hermitian():
    with pytest.raises(SimulationError):
        expectation_exact(all_zero_state(1), PauliSum(1, {"X": 1j}))


def test_expectation_rejects_non_hermitian_after_compiling():
    h = PauliSum(1, {"X": 1j})
    h.sparse_matrix()
    with pytest.raises(SimulationError):
        expectation_exact(all_zero_state(1), h)


def test_hermitian_tolerance_applies_per_call():
    # h caches its largest |Im c|; each call compares it with its tolerance
    h = PauliSum(1, {"Z": 1.0 + 1e-11j})
    s = all_zero_state(1)
    assert not h.is_hermitian(1e-12)
    assert expectation_exact(s, h) == pytest.approx(1.0)
    assert h.is_hermitian(1e-10)


def test_sampled_and_exact_share_hermitian_tolerance():
    # |Im c| = 5e-11 is within tolerance for every shot count
    h = PauliSum(1, {"Z": 1.0 + 5e-11j})
    s = all_zero_state(1)
    assert expectation_exact(s, h) == 1.0
    for shots in (0, 64):
        assert expectation_sampled(s, h, shots, rng_seed=2) == 1.0
    h = PauliSum(1, {"Z": 1.0 + 2e-10j})
    for shots in (0, 64):
        with pytest.raises(SimulationError):
            expectation_sampled(s, h, shots, rng_seed=2)


def test_expectation_rejects_qubit_count_mismatch():
    with pytest.raises(SimulationError):
        expectation_exact(all_zero_state(2), PauliSum(1, {"Z": 1.0}))


def test_expectation_density_matrix_is_real():
    rng = np.random.default_rng(34)
    c = random_circuit(3, 10, rng)
    rho = run_density_matrix(c, NoiseModel())
    h = PauliSum(3, {"XYZ": 0.3, "ZZI": -0.7, "IIX": 0.1})
    val = expectation_exact(rho, h)
    assert isinstance(val, float)


# ---------------------------------------------------------------------------
# sampling

def test_sampled_zero_shots_delegates_to_exact():
    s = bell_state()
    h = PauliSum(2, {"XX": 0.3, "ZZ": -0.4, "II": 0.1})
    assert expectation_sampled(s, h, 0, rng_seed=1) == expectation_exact(s, h)


def test_sampled_eigenstate_is_exact_for_any_shots():
    s = all_zero_state(2)
    h = PauliSum(2, {"ZZ": 0.7, "ZI": -0.2})
    for shots in (1, 16, 1024):
        assert expectation_sampled(s, h, shots, rng_seed=3) == pytest.approx(0.5)


def test_sampled_eigenstate_rounded_past_its_eigenvalue():
    # sqrt(0.5)^2 rounds up, so <X> comes out as +-(1 + 2e-16)
    a = np.sqrt(0.5)
    h = PauliSum(1, {"X": 0.5})
    for amps, expected in (([a, a], 0.5), ([a, -a], -0.5)):
        s = Statevector(1, amps)
        for state in (s, density_matrix(s)):
            assert expectation_sampled(state, h, 1024, rng_seed=3) == expected


def test_sampled_is_deterministic_per_seed():
    s = bell_state()
    h = PauliSum(2, {"XI": 1.0})
    a = expectation_sampled(s, h, 256, rng_seed=11)
    b = expectation_sampled(s, h, 256, rng_seed=11)
    c = expectation_sampled(s, h, 256, rng_seed=12)
    assert a == b
    assert a != c


def test_sampled_bell_xi_standard_deviation():
    # <XI> = 0 on the Bell state; per-shot variance 1 so std ~ 1/sqrt(1024)
    s = bell_state()
    h = PauliSum(2, {"XI": 1.0})
    vals = [expectation_sampled(s, h, 1024, rng_seed=k) for k in range(200)]
    std = float(np.std(vals))
    assert abs(std - 1 / np.sqrt(1024)) < 0.2 / np.sqrt(1024)


def test_sampled_is_unbiased():
    s = bell_state()
    h = PauliSum(2, {"XI": 1.0})
    vals = [expectation_sampled(s, h, 64, rng_seed=k) for k in range(500)]
    sigma = (1 / np.sqrt(64)) / np.sqrt(500)
    assert abs(float(np.mean(vals))) < 3 * sigma


def test_sampled_rejects_qubit_count_mismatch():
    h = PauliSum(2, {"XZ": 0.5, "ZI": 0.25})
    for n in (3, 1):
        with pytest.raises(SimulationError, match="qubit-count mismatch"):
            expectation_sampled(all_zero_state(n), h, 64, rng_seed=0)
    rho = density_matrix(all_zero_state(3))
    with pytest.raises(SimulationError, match="qubit-count mismatch"):
        expectation_sampled(rho, h, 64, rng_seed=0)


@pytest.mark.parametrize("n", [3, 4])
def test_term_expectations_match_dense_oracle(n):
    rng = np.random.default_rng(50 + n)
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    psi /= np.linalg.norm(psi)
    rho = run_density_matrix(random_circuit(n, 20, rng), NoiseModel()).rho
    letters = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(40)]
    letters += ["Y" + "I" * (n - 1), "XY" + "Z" * (n - 2), "YYY" + "X" * (n - 3)]
    mats = [pauli_matrix(l) for l in letters]
    got = _pauli_expectations(Statevector(n, psi), *string_actions(letters))
    expected = [np.real(psi.conj() @ m @ psi) for m in mats]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    got = _pauli_expectations(DensityMatrix(n, rho), *string_actions(letters))
    expected = [np.real(np.trace(rho @ m)) for m in mats]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_sampled_noisy_rho_mean_and_spread():
    rng = np.random.default_rng(52)
    c = random_circuit(3, 20, rng)
    rho = run_density_matrix(c, NoiseModel(t1_us=0.5, t2_us=0.5))
    h = PauliSum(3, {"III": 0.2, "ZZI": 0.7, "XYZ": -0.4, "IYX": 0.3,
                     "YII": 0.25, "XXX": -0.6})
    exact = expectation_exact(rho, h)
    dense = np.real([np.trace(rho.rho @ pauli_matrix(l))
                     for l in sorted(h.terms) if l != "III"])
    coeffs = np.real([h.terms[l] for l in sorted(h.terms) if l != "III"])
    shots, n_seeds = 256, 400
    sigma = np.sqrt(np.sum(coeffs ** 2 * (1.0 - dense ** 2)) / shots)
    vals = [expectation_sampled(rho, h, shots, rng_seed=k)
            for k in range(n_seeds)]
    assert abs(float(np.mean(vals)) - exact) < 5 * sigma / np.sqrt(n_seeds)
    assert abs(float(np.std(vals)) / sigma - 1.0) < 0.15


# ---------------------------------------------------------------------------
# noise model and scheduling

def test_noise_model_defaults_and_t2_prime():
    nm = NoiseModel()
    assert nm.t1_us == 50.0 and nm.t2_us == 50.0
    assert nm.duration("CNOT") == 150.0 and nm.duration("RZ") == 60.0
    assert abs(nm.t2_prime_us - 100.0 / 3.0) < 1e-12


def test_noise_model_physicality_check():
    with pytest.raises(SimulationError):
        NoiseModel(t1_us=10.0, t2_us=30.0)
    with pytest.raises(SimulationError):
        NoiseModel(t1_us=-1.0, t2_us=1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_noise_model_rejects_nan_and_inf(bad):
    # NaN fails every comparison; infinite T1 and T2 would mean no noise
    with pytest.raises(SimulationError, match="finite"):
        NoiseModel(t1_us=bad, t2_us=1.0)
    with pytest.raises(SimulationError, match="finite"):
        NoiseModel(t1_us=1.0, t2_us=bad)
    with pytest.raises(SimulationError, match="finite"):
        NoiseModel(t1_us=bad, t2_us=bad)
    for kind in ("CNOT", "RZ"):
        durations = {**NoiseModel().durations_ns, kind: bad}
        with pytest.raises(SimulationError, match="finite"):
            NoiseModel(durations_ns=durations)


@pytest.mark.parametrize("bad", [True, np.True_, "50", None],
                         ids=["bool", "numpy_bool", "text", "none"])
def test_noise_model_rejects_non_real_times(bad):
    # a bool is an int: True would pass the positivity check as 1
    with pytest.raises(SimulationError, match="numbers"):
        NoiseModel(t1_us=bad, t2_us=1.0)
    with pytest.raises(SimulationError, match="numbers"):
        NoiseModel(t1_us=50.0, t2_us=bad)
    for kind in ("CNOT", "RZ"):
        durations = {**NoiseModel().durations_ns, kind: bad}
        with pytest.raises(SimulationError, match="numbers"):
            NoiseModel(durations_ns=durations)


@pytest.mark.parametrize("text", ['{"t1_us": true, "t2_us": true}',
                                  '{"durations_ns": {"CNOT": true}}'])
def test_noise_json_rejects_booleans(text):
    with pytest.raises(SimulationError, match="numbers"):
        NoiseModel.from_json(text)


def test_noise_model_from_json_reads_every_key():
    durations = {**NoiseModel().durations_ns, "CNOT": 300.0, "RZ": 0.5}
    text = json.dumps({"t1_us": 80.0, "t2_us": 70.0,
                       "durations_ns": {"CNOT": 300.0, "RZ": 0.5}})
    assert NoiseModel.from_json(text) == NoiseModel(80.0, 70.0, durations)
    assert NoiseModel.from_json("{}") == NoiseModel()


def test_schedule_single_hadamard_tail_idle():
    c = ParameterizedCircuit(2, (Gate("H", (0,)),), 0)
    sch = schedule_circuit(c, NoiseModel())
    assert sch.gate_spans == ((0.0, 60.0),)
    assert sch.circuit_end == 60.0
    # qubit 0 busy the whole time; qubit 1 never touched, so no idle noise
    assert sch.idle_intervals == ((), ())


def test_schedule_cnot_chain_gap():
    c = ParameterizedCircuit(3, (Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2))), 0)
    sch = schedule_circuit(c, NoiseModel())
    assert sch.gate_spans == ((0.0, 150.0), (150.0, 150.0))
    assert sch.idle_intervals[0] == ((150.0, 300.0),)
    assert sch.idle_intervals[1] == ()


def test_schedule_sequential_gates_no_idle():
    c = ParameterizedCircuit(1, (Gate("H", (0,)), Gate("X", (0,)),
                                 Gate("RZ", (0,), angle=0.3)), 0)
    sch = schedule_circuit(c, NoiseModel())
    assert sch.idle_intervals == ((),)
    assert sch.circuit_end == 180.0


def test_schedule_busy_plus_idle_covers_circuit():
    rng = np.random.default_rng(41)
    c = random_circuit(4, 15, rng)
    nm = NoiseModel()
    sch = schedule_circuit(c, nm)
    for q in range(4):
        spans = [(s, s + d) for (s, d), g in zip(sch.gate_spans, c.gates)
                 if q in g.qubits]
        if not spans:
            assert sch.idle_intervals[q] == ()
            continue
        intervals = sorted(spans + list(sch.idle_intervals[q]))
        assert intervals[0][0] == spans[0][0]
        assert intervals[-1][1] == sch.circuit_end
        for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
            assert abs(a1 - b0) < 1e-9   # contiguous, no overlap


def test_schedule_missing_duration():
    nm = NoiseModel(durations_ns={"H": 60.0})
    c = ParameterizedCircuit(2, (Gate("CNOT", (0, 1)),), 0)
    with pytest.raises(SimulationError):
        schedule_circuit(c, nm)


# ---------------------------------------------------------------------------
# Kraus channels

def test_kraus_completeness():
    for t in (0.0, 10.0, 5000.0, 50_000.0):
        for kraus in (amplitude_damping_kraus(t, 50.0),
                      dephasing_kraus(t, 50.0)):
            total = sum(e.conj().T @ e for e in kraus)
            np.testing.assert_allclose(total, np.eye(2), atol=1e-14)


def idle(rho, q, t_ns, nm):
    """rho after qubit q waits t_ns: the superoperator that the noisy program
    compiles for the wait, applied by the engine's kernel."""
    n = rho.shape[0].bit_length() - 1
    s = _superoperator(_idle_kraus(t_ns, nm))
    return _apply_2q(rho.reshape(-1), s, q + n, q).reshape(rho.shape)


def test_idle_fixes_ground_state():
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    out = idle(rho, 0, 123_456.0, NoiseModel())
    np.testing.assert_allclose(out, rho, atol=1e-15)


def test_idle_t1_population_decay():
    rho = np.array([[0, 0], [0, 1]], dtype=complex)
    nm = NoiseModel(t1_us=50.0, t2_us=50.0)
    out = idle(rho, 0, 50_000.0, nm)   # t = T1
    assert abs(out[1, 1].real - np.exp(-1.0)) < 1e-12


def test_idle_off_diagonal_t2_prime_decay():
    rho = 0.5 * np.ones((2, 2), dtype=complex)
    nm = NoiseModel(t1_us=50.0, t2_us=50.0)
    t_ns = 20_000.0
    out = idle(rho, 0, t_ns, nm)
    expected = 0.5 * np.exp(-(t_ns * 1e-3) / nm.t2_prime_us)
    assert abs(out[0, 1].real - expected) < 1e-12


def test_idle_channel_matches_dense_kraus_oracle():
    rng = np.random.default_rng(47)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    nm = NoiseModel(t1_us=0.08, t2_us=0.03)
    for q in range(3):
        kraus = idle_kraus_full(q, 3, 70.0, 0.08, 0.03)
        expected = apply_kraus_full(rho, kraus)
        got = idle(rho, q, 70.0, nm)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_dephasing_preserves_diagonal():
    rng = np.random.default_rng(42)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    s = _superoperator(dephasing_kraus(7000.0, 50.0))
    out = (s @ rho.reshape(-1)).reshape(2, 2)
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-15)


# ---------------------------------------------------------------------------
# density-matrix engine

def test_noisy_run_physicality():
    rng = np.random.default_rng(44)
    c = random_circuit(3, 14, rng)
    rho = run_density_matrix(c, NoiseModel()).rho
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(rho).min() > -1e-9


def test_long_coherence_limit_matches_noiseless():
    rng = np.random.default_rng(45)
    c = random_circuit(4, 8, rng)
    h = PauliSum(4, {"ZIII": 0.4, "XXII": -0.3, "IZYY": 0.2})
    nm = NoiseModel(t1_us=1e6, t2_us=1e6)
    noisy = expectation_exact(run_density_matrix(c, nm), h)
    clean = expectation_exact(run_statevector(c), h)
    assert abs(noisy - clean) < 1e-4


def test_noise_degrades_superposition():
    # H then a long idle wait on the partner qubit forces decoherence
    c = ParameterizedCircuit(2, (Gate("H", (0,)), Gate("X", (1,)),
                                 Gate("X", (1,)), Gate("X", (1,)),
                                 Gate("X", (1,)), Gate("X", (1,))), 0)
    rho = run_density_matrix(c, NoiseModel(t1_us=0.1, t2_us=0.1)).rho
    # qubit 0 idles 240 ns after its H with T2 = 100 ns
    assert abs(rho[0, 1]) < 0.15


def test_density_matrix_cap():
    c = ParameterizedCircuit(MAX_DENSITY_MATRIX_QUBITS + 1,
                             (Gate("H", (0,)),), 0)
    with pytest.raises(SimulationError):
        run_density_matrix(c, NoiseModel())


def test_density_matrix_tail_idle_decay():
    # qubit 1 finishes at 60 ns and then idles 240 ns until the global end
    c = ParameterizedCircuit(2, (Gate("X", (1,)), Gate("X", (0,)),
                                 Gate("X", (0,)), Gate("X", (0,)),
                                 Gate("X", (0,)), Gate("X", (0,))), 0)
    nm = NoiseModel(t1_us=0.1, t2_us=0.1)
    rho = run_density_matrix(c, nm).rho
    pops = np.real(np.diag(rho))
    p_q1 = pops[2] + pops[3]
    assert abs(p_q1 - np.exp(-240.0 / 100.0)) < 1e-12


@pytest.mark.parametrize("nm", [
    NoiseModel(), NoiseModel(t1_us=0.1, t2_us=0.1),
    NoiseModel(t1_us=0.08, t2_us=0.03),
], ids=["table1", "strong", "t2_below_t1"])
def test_density_matrix_matches_dense_kraus_oracle(nm):
    rng = np.random.default_rng(48)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            _assert_matches_oracle(random_circuit(n, 16, rng), nm)


def random_mixed_state(n, rng):
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n,
                                                                2 ** n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cnot_permutation_matches_dense_oracle(n):
    rng = np.random.default_rng(60 + n)
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    rho = random_mixed_state(n, rng)
    for c in range(n):
        for t in range(n):
            if c == t:
                continue
            u = embed_cnot(c, t, n)
            got = psi[_cnot_index(n, ((c, t),))]
            np.testing.assert_allclose(got, u @ psi, rtol=0, atol=1e-15)
            # rows are vector qubits q + n, columns q: one gather for both
            index = _cnot_index(2 * n, ((c + n, t + n), (c, t)))
            got = rho.reshape(-1)[index].reshape(rho.shape)
            np.testing.assert_allclose(got, u @ rho @ u.conj().T,
                                       rtol=0, atol=1e-15)


def _assert_matches_oracle(c, nm):
    expected = noisy_density_matrix(c, nm.t1_us, nm.t2_us, nm.durations_ns)
    np.testing.assert_allclose(run_density_matrix(c, nm).rho, expected,
                               rtol=0, atol=1e-12)


def test_compiled_noise_program_is_keyed_on_every_input():
    rng = np.random.default_rng(61)
    c = random_circuit(3, 20, rng)
    slow_cnot = dict(NoiseModel().durations_ns, CNOT=400.0)
    models = [NoiseModel(t1_us=0.2, t2_us=0.2),
              NoiseModel(t1_us=0.5, t2_us=0.2),   # only T1 differs
              NoiseModel(t1_us=0.2, t2_us=0.1),   # only T2 differs
              NoiseModel(t1_us=0.2, t2_us=0.2, durations_ns=slow_cnot)]
    for _ in range(2):   # alternately, so every program is reused
        for nm in models:
            _assert_matches_oracle(c, nm)
    # two layouts that differ only in the direction of one CNOT
    gates = (Gate("H", (0,)), Gate("RY", (2,), angle=0.7),
             Gate("CNOT", (0, 1)), Gate("X", (2,)), Gate("CNOT", (1, 2)))
    flipped = gates[:-1] + (Gate("CNOT", (2, 1)),)
    nm = models[0]
    for _ in range(2):
        for g in (gates, flipped):
            _assert_matches_oracle(ParameterizedCircuit(3, g, 0), nm)


NOISE_MODELS = [NoiseModel(), NoiseModel(t1_us=0.1, t2_us=0.1)]


@pytest.mark.parametrize("nm", NOISE_MODELS, ids=["table1", "strong"])
@pytest.mark.parametrize("n, gates", [
    # qubit 0 waits after its prefix, and again between its two CNOTs with
    # no gate in between, while qubit 1 turns
    (2, (Gate("H", (0,)), Gate("RY", (1,), angle=0.4),
         Gate("RX", (1,), angle=0.9), Gate("CNOT", (0, 1)),
         Gate("H", (1,)), Gate("RZ", (1,), angle=0.3),
         Gate("CNOT", (0, 1)), Gate("RY", (0,), angle=1.1))),
    # qubit 2 has only one-qubit gates and idles to the circuit's end
    (3, (Gate("H", (2,)), Gate("RY", (2,), angle=0.7), Gate("H", (0,)),
         Gate("CNOT", (0, 1)), Gate("X", (1,)), Gate("CNOT", (1, 0)),
         Gate("RX", (0,), angle=0.2), Gate("CNOT", (0, 1)))),
    # qubit 2 is never touched
    (3, (Gate("RX", (0,), angle=0.8), Gate("CNOT", (0, 1)),
         Gate("H", (1,)), Gate("CNOT", (1, 0)))),
    # CNOTs only, with qubit 3 never touched
    (4, (Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2)), Gate("CNOT", (0, 2)),
         Gate("CNOT", (2, 0)))),
], ids=["idle_only_run", "one_qubit_gates_only", "untouched_qubit",
        "cnots_only"])
def test_fused_noisy_program_matches_oracle_on_edge_layouts(n, gates, nm):
    _assert_matches_oracle(ParameterizedCircuit(n, gates, 0), nm)


@pytest.mark.parametrize("nm", NOISE_MODELS, ids=["table1", "strong"])
def test_unbound_qucc_density_matrix_matches_oracle(h2_problem, nm):
    c, _ = build_ansatz("qucc", h2_problem)
    theta = np.random.default_rng(64).uniform(-np.pi, np.pi, c.n_parameters)
    expected = noisy_density_matrix(c.bind(theta), nm.t1_us, nm.t2_us,
                                    nm.durations_ns)
    np.testing.assert_allclose(run_density_matrix(c, nm, theta).rho,
                               expected, rtol=0, atol=1e-12)


def test_noisy_run_makes_one_pass_per_fused_run(monkeypatch, toy4_problem):
    c, _ = build_ansatz("qucc", toy4_problem)
    nm = NoiseModel()
    calls = []
    apply_2q = simulator._apply_2q
    monkeypatch.setattr(simulator, "_apply_2q",
                        lambda *args: calls.append(1) or apply_2q(*args))
    theta = np.random.default_rng(65).uniform(-1, 1, c.n_parameters)
    run_density_matrix(c, nm, theta)
    ops = simulator._program(c, nm).ops
    runs = sum(1 for q, _ in ops if q is not None)
    one_qubit_gates = sum(1 for g in c.gates if g.kind != "CNOT")
    idles = sum(map(len, schedule_circuit(c, nm).idle_intervals))
    assert len(calls) == runs
    assert runs < one_qubit_gates + idles


def test_durations_mutated_in_place_change_the_next_run():
    c = random_circuit(3, 20, np.random.default_rng(62))
    nm = NoiseModel(t1_us=0.2, t2_us=0.2)
    first = run_density_matrix(c, nm).rho
    nm.durations_ns["CNOT"] = 500.0
    second = run_density_matrix(c, nm).rho
    assert not np.allclose(first, second)
    _assert_matches_oracle(c, nm)


def test_writing_into_a_result_does_not_change_the_next():
    rng = np.random.default_rng(63)
    for c in (random_circuit(3, 20, rng),
              ParameterizedCircuit(2, (Gate("CNOT", (0, 1)),), 0)):
        psi = run_statevector(c).amplitudes
        expected = psi.copy()
        psi[:] = 7.0
        np.testing.assert_array_equal(run_statevector(c).amplitudes, expected)
        nm = NoiseModel(t1_us=0.2, t2_us=0.2)
        rho = run_density_matrix(c, nm).rho
        expected = rho.copy()
        rho[:] = 7.0
        np.testing.assert_array_equal(run_density_matrix(c, nm).rho, expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_program_waits_are_the_schedules_idle_intervals(n):
    # durations on a 10 ns grid make many waits of equal length
    rng = np.random.default_rng(90 + n)
    for _ in range(6):
        c = random_circuit(n, 24, rng)
        t1 = float(rng.uniform(0.5, 5.0))
        nm = NoiseModel(t1_us=t1, t2_us=float(rng.uniform(0.1, 2 * t1)),
                        durations_ns={k: float(10 * rng.integers(1, 4))
                                      for k in TABLE1_DURATIONS_NS})
        prog = simulator._program(c, nm)
        intervals = schedule_circuit(c, nm).idle_intervals
        for q in range(n):
            rows = [prog.idle[row] for bits, row in prog.ops
                    if bits == (q + n, q)]
            waits = [w for w in rows if not np.array_equal(w, np.eye(4))]
            expected = [_superoperator(_idle_kraus(b - a, nm))
                        for a, b in intervals[q]]
            assert (sorted(w.tobytes() for w in waits)
                    == sorted(w.tobytes() for w in expected))


@pytest.mark.parametrize("noisy", [False, True], ids=["psi", "rho"])
def test_each_cnot_pair_has_one_gather_per_program(noisy, toy4_problem):
    # psi and rho programs of one circuit share its memo of gathers, and
    # every rho program, one per noise model, holds the same arrays
    c, _ = build_ansatz("qucc", toy4_problem)
    models = ([NoiseModel(), NoiseModel(t1_us=20.0, t2_us=20.0)] if noisy
              else [None])
    simulator._program(c, None if noisy else NoiseModel())
    n = c.n_qubits
    pairs = [g.qubits for g in c.gates if g.kind == "CNOT"]
    by_pair = {}
    for nm in models:
        gathers = [op for bits, op in simulator._program(c, nm).ops
                   if bits is None]
        assert len(gathers) == len(pairs)
        for pair, gather in zip(pairs, gathers):
            assert by_pair.setdefault(pair, gather) is gather
        assert len({id(g) for g in gathers}) == len(by_pair) > 1
    assert len(c.gathers) == 2 * len(by_pair)
    for (ctl, tgt), gather in by_pair.items():
        expected = (_cnot_index(n, ((ctl, tgt),)) if not noisy else
                    _cnot_index(2 * n, ((ctl + n, tgt + n), (ctl, tgt))))
        np.testing.assert_array_equal(gather, expected)


@pytest.mark.parametrize("n, noisy, kept", [
    (16, False, True), (17, False, False), (8, True, True), (9, True, False)])
def test_programs_keep_gathers_only_up_to_the_cache_limit(n, noisy, kept):
    # a vector above _INDEX_CACHE_MAX_LEN entries builds each gather per
    # pass, so its program holds the bit pairs and no index array
    assert (2 ** (2 * n if noisy else n) <= _INDEX_CACHE_MAX_LEN) == kept
    c = build_he("v2", n, 1)
    ops = simulator._program(c, NoiseModel() if noisy else None).ops
    gathers = [op for bits, op in ops if bits is None]
    assert gathers and all(isinstance(g, np.ndarray) == kept
                           for g in gathers)
