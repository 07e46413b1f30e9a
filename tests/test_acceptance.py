"""End-to-end acceptance suite.

Each test exercises one release criterion and records a single PASS/FAIL
line through conftest.record_criterion; the collected lines are echoed in
the terminal summary at the end of the run. Expensive workloads live in
module-scoped fixtures so several criteria can share them, and every
noiseless exact-expectation energy trace is appended to a module ledger
that the variational-bound criterion audits in bulk.
"""

import time

import numpy as np
import pytest

from conftest import record_criterion
from vqesim.ansatz import Gate, ParameterizedCircuit, he_parameter_count, build_he
from vqesim.cli import main
from vqesim.exact import ground_state
from vqesim.fermion import (FermionOperator, MolecularIntegrals,
                            build_hamiltonian, freeze_orbitals, jordan_wigner)
from vqesim.pauli import PauliSum
from vqesim.pipeline import build_ansatz, hf_energy, mp2_vector
from vqesim.simulator import (NoiseModel, _idle_kraus, _superoperator,
                              amplitude_damping_kraus, dephasing_kraus,
                              expectation_exact, expectation_sampled,
                              run_density_matrix, run_statevector)
from vqesim.vqe import VqeConfig, make_energy_fn, minimize, run_trials

from oracles import fermion_matrix, pauli_sum_matrix, random_integrals, \
    sector_ground_energy

E_H2 = -1.1372698361356877
E_TOY4 = -11.22928342843928

# (energy trace, exact sector ground energy) for every noiseless
# exact-expectation optimization performed by this module
_EVAL_LEDGER: list[tuple[list, float]] = []
_DURATIONS: dict[str, float] = {}


@pytest.fixture(scope="module")
def h2_qucc(h2_problem):
    """Noiseless qUCC on the 4-qubit problem from the MP2 start."""
    circuit, gen = build_ansatz("qucc", h2_problem)
    cfg = VqeConfig(max_iterations=1000,
                    initial_guess=list(mp2_vector(h2_problem, gen)))
    t0 = time.monotonic()
    result = minimize(circuit, h2_problem.hamiltonian, h2_problem.e_core, cfg)
    _DURATIONS["h2_qucc"] = time.monotonic() - t0
    _EVAL_LEDGER.append((result.energy_trace, E_H2))
    return circuit, result


@pytest.fixture(scope="module")
def toy4_floor(toy4_problem):
    """Unrestricted spectrum floor: the Ritz bound for ansaetze that do
    not conserve particle number."""
    dense = pauli_sum_matrix(toy4_problem.hamiltonian.terms,
                             toy4_problem.n_qubits)
    return float(np.linalg.eigvalsh(dense)[0]) + toy4_problem.e_core


@pytest.fixture(scope="module")
def he_trials(toy4_problem, toy4_floor):
    """50 random-start HE-v3 trials on the 8-qubit problem, serially:
    COBYLA holds the GIL, and jobs=1 measured fastest (10.8 s against
    13.5 s at jobs=2 and 18.7 s at jobs=4 on 2 CPUs)."""
    circuit, _ = build_ansatz("he_v3", toy4_problem, depth=1)
    cfg = VqeConfig(max_iterations=200, initial_guess="random", rng_seed=11)
    t0 = time.monotonic()
    ensemble = run_trials(circuit, toy4_problem.hamiltonian,
                          toy4_problem.e_core, cfg, n_trials=50, jobs=1)
    _DURATIONS["he_trials"] = time.monotonic() - t0
    assert all(e is None for e in ensemble.errors)
    for r in ensemble.results:
        _EVAL_LEDGER.append((r.energy_trace, toy4_floor))
    return [r.best_energy for r in ensemble.results]


@pytest.fixture(scope="module")
def qucc_perturbed_trials(toy4_problem):
    """50 qUCC trials started from slightly perturbed MP2 amplitudes."""
    circuit, gen = build_ansatz("qucc", toy4_problem)
    theta0 = mp2_vector(toy4_problem, gen)
    rng = np.random.default_rng(12)
    bests = []
    t0 = time.monotonic()
    for _ in range(50):
        start = theta0 + rng.normal(scale=0.01, size=theta0.size)
        cfg = VqeConfig(max_iterations=30, initial_guess=list(start))
        result = minimize(circuit, toy4_problem.hamiltonian,
                          toy4_problem.e_core, cfg)
        _EVAL_LEDGER.append((result.energy_trace, E_TOY4))
        bests.append(result.best_energy)
    _DURATIONS["qucc_perturbed"] = time.monotonic() - t0
    return bests


def test_criterion_02_qucc_accuracy(h2_qucc):
    _, result = h2_qucc
    error = abs(result.best_energy - E_H2)
    ok = (error < 1e-6 and result.n_evaluations <= 1000
          and _DURATIONS["h2_qucc"] < 60.0)
    record_criterion(
        2, "qUCC converges to the exact 4-qubit energy", ok,
        f"error {error:.2e} Ha in {result.n_evaluations} evaluations, "
        f"{_DURATIONS['h2_qucc']:.1f}s")


def test_criterion_03_mp2_start_below_hf(h2_qucc, h2_problem):
    _, result = h2_qucc
    first = result.energy_trace[0]
    e_hf = hf_energy(h2_problem)
    ok = first <= e_hf + 1e-10
    record_criterion(
        3, "MP2 starting energy at or below the Hartree-Fock determinant",
        ok, f"E(theta_MP2) = {first:.8f}, E(HF) = {e_hf:.8f}")


def test_criterion_12_he_spread_dominates(he_trials, qucc_perturbed_trials):
    spread_he = max(he_trials) - min(he_trials)
    spread_qucc = max(qucc_perturbed_trials) - min(qucc_perturbed_trials)
    ratio = spread_he / spread_qucc if spread_qucc > 0 else np.inf
    strong = spread_he > 10.0 * spread_qucc
    ok = spread_he > spread_qucc
    margin = "10x margin" if strong else "weak margin only"
    record_criterion(
        12, "random HE starts spread far wider than perturbed-MP2 qUCC", ok,
        f"spread(HE) = {spread_he:.4f} Ha, spread(qUCC) = {spread_qucc:.2e} "
        f"Ha, ratio {ratio:.1f} ({margin})")


def test_criterion_01_variational_bound(h2_qucc, he_trials,
                                        qucc_perturbed_trials, h2_problem):
    circuit, _ = h2_qucc
    total = sum(len(trace) for trace, _ in _EVAL_LEDGER)
    t0 = time.monotonic()
    if total < 10_000:
        # top up with direct evaluations at random parameter vectors
        energy = make_energy_fn(circuit, h2_problem.hamiltonian,
                                h2_problem.e_core, VqeConfig())
        rng = np.random.default_rng(13)
        extra = [energy(rng.uniform(-np.pi, np.pi, circuit.n_parameters))
                 for _ in range(10_000 - total)]
        _EVAL_LEDGER.append((extra, E_H2))
        total = 10_000
    violations = sum(int(np.sum(np.asarray(trace) < e0 - 1e-9))
                     for trace, e0 in _EVAL_LEDGER)
    elapsed = (sum(_DURATIONS.values()) + time.monotonic() - t0)
    ok = total >= 10_000 and violations == 0 and elapsed < 300.0
    record_criterion(
        1, "variational bound over accumulated noiseless evaluations", ok,
        f"{total} evaluations, {violations} violations, {elapsed:.0f}s")


def test_criterion_04_jw_anticommutation():
    n_modes = 6
    images = []
    for i in range(n_modes):
        for dag in (1, 0):
            op = FermionOperator.from_terms(n_modes, [(1.0, ((i, dag),))])
            images.append(((i, dag),
                           pauli_sum_matrix(jordan_wigner(op).terms, n_modes)))
    worst = 0.0
    for (i, di), a in images:
        for (j, dj), b in images:
            anti = a @ b + b @ a
            expected = (np.eye(2 ** n_modes)
                        if (i == j and di != dj) else np.zeros_like(anti))
            worst = max(worst, float(np.max(np.abs(anti - expected))))
    ok = worst < 1e-12
    record_criterion(4, "Jordan-Wigner anticommutation relations on 6 modes",
                     ok, f"max deviation {worst:.2e}")


def test_criterion_05_kraus_channels():
    worst_complete = 0.0
    for t in (0.0, 10.0, 2500.0, 50_000.0, 400_000.0):
        for kraus in (amplitude_damping_kraus(t, 50.0),
                      dephasing_kraus(t, 50.0)):
            total = sum(e.conj().T @ e for e in kraus)
            worst_complete = max(worst_complete,
                                 float(np.max(np.abs(total - np.eye(2)))))
    # the decay laws on the superoperator that the noisy engine compiles,
    # acting on one qubit's rho as the row-major vector rho.reshape(-1)
    nm = NoiseModel(t1_us=50.0, t2_us=50.0)

    def idle(rho, t_ns):
        return (_superoperator(_idle_kraus(t_ns, nm))
                @ rho.reshape(-1)).reshape(2, 2)

    excited = np.array([[0, 0], [0, 1]], dtype=complex)
    pop = idle(excited, 50_000.0)[1, 1].real
    pop_err = abs(pop - np.exp(-1.0))
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    t_ns = 20_000.0
    coh = idle(plus, t_ns)[0, 1].real
    coh_err = abs(coh - 0.5 * np.exp(-(t_ns * 1e-3) / nm.t2_prime_us))
    ok = worst_complete < 1e-14 and pop_err < 1e-12 and coh_err < 1e-12
    record_criterion(
        5, "Kraus completeness and T1/T2' decay laws", ok,
        f"completeness {worst_complete:.1e}, population error {pop_err:.1e}, "
        f"coherence error {coh_err:.1e}")


def test_criterion_06_weak_noise_limit(h2_problem):
    circuit = ParameterizedCircuit(4, (
        Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("RY", (2,), angle=0.4),
        Gate("CNOT", (1, 2)), Gate("RX", (3,), angle=-0.7),
        Gate("CNOT", (2, 3)), Gate("RZ", (0,), angle=1.1), Gate("H", (3,)),
    ), 0)
    noiseless = expectation_exact(run_statevector(circuit),
                                  h2_problem.hamiltonian)
    nm = NoiseModel(t1_us=1e6, t2_us=1e6)
    noisy = expectation_exact(run_density_matrix(circuit, nm),
                              h2_problem.hamiltonian)
    diff = abs(noisy - noiseless)
    ok = diff < 1e-4
    record_criterion(6, "near-infinite coherence reproduces the noiseless "
                        "energy", ok, f"difference {diff:.2e} Ha")


def test_criterion_07_t1_monotonicity(h2_problem):
    circuit, _ = build_ansatz("qucc", h2_problem)
    t1_grid = (80.0, 200.0, 500.0, 1000.0)
    means, errs = [], []
    t0 = time.monotonic()
    for t1 in t1_grid:
        cfg = VqeConfig(max_iterations=150, initial_guess="random",
                        rng_seed=2026, noise=NoiseModel(t1_us=t1, t2_us=t1))
        ensemble = run_trials(circuit, h2_problem.hamiltonian,
                              h2_problem.e_core, cfg, n_trials=10, jobs=4)
        assert all(e is None for e in ensemble.errors)
        abs_err = np.array([abs(r.best_energy - E_H2)
                            for r in ensemble.results])
        means.append(abs_err.mean())
        errs.append(abs_err.std(ddof=1) / np.sqrt(abs_err.size))
    elapsed = time.monotonic() - t0
    inversions = [(i, means[i + 1] - means[i])
                  for i in range(len(t1_grid) - 1)
                  if means[i + 1] > means[i]]
    ok = (len(inversions) <= 1
          and all(d <= max(errs[i], errs[i + 1]) for i, d in inversions)
          and elapsed < 900.0)
    summary = ", ".join(f"T1={t:g}us: {m:.2e}"
                        for t, m in zip(t1_grid, means))
    record_criterion(
        7, "mean energy error non-increasing with T1", ok,
        f"{summary}; {len(inversions)} inversion(s), {elapsed:.0f}s")


def test_criterion_08_shot_noise_scaling():
    bell = run_statevector(ParameterizedCircuit(
        2, (Gate("H", (0,)), Gate("CNOT", (0, 1))), 0))
    observable = PauliSum(2, {"XI": 1.0})
    lo = [expectation_sampled(bell, observable, 1024, seed)
          for seed in range(200)]
    hi = [expectation_sampled(bell, observable, 4096, 1000 + seed)
          for seed in range(200)]
    ratio = np.std(lo) / np.std(hi)
    ok = 1.6 <= ratio <= 2.4
    record_criterion(8, "shot-noise standard deviation scales as 1/sqrt(shots)",
                     ok, f"std ratio 1024/4096 shots = {ratio:.3f}")


def test_criterion_09_parameter_count_formulas():
    failures = []
    for n in (4, 8, 12, 16):
        for depth in (1, 2, 3):
            for variant, expected in (("v1", depth * n), ("v2", depth * n),
                                      ("v3", 2 * depth * (3 * n - 2))):
                got = he_parameter_count(variant, n, depth)
                built = build_he(variant, n, depth).n_parameters
                if got != expected or built != expected:
                    failures.append((variant, n, depth, got, built, expected))
    record_criterion(9, "HE parameter counts match d*N and 2d(3N-2)",
                     not failures, f"36 (variant, N, d) combinations checked"
                     + (f"; failures: {failures}" if failures else ""))


def test_criterion_10_number_conservation(h2_qucc, h2_problem):
    circuit, _ = h2_qucc
    n = h2_problem.n_qubits
    terms = {"I" * n: n / 2.0}
    for q in range(n):
        terms["".join("Z" if k == q else "I" for k in range(n))] = -0.5
    number = PauliSum(n, terms)
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(-np.pi, np.pi, circuit.n_parameters)
        sv = run_statevector(circuit.bind(theta))
        worst = max(worst, abs(expectation_exact(sv, number)
                               - h2_problem.n_electrons))
    ok = worst < 1e-10
    record_criterion(10, "qUCC conserves particle number at random angles",
                     ok, f"max deviation {worst:.2e} over 100 vectors")


def test_criterion_11_freezing_consistency():
    rng = np.random.default_rng(15)
    h_one, h_two = random_integrals(3, rng)
    m = MolecularIntegrals(3, 4, 0.37, h_one, h_two)
    frozen = freeze_orbitals(m, (1, 2), (0,))
    e_frozen = ground_state(jordan_wigner(build_hamiltonian(frozen)), 2,
                            frozen.e_core).ground_energy
    full = fermion_matrix(build_hamiltonian(m), 6).real
    e_restricted = m.e_core + sector_ground_energy(full, 6, 4,
                                                   mask_fixed=0b11)
    diff = abs(e_frozen - e_restricted)
    ok = diff < 1e-10
    record_criterion(
        11, "frozen-core energy equals restricted diagonalization", ok,
        f"difference {diff:.2e} Ha")


def test_criterion_13_campaign_determinism(tmp_path, h2_path):
    argv = ["vqe", "--fcidump", h2_path, "--ansatz", "he_v2",
            "--trials", "2", "--seed", "3", "--max-iter", "20",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    first = {name: (tmp_path / name).read_bytes() for name in names}
    assert main(argv) == 0

    def strip_timestamp(raw):
        out = []
        for line in raw.splitlines(keepends=True):
            if b'"timestamp"' not in line:
                out.append(line)
        return b"".join(out)

    mismatched = [name for name in names
                  if strip_timestamp(first[name])
                  != strip_timestamp((tmp_path / name).read_bytes())]
    ok = not mismatched and len(names) >= 3
    record_criterion(
        13, "campaign rerun is byte-identical apart from timestamps", ok,
        f"{len(names)} files compared"
        + (f"; mismatched: {mismatched}" if mismatched else ""))
