import numpy as np
import pytest
import scipy.linalg

from vqesim.exact import (MAX_QUBITS, OneRdm, ReferenceError,
                          _sector_indices, ground_state, one_rdm)
from vqesim.fermion import (FermionOperator, MolecularIntegrals,
                            build_hamiltonian, jordan_wigner)
from vqesim.pauli import PauliSum
from vqesim.simulator import Statevector

from oracles import fermion_matrix, pauli_sum_matrix, sector_ground_energy


def test_single_qubit_z_sector():
    res = ground_state(PauliSum(1, {"Z": 1.0}), n_electrons=1)
    assert res.ground_energy == pytest.approx(-1.0)
    np.testing.assert_allclose(np.abs(res.ground_state.amplitudes), [0, 1],
                               atol=1e-12)


def test_sparse_path_on_two_state_sector():
    # one electron on two qubits: a 2 x 2 sector, below ARPACK's minimum
    h = PauliSum(2, {"XX": 0.5, "YY": 0.5, "ZI": 0.3})
    res = ground_state(h, 1, dense_cap=0)
    assert res.ground_energy == pytest.approx(-np.sqrt(1.09))


def test_h2_matches_determinant_oracle(h2_problem):
    ham = build_hamiltonian(h2_problem.integrals)
    oracle = (sector_ground_energy(fermion_matrix(ham).real, 4, 2)
              + h2_problem.e_core)
    res = ground_state(h2_problem.hamiltonian, 2, h2_problem.e_core)
    assert abs(res.ground_energy - oracle) < 1e-10
    assert abs(res.ground_energy - (-1.1372698361356877)) < 1e-10


def test_sector_restriction_is_variational(h2_problem):
    dense = pauli_sum_matrix(h2_problem.hamiltonian.terms, 4)
    unrestricted = float(np.linalg.eigvalsh(dense)[0])
    res = ground_state(h2_problem.hamiltonian, 2, 0.0)
    assert res.ground_energy >= unrestricted - 1e-12


def test_ground_state_is_eigenvector(h2_problem):
    res = ground_state(h2_problem.hamiltonian, 2, 0.0)
    dense = pauli_sum_matrix(h2_problem.hamiltonian.terms, 4)
    v = res.ground_state.amplitudes
    resid = dense @ v - res.ground_energy * v
    assert np.linalg.norm(resid) < 1e-9
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    # support restricted to the weight-2 sector
    for z in range(16):
        if bin(z).count("1") != 2:
            assert abs(v[z]) < 1e-14


def test_sparse_path_matches_dense(h2_problem, toy4_problem):
    # Lanczos starts from a fixed vector, so repeated calls agree exactly
    for p in (h2_problem, toy4_problem):
        dense = ground_state(p.hamiltonian, p.n_electrons, p.e_core)
        runs = [ground_state(p.hamiltonian, p.n_electrons, p.e_core,
                             dense_cap=2) for _ in range(3)]
        for run in runs:
            assert run.ground_energy == runs[0].ground_energy
            np.testing.assert_array_equal(run.ground_state.amplitudes,
                                          runs[0].ground_state.amplitudes)
        assert abs(dense.ground_energy - runs[0].ground_energy) < 1e-9
        overlap = np.vdot(dense.ground_state.amplitudes,
                          runs[0].ground_state.amplitudes)
        assert abs(abs(overlap) - 1.0) < 1e-9


def test_real_dense_solve_matches_the_complex_solve(h2_problem,
                                                    toy4_problem):
    for p in (h2_problem, toy4_problem):
        sector = _sector_indices(p.hamiltonian.n_qubits, p.n_electrons)
        mat = p.hamiltonian.basis_matrix(sector)
        assert not mat.data.imag.any()     # so the real solve is taken
        evals, evecs = scipy.linalg.eigh(mat.toarray(), subset_by_index=[0, 0])
        res = ground_state(p.hamiltonian, p.n_electrons)
        assert abs(res.ground_energy - evals[0]) <= 1e-12
        overlap = np.vdot(evecs[:, 0], res.ground_state.amplitudes[sector])
        assert abs(overlap) >= 1 - 1e-10


def test_complex_sector_keeps_the_complex_solve():
    # hoppings with complex amplitudes give a sector matrix with imaginary
    # entries; a real solve of it would be wrong
    terms = [(0.7 * np.exp(1j * phi), ((p, True), (q, False)))
             for p, q, phi in ((0, 1, 0.4), (1, 2, 1.3), (0, 3, -2.1),
                               (2, 3, 0.9))]
    terms += [(0.3 * (i + 1), ((i, True), (i, False))) for i in range(4)]
    terms += [(0.5, ((0, True), (2, True), (2, False), (0, False)))]
    op = FermionOperator.from_terms(4, terms)
    h = jordan_wigner(op + op.dagger())
    for n_electrons in (1, 2):
        sector = _sector_indices(4, n_electrons)
        assert h.basis_matrix(sector).data.imag.any()
        block = h.to_matrix()[np.ix_(sector, sector)]
        res = ground_state(h, n_electrons)
        assert abs(res.ground_energy - np.linalg.eigvalsh(block)[0]) <= 1e-12


def test_empty_sector_and_cap_errors():
    h = PauliSum(1, {"Z": 1.0})
    with pytest.raises(ReferenceError):
        ground_state(h, n_electrons=5)
    big = PauliSum(MAX_QUBITS + 1, {"I" * (MAX_QUBITS + 1): 1.0})
    with pytest.raises(ReferenceError):
        ground_state(big, 1)


def test_one_rdm_hf_determinant():
    amp = np.zeros(16, dtype=complex)
    amp[0b0011] = 1.0   # spin-orbitals 0 and 1 occupied
    rdm = one_rdm(Statevector(4, amp), n_spatial=2)
    np.testing.assert_allclose(rdm.matrix, np.diag([2.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(rdm.noons, [2.0, 0.0], atol=1e-12)


def test_one_rdm_trace_counts_electrons(h2_problem):
    res = ground_state(h2_problem.hamiltonian, 2, 0.0)
    rdm = one_rdm(res.ground_state, 2)
    assert abs(np.trace(rdm.matrix) - 2.0) < 1e-8
    assert abs(rdm.noons.sum() - 2.0) < 1e-8
    assert rdm.noons.min() > -1e-9 and rdm.noons.max() < 2 + 1e-9


def test_one_rdm_dimension_mismatch():
    with pytest.raises(ReferenceError):
        one_rdm(Statevector.zero_state(3), n_spatial=2)


def test_converged_qucc_noons_match_exact(h2_problem):
    from vqesim.pipeline import build_ansatz, mp2_vector
    from vqesim.simulator import run_statevector
    from vqesim.vqe import VqeConfig, minimize
    circ, gen = build_ansatz("qucc", h2_problem)
    cfg = VqeConfig(max_iterations=300,
                    initial_guess=list(mp2_vector(h2_problem, gen)))
    res = minimize(circ, h2_problem.hamiltonian, h2_problem.e_core, cfg)
    exact = ground_state(h2_problem.hamiltonian, 2, h2_problem.e_core)
    assert abs(res.best_energy - exact.ground_energy) < 1e-6
    state = run_statevector(circ.bind(res.best_theta))
    noons_vqe = one_rdm(state, 2).noons
    noons_ref = one_rdm(exact.ground_state, 2).noons
    np.testing.assert_allclose(noons_vqe, noons_ref, atol=1e-4)


def test_ground_energy_invariant_under_qubit_permutation(h2_problem):
    rng = np.random.default_rng(51)
    perm = rng.permutation(4)
    relabeled = {}
    for letters, coeff in h2_problem.hamiltonian.items():
        new = [""] * 4
        for q, l in enumerate(letters):
            new[perm[q]] = l
        relabeled["".join(new)] = coeff
    h2p = PauliSum(4, relabeled)
    e0 = ground_state(h2_problem.hamiltonian, 2, 0.0).ground_energy
    e1 = ground_state(h2p, 2, 0.0).ground_energy
    assert abs(e0 - e1) < 1e-10


def test_noninteracting_fragments_have_degenerate_noons(h2_problem):
    # two identical copies of the H2 problem glued block-diagonally: every
    # natural occupation must appear twice
    m = h2_problem.integrals
    n = 4
    h = np.zeros((n, n))
    g = np.zeros((n, n, n, n))
    h[:2, :2] = m.h_one
    h[2:, 2:] = m.h_one
    g[:2, :2, :2, :2] = m.h_two
    g[2:, 2:, 2:, 2:] = m.h_two
    big = MolecularIntegrals(n, 4, 0.0, h, g)
    ham = jordan_wigner(build_hamiltonian(big))
    res = ground_state(ham, 4, 0.0)
    noons = one_rdm(res.ground_state, n).noons
    assert abs(noons[0] - noons[1]) < 1e-8
    assert abs(noons[2] - noons[3]) < 1e-8
    assert abs(noons.sum() - 4.0) < 1e-8


@pytest.mark.parametrize("n_qubits", [1, 4, 8, 12])
def test_sector_indices_match_a_per_state_count(n_qubits):
    for n_electrons in range(n_qubits + 1):
        expected = [z for z in range(2 ** n_qubits)
                    if bin(z).count("1") == n_electrons]
        np.testing.assert_array_equal(
            _sector_indices(n_qubits, n_electrons), expected)
