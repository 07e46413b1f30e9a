import numpy as np
import pytest

from vqesim.fermion import (ActiveSpace, FermionOperator, IntegralError,
                            MolecularIntegrals, apply_sidecar,
                            build_hamiltonian, freeze_orbitals,
                            jordan_wigner, load_sidecar, parse_fcidump,
                            select_active_space, write_fcidump)
from vqesim.pipeline import prepare_problem

from oracles import (fermion_matrix, fermion_terms, pauli_sum_matrix,
                     random_integrals, sector_ground_energy)


def make_integrals(n, n_electrons, seed, e_core=0.0, two_scale=0.2):
    rng = np.random.default_rng(seed)
    h, g = random_integrals(n, rng, two_scale=two_scale)
    return MolecularIntegrals(n_orbitals=n, n_electrons=n_electrons,
                              e_core=e_core, h_one=h, h_two=g)


# ---------------------------------------------------------------------------
# FCIDUMP parsing

def test_parse_single_one_body_record():
    text = " &FCI NORB=1,NELEC=2,MS2=0,\n &END\n -1.25 1 1 0 0\n"
    m = parse_fcidump(text)
    assert m.n_orbitals == 1 and m.n_electrons == 2
    assert m.h_one[0, 0] == -1.25
    assert np.all(m.h_two == 0.0)


def test_parse_core_energy_only():
    m = parse_fcidump(" &FCI NORB=1,NELEC=0,MS2=0,\n &END\n 0.7137 0 0 0 0\n")
    assert m.e_core == 0.7137
    assert np.all(m.h_one == 0.0) and np.all(m.h_two == 0.0)


def test_parse_orbital_energy_records():
    text = (" &FCI NORB=2,NELEC=2,MS2=0,\n &END\n"
            " -0.578 1 0 0 0\n 0.670 2 0 0 0\n")
    m = parse_fcidump(text)
    np.testing.assert_allclose(m.orbital_energies, [-0.578, 0.670])


def test_parse_applies_eightfold_symmetry():
    text = " &FCI NORB=2,NELEC=2,MS2=0,\n &END\n 0.66 2 2 1 1\n"
    m = parse_fcidump(text)
    for idx in [(1, 1, 0, 0), (0, 0, 1, 1)]:
        assert m.h_two[idx] == 0.66


def test_write_parse_round_trip(h2_path):
    with open(h2_path) as fh:
        m = parse_fcidump(fh.read())
    m2 = parse_fcidump(write_fcidump(m))
    assert m2.n_orbitals == m.n_orbitals
    assert m2.n_electrons == m.n_electrons
    assert m2.e_core == m.e_core
    np.testing.assert_array_equal(m2.h_one, m.h_one)
    np.testing.assert_array_equal(m2.h_two, m.h_two)
    np.testing.assert_array_equal(m2.orbital_energies, m.orbital_energies)


def test_parse_malformed_header():
    with pytest.raises(IntegralError):
        parse_fcidump("NORB=2\n 1.0 1 1 0 0\n")
    with pytest.raises(IntegralError):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n 1.0 1 1 0 0\n")  # no &END


def test_parse_index_out_of_range():
    with pytest.raises(IntegralError):
        parse_fcidump(" &FCI NORB=2,NELEC=2,MS2=0,\n &END\n 1.0 3 1 0 0\n")


def test_parse_conflicting_duplicate_records():
    text = (" &FCI NORB=2,NELEC=2,MS2=0,\n &END\n"
            " 0.5 1 2 0 0\n 0.6 2 1 0 0\n")
    with pytest.raises(IntegralError):
        parse_fcidump(text)


def test_parse_conflicting_two_body_symmetry_images():
    text = (" &FCI NORB=2,NELEC=2,MS2=0,\n &END\n"
            " 0.5 2 1 1 1\n 0.6 1 1 2 1\n")
    with pytest.raises(IntegralError):
        parse_fcidump(text)


def test_sidecar_round_trip(tmp_path, h2_path):
    side = tmp_path / "side.json"
    side.write_text('{"noons": [1.9, 0.1], "orbital_energies": [-0.5, 0.7]}')
    with open(h2_path) as fh:
        m = parse_fcidump(fh.read())
    m = apply_sidecar(m, load_sidecar(str(side)))
    np.testing.assert_allclose(m.noons, [1.9, 0.1])
    np.testing.assert_allclose(m.orbital_energies, [-0.5, 0.7])


@pytest.mark.parametrize("content", [
    '{"orbital_energy": [-0.5, 0.7]}',
    '{"noons": [1.9, 0.1], "extra": 1}',
    '[1.9, 0.1]',
    '{}',
], ids=["misspelt_key", "extra_key", "bare_list", "empty_object"])
def test_load_sidecar_rejects_anything_but_its_two_keys(tmp_path, content):
    side = tmp_path / "side.json"
    side.write_text(content)
    with pytest.raises(IntegralError, match="sidecar"):
        load_sidecar(str(side))


def test_validate_rejects_bad_noons():
    m = make_integrals(2, 2, seed=0)
    m.noons = np.array([1.0, 0.5])
    with pytest.raises(IntegralError):
        m.validate()


# the NOONs sum to the electron count, so only the length is wrong
@pytest.mark.parametrize("name, values", [
    ("noons", [2.0]), ("noons", [1.0, 0.5, 0.5]),
    ("orbital_energies", [-0.5]), ("orbital_energies", [-0.5, 0.2, 0.7]),
], ids=["noons_short", "noons_long", "energies_short", "energies_long"])
def test_validate_rejects_sidecar_arrays_of_wrong_length(name, values):
    m = make_integrals(2, 2, seed=0)
    with pytest.raises(IntegralError, match=rf"{name} has shape"):
        apply_sidecar(m, {name: np.array(values)})


@pytest.mark.parametrize("name", ["noons", "orbital_energies"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_sidecar_arrays(name, bad):
    m = make_integrals(2, 2, seed=0)
    values = np.array([1.5, 0.5]) if name == "noons" else np.array([-0.5, 0.2])
    values[0] = bad
    with pytest.raises(IntegralError, match=rf"{name} has a non-finite"):
        apply_sidecar(m, {name: values})


def test_validate_rejects_asymmetric_h_one():
    m = make_integrals(2, 2, seed=0)
    m.h_one = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(IntegralError):
        m.validate()


# ---------------------------------------------------------------------------
# active-space selection

def test_select_all_orbitals_active():
    m = make_integrals(3, 4, seed=1)
    m.noons = np.array([1.8, 1.4, 0.8])
    a = select_active_space(m, eps1=0.01, eps2=0.01)
    assert a.active == (0, 1, 2)
    assert a.occupied_frozen == ()
    assert a.n_active_electrons == 4


def test_select_freezes_deep_doubly_occupied():
    m = make_integrals(5, 6, seed=2)
    m.noons = np.array([2.0, 2.0, 1.0, 1.0, 0.0])
    a = select_active_space(m, eps1=0.01, eps2=0.01)
    assert a.occupied_frozen == (0,)
    assert a.active == (1, 2, 3)   # orbital 4 discarded as virtual
    assert a.n_active_electrons == 4


def test_select_high_threshold_keeps_occupied_tail():
    # eps2 above every fractional occupation: only the nearly doubly
    # occupied orbitals at or above the Fermi level stay active
    m = make_integrals(4, 6, seed=3)
    m.noons = np.array([1.999, 1.998, 1.995, 0.008])
    a = select_active_space(m, eps1=0.01, eps2=0.05)
    assert a.occupied_frozen == (0,)
    assert a.active == (1, 2)
    assert a.n_active_electrons == 4


def test_select_partition_is_exact():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        noons = np.sort(rng.uniform(0, 2, size=n))[::-1]
        ne = 2 * int(rng.integers(1, n))
        noons = noons * ne / noons.sum()
        if noons.max() > 2:
            continue
        m = make_integrals(n, ne, seed=int(rng.integers(1 << 30)))
        m.noons = noons
        try:
            a = select_active_space(m, 0.02, 0.02)
        except IntegralError:
            continue
        assert not set(a.active) & set(a.occupied_frozen)
        assert len(set(a.active) | set(a.occupied_frozen)) <= n


@pytest.mark.parametrize("active, frozen", [([1, 1], [0]), ([1, 2], [0, 0])])
def test_prepare_problem_rejects_repeated_orbital(toy4_path, active, frozen):
    with pytest.raises(IntegralError, match="repeats"):
        prepare_problem(toy4_path, active=active, frozen=frozen)


@pytest.mark.parametrize("kwargs", [
    {"frozen": [0]},
    {"eps1": 0.01},
    {"eps2": 0.01},
    {"eps1": 1e-4, "eps2": 1e-4, "active": [1, 2]},
    {"eps1": 1e-4, "eps2": 1e-4, "frozen": [0]},
], ids=["frozen_without_active", "eps1_only", "eps2_only",
        "eps_with_active", "eps_with_frozen"])
def test_prepare_problem_rejects_ignored_arguments(toy4_path,
                                                   toy4_sidecar_path, kwargs):
    with pytest.raises(IntegralError):
        prepare_problem(toy4_path, sidecar_path=toy4_sidecar_path, **kwargs)


def test_prepare_problem_accepts_empty_frozen_without_active(toy4_path):
    problem = prepare_problem(toy4_path, active=None, frozen=())
    assert problem.active_space.active == (0, 1, 2, 3)


def test_select_requires_noons():
    m = make_integrals(2, 2, seed=5)
    with pytest.raises(IntegralError):
        select_active_space(m, 0.01, 0.01)


def test_select_rejects_bad_thresholds():
    m = make_integrals(2, 2, seed=5)
    m.noons = np.array([1.5, 0.5])
    with pytest.raises(IntegralError):
        select_active_space(m, 1.5, 1.0)


# ---------------------------------------------------------------------------
# orbital freezing

def test_freeze_empty_set_is_identity():
    m = make_integrals(3, 4, seed=6)
    a = ActiveSpace((0, 1, 2), (), 4)
    f = freeze_orbitals(m, a)
    assert f.e_core == m.e_core
    np.testing.assert_array_equal(f.h_one, m.h_one)
    np.testing.assert_array_equal(f.h_two, m.h_two)


def test_freeze_restricts_to_active_subblock():
    m = make_integrals(4, 4, seed=7)
    a = ActiveSpace((1, 3), (0,), 2)
    f = freeze_orbitals(m, a)
    assert f.n_orbitals == 2 and f.n_electrons == 2
    np.testing.assert_array_equal(f.h_two,
                                  m.h_two[np.ix_([1, 3], [1, 3], [1, 3], [1, 3])])


def test_freeze_zero_two_body_core_shift():
    # with no two-electron terms the frozen orbital contributes its
    # one-body energy once per spin
    m = make_integrals(3, 4, seed=8)
    m.h_two = np.zeros((3, 3, 3, 3))
    a = ActiveSpace((1, 2), (0,), 2)
    f = freeze_orbitals(m, a)
    assert abs(f.e_core - (m.e_core + 2.0 * m.h_one[0, 0])) < 1e-12
    # cross-check against the determinant oracle: the frozen problem must
    # reproduce the restricted ground energy exactly
    full = fermion_matrix(build_hamiltonian(m)).real
    restricted = sector_ground_energy(full, 6, 4, mask_fixed=0b11) + m.e_core
    frozen = fermion_matrix(build_hamiltonian(f)).real
    frozen_e = sector_ground_energy(frozen, 4, 2) + f.e_core
    assert abs(frozen_e - restricted) < 1e-10


def test_freeze_matches_restricted_diagonalization():
    m = make_integrals(3, 4, seed=9, e_core=0.3)
    a = ActiveSpace((1, 2), (0,), 2)
    f = freeze_orbitals(m, a)
    full = fermion_matrix(build_hamiltonian(m)).real
    restricted = sector_ground_energy(full, 6, 4, mask_fixed=0b11) + m.e_core
    frozen = fermion_matrix(build_hamiltonian(f)).real
    frozen_e = sector_ground_energy(frozen, 4, 2) + f.e_core
    assert abs(frozen_e - restricted) < 1e-10


def test_freeze_four_orbital_property():
    for seed in (10, 11, 12):
        m = make_integrals(4, 4, seed=seed, two_scale=0.15)
        a = ActiveSpace((1, 2, 3), (0,), 2)
        f = freeze_orbitals(m, a)
        full = fermion_matrix(build_hamiltonian(m)).real
        restricted = sector_ground_energy(full, 8, 4, mask_fixed=0b11) + m.e_core
        frozen = fermion_matrix(build_hamiltonian(f)).real
        frozen_e = sector_ground_energy(frozen, 6, 2) + f.e_core
        assert abs(frozen_e - restricted) < 1e-10


def test_freeze_index_out_of_range():
    m = make_integrals(2, 2, seed=13)
    with pytest.raises(IntegralError):
        freeze_orbitals(m, ActiveSpace((0, 5), (), 2))


# ---------------------------------------------------------------------------
# Hamiltonian assembly

def test_single_orbital_hamiltonian():
    eps = -0.734
    m = MolecularIntegrals(1, 2, 0.0, np.array([[eps]]), np.zeros((1, 1, 1, 1)))
    h = build_hamiltonian(m)
    expected = {((0, True), (0, False)): eps, ((1, True), (1, False)): eps}
    got = {ops: c for c, ops in fermion_terms(h)}
    assert got.keys() == expected.keys()
    for k in expected:
        assert abs(got[k] - expected[k]) < 1e-15


def test_hamiltonian_term_count_dense_integrals():
    n = 2
    rng = np.random.default_rng(14)
    h1 = np.abs(rng.normal(size=(n, n))) + 0.1
    h1 = 0.5 * (h1 + h1.T)
    g = np.abs(random_integrals(n, rng)[1]) + 0.1
    g = (g + g.transpose(1, 0, 2, 3) + g.transpose(0, 1, 3, 2)
         + g.transpose(1, 0, 3, 2) + g.transpose(2, 3, 0, 1)
         + g.transpose(3, 2, 0, 1) + g.transpose(2, 3, 1, 0)
         + g.transpose(3, 2, 1, 0)) / 8.0
    m = MolecularIntegrals(n, 2, 0.0, h1, g)
    ham = build_hamiltonian(m)
    # one-body: 2 n^2 spin-conserving terms; two-body: 4 spin pairs per
    # (p,q,r,s) minus the 2 same-spin combinations that vanish when the
    # two creators (p == r) or the two annihilators (q == s) coincide
    n_two = sum(4 - 2 * (p == r or q == s)
                for p in range(n) for q in range(n)
                for r in range(n) for s in range(n))
    assert [len(c) for c, _, _ in ham.groups] == [2 * n * n, n_two]


def test_hamiltonian_is_hermitian_as_matrix():
    m = make_integrals(2, 2, seed=15)
    mat = fermion_matrix(build_hamiltonian(m))
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)


def test_fermion_operator_prunes_zero_terms():
    assert FermionOperator.from_terms(2, [(0.0, ((0, True),))]).groups == ()


def test_fermion_operator_index_validation():
    # an out-of-range mode fails in whichever group it sits
    good = (1.0, ((1, True), (0, False)))
    for bad in ((1.0, ((2, True),)), (1.0, ((-1, False),)),
                (0.5, ((1, True), (0, True), (3, False), (0, False)))):
        for terms in ([bad], [good, bad], [bad, good]):
            with pytest.raises(IntegralError):
                FermionOperator.from_terms(2, terms)


# ---------------------------------------------------------------------------
# Jordan-Wigner

def test_jw_creation_operator():
    op = FermionOperator.from_terms(2, [(1.0, ((0, True),))])
    jw = jordan_wigner(op)
    assert jw.terms == {"XI": 0.5, "YI": -0.5j}


def test_jw_number_operator():
    op = FermionOperator.from_terms(2, [(1.0, ((0, True), (0, False)))])
    jw = jordan_wigner(op)
    assert set(jw.terms) == {"II", "ZI"}
    assert abs(jw.terms["II"] - 0.5) < 1e-15
    assert abs(jw.terms["ZI"] + 0.5) < 1e-15


def test_jw_creation_operators_anticommute():
    a0 = jordan_wigner(FermionOperator.from_terms(2, [(1.0, ((0, True),))]))
    a1 = jordan_wigner(FermionOperator.from_terms(2, [(1.0, ((1, True),))]))
    m0, m1 = (pauli_sum_matrix(s.terms, 2) for s in (a0, a1))
    np.testing.assert_allclose(m0 @ m1 + m1 @ m0, np.zeros((4, 4)), atol=1e-14)


def test_jw_full_anticommutation_suite():
    n = 5
    mats_a = []
    for i in range(n):
        op = FermionOperator.from_terms(n, [(1.0, ((i, False),))])
        mats_a.append(pauli_sum_matrix(jordan_wigner(op).terms, n))
    eye = np.eye(2 ** n)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            acc = mats_a[i] @ mats_a[j].conj().T + mats_a[j].conj().T @ mats_a[i]
            worst = max(worst, np.max(np.abs(acc - (eye if i == j else 0))))
            acc2 = mats_a[i] @ mats_a[j] + mats_a[j] @ mats_a[i]
            worst = max(worst, np.max(np.abs(acc2)))
    assert worst < 1e-12


def test_jw_matches_ladder_oracle_on_random_operators():
    rng = np.random.default_rng(16)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        terms = []
        for _ in range(4):
            k = int(rng.integers(1, 4))
            ops = tuple((int(rng.integers(n)), bool(rng.integers(2)))
                        for _ in range(k))
            terms.append((complex(rng.normal(), rng.normal()), ops))
        op = FermionOperator.from_terms(n, terms)
        np.testing.assert_allclose(
            pauli_sum_matrix(jordan_wigner(op).terms, n),
            fermion_matrix(op), atol=1e-12)


def test_jw_repeated_ladder_operator_vanishes():
    # a_i a_i = a+_i a+_i = 0: every string cancels and is pruned
    for i in range(4):
        for dagger in (False, True):
            op = FermionOperator.from_terms(
                4, [(1.3 - 0.2j, ((1, True), (i, dagger), (i, dagger)))])
            assert jordan_wigner(op).terms == {}


def test_jw_rejects_modes_beyond_a_64_bit_mask():
    with pytest.raises(IntegralError):
        jordan_wigner(FermionOperator.from_terms(64, [(1.0, ((63, True),))]))


def test_jw_toy4_hamiltonian_matches_ladder_oracle(toy4_problem):
    ham = build_hamiltonian(toy4_problem.integrals)
    np.testing.assert_allclose(pauli_sum_matrix(jordan_wigner(ham).terms,
                                                ham.n_modes),
                               fermion_matrix(ham), rtol=0, atol=1e-12)


def test_jw_hermitian_hamiltonian_real_coefficients():
    m = make_integrals(2, 2, seed=17)
    jw = jordan_wigner(build_hamiltonian(m))
    assert jw.is_hermitian(1e-12)


def test_jw_ground_energy_matches_determinant_oracle():
    for n, ne, seed in ((2, 2, 18), (3, 2, 19), (3, 4, 20)):
        m = make_integrals(n, ne, seed=seed, e_core=0.1)
        ham = build_hamiltonian(m)
        jw_mat = pauli_sum_matrix(jordan_wigner(ham).terms, 2 * n)
        oracle = sector_ground_energy(fermion_matrix(ham).real, 2 * n, ne)
        jw_e = sector_ground_energy(jw_mat.real, 2 * n, ne)
        assert abs(jw_e - oracle) < 1e-10
