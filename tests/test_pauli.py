import itertools

import numpy as np
import pytest

from vqesim.pauli import (LETTERS, PauliError, PauliString, PauliSum,
                          multiply, multiply_letters, string_actions)

from oracles import pauli_matrix, pauli_sum_matrix


def test_multiply_involution():
    a = PauliString(1, "X")
    out = multiply(a, a)
    assert out.letters == "I"
    assert out.phase == 1


def test_multiply_xy_is_iz():
    out = multiply(PauliString(1, "X"), PauliString(1, "Y"))
    assert out.letters == "Z"
    assert out.phase == 1j


def test_multiply_two_qubit_against_matrix_oracle():
    a = PauliString(2, "XZ")
    b = PauliString(2, "YZ")
    out = multiply(a, b)
    assert out.letters == "ZI"
    assert out.phase == 1j
    np.testing.assert_allclose(out.to_matrix(),
                               pauli_matrix("XZ") @ pauli_matrix("YZ"),
                               atol=1e-14)


def test_multiply_size_mismatch():
    with pytest.raises(PauliError):
        multiply(PauliString(1, "X"), PauliString(2, "XY"))


def test_multiply_random_strings_match_matrix_product():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        la = "".join(rng.choice(list(LETTERS), size=n))
        lb = "".join(rng.choice(list(LETTERS), size=n))
        prod = multiply(PauliString(n, la), PauliString(n, lb))
        np.testing.assert_allclose(prod.to_matrix(),
                                   pauli_matrix(la) @ pauli_matrix(lb),
                                   atol=1e-12)


def test_every_string_squares_to_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        letters = "".join(rng.choice(list(LETTERS), size=n))
        sq = multiply(PauliString(n, letters), PauliString(n, letters))
        assert set(sq.letters) == {"I"}
        assert sq.phase in (1, -1)


def test_string_phase_validation():
    with pytest.raises(PauliError):
        PauliString(1, "X", phase=0.5)
    with pytest.raises(PauliError):
        PauliString(2, "X")
    with pytest.raises(PauliError):
        PauliString(1, "Q")


def test_add_cancellation():
    s = PauliSum(1, {"X": 1.0}) + PauliSum(1, {"X": -1.0})
    assert len(s) == 0


def test_add_disjoint_terms():
    s = PauliSum(1, {"X": 0.5}) + PauliSum(1, {"Z": 0.5})
    assert s.terms == {"X": 0.5, "Z": 0.5}


def test_add_zero_multiple_keeps_term_set():
    h = PauliSum(3, {"XYZ": 0.3, "ZZI": -1.2, "IXI": 0.05})
    assert set((h + 0.0 * h).terms) == set(h.terms)


def test_add_size_mismatch():
    with pytest.raises(PauliError):
        PauliSum(1, {"X": 1.0}) + PauliSum(2, {"XY": 1.0})


def test_addition_associative_and_commutative():
    rng = np.random.default_rng(3)
    letters = ["XX", "YZ", "IZ", "ZI", "XY"]

    def rand_sum():
        return PauliSum(2, {l: complex(rng.normal(), rng.normal())
                            for l in rng.choice(letters, size=3, replace=False)})

    for _ in range(10):
        a, b, c = rand_sum(), rand_sum(), rand_sum()
        lhs = ((a + b) + c).terms
        rhs = (a + (b + c)).terms
        for k in set(lhs) | set(rhs):
            assert abs(lhs.get(k, 0) - rhs.get(k, 0)) < 1e-14
        ab, ba = (a + b).terms, (b + a).terms
        for k in set(ab) | set(ba):
            assert abs(ab.get(k, 0) - ba.get(k, 0)) < 1e-14


def test_to_matrix_z_diag():
    np.testing.assert_allclose(PauliSum(1, {"Z": 1.0}).to_matrix(),
                               np.diag([1.0, -1.0]), atol=1e-15)


def test_to_matrix_x_plus_z():
    np.testing.assert_allclose(PauliSum(1, {"X": 1.0, "Z": 1.0}).to_matrix(),
                               np.array([[1, 1], [1, -1]], dtype=complex),
                               atol=1e-15)


def test_to_matrix_hermitian():
    rng = np.random.default_rng(5)
    terms = {"XYZI": rng.normal(), "ZZII": rng.normal(), "IXXY": rng.normal()}
    mat = PauliSum(4, terms).to_matrix()
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-14)


def test_to_matrix_cap():
    with pytest.raises(PauliError):
        PauliSum(3, {"XXX": 1.0}).to_matrix(cap=2)


def test_to_matrix_matches_oracle():
    rng = np.random.default_rng(9)
    for _ in range(5):
        terms = {"".join(rng.choice(list(LETTERS), size=3)): rng.normal()
                 for _ in range(4)}
        s = PauliSum(3, terms)
        np.testing.assert_allclose(s.to_matrix(),
                                   pauli_sum_matrix(s.terms, 3), atol=1e-13)


def test_product_of_sums_matches_matrix_oracle():
    rng = np.random.default_rng(13)
    a = PauliSum(3, {"XYI": 0.7, "ZIZ": -0.2, "IYX": 1.1j})
    b = PauliSum(3, {"YYZ": 0.4, "IIX": rng.normal()})
    np.testing.assert_allclose((a * b).to_matrix(),
                               a.to_matrix() @ b.to_matrix(), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_string_actions_match_matrix_oracle(n):
    # P|z> = pref * (-1)^popcount(z & sign) |z ^ flip> for all 4^n strings
    letters = ["".join(p) for p in itertools.product(LETTERS, repeat=n)]
    z = np.arange(2 ** n)
    for l, flip, sign, pref in zip(letters, *string_actions(letters)):
        m = np.zeros((2 ** n, 2 ** n), dtype=complex)
        m[z ^ flip, z] = [pref * (-1) ** bin(v).count("1") for v in z & sign]
        np.testing.assert_array_equal(m, pauli_matrix(l))


def test_string_actions_of_no_strings():
    assert all(a.shape == (0,) for a in string_actions([]))


# odd numbers of Y (YIII, IZXY, YYYX) and two hopping pairs whose XX + YY
# halves cancel on <0000|H|0011> and wherever qubits 1 and 2 agree
BASIS_TERMS = {"IIII": -1.3, "ZIZI": 0.4, "IZIZ": -0.25, "YIII": 0.2,
               "IZXY": -0.6, "YYYX": 0.15, "XXII": 0.5, "YYII": 0.5,
               "IXXZ": 0.3, "IYYZ": 0.3}


@pytest.mark.parametrize("basis", [np.arange(16),
                                   np.array([0, 1, 3, 5, 6, 9, 10, 12, 15]),
                                   np.array([15, 0, 9, 3, 6, 1, 12, 10])],
                         ids=["full", "sorted_subset", "unsorted_subset"])
def test_basis_matrix_matches_dense_restriction(basis):
    h = PauliSum(4, BASIS_TERMS)
    expected = h.to_matrix()[np.ix_(basis, basis)]
    m = h.basis_matrix(basis)
    np.testing.assert_allclose(m.toarray(), expected, rtol=0, atol=1e-15)
    assert m.nnz == np.count_nonzero(expected)   # exact zeros not stored
    if basis.size == 16:
        np.testing.assert_array_equal(h.sparse_matrix().toarray(),
                                      m.toarray())


def test_pruning_below_tolerance():
    s = PauliSum(1, {"X": 1e-15})
    assert len(s) == 0
    t = PauliSum(1, {"X": 1.0}) + PauliSum(1, {"X": -1.0 + 1e-15})
    assert len(t) == 0


def test_is_hermitian_real_coefficients():
    assert PauliSum(2, {"XY": 0.3, "ZZ": -1.0}).is_hermitian()
    assert not PauliSum(2, {"XY": 0.3j}).is_hermitian()


def test_dagger_conjugates_coefficients():
    s = PauliSum(1, {"Y": 0.5 + 0.25j})
    assert s.dagger().terms == {"Y": 0.5 - 0.25j}


def test_render_and_parse_round_trip():
    s = PauliSum(4, {"ZIXY": 0.1721, "XXII": -0.5, "IIIZ": 0.25j})
    text = s.render()
    assert "0.1721 ZIXY" in text
    assert PauliSum.parse(text, 4) == s


def test_render_is_sorted_and_stable():
    s = PauliSum(2, {"ZI": 1.0, "IX": 2.0, "XY": 3.0})
    lines = s.render().splitlines()
    assert [ln.split()[1] for ln in lines] == ["IX", "XY", "ZI"]
    assert s.render() == PauliSum.parse(s.render(), 2).render()


def test_scalar_multiplication():
    s = PauliSum(1, {"X": 2.0})
    assert (0.5 * s).terms == {"X": 1.0}
    assert (s * 0).terms == {}
