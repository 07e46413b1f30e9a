import itertools
import pickle
import tracemalloc

import numpy as np
import pytest

from vqesim import pauli
from vqesim.fermion import MolecularIntegrals, build_hamiltonian, jordan_wigner
from vqesim.pauli import (LETTERS, PauliError, PauliSum, mask_product, parity,
                          string_actions)
from vqesim.simulator import Statevector, expectation_exact

from oracles import (hermitian_from_upper, pauli_matrix, pauli_sum_matrix,
                     random_integrals)


def mask_args(letters, coeffs):
    """The (x, z, k, coeffs) arguments of ``from_masks`` for letter strings,
    repeats allowed: each string is i^(number of Y) X^flip Z^sign."""
    flips, signs, _ = string_actions(letters)
    return (flips, signs, np.bitwise_count(flips & signs),
            np.asarray(coeffs, dtype=complex))


def sum_product(a, b):
    """a * b for two sums: ``mask_product`` on every term pair at once,
    summed by ``from_masks``, as Jordan-Wigner multiplies its strings."""
    fa, sa, pa, ca = a.string_table()
    fb, sb, pb, cb = b.string_table()
    x, z, k = mask_product(fa[:, None], sa[:, None], fb, sb)
    values = np.outer(ca * pa, cb * pb)
    return PauliSum.from_masks(a.n_qubits, x.ravel(), z.ravel(), k.ravel(),
                               values.ravel())


def product(n, la, lb):
    """The product of two unit strings, through mask_product."""
    return sum_product(PauliSum(n, {la: 1.0}), PauliSum(n, {lb: 1.0}))


def test_multiply_involution():
    assert product(1, "X", "X").terms == {"I": 1}


def test_multiply_xy_is_iz():
    assert product(1, "X", "Y").terms == {"Z": 1j}


def test_multiply_two_qubit_against_matrix_oracle():
    out = product(2, "XZ", "YZ")
    assert out.terms == {"ZI": 1j}
    np.testing.assert_allclose(pauli_sum_matrix(out.terms, 2),
                               pauli_matrix("XZ") @ pauli_matrix("YZ"),
                               atol=1e-14)


def test_multiply_random_strings_match_matrix_product():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        la = "".join(rng.choice(list(LETTERS), size=n))
        lb = "".join(rng.choice(list(LETTERS), size=n))
        np.testing.assert_allclose(
            pauli_sum_matrix(product(n, la, lb).terms, n),
            pauli_matrix(la) @ pauli_matrix(lb), atol=1e-12)


def test_every_string_squares_to_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        letters = "".join(rng.choice(list(LETTERS), size=n))
        ((sq, phase),) = product(n, letters, letters).sorted_items()
        assert set(sq) == {"I"}
        assert phase in (1, -1)


def test_string_phase_validation():
    # a product of unit strings is one string times a unit phase
    for la, lb in itertools.product(LETTERS, repeat=2):
        ((_, phase),) = product(1, la, lb).sorted_items()
        assert phase in (1, -1, 1j, -1j)
    with pytest.raises(PauliError):
        PauliSum(2, {"X": 1.0})
    with pytest.raises(PauliError):
        PauliSum(1, {"Q": 1.0})


def test_add_cancellation():
    # from_masks adds equal strings: X - X leaves nothing
    s = PauliSum.from_masks(1, np.array([1, 1]), np.array([0, 0]),
                            np.array([0, 0]), np.array([1.0, -1.0]))
    assert len(s) == 0


def test_add_disjoint_terms():
    s = PauliSum.from_masks(1, np.array([1, 0]), np.array([0, 1]),
                            np.array([0, 0]), np.array([0.5, 0.5]))
    assert s.terms == {"X": 0.5, "Z": 0.5}


def test_add_zero_multiple_keeps_term_set():
    # each string again with coefficient 0 merges into the first copy
    terms = {"XYZ": 0.3, "ZZI": -1.2, "IXI": 0.05}
    h = PauliSum(3, terms)
    values = list(terms.values())
    twice = PauliSum.from_masks(3, *mask_args(2 * list(terms),
                                              values + [0.0] * len(values)))
    assert set(twice.terms) == set(h.terms)


def test_addition_associative_and_commutative():
    # from_masks sums the strings of a, b and c in any order to one sum
    rng = np.random.default_rng(3)
    letters = ["XX", "YZ", "IZ", "ZI", "XY"]

    def rand_terms():
        return {l: complex(rng.normal(), rng.normal())
                for l in rng.choice(letters, size=3, replace=False)}

    def merged(*parts):
        return PauliSum.from_masks(2, *mask_args(
            [l for t in parts for l in t],
            [c for t in parts for c in t.values()])).terms

    for _ in range(10):
        a, b, c = rand_terms(), rand_terms(), rand_terms()
        for lhs, rhs in ((merged(a, b, c), merged(c, a, b)),
                         (merged(a, b), merged(b, a))):
            assert set(lhs) == set(rhs)
            for k in lhs:
                assert abs(lhs[k] - rhs[k]) < 1e-14


def to_matrix(s):
    """H rebuilt from the compiled upper triangle that <H> reads."""
    return hermitian_from_upper(s.sparse_matrix())


def test_to_matrix_z_diag():
    np.testing.assert_allclose(to_matrix(PauliSum(1, {"Z": 1.0})),
                               np.diag([1.0, -1.0]), atol=1e-15)


def test_to_matrix_x_plus_z():
    np.testing.assert_allclose(to_matrix(PauliSum(1, {"X": 1.0, "Z": 1.0})),
                               np.array([[1, 1], [1, -1]], dtype=complex),
                               atol=1e-15)


def test_to_matrix_hermitian():
    rng = np.random.default_rng(5)
    terms = {"XYZI": rng.normal(), "ZZII": rng.normal(), "IXXY": rng.normal()}
    # the stored form is the upper triangle of a Hermitian matrix
    upper = PauliSum(4, terms).sparse_matrix().toarray()
    np.testing.assert_array_equal(upper, np.triu(upper))
    np.testing.assert_allclose(upper.diagonal().imag, 0, atol=1e-14)


def test_to_matrix_matches_oracle():
    rng = np.random.default_rng(9)
    for _ in range(5):
        terms = {"".join(rng.choice(list(LETTERS), size=3)): rng.normal()
                 for _ in range(4)}
        s = PauliSum(3, terms)
        np.testing.assert_allclose(to_matrix(s), pauli_sum_matrix(s.terms, 3),
                                   atol=1e-13)


def test_product_of_sums_matches_matrix_oracle():
    rng = np.random.default_rng(13)
    a = PauliSum(3, {"XYI": 0.7, "ZIZ": -0.2, "IYX": 1.1j})
    b = PauliSum(3, {"YYZ": 0.4, "IIX": rng.normal()})
    np.testing.assert_allclose(pauli_sum_matrix(sum_product(a, b).terms, 3),
                               pauli_sum_matrix(a.terms, 3)
                               @ pauli_sum_matrix(b.terms, 3), atol=1e-12)

    def random_sum(n):
        return PauliSum(n, {"".join(rng.choice(list(LETTERS), size=n)):
                            complex(rng.normal(), rng.normal())
                            for _ in range(int(rng.integers(1, 9)))})

    # random complex sums on 1-6 qubits against the dense oracle
    for n in range(1, 7):
        for _ in range(4):
            a, b = random_sum(n), random_sum(n)
            np.testing.assert_allclose(
                pauli_sum_matrix(sum_product(a, b).terms, n),
                pauli_sum_matrix(a.terms, n) @ pauli_sum_matrix(b.terms, n),
                atol=1e-12)

    # (X + iY)(X + iY) = XX - YY + i(XY + YX) = 0: every string cancels
    raising = PauliSum(1, {"X": 1.0, "Y": 1j})
    assert len(sum_product(raising, raising)) == 0

    # all 16 one-qubit letter pairs, each an exact unit phase times a letter
    for la, lb in itertools.product(LETTERS, repeat=2):
        np.testing.assert_array_equal(
            pauli_sum_matrix(product(1, la, lb).terms, 1),
            pauli_matrix(la) @ pauli_matrix(lb))


def test_from_masks_equals_the_checked_constructor_on_merged_terms():
    # from_masks skips __init__'s letter checks: on the same merged
    # terms, the checked constructor must give the same keys, key order
    # and coefficient bits (dyadic coefficients sum exactly in any order)
    rng = np.random.default_rng(29)
    pruned = []
    for n in (1, 4, 8):
        size = 60
        x, z = rng.integers(0, 2 ** n, (2, size))
        k = rng.integers(0, 4, size)
        re, im = rng.integers(-8, 9, (2, size))
        coeffs = (re + 1j * im) / 8
        # a third of the strings repeat with new coefficients, a third
        # come back negated: those with no other copy cancel
        again = rng.choice(size, size // 3, replace=False)
        undo = rng.choice(size, size // 3, replace=False)
        coeffs = np.concatenate([coeffs, coeffs[::-1][:size // 3],
                                 -coeffs[undo]])
        x, z, k = (np.concatenate([a, a[again], a[undo]]) for a in (x, z, k))
        merged = {}
        for xt, zt, kt, ct in zip(x.tolist(), z.tolist(), k.tolist(),
                                  coeffs.tolist()):
            phase = (1, 1j, -1, -1j)[(kt - bin(xt & zt).count("1")) % 4]
            merged[xt, zt] = merged.get((xt, zt), 0) + ct * phase
        def letters(xt, zt):
            return "".join("IXZY"[(xt >> q & 1) + 2 * (zt >> q & 1)]
                           for q in range(n))
        checked = PauliSum(n, {letters(*key): merged[key]
                               for key in sorted(merged)})
        fast = PauliSum.from_masks(n, x, z, k, coeffs)
        assert [(l, c.real.hex(), c.imag.hex())
                for l, c in fast.sorted_items()] == [
            (l, c.real.hex(), c.imag.hex()) for l, c in checked.sorted_items()]
        pruned.append(len(merged) - len(checked))
    assert pruned[-1] > 0     # 8 qubits: the negated strings cancel


def test_one_table_from_letters_and_masks_in_letter_order():
    # random 1-8 qubit sums with repeated and cancelling strings: the
    # checked constructor on the merged dict and from_masks on the raw
    # strings store one table, in the sorted order of the letter strings,
    # and its letters and coefficient bits survive a round trip
    rng = np.random.default_rng(97)
    for n in range(1, 9):
        for _ in range(5):
            size = int(rng.integers(1, 40))
            letters = ["".join(rng.choice(list(LETTERS), size=n))
                       for _ in range(size)]
            # dyadic coefficients merge exactly in any order
            coeffs = (rng.integers(-4, 5, size)
                      + 1j * rng.integers(-4, 5, size)) / 4
            repeat = rng.integers(0, size, size // 2)
            letters += [letters[i] for i in repeat]
            coeffs = np.concatenate([coeffs, -coeffs[repeat]])
            merged = {}
            for l, c in zip(letters, coeffs.tolist()):
                merged[l] = merged.get(l, 0) + c
            fast = PauliSum.from_masks(n, *mask_args(letters, coeffs))
            checked = PauliSum(n, merged)
            assert checked == fast
            assert fast.terms == {l: c for l, c in merged.items() if c}
            items = fast.sorted_items()
            assert [l for l, _ in items] == sorted(l for l, _ in items)
            table = fast.string_table()
            np.testing.assert_array_equal(
                np.array(string_actions([l for l, _ in items])[0],
                         dtype=np.int64), table[0])
            again = PauliSum(n, fast.terms)
            assert again == fast
            assert [(l, c.real.hex(), c.imag.hex())
                    for l, c in again.sorted_items()] == [
                (l, c.real.hex(), c.imag.hex()) for l, c in items]


def test_masks_fit_63_qubits():
    x62 = PauliSum(63, {"I" * 62 + "X": 1.0})
    flips, signs, _, _ = x62.string_table()
    assert flips.tolist() == [2 ** 62] and signs.tolist() == [0]
    assert x62.terms == {"I" * 62 + "X": 1.0}
    assert product(63, "I" * 62 + "X", "I" * 62 + "X").terms == {
        "I" * 63: 1.0}


@pytest.mark.parametrize("n", [64, 65])
def test_masks_above_63_qubits_raise(n):
    # bit 63 is the sign of an int64 and bit 64 does not exist: an X on
    # qubit 64 used to compile as the identity, so no such sum is built
    with pytest.raises(PauliError):
        PauliSum(n, {"I" * (n - 1) + "X": 1.0})
    with pytest.raises(PauliError):
        PauliSum(n)
    one = np.array([1])
    with pytest.raises(PauliError):
        PauliSum.from_masks(n, one, 0 * one, 0 * one, one)


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
    expected = pauli_sum_matrix(h.terms, 4)[np.ix_(basis, basis)]
    m = h.basis_matrix(basis)
    # the upper triangle by position in the basis, not by index value
    np.testing.assert_array_equal(m.toarray(), np.triu(m.toarray()))
    np.testing.assert_allclose(hermitian_from_upper(m), expected,
                               rtol=0, atol=1e-15)
    # exact zeros not stored
    assert m.nnz == np.count_nonzero(np.triu(expected))
    if basis.size == 16:
        np.testing.assert_array_equal(h.sparse_matrix().toarray(),
                                      m.toarray())


def test_pickled_sum_is_read_only_and_rebuilds_its_caches(toy4_problem):
    h = toy4_problem.hamiltonian
    u, _, _ = h.sparse_matrix(), h.diagonal(), h.terms
    copy = pickle.loads(pickle.dumps(h))
    assert copy._sparse is copy._diagonal is copy._letters is None
    assert copy == h and copy.terms == h.terms
    for a in copy.string_table():
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    v = copy.sparse_matrix()
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(v, name), getattr(u, name))


def test_compiled_14_qubit_molecular_h_is_a_real_upper_triangle():
    h1, g = random_integrals(7, np.random.default_rng(1))
    h = jordan_wigner(build_hamiltonian(MolecularIntegrals(7, 7, 0.0, h1, g)))
    u = h.sparse_matrix()
    assert u.dtype == np.float64
    assert u.indices.dtype == u.indptr.dtype == np.int32
    rows = np.repeat(np.arange(u.shape[0]), np.diff(u.indptr))
    assert (rows <= u.indices).all()
    # U + U^T stores every entry of H once
    assert u.nnz <= (u + u.T).nnz / 2 + 2 ** 14
    # <psi|H|psi> term by term, from each string's action on |z>
    psi = [1, 1j] @ np.random.default_rng(2).standard_normal((2, 2 ** 14))
    psi /= np.linalg.norm(psi)
    z = np.arange(2 ** 14)
    expected = sum(c * pref * np.vdot(psi[z ^ flip],
                                      (1.0 - 2.0 * parity(z & sign)) * psi)
                   for flip, sign, pref, c in zip(*h.string_table()))
    assert abs(expectation_exact(Statevector(14, psi), h)
               - expected.real) <= 1e-10


def test_basis_matrix_skips_flips_that_leave_the_basis(monkeypatch):
    # on one state only the flip-0 terms can contribute: no other flip
    # mask's terms are evaluated
    h = PauliSum(4, BASIS_TERMS)
    calls = []

    def counting_parity(x):
        calls.append(x.size)
        return parity(x)

    monkeypatch.setattr(pauli, "parity", counting_parity)
    m = h.basis_matrix(np.array([5]))
    flips = h.string_table()[0]
    assert len(calls) == np.count_nonzero(flips == 0)
    expected = pauli_sum_matrix(h.terms, 4)[5, 5]
    assert m.shape == (1, 1) and m[0, 0] == pytest.approx(expected.real)


def test_basis_matrix_transient_memory_is_bounded():
    # the per-flip lists go before the CSR is built: peak traced memory
    # stays within 3x the stored bytes (3.7x when all of them lived on)
    h1, g = random_integrals(6, np.random.default_rng(6))
    h = jordan_wigner(build_hamiltonian(MolecularIntegrals(6, 6, 0.0, h1, g)))
    h.string_table()
    tracemalloc.start()
    try:
        u = h.basis_matrix(np.arange(2 ** 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (u.data.nbytes + u.indices.nbytes + u.indptr.nbytes)


def test_pruning_below_tolerance():
    s = PauliSum(1, {"X": 1e-15})
    assert len(s) == 0
    # X - (1 - 1e-15) X, summed by from_masks
    t = PauliSum.from_masks(1, np.array([1, 1]), np.array([0, 0]),
                            np.array([0, 0]), np.array([1.0, -1.0 + 1e-15]))
    assert len(t) == 0


def test_is_hermitian_real_coefficients():
    assert PauliSum(2, {"XY": 0.3, "ZZ": -1.0}).is_hermitian()
    assert not PauliSum(2, {"XY": 0.3j}).is_hermitian()


def test_parity_matches_a_per_bit_count():
    rng = np.random.default_rng(68)
    x = np.concatenate([np.arange(1 << 12),
                        rng.integers(0, 2 ** 62, size=4096)])
    expected = [bin(int(v)).count("1") % 2 for v in x]
    np.testing.assert_array_equal(parity(x), expected)
