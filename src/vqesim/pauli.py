"""Pauli strings and weighted Pauli sums, stored as term tables.

Conventions used throughout the package:

* A string is written with one letter per qubit, qubit 0 first, e.g.
  ``"XZI"`` puts X on qubit 0 and Z on qubit 1.
* Qubit 0 is the least significant bit of a computational-basis index,
  so the dense matrix of a string is ``P[q_{n-1}] (x) ... (x) P[q_0]``.
* A string is also i^k X^x Z^z with bit masks x, z, so a sum has at most
  63 qubits: ``string_actions`` turns letters into masks, and
  ``mask_product`` is the one product rule of strings (Jordan-Wigner's).

A ``PauliSum`` is its term table (``string_table``): flip mask, sign
mask, prefactor and coefficient of each distinct string, in letter
order; letters are decoded from it only on request. ``basis_matrix``
assembles every matrix of the sum from the table, always sparse: the
whole space for <H>, a particle-number sector for the exact references.
Each is the upper triangle U of the Hermitian H with its diagonal, and
every reader rebuilds H = U + U^dagger - diag(U). U is real (float64)
when H is, as for every real-integral molecular Hamiltonian, and its
indices are int32.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

import numpy as np
import scipy.sparse

PRUNE_TOL = 1e-14          # |coefficient| that counts as zero, package-wide
MAX_MASK_QUBITS = 63       # largest n whose strings fit a signed 64-bit mask

LETTERS = "IXYZ"
_LETTER_CODES = np.frombuffer(LETTERS.encode("ascii"), dtype=np.uint8)

_I_POWERS = np.array([1, 1j, -1, -1j])   # i^k for k = 0, 1, 2, 3

# largest |Im coeff| of a sum that expectation values accept as Hermitian
HERMITIAN_TOL = 1e-10


class PauliError(ValueError):
    pass


def string_actions(letters: Iterable[str]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flip masks, sign masks and prefactors of equal-length Pauli strings.

    P|z> = pref * (-1)^popcount(z & sign) |z ^ flip>: X and Y flip a qubit,
    Y and Z sign it, and pref = i^(number of Y letters), so that
    P = pref X^flip Z^sign.
    """
    letters = list(letters)
    n = len(letters[0]) if letters else 0
    if n > MAX_MASK_QUBITS:
        raise PauliError(f"{n} qubits exceed the mask cap {MAX_MASK_QUBITS}")
    codes = np.frombuffer("".join(letters).encode("ascii"),
                          dtype=np.uint8).reshape(len(letters), n)
    y = codes == ord("Y")
    bits = 1 << np.arange(n)
    flips = ((y | (codes == ord("X"))) * bits).sum(axis=1)
    signs = ((y | (codes == ord("Z"))) * bits).sum(axis=1)
    return flips, signs, _I_POWERS[np.count_nonzero(y, axis=1) % 4]


def _letter_indices(x: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """(T, n) index into LETTERS of each qubit of X^x Z^z: 2 z_q + (x_q ^ z_q),
    so I < X < Y < Z and these rows sort as the letter strings do."""
    shifts = np.arange(n)
    xq, zq = (x[:, None] >> shifts) & 1, (z[:, None] >> shifts) & 1
    return 2 * zq + (xq ^ zq)


def parity(x: np.ndarray) -> np.ndarray:
    """Elementwise popcount(x) mod 2 of a non-negative integer array."""
    return np.bitwise_count(x) & 1


def mask_product(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray,
                 z2: np.ndarray) -> tuple[np.ndarray, ...]:
    """(x, z, k) with (X^x1 Z^z1)(X^x2 Z^z2) = i^k X^x Z^z, elementwise.

    The one product rule, which Jordan-Wigner runs. Moving Z^z1 past X^x2
    flips the sign once per shared qubit:
    (X^x1 Z^z1)(X^x2 Z^z2) = (-1)^popcount(z1 & x2) X^(x1^x2) Z^(z1^z2).
    """
    return x1 ^ x2, z1 ^ z2, 2 * np.bitwise_count(z1 & x2)


class PauliSum:
    """Weighted sum of Pauli strings, stored as its read-only term table.

    On construction equal strings are merged, terms with |coefficient|
    <= PRUNE_TOL dropped and the rest sorted by their letters. Instances
    are immutable, so they cache their compiled sparse matrix and letters.
    """

    def __init__(self, n_qubits: int, terms: Mapping[str, complex] | None = None):
        terms = terms or {}
        for letters in terms:
            if len(letters) != n_qubits:
                raise PauliError(
                    f"term {letters!r} does not match n_qubits={n_qubits}")
            bad = set(letters) - set(LETTERS)
            if bad:
                raise PauliError(f"invalid Pauli letters: {sorted(bad)}")
        # a letter string with coefficient c is c i^popcount(x & z) X^x Z^z
        flips, signs, _ = string_actions(terms)
        coeffs = np.array([complex(c) for c in terms.values()], dtype=complex)
        self._store(n_qubits, flips, signs, coeffs)

    @classmethod
    def from_masks(cls, n_qubits: int, x: np.ndarray, z: np.ndarray,
                   k: np.ndarray, coeffs: np.ndarray) -> "PauliSum":
        """Sum of coeffs[t] i^k[t] X^x[t] Z^z[t], equal strings merged."""
        # each X Z on one qubit is -i Y (mod 4, so an unsigned k may wrap)
        values = coeffs * _I_POWERS[(k - np.bitwise_count(x & z)) % 4]
        out = cls.__new__(cls)
        out._store(n_qubits, x, z, values)
        return out

    def _store(self, n_qubits: int, x: np.ndarray, z: np.ndarray,
               values: np.ndarray) -> None:
        # merge, prune and sort X^x Z^z, each with its letter coefficient
        if not 0 < n_qubits <= MAX_MASK_QUBITS:
            raise PauliError(f"{n_qubits} qubits, not in 1..{MAX_MASK_QUBITS}")
        # equal strings share a key: the pair of ranks of their x and z masks
        xs, x_rank = np.unique(x, return_inverse=True)
        zs, z_rank = np.unique(z, return_inverse=True)
        keys, where = np.unique(x_rank * len(zs) + z_rank, return_inverse=True)
        coeffs = np.zeros(len(keys), dtype=complex)   # -0.0 parts sum to +0.0
        np.add.at(coeffs, where, values)
        keep = np.flatnonzero(np.abs(coeffs) > PRUNE_TOL)   # XY - YX cancels
        x = xs[keys[keep] // len(zs)].astype(np.int64)
        z = zs[keys[keep] % len(zs)].astype(np.int64)
        # letter order: qubit 0 is the primary key, the last key of lexsort
        order = np.lexsort(_letter_indices(x, z, n_qubits).T[::-1])
        x, z, coeffs = x[order], z[order], coeffs[keep[order]]
        table = (x, z, _I_POWERS[np.bitwise_count(x & z) % 4], coeffs)
        for a in table:
            a.flags.writeable = False
        self.n_qubits = n_qubits
        self._table = table
        self._max_imag = float(np.max(np.abs(coeffs.imag), initial=0.0))
        self._letters = self._sparse = self._diagonal = None

    def __getstate__(self):   # a copy rebuilds its caches
        return (self.n_qubits, self._table, self._max_imag)

    def __setstate__(self, state):
        self.n_qubits, self._table, self._max_imag = state
        for a in self._table:
            a.flags.writeable = False
        self._letters = self._sparse = self._diagonal = None

    def _letter_strings(self) -> list[str]:
        # decoded once, on the first call that asks for letters
        if self._letters is None:
            n = self.n_qubits
            codes = _LETTER_CODES[_letter_indices(*self._table[:2], n)]
            text = codes.tobytes().decode("ascii")
            self._letters = [text[i:i + n] for i in range(0, len(text), n)]
        return self._letters

    @property
    def terms(self) -> Dict[str, complex]:
        """A new {letters: coefficient} dict, in letter order."""
        return dict(self.sorted_items())

    def sorted_items(self) -> list[tuple[str, complex]]:
        return list(zip(self._letter_strings(), self._table[3].tolist()))

    def __len__(self):
        return len(self._table[3])

    def __eq__(self, other):
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and all(
            np.array_equal(a, b) for a, b in zip(self._table, other._table))

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return self._max_imag <= tol

    def string_table(self) -> tuple[np.ndarray, ...]:
        """(flips, signs, prefs, coeffs) of the terms in letter order: the
        stored form of the sum, with masks and prefactors as
        ``string_actions`` gives them. ``basis_matrix`` and the simulator's
        expectation values read only this table. The arrays are read-only."""
        return self._table

    def basis_matrix(self, basis: np.ndarray) -> scipy.sparse.csr_array:
        """Upper triangle U of H on the distinct basis indices ``basis``.

        Entry (i, j) is <basis[i]|H|basis[j]>, stored when i <= j: positions
        in ``basis``, not index values, so an unsorted basis works too. For
        a Hermitian sum, H = U + U^dagger - diag(U), which is how every
        reader rebuilds it. Terms sharing a flip mask f fold into one
        weight w_f(z) = sum_t coeff_t * pref_t * (-1)^popcount(z & sign_t),
        so that H|z> = sum_f w_f(z) |z ^ f>; targets z ^ f outside the basis
        are dropped. Weights that cancel to exactly zero (such as the
        XX + YY halves of a number-conserving hopping term) are not stored.
        The data are float64 when every coeff_t * pref_t is real (as for
        every real-integral molecular H), complex otherwise; the indices
        are int32.
        """
        flips, signs, prefs, coeffs = self.string_table()
        weights = coeffs * prefs
        if not weights.imag.any():
            weights = weights.real
        dim = basis.size
        position = np.arange(dim, dtype=np.int32)
        index = np.full(2 ** self.n_qubits, -1, dtype=np.int32)
        index[basis] = position
        rows, cols = [position[:0]], [position[:0]]
        vals = [np.zeros(0, weights.dtype)]
        for flip in np.unique(flips):
            # H[z ^ f, z] = w_f(z): the row is the flipped state
            pos = index[basis ^ flip]
            keep = np.flatnonzero((pos >= 0) & (pos <= position))
            if not keep.size:
                continue
            z = basis[keep]
            w = np.zeros(keep.size, dtype=weights.dtype)
            for t in np.flatnonzero(flips == flip):
                w += weights[t] * (1.0 - 2.0 * parity(z & signs[t]))
            stored = np.flatnonzero(w)
            rows.append(pos[keep[stored]])
            cols.append(keep[stored].astype(np.int32))
            vals.append(w[stored])
        # each list goes as soon as it is joined, before the CSR is built
        vals = np.concatenate(vals)
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        return scipy.sparse.csr_array((vals, (rows, cols)), shape=(dim, dim))

    def sparse_matrix(self) -> scipy.sparse.csr_array:
        """``basis_matrix`` on the whole 2^n space, built once and cached.

        This upper triangle is the one compiled matrix of the sum. The
        cached matrix is shared: do not modify it.
        """
        if self._sparse is None:
            self._sparse = self.basis_matrix(np.arange(2 ** self.n_qubits))
        return self._sparse

    def diagonal(self) -> np.ndarray:
        """<z|H|z> for every z: the diagonal of ``sparse_matrix``, taken
        once, cached and read-only."""
        if self._diagonal is None:
            self._diagonal = self.sparse_matrix().diagonal()
            self._diagonal.flags.writeable = False
        return self._diagonal

    def __repr__(self):
        return f"PauliSum(n_qubits={self.n_qubits}, n_terms={len(self)})"
