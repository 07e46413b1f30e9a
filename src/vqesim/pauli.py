"""Exact algebra of Pauli strings and weighted Pauli sums.

Conventions used throughout the package:

* A string is written with one letter per qubit, qubit 0 first, e.g.
  ``"XZI"`` puts X on qubit 0 and Z on qubit 1.
* Qubit 0 is the least significant bit of a computational-basis index,
  so the dense matrix of a string is ``P[q_{n-1}] (x) ... (x) P[q_0]``.
* On up to 63 qubits a string is also i^k X^x Z^z with bit masks x, z:
  ``string_actions`` and ``PauliSum.from_masks`` convert between the two
  forms, and ``mask_product`` is the one product rule of strings, for
  ``PauliSum.__mul__`` and Jordan-Wigner alike.

A ``PauliSum`` compiles once into its term table (``string_table``, built
by ``string_actions``), and ``basis_matrix`` assembles every matrix of
the sum from it, always sparse: the whole space for <H>, a
particle-number sector for the exact references. Each such matrix is
the upper triangle U of the Hermitian H with its diagonal, and every
reader rebuilds H = U + U^dagger - diag(U). U is real (float64) when H
is, as for every real-integral molecular Hamiltonian, and its indices
are int32: a quarter of the bytes of a full complex CSR with int64
indices.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

import numpy as np
import scipy.sparse

PRUNE_TOL = 1e-14          # |coefficient| that counts as zero, package-wide
MAX_MASK_QUBITS = 63       # largest n whose strings fit a signed 64-bit mask

LETTERS = "IXYZ"

_I_POWERS = np.array([1, 1j, -1, -1j])   # i^k for k = 0, 1, 2, 3

# letter of one qubit from its (x bit, z bit): X^x Z^z with XZ = -iY
_LETTER_CODES = np.frombuffer(b"IXZY", dtype=np.uint8)

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


def parity(x: np.ndarray) -> np.ndarray:
    """Elementwise popcount(x) mod 2 of a non-negative integer array."""
    return np.bitwise_count(x) & 1


def mask_product(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray,
                 z2: np.ndarray) -> tuple[np.ndarray, ...]:
    """(x, z, k) with (X^x1 Z^z1)(X^x2 Z^z2) = i^k X^x Z^z, elementwise.

    Moving Z^z1 past X^x2 flips the sign once per shared qubit:
    (X^x1 Z^z1)(X^x2 Z^z2) = (-1)^popcount(z1 & x2) X^(x1^x2) Z^(z1^z2).
    """
    return x1 ^ x2, z1 ^ z2, 2 * np.bitwise_count(z1 & x2)


class PauliSum:
    """Weighted sum of Pauli strings, keyed by the letter string.

    Terms with |coefficient| <= PRUNE_TOL are dropped on construction and
    after every arithmetic operation. Instances are treated as immutable,
    which is what lets them cache their compiled sparse matrix.
    """

    def __init__(self, n_qubits: int, terms: Mapping[str, complex] | None = None):
        if n_qubits <= 0:
            raise PauliError("n_qubits must be positive")
        self.n_qubits = n_qubits
        self._terms: Dict[str, complex] = {}
        self._sparse = None
        self._diagonal = None
        self._table = None
        self._max_imag = None
        for letters, coeff in (terms or {}).items():
            if len(letters) != n_qubits:
                raise PauliError(
                    f"term {letters!r} does not match n_qubits={n_qubits}")
            bad = set(letters) - set(LETTERS)
            if bad:
                raise PauliError(f"invalid Pauli letters: {sorted(bad)}")
            c = 0 + complex(coeff)   # a -0.0 part is stored as +0.0
            if abs(c) > PRUNE_TOL:
                self._terms[letters] = c

    @property
    def terms(self) -> Dict[str, complex]:
        return dict(self._terms)

    def __len__(self):
        return len(self._terms)

    def items(self):
        return self._terms.items()

    def sorted_items(self) -> list[tuple[str, complex]]:
        return sorted(self._terms.items())

    def __eq__(self, other):
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self._terms == other._terms

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise PauliError("qubit-count mismatch in addition")
        merged = dict(self._terms)
        for letters, coeff in other._terms.items():
            merged[letters] = merged.get(letters, 0) + coeff
        return PauliSum(self.n_qubits, merged)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            if self.n_qubits != other.n_qubits:
                raise PauliError("qubit-count mismatch in product")
            # a term is coeff * pref * X^flip Z^sign: all pairs in one pass
            fa, sa, pa, ca = self.string_table()
            fb, sb, pb, cb = other.string_table()
            x, z, k = mask_product(fa[:, None], sa[:, None], fb, sb)
            values = np.outer(ca * pa, cb * pb)
            return PauliSum.from_masks(self.n_qubits, x.ravel(), z.ravel(),
                                       k.ravel(), values.ravel())
        return PauliSum(self.n_qubits,
                        {k: v * complex(other) for k, v in self._terms.items()})

    __rmul__ = __mul__

    def dagger(self) -> "PauliSum":
        return PauliSum(self.n_qubits,
                        {k: np.conj(v) for k, v in self._terms.items()})

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        # the largest |Im coeff| is cached; the tolerance is applied per call
        if self._max_imag is None:
            self._max_imag = float(np.max(
                np.abs(np.imag(list(self._terms.values()))), initial=0.0))
        return self._max_imag <= tol

    def string_table(self) -> tuple[np.ndarray, ...]:
        """(flips, signs, prefs, coeffs) of the terms in sorted order.

        This is the compiled form of the sum: the first three are
        ``string_actions`` of the letter strings, and ``basis_matrix`` and
        the simulator's expectation values read only this table. The
        arrays are built once, cached and read-only.
        """
        if self._table is None:
            items = self.sorted_items()
            table = string_actions(l for l, _ in items) + (
                np.array([c for _, c in items], dtype=complex),)
            for a in table:
                a.flags.writeable = False
            self._table = table
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

    @classmethod
    def from_masks(cls, n_qubits: int, x: np.ndarray, z: np.ndarray,
                   k: np.ndarray, coeffs: np.ndarray) -> "PauliSum":
        """Sum of coeffs[t] i^k[t] X^x[t] Z^z[t], equal strings merged.

        Its terms are valid, merged and pruned as built, so they skip the
        checks of ``__init__``."""
        # each X Z on one qubit is -i Y (mod 4, so an unsigned k may wrap)
        values = coeffs * _I_POWERS[(k - np.bitwise_count(x & z)) % 4]
        # equal strings share a key: the pair of ranks of their x and z masks
        xs, x_rank = np.unique(x, return_inverse=True)
        zs, z_rank = np.unique(z, return_inverse=True)
        keys, where = np.unique(x_rank * len(zs) + z_rank, return_inverse=True)
        total = np.zeros(len(keys), dtype=complex)
        np.add.at(total, where, values)
        keep = np.abs(total) > PRUNE_TOL      # most cancel, as XY - YX does
        keys, total = keys[keep], total[keep]
        shifts = np.arange(n_qubits)
        x_bits = (xs[keys // len(zs), None] >> shifts) & 1
        z_bits = (zs[keys % len(zs), None] >> shifts) & 1
        text = _LETTER_CODES[x_bits + 2 * z_bits].tobytes().decode("ascii")
        letters = [text[i:i + n_qubits] for i in range(0, len(text), n_qubits)]
        out = cls(n_qubits)
        out._terms = dict(zip(letters, total.tolist()))
        return out

    def __repr__(self):
        return f"PauliSum(n_qubits={self.n_qubits}, n_terms={len(self)})"
