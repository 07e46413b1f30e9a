"""Exact algebra of Pauli strings and weighted Pauli sums.

Conventions used throughout the package:

* A string is written with one letter per qubit, qubit 0 first, e.g.
  ``"XZI"`` puts X on qubit 0 and Z on qubit 1.
* Qubit 0 is the least significant bit of a computational-basis index,
  so the dense matrix of a string is ``P[q_{n-1}] (x) ... (x) P[q_0]``.

A ``PauliSum`` compiles once into its term table (``string_table``, built
by ``string_actions``), and ``basis_matrix`` assembles every sparse matrix
of the sum from it: the whole space for <H>, a particle-number sector for
the exact references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

import numpy as np
import scipy.sparse

PRUNE_TOL = 1e-14

LETTERS = "IXYZ"

_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# single-qubit products: (a, b) -> (phase, letter) with a*b = phase * letter
_PRODUCT = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("Y", "I"): (1, "Y"), ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"), ("Y", "Y"): (1, "I"), ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}

_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)

_I_POWERS = np.array([1, 1j, -1, -1j])   # i^k for k = 0, 1, 2, 3

# largest |Im coeff| of a sum that expectation values accept as Hermitian
HERMITIAN_TOL = 1e-10


class PauliError(ValueError):
    pass


def _check_letters(letters: str) -> None:
    bad = set(letters) - set(LETTERS)
    if bad:
        raise PauliError(f"invalid Pauli letters: {sorted(bad)}")


def string_actions(letters: Iterable[str]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flip masks, sign masks and prefactors of equal-length Pauli strings.

    P|z> = pref * (-1)^popcount(z & sign) |z ^ flip>: X and Y flip a qubit,
    Y and Z sign it, and pref = i^(number of Y letters).
    """
    letters = list(letters)
    n = len(letters[0]) if letters else 0
    codes = np.frombuffer("".join(letters).encode("ascii"),
                          dtype=np.uint8).reshape(len(letters), n)
    y = codes == ord("Y")
    bits = 1 << np.arange(n)
    flips = ((y | (codes == ord("X"))) * bits).sum(axis=1)
    signs = ((y | (codes == ord("Z"))) * bits).sum(axis=1)
    return flips, signs, _I_POWERS[np.count_nonzero(y, axis=1) % 4]


def parity(x: np.ndarray) -> np.ndarray:
    """Elementwise popcount(x) mod 2 of a non-negative integer array."""
    x = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> shift
    return x & 1


def multiply_letters(a: str, b: str) -> tuple[complex, str]:
    """Product of two letter strings, returning (phase, letters)."""
    if len(a) != len(b):
        raise PauliError(f"length mismatch: {len(a)} vs {len(b)}")
    phase = 1 + 0j
    out = []
    for la, lb in zip(a, b):
        ph, lc = _PRODUCT[(la, lb)]
        phase *= ph
        out.append(lc)
    return phase, "".join(out)


@dataclass(frozen=True)
class PauliString:
    """A single Pauli string with an explicit unit phase."""

    n_qubits: int
    letters: str
    phase: complex = 1 + 0j

    def __post_init__(self):
        if self.n_qubits <= 0:
            raise PauliError("n_qubits must be positive")
        if len(self.letters) != self.n_qubits:
            raise PauliError("letters length must equal n_qubits")
        _check_letters(self.letters)
        if self.phase not in _PHASES:
            raise PauliError(f"phase must be one of +/-1, +/-i, got {self.phase}")

    def to_matrix(self) -> np.ndarray:
        m = np.array([[self.phase]], dtype=complex)
        for letter in self.letters:
            m = np.kron(_MATRICES[letter], m)
        return m

    def __repr__(self):
        return f"PauliString({self.letters!r}, phase={self.phase})"


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Operator product a*b as a single Pauli string with accumulated phase."""
    if a.n_qubits != b.n_qubits:
        raise PauliError(f"qubit-count mismatch: {a.n_qubits} vs {b.n_qubits}")
    phase, letters = multiply_letters(a.letters, b.letters)
    return PauliString(a.n_qubits, letters, a.phase * b.phase * phase)


class PauliSum:
    """Weighted sum of Pauli strings, keyed by the letter string.

    Terms with |coefficient| <= 1e-14 are dropped on construction and
    after every arithmetic operation. Instances are treated as immutable,
    which is what lets them cache their compiled sparse matrix.
    """

    def __init__(self, n_qubits: int, terms: Mapping[str, complex] | None = None):
        if n_qubits <= 0:
            raise PauliError("n_qubits must be positive")
        self.n_qubits = n_qubits
        self._terms: Dict[str, complex] = {}
        self._sparse = None
        self._table = None
        self._max_imag = None
        if terms:
            for letters, coeff in terms.items():
                if len(letters) != n_qubits:
                    raise PauliError(
                        f"term {letters!r} does not match n_qubits={n_qubits}")
                _check_letters(letters)
                c = complex(coeff)
                if abs(c) > PRUNE_TOL:
                    self._terms[letters] = self._terms.get(letters, 0) + c
            self._prune()

    def _prune(self):
        self._terms = {k: v for k, v in self._terms.items() if abs(v) > PRUNE_TOL}

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
            out: Dict[str, complex] = {}
            for la, ca in self._terms.items():
                for lb, cb in other._terms.items():
                    phase, lc = multiply_letters(la, lb)
                    out[lc] = out.get(lc, 0) + ca * cb * phase
            return PauliSum(self.n_qubits, out)
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
        """H on the distinct basis indices ``basis``, as a CSR matrix.

        Entry (i, j) is <basis[i]|H|basis[j]>. Terms sharing a flip mask f
        fold into one weight w_f(z) = sum_t coeff_t * pref_t *
        (-1)^popcount(z & sign_t), so that H|z> = sum_f w_f(z) |z ^ f>;
        targets z ^ f outside the basis are dropped. Weights that cancel to
        exactly zero (such as the XX + YY halves of a number-conserving
        hopping term) are not stored.
        """
        flips, signs, prefs, coeffs = self.string_table()
        dim = basis.size
        index = np.full(2 ** self.n_qubits, -1)   # basis state -> position
        index[basis] = np.arange(dim)
        rows, cols, vals = [basis[:0]], [basis[:0]], [np.zeros(0, complex)]
        for flip in np.unique(flips):
            w = np.zeros(dim, dtype=complex)
            for t in np.flatnonzero(flips == flip):
                c = coeffs[t] * prefs[t]
                w += c * (1.0 - 2.0 * parity(basis & signs[t]))
            # H[z ^ f, z] = w_f(z): the row is the flipped state
            pos = index[basis ^ flip]
            keep = np.flatnonzero((pos >= 0) & (w != 0))
            rows.append(pos[keep])
            cols.append(keep)
            vals.append(w[keep])
        return scipy.sparse.csr_array(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim))

    def sparse_matrix(self) -> scipy.sparse.csr_array:
        """``basis_matrix`` on the whole 2^n space, built once and cached.

        The cached matrix is shared: do not modify it.
        """
        if self._sparse is None:
            self._sparse = self.basis_matrix(np.arange(2 ** self.n_qubits))
        return self._sparse

    def to_matrix(self, cap: int = 16) -> np.ndarray:
        """Dense 2^n x 2^n matrix of the sum. Intended as oracle support."""
        if self.n_qubits > cap:
            raise PauliError(
                f"n_qubits={self.n_qubits} exceeds dense cap {cap}")
        dim = 2 ** self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for letters, coeff in self._terms.items():
            out += coeff * PauliString(self.n_qubits, letters).to_matrix()
        return out

    def render(self) -> str:
        """Text form, one `<coeff> <letters>` line per term, sorted."""
        lines = []
        for letters, coeff in self.sorted_items():
            if abs(coeff.imag) <= PRUNE_TOL:
                lines.append(f"{coeff.real:.16g} {letters}")
            else:
                lines.append(f"{coeff.real:.16g}{coeff.imag:+.16g}j {letters}")
        return "\n".join(lines)

    @classmethod
    def parse(cls, text: str, n_qubits: int) -> "PauliSum":
        terms: Dict[str, complex] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            coeff_s, letters = line.split()
            terms[letters] = terms.get(letters, 0) + complex(coeff_s)
        return cls(n_qubits, terms)

    @classmethod
    def from_string(cls, s: PauliString, coeff: complex = 1.0) -> "PauliSum":
        return cls(s.n_qubits, {s.letters: coeff * s.phase})

    def __repr__(self):
        return f"PauliSum(n_qubits={self.n_qubits}, n_terms={len(self)})"
