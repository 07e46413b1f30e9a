"""Exact algebra of Pauli strings and weighted Pauli sums.

Conventions used throughout the package:

* A string is written with one letter per qubit, qubit 0 first, e.g.
  ``"XZI"`` puts X on qubit 0 and Z on qubit 1.
* Qubit 0 is the least significant bit of a computational-basis index,
  so the dense matrix of a string is ``P[q_{n-1}] (x) ... (x) P[q_0]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping

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


class PauliError(ValueError):
    pass


def _check_letters(letters: str) -> None:
    bad = set(letters) - set(LETTERS)
    if bad:
        raise PauliError(f"invalid Pauli letters: {sorted(bad)}")


def _string_action(letters: str) -> tuple[int, int, complex]:
    """Flip mask, sign mask and prefactor of a Pauli string on basis states.

    P|z> = pref * (-1)^popcount(z & sign_mask) |z ^ flip_mask>.
    """
    flip = sign = 0
    n_y = 0
    for q, l in enumerate(letters):
        if l in ("X", "Y"):
            flip |= 1 << q
        if l in ("Y", "Z"):
            sign |= 1 << q
        if l == "Y":
            n_y += 1
    return flip, sign, 1j ** n_y


def string_actions(letters: Iterable[str]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flip masks, sign masks and prefactors (``_string_action``) as arrays."""
    actions = [_string_action(l) for l in letters]
    return (np.array([a[0] for a in actions], dtype=int),
            np.array([a[1] for a in actions], dtype=int),
            np.array([a[2] for a in actions], dtype=complex))


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

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        # the largest |Im coeff| is cached; the tolerance is applied per call
        if self._max_imag is None:
            self._max_imag = float(np.max(
                np.abs(np.imag(list(self._terms.values()))), initial=0.0))
        return self._max_imag <= tol

    def flip_weights(self, z: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """(f, w_f(z)) for every X-flip mask f, in increasing order of f.

        Terms sharing a flip mask fold into one weight vector
        w_f(z) = sum_t coeff_t * pref_t * (-1)^popcount(z & sign_t), so
        that H|z> = sum_f w_f(z) |z ^ f> for the basis indices z.
        """
        groups: Dict[int, list[tuple[int, complex]]] = {}
        for letters, coeff in self.sorted_items():
            flip, sign, pref = _string_action(letters)
            groups.setdefault(flip, []).append((sign, coeff * pref))
        for flip in sorted(groups):
            w = np.zeros(z.shape, dtype=complex)
            for sign, c in groups[flip]:
                w += c * (1.0 - 2.0 * parity(z & sign))
            yield flip, w

    def string_table(self) -> tuple[np.ndarray, ...]:
        """(flips, signs, prefs, coeffs) of the terms in sorted order.

        The first three are ``string_actions`` of the letter strings; the
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

    def sparse_matrix(self) -> scipy.sparse.csr_array:
        """The sum as a 2^n x 2^n CSR matrix, built once and cached.

        Entries are H[z ^ f, z] = w_f(z) from ``flip_weights``. Weights
        that cancel to exactly zero (such as the XX + YY halves of a
        number-conserving hopping term) are not stored. The cached matrix
        is shared: do not modify it.
        """
        if self._sparse is None:
            dim = 2 ** self.n_qubits
            idx = np.arange(dim)
            rows, cols, vals = [idx[:0]], [idx[:0]], [np.zeros(0, complex)]
            for flip, w in self.flip_weights(idx):
                nz = np.flatnonzero(w)
                rows.append(nz ^ flip)
                cols.append(nz)
                vals.append(w[nz])
            self._sparse = scipy.sparse.csr_array(
                (np.concatenate(vals),
                 (np.concatenate(rows), np.concatenate(cols))),
                shape=(dim, dim))
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
