"""Molecular-integral ingestion, orbital freezing and Jordan-Wigner mapping.

Spin-orbitals are interleaved: spatial orbital p maps to spin-orbitals
2p (alpha) and 2p+1 (beta). Two-body integrals are stored in chemists'
notation (pq|rs) as read from FCIDUMP; the conversion to physicists'
ordering happens when the second-quantized Hamiltonian is assembled.

A ``FermionOperator`` holds its terms as arrays, one group per length.
``jordan_wigner`` works on the bit masks of ``pauli`` (n <= 63 modes): it
expands each group in one numpy pass with ``pauli.mask_product``, and
``PauliSum.from_masks`` sums the strings.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from .pauli import MAX_MASK_QUBITS, PRUNE_TOL, PauliSum, mask_product

SYMMETRY_TOL = 1e-10       # atol of the symmetry checks in validate
FCIDUMP_WRITE_TOL = 1e-15  # |integral| that write_fcidump leaves out


class IntegralError(ValueError):
    pass


@dataclass
class MolecularIntegrals:
    """One- and two-body integrals over spatial orbitals, in Hartree."""

    n_orbitals: int
    n_electrons: int
    e_core: float
    h_one: np.ndarray
    h_two: np.ndarray                  # chemists' (pq|rs)
    orbital_energies: Optional[np.ndarray] = None
    noons: Optional[np.ndarray] = None

    def validate(self) -> None:
        n = self.n_orbitals
        if self.h_one.shape != (n, n):
            raise IntegralError("h_one has wrong shape")
        if self.h_two.shape != (n, n, n, n):
            raise IntegralError("h_two has wrong shape")
        for name in ("orbital_energies", "noons"):
            a = getattr(self, name)
            if a is None:
                continue
            if np.shape(a) != (n,):
                raise IntegralError(f"{name} has shape {np.shape(a)}, "
                                    f"expected ({n},)")
            # NaN passes the NOON sum check and every selection threshold
            if not np.isfinite(a).all():
                raise IntegralError(f"{name} has a non-finite entry")
        if self.n_electrons > 2 * n:
            raise IntegralError("more electrons than spin-orbitals")
        if not np.allclose(self.h_one, self.h_one.T, atol=SYMMETRY_TOL):
            raise IntegralError("h_one is not symmetric")
        g = self.h_two
        # 8-fold permutational symmetry of real chemists' integrals
        for perm in (g.transpose(1, 0, 2, 3), g.transpose(0, 1, 3, 2),
                     g.transpose(2, 3, 0, 1)):
            if not np.allclose(g, perm, atol=SYMMETRY_TOL):
                raise IntegralError("h_two violates 8-fold symmetry")
        if self.noons is not None:
            if abs(float(np.sum(self.noons)) - self.n_electrons) > 1e-6:
                raise IntegralError("noons do not sum to the electron count")


@dataclass(frozen=True)
class ActiveSpace:
    """Partition of spatial orbitals into active and frozen-occupied sets."""

    active: tuple[int, ...]
    occupied_frozen: tuple[int, ...]
    n_active_electrons: int

    def __post_init__(self):
        orbitals = list(self.active) + list(self.occupied_frozen)
        if len(set(orbitals)) != len(orbitals):
            raise IntegralError("an orbital repeats in or across the active "
                                "and frozen sets")
        if self.n_active_electrons < 0:
            raise IntegralError("negative active electron count")


_HEADER_RE = re.compile(r"NORB\s*=\s*(\d+)", re.IGNORECASE)
_NELEC_RE = re.compile(r"NELEC\s*=\s*(\d+)", re.IGNORECASE)


def parse_fcidump(text: str) -> MolecularIntegrals:
    """Parse FCIDUMP text into MolecularIntegrals (chemists' two-body).

    Special records: ``v 0 0 0 0`` sets the core energy, ``v i j 0 0``
    a one-body element, ``v i 0 0 0`` an orbital energy.
    """
    lines = text.splitlines()
    header = []
    body_start = None
    for k, line in enumerate(lines):
        header.append(line)
        if "&END" in line.upper() or line.strip() == "/":
            body_start = k + 1
            break
    if body_start is None:
        raise IntegralError("FCIDUMP header has no &END / terminator")
    head = " ".join(header)
    m_norb = _HEADER_RE.search(head)
    m_nelec = _NELEC_RE.search(head)
    if not m_norb or not m_nelec or "&FCI" not in head.upper():
        raise IntegralError("malformed FCIDUMP header")
    n = int(m_norb.group(1))
    nelec = int(m_nelec.group(1))

    h_one = np.zeros((n, n))
    h_two = np.zeros((n, n, n, n))
    seen_one = np.zeros((n, n), dtype=bool)
    seen_two = np.zeros((n, n, n, n), dtype=bool)
    e_core = 0.0
    seen_core = False
    energies: dict[int, float] = {}

    for line in lines[body_start:]:
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 5:
            raise IntegralError(f"malformed record: {line!r}")
        val = float(parts[0])
        i, j, k, l = (int(p) for p in parts[1:])
        for idx in (i, j, k, l):
            if idx < 0 or idx > n:
                raise IntegralError(f"orbital index out of range: {line!r}")
        if i == j == k == l == 0:
            if seen_core:
                raise IntegralError("duplicate core-energy record")
            e_core = val
            seen_core = True
        elif j == k == l == 0:
            if i in energies:
                raise IntegralError(f"duplicate orbital-energy record for {i}")
            energies[i] = val
        elif k == l == 0:
            if i == 0 or j == 0:
                raise IntegralError(f"malformed one-body record: {line!r}")
            a, b = i - 1, j - 1
            if seen_one[a, b] and not np.isclose(h_one[a, b], val):
                raise IntegralError(f"conflicting one-body record: {line!r}")
            h_one[a, b] = h_one[b, a] = val
            seen_one[a, b] = seen_one[b, a] = True
        else:
            if 0 in (i, j, k, l):
                raise IntegralError(f"malformed two-body record: {line!r}")
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b, c, d in _eightfold(p, q, r, s):
                if seen_two[a, b, c, d] and not np.isclose(h_two[a, b, c, d], val):
                    raise IntegralError(f"conflicting two-body record: {line!r}")
                h_two[a, b, c, d] = val
                seen_two[a, b, c, d] = True

    orbital_energies = None
    if energies:
        orbital_energies = np.zeros(n)
        for i, val in energies.items():
            orbital_energies[i - 1] = val
    m = MolecularIntegrals(n_orbitals=n, n_electrons=nelec, e_core=e_core,
                           h_one=h_one, h_two=h_two,
                           orbital_energies=orbital_energies)
    m.validate()
    return m


def _eightfold(p, q, r, s):
    return {(p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
            (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)}


def write_fcidump(m: MolecularIntegrals) -> str:
    """Serialize integrals to FCIDUMP text (inverse of parse_fcidump)."""
    n = m.n_orbitals
    out = [f" &FCI NORB={n},NELEC={m.n_electrons},MS2=0,", " &END"]
    fmt = "{: .16e} {:4d} {:4d} {:4d} {:4d}"
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                smax = q if r == p else r
                for s in range(smax + 1):
                    v = m.h_two[p, q, r, s]
                    if abs(v) > FCIDUMP_WRITE_TOL:
                        out.append(fmt.format(v, p + 1, q + 1, r + 1, s + 1))
    for p in range(n):
        for q in range(p + 1):
            if abs(m.h_one[p, q]) > FCIDUMP_WRITE_TOL:
                out.append(fmt.format(m.h_one[p, q], p + 1, q + 1, 0, 0))
    if m.orbital_energies is not None:
        for p in range(n):
            out.append(fmt.format(m.orbital_energies[p], p + 1, 0, 0, 0))
    out.append(fmt.format(m.e_core, 0, 0, 0, 0))
    return "\n".join(out) + "\n"


def load_sidecar(path: str) -> dict:
    """The sidecar JSON: an object with `noons` and/or `orbital_energies`."""
    with open(path) as fh:
        data = json.load(fh)
    if not (isinstance(data, dict) and data
            and set(data) <= {"noons", "orbital_energies"}):
        raise IntegralError("sidecar must be a JSON object with noons "
                            "and/or orbital_energies and no other key")
    return {k: np.asarray(v, dtype=float) for k, v in data.items()}


def apply_sidecar(m: MolecularIntegrals, sidecar: dict) -> MolecularIntegrals:
    m = replace(m, **sidecar)
    m.validate()
    return m


def select_active_space(m: MolecularIntegrals, eps1: float,
                        eps2: float) -> ActiveSpace:
    """Threshold-based orbital selection from natural occupation numbers.

    An orbital is active if its occupation lies in [eps2, 2-eps1], or if
    it is nearly doubly occupied but not deep enough below the Fermi level
    (counting orbitals from 1, orbital i is frozen when 2(i+1) < n_elec).
    Nearly doubly occupied orbitals failing that cutoff are frozen;
    everything else is discarded as virtual.
    """
    if m.noons is None:
        raise IntegralError("active-space selection requires noons")
    if not (0 < eps2 < 2 - eps1):
        raise IntegralError("thresholds must satisfy 0 < eps2 < 2 - eps1")
    active, frozen = [], []
    for i, ni in enumerate(m.noons):
        high = ni >= 2 - eps1
        if high and 2 * (i + 2) < m.n_electrons:
            frozen.append(i)
        elif high or eps2 <= ni <= 2 - eps1:
            active.append(i)
    if not active:
        raise IntegralError("active space is empty")
    n_act = m.n_electrons - 2 * len(frozen)
    return ActiveSpace(tuple(active), tuple(frozen), n_act)


def freeze_orbitals(m: MolecularIntegrals, a: ActiveSpace) -> MolecularIntegrals:
    """Fold frozen-occupied orbitals into h_one and the core energy.

    h'_pq = h_pq + sum_i [2(pq|ii) - (pi|iq)]
    E'    = E + sum_i 2 h_ii + sum_ij [2(ii|jj) - (ij|ji)]
    """
    for i in list(a.active) + list(a.occupied_frozen):
        if not 0 <= i < m.n_orbitals:
            raise IntegralError(f"orbital index {i} out of range")
    act = list(a.active)
    occ = list(a.occupied_frozen)
    g = m.h_two
    h = m.h_one.copy()
    e_core = m.e_core
    for i in occ:
        e_core += 2 * h[i, i]  # one-body term counts both spins
    for i in occ:
        for j in occ:
            e_core += 2 * g[i, i, j, j] - g[i, j, j, i]
    for i in occ:
        h += 2 * g[:, :, i, i] - g[:, i, i, :]
    idx = np.ix_(act, act)
    h_act = h[idx]
    g_act = g[np.ix_(act, act, act, act)]
    # no NOONs: the active ones need not sum to the active electron count
    return MolecularIntegrals(
        n_orbitals=len(act),
        n_electrons=a.n_active_electrons,
        e_core=e_core,
        h_one=h_act,
        h_two=g_act,
        orbital_energies=(None if m.orbital_energies is None
                          else m.orbital_energies[act]),
    )


# ---------------------------------------------------------------------------
# fermionic operators

@dataclass(frozen=True, eq=False)
class FermionOperator:
    """Sum of products of creation/annihilation operators.

    One read-only group (coeffs, modes, daggers) per term length L, of
    shapes (T,), (T, L) and (T, L): term t is coeffs[t] times the ladder
    operators (modes[t, j], daggers[t, j]) applied left to right.
    """

    n_modes: int
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        for group in self.groups:
            bad = group[1][(group[1] < 0) | (group[1] >= self.n_modes)]
            if bad.size:
                raise IntegralError(f"mode index {bad[0]} out of range")
            for a in group:
                a.flags.writeable = False

    @classmethod
    def from_terms(cls, n_modes: int, terms: Iterable) -> "FermionOperator":
        """From (coeff, ((mode, dagger), ...)) terms, pruned, in order."""
        by_length: dict[int, list] = {}
        for c, ops in terms:
            if abs(complex(c)) > PRUNE_TOL:
                by_length.setdefault(len(ops), []).append((c, ops))
        groups = []
        for length, group in by_length.items():
            ops = np.array([o for _, o in group], dtype=np.int64).reshape(
                len(group), length, 2)
            groups.append((np.array([c for c, _ in group], dtype=complex),
                           ops[..., 0], ops[..., 1].astype(bool)))
        return cls(n_modes, tuple(groups))


def build_hamiltonian(m: MolecularIntegrals) -> FermionOperator:
    """Second-quantized Hamiltonian over 2*n_orbitals interleaved spin-orbitals.

    H = sum_pq h_pq a+_ps a_qs
      + 1/2 sum_pqrs (pq|rs) sum_st a+_ps a+_rt a_st a_qs

    One pass over both integral arrays in C order, one-body first: each
    index pair, (p, q) and then (r, s), moves one electron, q -> p and
    s -> r, and each electron takes both spins, the first one outermost.
    """
    m.validate()
    groups = []
    for coeffs in (m.h_one, 0.5 * m.h_two):
        keep = np.abs(coeffs) > PRUNE_TOL
        n_pairs = coeffs.ndim // 2
        spins = np.array(list(itertools.product((0, 1), repeat=n_pairs)))
        idx = np.argwhere(keep)[:, None, :]         # (entry, 1, index)
        created = 2 * idx[..., ::2] + spins         # (entry, spins, electron)
        annihilated = (2 * idx[..., 1::2] + spins)[..., ::-1]
        # a+a+ / aa on equal modes vanish: keep pairwise distinct modes
        ends = np.sort(np.stack([created, annihilated]))
        valid = (np.diff(ends) != 0).all(axis=(0, -1))
        modes = np.concatenate([created, annihilated], axis=-1)[valid]
        if not len(modes):
            continue
        c = np.broadcast_to(coeffs[keep][:, None], valid.shape)[valid]
        daggers = np.arange(2 * n_pairs) < n_pairs   # a+ ... a+ a ... a
        groups.append((c.astype(complex), modes,
                       np.broadcast_to(daggers, modes.shape)))
    return FermionOperator(2 * m.n_orbitals, tuple(groups))


def _expand(coeffs: np.ndarray, modes: np.ndarray, dagger: np.ndarray
            ) -> tuple[np.ndarray, ...]:
    """(x, z, k, coeff) of every string of T terms of L ladder operators each.

    ``modes`` and ``dagger`` have shape (T, L). A string (x, z, k) stands
    for i^k X^x Z^z, and a ladder operator is two of them, times 1/2:
    a_i(+) = 1/2 (X_i -+ i Y_i) Z_{<i} = 1/2 (X_i Z_{<i} +- X_i Z_{<=i}),
    since Y = i X Z. Each term becomes its 2^L strings, multiplied left to
    right by ``pauli.mask_product``.
    """
    n_terms, length = modes.shape
    bit = 1 << modes
    lx = np.stack([bit, bit], axis=-1)                  # (T, L, 2)
    lz = np.stack([bit - 1, (bit - 1) | bit], axis=-1)
    lk = np.stack([np.zeros_like(modes), np.where(dagger, 0, 2)], axis=-1)
    x = z = k = np.zeros((n_terms, 1), dtype=np.int64)
    for j in range(length):
        x, z, sign = mask_product(x[:, :, None], z[:, :, None],
                                  lx[:, None, j], lz[:, None, j])
        k = (k[:, :, None] + lk[:, None, j] + sign).reshape(n_terms, -1)
        x, z = x.reshape(n_terms, -1), z.reshape(n_terms, -1)
    return (x.ravel(), z.ravel(), k.ravel(),
            np.repeat(coeffs * 0.5 ** length, 2 ** length))


def jordan_wigner(f: FermionOperator) -> PauliSum:
    """Map a FermionOperator to a PauliSum on n_modes qubits.

    One vectorised pass: every term of a group of length L expands at once
    into its 2^L strings as bit masks, and ``PauliSum.from_masks`` sums
    equal strings into the PauliSum.
    """
    n = f.n_modes
    if n > MAX_MASK_QUBITS:
        raise IntegralError(f"{n} modes do not fit a 64-bit mask")
    if not f.groups:
        return PauliSum(n)
    parts = [_expand(*group) for group in f.groups]
    return PauliSum.from_masks(n, *(np.concatenate(a) for a in zip(*parts)))
