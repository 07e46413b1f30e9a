"""Exact references: sector-restricted diagonalization, 1-RDM and NOONs.

The sector Hamiltonian comes from the compiled form of the PauliSum
(``PauliSum.basis_matrix`` on the sector's basis indices): its upper
triangle U, real when H is (as for every real-integral molecular
Hamiltonian), so that each solve runs in U's dtype. Up to
``DENSE_MAX_QUBITS`` it is solved densely from U's upper triangle, one
(N_alpha, N_beta) block at a time when no entry joins two blocks (as for
every spin-conserving H): the largest block is a fraction of the sector,
and a dense solve costs the cube of its size. Above, Lanczos runs on the
whole particle-number sector with H = U + U^dagger - diag(U) applied as
one operator, whose cost is linear in the stored entries, so splitting
it saves nothing. A non-Hermitian sum is refused, since a solve that
reads one triangle would return a number for it. The CLI reads the limit
``MAX_QUBITS`` of a reference. The 1-RDM reads the amplitudes directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .ansatz import _spin
from .pauli import HERMITIAN_TOL, PauliSum, parity
from .simulator import Statevector

MAX_QUBITS = 16            # largest qubit count of a reference
DENSE_MAX_QUBITS = 12      # largest qubit count of the dense solve
LANCZOS_TOL = 1e-10        # relative accuracy of ARPACK's eigenvalue


class ReferenceError(ValueError):
    pass


@dataclass
class SpectrumResult:
    ground_energy: float      # includes the core energy
    ground_state: Statevector
    sector: int


@dataclass
class OneRdm:
    n_spatial: int
    matrix: np.ndarray        # spin-summed, real symmetric
    noons: np.ndarray         # eigenvalues, descending


def _sector_indices(n_qubits: int, n_electrons: int) -> np.ndarray:
    idx = np.arange(2 ** n_qubits)
    return idx[np.bitwise_count(idx) == n_electrons]


def _spin_blocks(n_qubits: int, sector: np.ndarray,
                 mat: scipy.sparse.csr_array) -> list[np.ndarray]:
    """Positions in ``sector`` of each (N_alpha, N_beta) block, ascending
    in N_alpha; the whole sector as one block if a stored entry of ``mat``
    joins two blocks. N_alpha counts the occupied alpha spin-orbitals."""
    alpha = sum(1 << q for q in range(n_qubits) if _spin(q) == 0)
    label = np.bitwise_count(sector & alpha)
    rows = np.repeat(np.arange(sector.size), np.diff(mat.indptr))
    if (label[rows] != label[mat.indices]).any():
        return [np.arange(sector.size)]
    return [np.flatnonzero(label == a) for a in np.unique(label)]


def _hermitian_operator(upper: scipy.sparse.csr_array
                        ) -> scipy.sparse.linalg.LinearOperator:
    """H = U + U^dagger - diag(U) from its upper triangle U, as one
    operator in U's dtype; the full H is never stored."""
    lower, diag = upper.T, upper.diagonal()

    def matvec(x):
        x = np.ravel(x)
        return upper @ x + (lower @ x.conj()).conj() - diag * x

    return scipy.sparse.linalg.LinearOperator(upper.shape, matvec=matvec,
                                              dtype=upper.dtype)


def ground_state(h: PauliSum, n_electrons: int,
                 e_core: float = 0.0) -> SpectrumResult:
    """Lowest eigenpair of H restricted to the fixed particle-number sector.

    The sector matrix is ``h.basis_matrix`` on the sector's basis indices:
    the upper triangle U of H, real when H is. Up to DENSE_MAX_QUBITS
    qubits (or on a sector of at most 2 states), a dense Hermitian solve
    of U's upper triangle for the lowest eigenpair of each spin block of
    ``_spin_blocks``; the lowest block wins, the lower N_alpha on an exact
    tie. Above, Lanczos (ARPACK) on the whole sector with H = U +
    U^dagger - diag(U) as one operator, from a fixed seeded start vector
    so that repeated calls agree exactly. A non-Hermitian sum is refused.
    """
    n = h.n_qubits
    if n > MAX_QUBITS:
        raise ReferenceError(f"{n} qubits exceeds cap {MAX_QUBITS}")
    if not 0 <= n_electrons <= n:
        raise ReferenceError(f"empty sector: {n_electrons} electrons on {n} qubits")
    if not h.is_hermitian(HERMITIAN_TOL):
        raise ReferenceError("a reference requires a Hermitian PauliSum")
    sector = _sector_indices(n, n_electrons)
    upper = h.basis_matrix(sector)
    # ARPACK's complex Hermitian solver needs a sector of more than k + 1 = 2
    if n > DENSE_MAX_QUBITS and sector.size > 2:
        v0 = np.random.default_rng(0).standard_normal(sector.size)
        evals, evecs = scipy.sparse.linalg.eigsh(
            _hermitian_operator(upper), k=1, which="SA", tol=LANCZOS_TOL,
            v0=v0)
        energy, vec, support = evals[0], evecs[:, 0], sector
    else:
        energy = np.inf
        for block in _spin_blocks(n, sector, upper):
            evals, evecs = scipy.linalg.eigh(
                upper[block][:, block].toarray(), lower=False,
                subset_by_index=[0, 0])
            if evals[0] < energy:
                energy, vec, support = evals[0], evecs[:, 0], sector[block]
    full = np.zeros(2 ** n, dtype=complex)
    full[support] = vec
    return SpectrumResult(ground_energy=float(energy) + e_core,
                          ground_state=Statevector(n, full),
                          sector=n_electrons)


def one_rdm(state: Statevector, n_spatial: int) -> OneRdm:
    """Spin-summed one-particle reduced density matrix and its NOONs.

    For P >= Q of one spin, Re <a+_P a_Q> sums conj(psi[z ^ 2^P ^ 2^Q])
    psi[z] over the z with Q occupied and P empty (or P = Q), signed by
    (-1)^(occupied modes strictly between Q and P), as Jordan-Wigner does.
    """
    if state.n_qubits != 2 * n_spatial:
        raise ReferenceError("state qubit count must be 2 * n_spatial")
    psi = state.amplitudes
    z = np.arange(psi.size)
    d = np.zeros((n_spatial, n_spatial))
    for p in range(n_spatial):
        for q in range(p + 1):
            for P, Q in ((2 * p, 2 * q), (2 * p + 1, 2 * q + 1)):
                moved = z[((z >> Q) & 1 == 1) & ((z >> P) & 1 == (P == Q))]
                between = ((1 << P) - 1) & ~((2 << Q) - 1)
                sign = 1.0 - 2.0 * parity(moved & between)   # float: no wrap
                d[p, q] += np.vdot(psi[moved ^ (1 << P) ^ (1 << Q)],
                                   sign * psi[moved]).real
            d[q, p] = d[p, q]
    noons = np.sort(np.linalg.eigvalsh(d))[::-1]
    return OneRdm(n_spatial=n_spatial, matrix=d, noons=noons)
