"""Exact references: sector-restricted diagonalization, 1-RDM and NOONs.

The sector Hamiltonian comes from the compiled form of the PauliSum
(``PauliSum.basis_matrix`` on the sector's basis indices). Up to 12 qubits
it is solved densely, in real arithmetic when no entry has an imaginary
part (as for every real-integral molecular Hamiltonian); above, by
complex Lanczos. The CLI reads the limit ``MAX_QUBITS`` of a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .fermion import FermionOperator, jordan_wigner
from .pauli import PauliSum
from .simulator import Statevector, expectation_exact

MAX_QUBITS = 16            # largest qubit count of a reference
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


def ground_state(h: PauliSum, n_electrons: int, e_core: float = 0.0,
                 dense_cap: int = 12) -> SpectrumResult:
    """Lowest eigenpair of H restricted to the fixed particle-number sector.

    The sector matrix is ``h.basis_matrix`` on the sector's basis indices.
    Dense Hermitian solve for the lowest eigenpair only up to dense_cap
    qubits, on the real part of the matrix when it has no imaginary entry;
    Lanczos (ARPACK) above, from a fixed seeded start vector so that
    repeated calls agree exactly.
    """
    n = h.n_qubits
    if n > MAX_QUBITS:
        raise ReferenceError(f"{n} qubits exceeds cap {MAX_QUBITS}")
    if not 0 <= n_electrons <= n:
        raise ReferenceError(f"empty sector: {n_electrons} electrons on {n} qubits")
    sector = _sector_indices(n, n_electrons)
    mat = h.basis_matrix(sector)
    # ARPACK's complex Hermitian solver needs a sector of more than k + 1 = 2
    if n <= dense_cap or sector.size <= 2:
        # a sector with no imaginary entry (every real-integral molecular H)
        # is real symmetric, and a real solve costs a quarter of a complex one
        mat = mat.real if not mat.data.imag.any() else mat
        mat = mat.toarray()   # frees the CSR before the dense solve
        evals, evecs = scipy.linalg.eigh(mat, subset_by_index=[0, 0])
    else:
        v0 = np.random.default_rng(0).standard_normal(sector.size)
        evals, evecs = scipy.sparse.linalg.eigsh(mat, k=1, which="SA",
                                                 tol=LANCZOS_TOL, v0=v0)
    energy, vec = float(evals[0]), evecs[:, 0]
    full = np.zeros(2 ** n, dtype=complex)
    full[sector] = vec
    return SpectrumResult(ground_energy=energy + e_core,
                          ground_state=Statevector(n, full),
                          sector=n_electrons)


def one_rdm(state: Statevector, n_spatial: int) -> OneRdm:
    """Spin-summed one-particle reduced density matrix and its NOONs."""
    if state.n_qubits != 2 * n_spatial:
        raise ReferenceError("state qubit count must be 2 * n_spatial")
    n_modes = state.n_qubits
    d = np.zeros((n_spatial, n_spatial))
    for p in range(n_spatial):
        for q in range(p + 1):
            val = 0.0
            for s in (0, 1):
                op = FermionOperator.from_terms(
                    n_modes, [(1.0, ((2 * p + s, True), (2 * q + s, False)))])
                herm = 0.5 * (op + op.dagger())
                val += expectation_exact(state, jordan_wigner(herm))
            d[p, q] = d[q, p] = val
    noons = np.sort(np.linalg.eigvalsh(d))[::-1]
    return OneRdm(n_spatial=n_spatial, matrix=d, noons=noons)
