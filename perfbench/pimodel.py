"""Pariser-Parr-Pople (PPP) pi model of the benzene ring, written as FCIDUMP.

The six carbon positions come from ``vqesim.geometry.DISTORTIONS``. Each
carbon carries one pi orbital, one pi electron and a core charge of +1:

* hopping   t_ij = BETA0_EV * exp(-(r_ij - R0_A) / DECAY_A) for i != j;
* repulsion gamma_ij = U_EV / sqrt(1 + (U_EV * r_ij / E2_EV_A)^2) (Ohno);
* core      h_ii = -sum_{j != i} gamma_ij, E_core = 1/2 sum_{i != j} gamma_ij.

Zero differential overlap leaves only (ii|jj) = gamma_ij among the two-body
site integrals. A restricted Hartree-Fock (RHF) solve gives molecular
orbitals and orbital energies; the MO-basis integrals go to FCIDUMP text
through ``vqesim.fermion.write_fcidump``, so that the program's MP2 start
has orbital energies to work from.

Everything that checks the written files is independent of the program:
the Fock-space Hamiltonian below is built from its own ladder operators,
the frozen-core fold is its own, and the spectra come from dense
diagonalisation of each (N_alpha, N_beta) block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from vqesim.fermion import MolecularIntegrals, write_fcidump
from vqesim.geometry import DISTORTIONS

HARTREE_EV = 27.211386245988
U_EV = 11.13          # on-site repulsion of a carbon pi orbital
E2_EV_A = 14.397      # e^2 / (4 pi eps0) in eV * Angstrom
BETA0_EV = -2.40      # hopping at the reference bond length
R0_A = 1.397          # reference bond length
DECAY_A = 0.30        # decay length of the hopping
ZERO_TOL = 1e-12      # MO integrals below this are zero by symmetry


class ModelError(RuntimeError):
    """The generator's own consistency checks failed."""


@dataclass
class PiModel:
    """Site-basis integrals (Hartree) and the RHF solution of one geometry."""

    label: str
    h_site: np.ndarray
    g_site: np.ndarray          # chemists' (ij|kl), only (ii|jj) non-zero
    e_core: float
    n_electrons: int
    mo: np.ndarray              # columns are MOs, ascending energy
    orbital_energies: np.ndarray
    e_rhf: float
    scf_iterations: int

    def mo_integrals(self) -> MolecularIntegrals:
        c = self.mo
        h = c.T @ self.h_site @ c
        g = np.einsum("pi,qj,rk,sl,pqrs->ijkl", c, c, c, c, self.g_site,
                      optimize=True)
        h[np.abs(h) < ZERO_TOL] = 0.0
        g[np.abs(g) < ZERO_TOL] = 0.0
        # restore exact symmetry after the transformation
        h = 0.5 * (h + h.T)
        g = (g + g.transpose(1, 0, 2, 3) + g.transpose(0, 1, 3, 2)
             + g.transpose(1, 0, 3, 2)) / 4.0
        g = 0.5 * (g + g.transpose(2, 3, 0, 1))
        return MolecularIntegrals(
            n_orbitals=h.shape[0], n_electrons=self.n_electrons,
            e_core=self.e_core, h_one=h, h_two=g,
            orbital_energies=self.orbital_energies.copy())


def site_integrals(distortion: int, parameter: float):
    """PPP site integrals for the carbon ring of one distorted geometry."""
    geom = DISTORTIONS[distortion](parameter)
    xyz = geom.coordinates("C")
    r = np.linalg.norm(xyz[:, None, :] - xyz[None, :, :], axis=-1)
    off = ~np.eye(len(xyz), dtype=bool)
    gamma = U_EV / np.sqrt(1.0 + (U_EV * r / E2_EV_A) ** 2) / HARTREE_EV
    hop = np.where(off, BETA0_EV * np.exp(-(r - R0_A) / DECAY_A), 0.0)
    hop /= HARTREE_EV
    h = hop - np.diag((gamma * off).sum(axis=1))
    n = len(xyz)
    g = np.zeros((n, n, n, n))
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    g[i, i, j, j] = gamma
    e_core = 0.5 * float((gamma * off).sum())
    return geom.label, h, g, e_core


def _fock(h, g, p):
    return (h + np.einsum("pqrs,rs->pq", g, p)
            - 0.5 * np.einsum("prsq,rs->pq", g, p))


def rhf(h, g, n_electrons, tol=1e-12, max_iter=500):
    """Closed-shell SCF with DIIS, started from the core Hamiltonian."""
    n_occ = n_electrons // 2
    _, c = np.linalg.eigh(h)
    p = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
    focks, errors = [], []
    for it in range(1, max_iter + 1):
        f = _fock(h, g, p)
        err = f @ p - p @ f
        focks.append(f)
        errors.append(err)
        focks, errors = focks[-8:], errors[-8:]
        if len(focks) > 1:
            m = len(focks)
            b = -np.ones((m + 1, m + 1))
            b[m, m] = 0.0
            for a in range(m):
                for k in range(m):
                    b[a, k] = np.vdot(errors[a], errors[k])
            rhs = np.zeros(m + 1)
            rhs[m] = -1.0
            coef = np.linalg.lstsq(b, rhs, rcond=None)[0][:m]
            f = sum(w * fk for w, fk in zip(coef, focks))
        _, c = np.linalg.eigh(f)
        p_new = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
        if np.max(np.abs(p_new - p)) < tol and np.max(np.abs(err)) < 1e-10:
            p = p_new
            break
        p = p_new
    else:
        raise ModelError(f"RHF did not converge in {max_iter} iterations")
    f = _fock(h, g, p)
    eps, c = np.linalg.eigh(f)
    e_elec = 0.5 * float(np.sum(p * (h + f)))
    return c, eps, e_elec, it


def build_model(distortion: int, parameter: float,
                n_electrons: int = 6) -> PiModel:
    label, h, g, e_core = site_integrals(distortion, parameter)
    c, eps, e_elec, it = rhf(h, g, n_electrons)
    return PiModel(label=label, h_site=h, g_site=g, e_core=e_core,
                   n_electrons=n_electrons, mo=c, orbital_energies=eps,
                   e_rhf=e_elec + e_core, scf_iterations=it)


def freeze_core(m: MolecularIntegrals, active, frozen) -> MolecularIntegrals:
    """Fold doubly occupied orbitals into the core energy and one-body part.

    Written from the closed-shell energy expression, apart from the
    program's own ``freeze_orbitals``.
    """
    h, g = m.h_one, m.h_two
    fr = list(frozen)
    coulomb = np.einsum("pqii->pq", g[:, :, fr, :][:, :, :, fr])
    exchange = np.einsum("piiq->pq", g[:, fr, :, :][:, :, fr, :])
    e_core = (m.e_core + 2.0 * float(np.trace(h[np.ix_(fr, fr)]))
              + float(np.einsum("iijj->", g[np.ix_(fr, fr, fr, fr)]) * 2.0
                      - np.einsum("ijji->", g[np.ix_(fr, fr, fr, fr)])))
    h_eff = h + 2.0 * coulomb - exchange
    act = list(active)
    return MolecularIntegrals(
        n_orbitals=len(act), n_electrons=m.n_electrons - 2 * len(fr),
        e_core=e_core, h_one=h_eff[np.ix_(act, act)],
        h_two=g[np.ix_(act, act, act, act)],
        orbital_energies=m.orbital_energies[act])


# ---------------------------------------------------------------------------
# Fock-space Hamiltonian and block spectra

def _popcount(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x.astype(np.uint64)).astype(np.int64)


def fock_hamiltonian(m: MolecularIntegrals) -> scipy.sparse.csr_array:
    """H over all 2^(2n) occupations of interleaved spin-orbitals.

    Spin-orbital 2p + s is bit 2p + s of the basis index and
    a+_k |z> = (-1)^popcount(z & (2^k - 1)) |z | 2^k>, the Jordan-Wigner
    ordering, so expectation values can be taken on the program's states.
    H = E_core + sum h_pq E_pq + 1/2 sum (pq|rs) (E_pq E_rs - delta_qr E_ps).
    """
    n = m.n_orbitals
    n_so = 2 * n
    dim = 1 << n_so
    z = np.arange(dim)
    ladder = []
    for k in range(n_so):
        src = z[((z >> k) & 1) == 0]
        sign = 1.0 - 2.0 * (_popcount(src & ((1 << k) - 1)) & 1)
        ladder.append(scipy.sparse.csr_array(
            (sign, (src | (1 << k), src)), shape=(dim, dim)))
    e = [[sum(ladder[2 * p + s] @ ladder[2 * q + s].T for s in (0, 1))
          for q in range(n)] for p in range(n)]
    h_op = scipy.sparse.csr_array(
        (np.full(dim, m.e_core), (z, z)), shape=(dim, dim))
    for p in range(n):
        for q in range(n):
            if m.h_one[p, q] != 0.0:
                h_op = h_op + m.h_one[p, q] * e[p][q]
    for p, q, r, s in zip(*np.nonzero(m.h_two)):
        v = 0.5 * m.h_two[p, q, r, s]
        h_op = h_op + v * (e[p][q] @ e[r][s])
        if q == r:
            h_op = h_op - v * e[p][s]
    return h_op.tocsr()


def block_ground_energies(h_op, n_orbitals: int) -> dict:
    """Lowest eigenvalue of every (N_alpha, N_beta) block of a Fock-space H."""
    z = np.arange(h_op.shape[0])
    alpha_mask = sum(1 << (2 * p) for p in range(n_orbitals))
    n_a = _popcount(z & alpha_mask)
    n_b = _popcount(z & (alpha_mask << 1))
    out = {}
    for a in range(n_orbitals + 1):
        for b in range(n_orbitals + 1):
            idx = np.flatnonzero((n_a == a) & (n_b == b))
            block = h_op[idx][:, idx].toarray()
            out[(a, b)] = float(np.linalg.eigvalsh(block)[0])
    return out


def sector_ground(blocks: dict, n_electrons: int) -> float:
    return min(v for (a, b), v in blocks.items() if a + b == n_electrons)


def fock_floor(blocks: dict) -> float:
    """Lowest energy over every particle number."""
    return min(blocks.values())


def site_model_integrals(model: PiModel) -> MolecularIntegrals:
    return MolecularIntegrals(
        n_orbitals=model.h_site.shape[0], n_electrons=model.n_electrons,
        e_core=model.e_core, h_one=model.h_site, h_two=model.g_site)


def fcidump_text(model: PiModel) -> str:
    return write_fcidump(model.mo_integrals())
