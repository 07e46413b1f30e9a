"""End-to-end problem preparation shared by the CLI and the test harness."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ansatz import (ParameterizedCircuit, QuccGenerator, build_he,
                     build_qucc_generator, mp2_initial_amplitudes,
                     trotterize_qucc)
from .fermion import (ActiveSpace, IntegralError, MolecularIntegrals,
                      apply_sidecar, build_hamiltonian, freeze_orbitals,
                      jordan_wigner, load_sidecar, parse_fcidump,
                      select_active_space)
from .pauli import PauliSum
from .simulator import Statevector, expectation_exact


@dataclass
class Problem:
    """A frozen active-space problem ready for VQE."""

    integrals: MolecularIntegrals     # frozen, active orbitals only
    active_space: ActiveSpace
    hamiltonian: PauliSum             # Jordan-Wigner image, no core energy
    e_core: float

    @property
    def n_qubits(self) -> int:
        return self.hamiltonian.n_qubits

    @property
    def n_electrons(self) -> int:
        return self.integrals.n_electrons


def prepare_problem(fcidump_path: str,
                    sidecar_path: Optional[str] = None,
                    eps1: Optional[float] = None,
                    eps2: Optional[float] = None,
                    active: Optional[Sequence[int]] = None,
                    frozen: Optional[Sequence[int]] = None) -> Problem:
    """Load integrals, apply freezing, and map to a qubit Hamiltonian."""
    if (eps1 is None) != (eps2 is None):
        raise IntegralError("eps1 and eps2 must be given together")
    if eps1 is not None and (active is not None or frozen):
        raise IntegralError("eps1/eps2 cannot be given with active or frozen")
    if frozen and active is None:
        raise IntegralError("frozen orbitals need an active space")
    with open(fcidump_path) as fh:
        m = parse_fcidump(fh.read())
    if sidecar_path:
        m = apply_sidecar(m, load_sidecar(sidecar_path))
    if eps1 is not None:
        asp = select_active_space(m, eps1, eps2)
    elif active is not None:
        frozen = tuple(frozen or ())
        asp = ActiveSpace(tuple(active), frozen,
                          m.n_electrons - 2 * len(frozen))
    else:
        asp = ActiveSpace(tuple(range(m.n_orbitals)), (), m.n_electrons)
    mf = freeze_orbitals(m, asp)
    h = jordan_wigner(build_hamiltonian(mf))
    return Problem(integrals=mf, active_space=asp, hamiltonian=h,
                   e_core=mf.e_core)


def build_ansatz(kind: str, problem: Problem,
                 depth: int = 1) -> tuple[ParameterizedCircuit,
                                          Optional[QuccGenerator]]:
    """Build the requested ansatz circuit for a prepared problem."""
    if kind in ("he_v1", "he_v2", "he_v3"):
        return build_he(kind[3:], problem.n_qubits, depth), None
    if kind == "qucc":
        gen = build_qucc_generator(problem.integrals)
        return trotterize_qucc(gen), gen
    raise ValueError(f"unknown ansatz {kind!r}")


def mp2_vector(problem: Problem, gen: QuccGenerator) -> np.ndarray:
    """MP2 starting parameters; zeros with a warning if energies are missing."""
    if problem.integrals.orbital_energies is None:
        warnings.warn("orbital energies unavailable; qUCC starts from "
                      "zero amplitudes (Hartree-Fock)")
        return np.zeros(gen.n_parameters)
    amps = mp2_initial_amplitudes(problem.integrals)
    return amps.to_vector(gen)


def hf_state(n_qubits: int, n_electrons: int) -> Statevector:
    amp = np.zeros(2 ** n_qubits, dtype=complex)
    amp[(1 << n_electrons) - 1] = 1.0
    return Statevector(n_qubits, amp)


def hf_energy(problem: Problem) -> float:
    """Energy of the Hartree-Fock determinant of the active space."""
    state = hf_state(problem.n_qubits, problem.n_electrons)
    return problem.e_core + expectation_exact(state, problem.hamiltonian)
