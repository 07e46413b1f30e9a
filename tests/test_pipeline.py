import dataclasses

import numpy as np
import pytest

from vqesim.pipeline import build_ansatz, hf_energy, mp2_vector, prepare_problem
from vqesim.simulator import Statevector, expectation_exact


@pytest.mark.parametrize("name, orbitals", [
    ("h2", {}),
    ("toy4", {}),
    ("toy4", {"active": (1, 2, 3), "frozen": (0,)}),
], ids=["h2", "toy4", "toy4_frozen"])
def test_hf_energy_is_the_expectation_on_the_hf_statevector(request, name,
                                                            orbitals):
    problem = prepare_problem(request.getfixturevalue(f"{name}_path"),
                              **orbitals)
    amp = np.zeros(2 ** problem.n_qubits, dtype=complex)
    amp[(1 << problem.n_electrons) - 1] = 1.0
    oracle = problem.e_core + expectation_exact(
        Statevector(problem.n_qubits, amp), problem.hamiltonian)
    assert hf_energy(problem) == oracle


def test_mp2_vector_without_orbital_energies_warns_and_starts_at_hf(
        toy4_problem):
    problem = dataclasses.replace(
        toy4_problem, integrals=dataclasses.replace(toy4_problem.integrals,
                                                    orbital_energies=None))
    _, gen = build_ansatz("qucc", problem)
    with pytest.warns(UserWarning, match="orbital energies unavailable"):
        theta = mp2_vector(problem, gen)
    assert np.array_equal(theta, np.zeros(gen.n_parameters))


def test_frozen_integrals_carry_no_noons(toy4_path, toy4_sidecar_path):
    problem = prepare_problem(toy4_path, sidecar_path=toy4_sidecar_path,
                              eps1=0.02, eps2=0.001)
    assert problem.active_space.active == (0, 1, 2)
    assert problem.integrals.noons is None
