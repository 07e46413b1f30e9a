"""VQE simulation engine: molecular ground-state energies under noise."""

__version__ = "0.1.0"

from .pauli import PauliSum
from .fermion import (ActiveSpace, FermionOperator, MolecularIntegrals,
                      build_hamiltonian, freeze_orbitals, jordan_wigner,
                      parse_fcidump, select_active_space, write_fcidump)
from .ansatz import (Gate, ParameterizedCircuit, QuccGenerator, build_he,
                     build_qucc_generator, mp2_initial_amplitudes,
                     trotterize_qucc)
from .simulator import (DensityMatrix, NoiseModel, Schedule, Statevector,
                        expectation_exact, expectation_sampled,
                        run_density_matrix, run_statevector,
                        schedule_circuit)
from .vqe import TrialEnsemble, VqeConfig, VqeResult, minimize, run_trials
from .exact import OneRdm, SpectrumResult, ground_state, one_rdm
from .geometry import MoleculeGeometry, distortion1, distortion2, distortion3
from .pipeline import Problem, build_ansatz, hf_energy, prepare_problem
