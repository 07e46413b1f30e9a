"""Property tests: both engines, exact expectation values and the
Jordan-Wigner map against the dense oracles on drawn inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from vqesim.ansatz import Gate, ParameterizedCircuit
from vqesim.fermion import FermionOperator, jordan_wigner
from vqesim.pauli import PauliSum
from vqesim.simulator import (DensityMatrix, NoiseModel, Statevector,
                              expectation_exact, run_density_matrix,
                              run_statevector)

from oracles import (circuit_unitary, fermion_matrix, noisy_density_matrix,
                     pauli_sum_matrix)

ONE_QUBIT = ("H", "X", "Y", "Z", "RX", "RY", "RZ")


@st.composite
def circuits(draw):
    """Up to 40 gates on 1-6 qubits. CNOTs act only on the first ``wired``
    qubits, so the rest see one-qubit gates alone, and a tail of one-qubit
    gates follows the last CNOT. A CNOT is drawn three times as often as
    each one-qubit kind."""
    n = draw(st.integers(1, 6))
    wired = draw(st.integers(0, n))
    kinds = ONE_QUBIT + (("CNOT",) * 3 if wired > 1 else ())
    body = draw(st.lists(st.sampled_from(kinds), max_size=32))
    tail = draw(st.lists(st.sampled_from(ONE_QUBIT), max_size=8))
    gates = []
    for kind in body + tail:
        if kind == "CNOT":
            control, target = draw(st.permutations(range(wired)))[:2]
            gates.append(Gate(kind, (control, target)))
        elif kind.startswith("R"):
            angle = draw(st.floats(-np.pi, np.pi))
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),),
                              angle=angle))
        else:
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),)))
    return ParameterizedCircuit(n, tuple(gates), 0)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(circuits())
def test_engines_match_dense_oracles(c):
    psi = run_statevector(c).amplitudes
    np.testing.assert_allclose(psi, circuit_unitary(c)[:, 0],
                               rtol=0, atol=1e-12)
    nm = NoiseModel()   # table 1
    expected = noisy_density_matrix(c, nm.t1_us, nm.t2_us, nm.durations_ns)
    np.testing.assert_allclose(run_density_matrix(c, nm).rho, expected,
                               rtol=0, atol=1e-12)


@st.composite
def fermion_operators(draw):
    """Up to 6 terms of 0-5 ladder operators on 1-6 modes, with complex
    coefficients. Modes repeat often, so terms such as a_i a_i (which must
    vanish) and a+_i a_i are common."""
    n = draw(st.integers(1, 6))
    ladder = st.tuples(st.integers(0, n - 1), st.booleans())
    coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                               allow_infinity=False)
    terms = draw(st.lists(
        st.tuples(coeff, st.lists(ladder, max_size=5).map(tuple)),
        max_size=6))
    return FermionOperator.from_terms(n, terms)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(fermion_operators())
def test_jordan_wigner_matches_ladder_oracle(op):
    np.testing.assert_allclose(pauli_sum_matrix(jordan_wigner(op).terms,
                                                op.n_modes),
                               fermion_matrix(op), rtol=0, atol=1e-12)


@st.composite
def hermitian_sums(draw):
    """Up to 8 strings on 1-6 qubits with real coefficients, so the sum is
    Hermitian. Half the draws keep only strings with an even number of Y,
    whose matrices are real: the compiled form is then real too."""
    n = draw(st.integers(1, 6))
    real = draw(st.booleans())
    letters = st.text("IXYZ", min_size=n, max_size=n)
    if real:
        letters = letters.filter(lambda s: s.count("Y") % 2 == 0)
    coeff = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    return PauliSum(n, draw(st.dictionaries(letters, coeff, min_size=1,
                                            max_size=8)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(hermitian_sums(), st.integers(0, 2 ** 32 - 1))
def test_exact_expectations_match_dense_oracle(h, seed):
    n = h.n_qubits
    if all(s.count("Y") % 2 == 0 for s in h.terms):
        assert h.sparse_matrix().dtype == np.float64
    dense = pauli_sum_matrix(h.terms, n)
    rng = np.random.default_rng(seed)
    shape = (2 ** n, 2 ** n)
    psi = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    psi /= np.linalg.norm(psi)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    assert abs(expectation_exact(Statevector(n, psi), h)
               - np.vdot(psi, dense @ psi).real) <= 1e-12
    assert abs(expectation_exact(DensityMatrix(n, rho), h)
               - np.trace(rho @ dense).real) <= 1e-12
