"""Property tests: both engines against the dense oracles on drawn circuits."""

import numpy as np
from hypothesis import given, settings, strategies as st

from vqesim.ansatz import Gate, ParameterizedCircuit
from vqesim.simulator import NoiseModel, run_density_matrix, run_statevector

from oracles import circuit_unitary, noisy_density_matrix

ONE_QUBIT = ("H", "X", "Y", "Z", "RX", "RY", "RZ")


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 4))
    kinds = ONE_QUBIT + (("CNOT",) if n > 1 else ())
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=16)):
        if kind == "CNOT":
            control, target = draw(st.permutations(range(n)))[:2]
            gates.append(Gate(kind, (control, target)))
        elif kind.startswith("R"):
            angle = draw(st.floats(-np.pi, np.pi))
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),),
                              angle=angle))
        else:
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),)))
    return ParameterizedCircuit(n, tuple(gates), 0)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(circuits())
def test_engines_match_dense_oracles(c):
    psi = run_statevector(c).amplitudes
    np.testing.assert_allclose(psi, circuit_unitary(c)[:, 0],
                               rtol=0, atol=1e-12)
    nm = NoiseModel()   # table 1
    expected = noisy_density_matrix(c, nm.t1_us, nm.t2_us, nm.durations_ns)
    np.testing.assert_allclose(run_density_matrix(c, nm).rho, expected,
                               rtol=0, atol=1e-12)
