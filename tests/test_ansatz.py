import pickle

import numpy as np
import pytest
import scipy.linalg

from vqesim.ansatz import (AnsatzError, Gate, ParameterizedCircuit, build_he,
                           build_qucc_generator, enumerate_excitations,
                           he_parameter_count, mp2_initial_amplitudes,
                           trotterize_qucc)
from vqesim.fermion import MolecularIntegrals, parse_fcidump
from vqesim.simulator import _program, run_statevector

from oracles import circuit_unitary, fermion_matrix, rotation


# ---------------------------------------------------------------------------
# gates and circuits

def test_gate_validation():
    with pytest.raises(AnsatzError):
        Gate("RX", (0,))                       # rotation without parameter
    with pytest.raises(AnsatzError):
        Gate("RX", (0,), angle=0.1, param=(0, 1.0))
    with pytest.raises(AnsatzError):
        Gate("H", (0,), angle=0.1)
    with pytest.raises(AnsatzError):
        Gate("CNOT", (1, 1))
    with pytest.raises(AnsatzError):
        Gate("SWAP", (0, 1))


def test_circuit_rejects_unreferenced_parameters():
    g = Gate("RY", (0,), param=(0, 1.0))
    with pytest.raises(AnsatzError):
        ParameterizedCircuit(1, (g,), 2)


def test_circuit_rejects_negative_parameter_count():
    with pytest.raises(AnsatzError, match="n_parameters"):
        ParameterizedCircuit(2, (), -1)


def test_bind_replaces_all_parameters():
    c = build_he("v2", 4, 1)
    bound = c.bind(np.zeros(c.n_parameters))
    assert bound.n_parameters == 0
    assert len(bound.gates) == len(c.gates)
    rotations = [g for g in bound.gates if g.kind in ("RX", "RY")]
    assert rotations and all(g.angle == 0.0 for g in rotations)


def test_is_bound_agrees_with_a_walk_over_the_gates(toy4_problem):
    # a circuit is bound, with no parameters, exactly when no gate has one
    circuits = [build_he(v, n, d) for v in ("v1", "v2", "v3")
                for n in (2, 4, 6) for d in (1, 2)]
    circuits += [trotterize_qucc(build_qucc_generator(m))
                 for m in (make_h2_like(), toy4_problem.integrals)]
    rng = np.random.default_rng(67)
    for c in circuits:
        bound = c.bind(rng.uniform(-np.pi, np.pi, c.n_parameters))
        for circuit in (c, bound):
            walk = all(g.param is None for g in circuit.gates)
            assert (circuit.n_parameters == 0) == walk
        assert c.n_parameters > 0 and bound.n_parameters == 0


def test_pickled_circuit_rebuilds_its_caches_read_only():
    c = build_he("v3", 3, 1)
    theta = np.linspace(-1, 1, c.n_parameters)
    psi = run_statevector(c, theta).amplitudes   # compiles c's program
    copy = pickle.loads(pickle.dumps(c))
    assert copy == c and c.programs and not copy.programs
    np.testing.assert_array_equal(run_statevector(copy, theta).amplitudes, psi)
    prog = _program(copy)
    assert prog is not _program(c) and list(copy.programs) == [None]
    for a in (*prog.angles, prog.table, prog.fixed):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_bind_is_idempotent_and_checks_length():
    c = build_he("v1", 4, 1)
    theta = np.linspace(-1, 1, c.n_parameters)
    b1 = c.bind(theta)
    assert b1.bind(np.zeros(0)).gates == b1.gates
    with pytest.raises(AnsatzError):
        c.bind(theta[:-1])


# ---------------------------------------------------------------------------
# hardware-efficient variants

def test_he_v3_parameter_count_example():
    assert build_he("v3", 4, 1).n_parameters == 20


def test_he_v1_parameter_count_example():
    assert build_he("v1", 4, 2).n_parameters == 8


def test_he_v2_starts_with_hadamard_layer():
    c = build_he("v2", 8, 1)
    assert c.n_parameters == 8
    assert [g.kind for g in c.gates[:8]] == ["H"] * 8
    assert [g.qubits[0] for g in c.gates[:8]] == list(range(8))


def test_he_v1_layer_structure():
    c = build_he("v1", 4, 1)
    kinds = [(g.kind, g.qubits) for g in c.gates]
    assert kinds[:2] == [("H", (0,)), ("H", (1,))]
    assert kinds[2:6] == [("RY", (0,)), ("RX", (1,)), ("RY", (2,)), ("RX", (3,))]
    assert kinds[6:] == [("CNOT", (0, 2)), ("CNOT", (1, 3)),
                         ("CNOT", (0, 1)), ("CNOT", (2, 3))]


def he_sequence(c):
    """(kind, qubits, parameter index or None) of every gate."""
    return [(g.kind, g.qubits, g.param and g.param[0]) for g in c.gates]


def test_he_gate_sequences_at_four_qubits_depth_two():
    # written from build_he's docstring: each layer's parameters follow on
    def v1(o):
        return [("RY", (0,), o), ("RX", (1,), o + 1), ("RY", (2,), o + 2),
                ("RX", (3,), o + 3), ("CNOT", (0, 2), None),
                ("CNOT", (1, 3), None), ("CNOT", (0, 1), None),
                ("CNOT", (2, 3), None)]

    def v2(o):
        return [("RY", (0,), o), ("RX", (1,), o + 1), ("RY", (2,), o + 2),
                ("RX", (3,), o + 3), ("CNOT", (0, 1), None),
                ("CNOT", (1, 2), None), ("CNOT", (2, 3), None)]

    def v3(o):
        return [("RY", (0,), o), ("RX", (0,), o + 1), ("RY", (1,), o + 2),
                ("RX", (1,), o + 3), ("RY", (2,), o + 4), ("RX", (2,), o + 5),
                ("RY", (3,), o + 6), ("RX", (3,), o + 7),
                ("CNOT", (0, 1), None),
                ("RY", (0,), o + 8), ("RX", (0,), o + 9),
                ("RY", (1,), o + 10), ("RX", (1,), o + 11),
                ("CNOT", (1, 2), None),
                ("RY", (1,), o + 12), ("RX", (1,), o + 13),
                ("RY", (2,), o + 14), ("RX", (2,), o + 15),
                ("CNOT", (2, 3), None),
                ("RY", (2,), o + 16), ("RX", (2,), o + 17),
                ("RY", (3,), o + 18), ("RX", (3,), o + 19)]

    def hadamards(qubits):
        return [("H", (q,), None) for q in qubits]

    assert he_sequence(build_he("v1", 4, 2)) == (
        hadamards((0, 1)) + v1(0) + v1(4))
    assert he_sequence(build_he("v2", 4, 2)) == (
        hadamards((0, 1, 2, 3)) + v2(0) + v2(4))
    assert he_sequence(build_he("v3", 4, 2)) == (
        hadamards((0, 1, 2, 3)) + v3(0) + v3(20))
    assert all(g.param[1] == 1.0 for v in ("v1", "v2", "v3")
               for g in build_he(v, 4, 2).gates if g.param)


def test_he_count_formulas_across_grid():
    for n in (4, 8, 12, 16):
        for d in (1, 2, 3):
            assert build_he("v1", n, d).n_parameters == d * n
            assert build_he("v2", n, d).n_parameters == d * n
            assert build_he("v3", n, d).n_parameters == 2 * d * (3 * n - 2)
            assert he_parameter_count("v3", n, d) == 2 * d * (3 * n - 2)


def test_he_input_validation():
    with pytest.raises(AnsatzError):
        build_he("v1", 5, 1)
    with pytest.raises(AnsatzError):
        build_he("v2", 4, 0)
    with pytest.raises(AnsatzError):
        build_he("v7", 4, 1)


def test_hadamard_equals_ry_rx_product_up_to_phase():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    prod = rotation("RY", -np.pi / 2) @ rotation("RX", np.pi)
    phase = prod[0, 0] / h[0, 0]
    assert abs(abs(phase) - 1.0) < 1e-12
    np.testing.assert_allclose(prod, phase * h, atol=1e-12)


# ---------------------------------------------------------------------------
# qUCC generator

def test_excitation_enumeration_four_modes_two_electrons():
    doubles, singles = enumerate_excitations(4, 2)
    # occupied {0 (alpha), 1 (beta)}, virtual {2 (alpha), 3 (beta)}:
    # two spin-conserving singles and one alpha-beta double, i.e. four
    # single-excitation fermionic terms once each generator gets its
    # Hermitian-conjugate partner
    assert singles == [(2, 0), (3, 1)]
    assert doubles == [(3, 2, 1, 0)]


def test_generator_layout_doubles_first():
    m = make_h2_like()
    gen = build_qucc_generator(m)
    assert gen.excitations == ((3, 2, 1, 0), (2, 0), (3, 1))
    single_terms = sum(len(coeffs) for op, exc
                       in zip(gen.operators, gen.excitations) if len(exc) == 2
                       for coeffs, _, _ in op.groups)
    assert single_terms == 4


def generator_matrix(gen, theta):
    """sum_k theta_k T_k, each operator T_k through the ladder oracle."""
    return sum(t * fermion_matrix(op) for t, op in zip(theta, gen.operators))


def test_generator_zero_theta_is_zero_operator():
    gen = build_qucc_generator(make_h2_like())
    assert all(fermion_matrix(op).any() for op in gen.operators)
    assert not generator_matrix(gen, np.zeros(gen.n_parameters)).any()


def test_generator_is_anti_hermitian_as_matrix():
    gen = build_qucc_generator(make_h2_like())
    rng = np.random.default_rng(2)
    theta = rng.normal(size=gen.n_parameters)
    mat = generator_matrix(gen, theta)
    np.testing.assert_allclose(mat + mat.conj().T, np.zeros_like(mat),
                               atol=1e-12)


def test_generator_requires_electrons():
    m = make_h2_like()
    m.n_electrons = 0
    with pytest.raises(AnsatzError):
        build_qucc_generator(m)


def make_h2_like():
    h = np.array([[-1.2524635735648986, 0.0], [0.0, -0.4759487152209032]])
    g = np.zeros((2, 2, 2, 2))
    vals = {(0, 0, 0, 0): 0.6744887663568382, (1, 1, 0, 0): 0.6634680964235687,
            (1, 1, 1, 1): 0.6973979494693358, (1, 0, 1, 0): 0.1812875358123322}
    for (p, q, r, s), v in vals.items():
        for a, b in ((p, q), (q, p)):
            for c, d in ((r, s), (s, r)):
                g[a, b, c, d] = g[c, d, a, b] = v
    return MolecularIntegrals(2, 2, 0.7137539936876182, h, g,
                              orbital_energies=np.array([-0.5782045804469029,
                                                         0.6702700837759518]))


# ---------------------------------------------------------------------------
# MP2 amplitudes

def mp2_theta(m):
    return mp2_initial_amplitudes(m, build_qucc_generator(m))


def test_mp2_singles_vanish():
    m = make_h2_like()
    gen = build_qucc_generator(m)
    theta = mp2_initial_amplitudes(m, gen)
    assert theta.shape == (gen.n_parameters,)
    assert all(theta[k] == 0.0 for k, exc in enumerate(gen.excitations)
               if len(exc) == 2)


def test_mp2_double_matches_hand_formula():
    m = make_h2_like()
    theta = mp2_theta(m)
    # (p,q,r,s) = (3,2,1,0): the direct term <PQ|SR> pairs opposite spins
    # and vanishes; the exchange term survives as -(10|10) spatial, with
    # denominator 2(eps_0 - eps_1). The vector follows gen.excitations:
    # ((3, 2, 1, 0), (2, 0), (3, 1)).
    expected = -m.h_two[1, 0, 1, 0] / (2 * (m.orbital_energies[0]
                                            - m.orbital_energies[1]))
    np.testing.assert_allclose(theta, [expected, 0.0, 0.0], rtol=0,
                               atol=1e-14)
    assert abs(theta[0] - 0.07260361) < 1e-7


def spin_orbital_integrals(m):
    """<PQ|RS> over interleaved spin-orbitals: (pr|qs) when the spins of
    P, R and of Q, S agree, else 0."""
    n = 2 * m.n_orbitals
    spatial = np.arange(n) // 2
    spin = np.arange(n) % 2
    g = m.h_two[np.ix_(spatial, spatial, spatial, spatial)]   # (PQ|RS)
    same = spin[:, None] == spin[None, :]
    return (g.transpose(0, 2, 1, 3)
            * same[:, None, :, None] * same[None, :, None, :])


def test_mp2_vector_matches_spin_orbital_formula(toy4_problem):
    # every entry in gen.excitations order against the hand formula
    # (<pq|sr> - <pq|rs>) / (eps_r + eps_s - eps_p - eps_q) read from a
    # spin-orbital tensor built here
    m = toy4_problem.integrals
    gen = build_qucc_generator(m)
    theta = mp2_initial_amplitudes(m, gen)
    v = spin_orbital_integrals(m)
    eps = np.repeat(m.orbital_energies, 2)
    expected = [0.0 if len(exc) == 2 else
                (v[exc[0], exc[1], exc[3], exc[2]]
                 - v[exc[0], exc[1], exc[2], exc[3]])
                / (eps[exc[2]] + eps[exc[3]] - eps[exc[0]] - eps[exc[1]])
                for exc in gen.excitations]
    assert any(e != 0.0 for e in expected)
    np.testing.assert_allclose(theta, expected, rtol=0, atol=1e-14)


def test_mp2_symmetric_numerator_gives_zero():
    m = make_h2_like()
    g = np.full((2, 2, 2, 2), 0.25)
    m2 = MolecularIntegrals(2, 4, 0.0, m.h_one, g,
                            orbital_energies=m.orbital_energies)
    # with 4 electrons in 2 orbitals there are no excitations at all
    assert mp2_theta(m2).shape == (0,)


def test_mp2_degenerate_denominator_warns_and_zeroes():
    m = make_h2_like()
    m.orbital_energies = np.array([0.3, 0.3])
    with pytest.warns(UserWarning):
        theta = mp2_theta(m)
    assert theta[0] == 0.0


def test_mp2_requires_orbital_energies():
    m = make_h2_like()
    gen = build_qucc_generator(m)
    m.orbital_energies = None
    with pytest.raises(AnsatzError):
        mp2_initial_amplitudes(m, gen)


def test_mp2_rejects_a_generator_of_other_integrals(toy4_problem):
    with pytest.raises(AnsatzError, match="does not match"):
        mp2_initial_amplitudes(make_h2_like(),
                               build_qucc_generator(toy4_problem.integrals))


# ---------------------------------------------------------------------------
# Trotterized circuit

def test_trotter_zero_theta_prepares_hf_state():
    gen = build_qucc_generator(make_h2_like())
    circ = trotterize_qucc(gen).bind(np.zeros(gen.n_parameters))
    u = circuit_unitary(circ)
    state = u[:, 0]
    expected = np.zeros(16, dtype=complex)
    expected[0b0011] = 1.0   # qubits 0 and 1 occupied
    np.testing.assert_allclose(state, expected, atol=1e-14)


def test_trotter_single_excitation_matches_expm():
    from vqesim.fermion import FermionOperator
    from vqesim.ansatz import QuccGenerator
    op = FermionOperator.from_terms(2, [(1.0, ((1, True), (0, False))),
                                        (-1.0, ((0, True), (1, False)))])
    gen = QuccGenerator(2, 1, ((1, 0),), (op,))
    circ = trotterize_qucc(gen)
    gmat = fermion_matrix(op)
    for theta in (0.1, 0.7):
        u = circuit_unitary(circ.bind([theta]))
        # compare action on the HF state (the X prep layer is part of the
        # circuit, so compose the oracle the same way)
        x0 = np.zeros(4, dtype=complex)
        x0[0b01] = 1.0
        expected = scipy.linalg.expm(theta * gmat) @ x0
        np.testing.assert_allclose(u[:, 0], expected, atol=1e-10)


def test_trotter_circuit_times_inverse_is_identity():
    gen = build_qucc_generator(make_h2_like())
    theta = np.array([0.4, -0.2, 0.15])
    fwd = trotterize_qucc(gen).bind(theta)
    rev_gates = []
    for g in reversed(fwd.gates):
        if g.kind in ("RX", "RY", "RZ"):
            rev_gates.append(Gate(g.kind, g.qubits, angle=-g.angle))
        else:
            rev_gates.append(g)
    rev = ParameterizedCircuit(fwd.n_qubits, tuple(rev_gates), 0)
    u = circuit_unitary(rev) @ circuit_unitary(fwd)
    np.testing.assert_allclose(u, np.eye(16), atol=1e-12)


def test_trotter_rejects_non_anti_hermitian():
    from vqesim.fermion import FermionOperator
    from vqesim.ansatz import QuccGenerator
    op = FermionOperator.from_terms(2, [(1.0, ((1, True), (0, False)))])
    gen = QuccGenerator(2, 1, ((1, 0),), (op,))
    with pytest.raises(AnsatzError):
        trotterize_qucc(gen)


def test_trotter_conserves_particle_number():
    from vqesim.pauli import PauliSum
    from vqesim.simulator import expectation_exact, run_statevector
    gen = build_qucc_generator(make_h2_like())
    circ = trotterize_qucc(gen)
    n_op = {"I" * 4: 2.0}
    for q in range(4):
        letters = "".join("Z" if k == q else "I" for k in range(4))
        n_op[letters] = -0.5
    number = PauliSum(4, n_op)
    rng = np.random.default_rng(21)
    for _ in range(10):
        theta = rng.normal(size=gen.n_parameters)
        theta *= min(1.0, 1.0 / np.linalg.norm(theta))
        sv = run_statevector(circ.bind(theta))
        assert abs(expectation_exact(sv, number) - 2.0) < 1e-10
