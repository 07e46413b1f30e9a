"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: explicit Kronecker products,
occupation-bitstring ladder-operator algebra and dense diagonalization.
None of it shares code with the paths under test.
"""

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(letters):
    """Dense matrix of a letter string, qubit 0 = least significant bit."""
    m = np.array([[1]], dtype=complex)
    for l in letters:
        m = np.kron(PAULI[l], m)
    return m


def pauli_sum_matrix(terms, n_qubits):
    dim = 2 ** n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for letters, coeff in terms.items():
        out += coeff * pauli_matrix(letters)
    return out


GATES_1Q = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "X": PAULI["X"], "Y": PAULI["Y"], "Z": PAULI["Z"],
}


def rotation(kind, angle):
    half = angle / 2.0
    if kind == "RX":
        return np.cos(half) * np.eye(2) - 1j * np.sin(half) * PAULI["X"]
    if kind == "RY":
        return np.cos(half) * np.eye(2) - 1j * np.sin(half) * PAULI["Y"]
    if kind == "RZ":
        return np.cos(half) * np.eye(2) - 1j * np.sin(half) * PAULI["Z"]
    raise ValueError(kind)


def embed_1q(u, q, n):
    m = np.array([[1]], dtype=complex)
    for k in range(n):
        m = np.kron(u if k == q else np.eye(2), m)
    return m


def embed_cnot(control, target, n):
    dim = 2 ** n
    m = np.zeros((dim, dim), dtype=complex)
    for z in range(dim):
        if (z >> control) & 1:
            m[z ^ (1 << target), z] = 1.0
        else:
            m[z, z] = 1.0
    return m


def gate_unitary(g, n):
    """Full 2^n unitary of one bound gate."""
    if g.kind == "CNOT":
        return embed_cnot(g.qubits[0], g.qubits[1], n)
    if g.kind in GATES_1Q:
        return embed_1q(GATES_1Q[g.kind], g.qubits[0], n)
    return embed_1q(rotation(g.kind, g.angle), g.qubits[0], n)


def circuit_unitary(circuit):
    """Full unitary of a bound circuit by multiplying embedded gate matrices."""
    n = circuit.n_qubits
    u = np.eye(2 ** n, dtype=complex)
    for g in circuit.gates:
        u = gate_unitary(g, n) @ u
    return u


def idle_kraus_full(q, n, t_ns, t1_us, t2_us):
    """Full 2^n Kraus operators of idling qubit q for t_ns nanoseconds.

    Amplitude damping with gamma = 1 - exp(-t/T1), then pure dephasing in
    its phase-flip form: (1 + e)/2 of identity and (1 - e)/2 of Z with
    e = exp(-t/T2), which multiplies coherences by e.
    """
    t_us = t_ns * 1e-3
    gamma = 1.0 - np.exp(-t_us / t1_us)
    damping = [np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
               np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)]
    e = np.exp(-t_us / t2_us)
    phase = [np.sqrt((1 + e) / 2) * PAULI["I"],
             np.sqrt((1 - e) / 2) * PAULI["Z"]]
    return [embed_1q(p @ d, q, n) for p in phase for d in damping]


def apply_kraus_full(rho, kraus):
    return sum(k @ rho @ k.conj().T for k in kraus)


def noisy_density_matrix(circuit, t1_us, t2_us, durations_ns):
    """rho of a bound circuit run from |0..0> with idle noise, densely.

    Each gate starts as soon as all of its qubits are free. A qubit idles
    from the end of one gate to the start of its next, and from the end of
    its last gate to the end of the whole circuit; a qubit that no gate
    touches never idles.
    """
    n = circuit.n_qubits
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    free_at = {}
    for g in circuit.gates:
        start = max(free_at.get(q, 0.0) for q in g.qubits)
        for q in g.qubits:
            if q in free_at and start > free_at[q]:
                rho = apply_kraus_full(rho, idle_kraus_full(
                    q, n, start - free_at[q], t1_us, t2_us))
            free_at[q] = start + durations_ns[g.kind]
        u = gate_unitary(g, n)
        rho = u @ rho @ u.conj().T
    end = max(free_at.values(), default=0.0)
    for q, t in free_at.items():
        if end > t:
            rho = apply_kraus_full(rho, idle_kraus_full(q, n, end - t,
                                                        t1_us, t2_us))
    return rho


def _popcount_below(z, i):
    return bin(z & ((1 << i) - 1)).count("1")


def apply_ladder(z, ops):
    """Apply a product of ladder operators (left to right) to |z>.

    Returns (sign, new_z) or None if the ket is annihilated. Signs follow
    the usual convention: a_i / a_i^dag pick up (-1)^(number of occupied
    modes below i).
    """
    sign = 1
    for i, dagger in reversed(ops):
        occupied = (z >> i) & 1
        if dagger:
            if occupied:
                return None
            sign *= (-1) ** _popcount_below(z, i)
            z |= 1 << i
        else:
            if not occupied:
                return None
            sign *= (-1) ** _popcount_below(z, i)
            z &= ~(1 << i)
    return sign, z


def fermion_matrix(op, n_modes=None):
    """Dense matrix of a FermionOperator on occupation bitstrings.

    Independent of the Jordan-Wigner path: ladder operators act directly
    on basis kets with explicit sign bookkeeping.
    """
    n = op.n_modes if n_modes is None else n_modes
    dim = 2 ** n
    m = np.zeros((dim, dim), dtype=complex)
    for coeff, ops in op.terms:
        for z in range(dim):
            res = apply_ladder(z, ops)
            if res is not None:
                sign, z2 = res
                m[z2, z] += coeff * sign
    return m


def sector_ground_energy(mat, n_modes, n_electrons, mask_fixed=None):
    """Lowest eigenvalue of mat restricted to a particle-number sector.

    mask_fixed, when given, is a bitmask of modes that must all be occupied
    (frozen-core restriction).
    """
    idx = [z for z in range(2 ** n_modes)
           if bin(z).count("1") == n_electrons
           and (mask_fixed is None or (z & mask_fixed) == mask_fixed)]
    sub = mat[np.ix_(idx, idx)]
    return float(np.linalg.eigvalsh(sub)[0])


def random_integrals(n, rng, one_scale=1.0, two_scale=0.2):
    """Synthetic real integrals with the proper 8-fold symmetry."""
    h = rng.normal(scale=one_scale, size=(n, n))
    h = 0.5 * (h + h.T)
    L = rng.normal(scale=two_scale, size=(n * 2, n, n))
    L = 0.5 * (L + L.transpose(0, 2, 1))
    g = np.einsum("kpq,krs->pqrs", L, L)
    return h, g
