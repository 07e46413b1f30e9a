"""Execution engines: exact statevector and density matrix with idle noise.

Both engines share the kernels ``_apply_1q``/``_apply_2q``: an n-qubit rho
runs as the 2n-qubit vector rho.reshape(-1), row qubit q as vector qubit
q + n and column qubit q as q. Gates follow ``schedule_circuit``; each idle
interval applies one superoperator: amplitude damping, then pure dephasing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .ansatz import Gate, ParameterizedCircuit
from .pauli import PauliSum, _string_action, parity


class SimulationError(ValueError):
    pass


TABLE1_T1_US = 50.0
TABLE1_T2_US = 50.0
TABLE1_DURATIONS_NS = {
    "H": 60.0, "X": 60.0, "Y": 60.0, "Z": 60.0,
    "RX": 60.0, "RY": 60.0, "RZ": 60.0, "CNOT": 150.0,
}


@dataclass(frozen=True)
class NoiseModel:
    """Relaxation/dephasing times (microseconds) and gate durations (ns).

    ``t2_us`` is the pure-dephasing time: with amplitude damping, coherences
    decay at 1/T2' = 1/T2 + 1/(2*T1) (``t2_prime_us``). The T2 <= 2*T1 check
    is the physical bound on the total T2, applied to ``t2_us``.
    """

    t1_us: float = TABLE1_T1_US
    t2_us: float = TABLE1_T2_US
    durations_ns: dict = field(default_factory=lambda: dict(TABLE1_DURATIONS_NS))
    enabled: bool = True

    def __post_init__(self):
        if self.t1_us <= 0 or self.t2_us <= 0:
            raise SimulationError("T1 and T2 must be positive")
        if self.t2_us > 2 * self.t1_us + 1e-12:
            raise SimulationError("unphysical times: T2 > 2*T1")
        if any(d <= 0 for d in self.durations_ns.values()):
            raise SimulationError("gate durations must be positive")

    @property
    def t2_prime_us(self) -> float:
        return 1.0 / (1.0 / self.t2_us + 1.0 / (2.0 * self.t1_us))

    def duration(self, kind: str) -> float:
        try:
            return self.durations_ns[kind]
        except KeyError:
            raise SimulationError(f"no duration defined for gate {kind!r}")

    @classmethod
    def from_json(cls, text: str, enabled: bool = True) -> "NoiseModel":
        data = json.loads(text)
        durations = dict(TABLE1_DURATIONS_NS)
        durations.update(data.get("durations_ns", {}))
        return cls(t1_us=data.get("t1_us", TABLE1_T1_US),
                   t2_us=data.get("t2_us", TABLE1_T2_US),
                   durations_ns=durations, enabled=enabled)

    def to_json(self) -> str:
        return json.dumps({"t1_us": self.t1_us, "t2_us": self.t2_us,
                           "durations_ns": self.durations_ns}, indent=2)


@dataclass
class Statevector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2 ** self.n_qubits,):
            raise SimulationError("amplitude vector has wrong length")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @classmethod
    def zero_state(cls, n_qubits: int) -> "Statevector":
        amp = np.zeros(2 ** n_qubits, dtype=complex)
        amp[0] = 1.0
        return cls(n_qubits, amp)


@dataclass
class DensityMatrix:
    n_qubits: int
    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        dim = 2 ** self.n_qubits
        if self.rho.shape != (dim, dim):
            raise SimulationError("density matrix has wrong shape")

    @classmethod
    def from_statevector(cls, sv: Statevector) -> "DensityMatrix":
        return cls(sv.n_qubits, np.outer(sv.amplitudes, sv.amplitudes.conj()))


# ---------------------------------------------------------------------------
# gate matrices and application

def gate_matrix(g: Gate) -> np.ndarray:
    if not g.is_bound:
        raise SimulationError(f"unbound parameter on gate {g.kind}")
    k = g.kind
    if k == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    if k == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if k == "Y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if k == "Z":
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if k == "CNOT":
        return np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    t = g.angle / 2.0
    if k == "RX":
        return np.array([[np.cos(t), -1j * np.sin(t)],
                         [-1j * np.sin(t), np.cos(t)]], dtype=complex)
    if k == "RY":
        return np.array([[np.cos(t), -np.sin(t)],
                         [np.sin(t), np.cos(t)]], dtype=complex)
    if k == "RZ":
        return np.array([[np.exp(-1j * t), 0],
                         [0, np.exp(1j * t)]], dtype=complex)
    raise SimulationError(f"unknown gate kind {k!r}")


def _apply_1q(psi: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    # qubit q is the axis of stride 2^q
    lo = 2 ** q
    shaped = psi.reshape(-1, 2, lo)
    return np.einsum("ab,xbl->xal", u, shaped).reshape(-1)


def _apply_2q(psi: np.ndarray, u: np.ndarray, q0: int, q1: int) -> np.ndarray:
    # u is 4x4 indexed as |q0 q1> with q0 the most significant bit
    n = psi.size.bit_length() - 1
    t = psi.reshape([2] * n)
    a0, a1 = n - 1 - q0, n - 1 - q1
    t = np.moveaxis(t, (a0, a1), (0, 1))
    shape = t.shape
    t = u.reshape(2, 2, 2, 2).reshape(4, 4) @ t.reshape(4, -1)
    t = t.reshape(shape)
    t = np.moveaxis(t, (0, 1), (a0, a1))
    return t.reshape(-1)


def apply_gate_statevector(psi: np.ndarray, g: Gate) -> np.ndarray:
    u = gate_matrix(g)
    if g.kind == "CNOT":
        # matrix is |control target>
        return _apply_2q(psi, u, g.qubits[0], g.qubits[1])
    return _apply_1q(psi, u, g.qubits[0])


def run_statevector(c: ParameterizedCircuit, cap: int = 24) -> Statevector:
    """Apply a fully bound circuit to |0...0>."""
    if not c.is_bound:
        raise SimulationError("circuit has unbound parameters")
    if c.n_qubits > cap:
        raise SimulationError(f"{c.n_qubits} qubits exceeds cap {cap}")
    psi = Statevector.zero_state(c.n_qubits).amplitudes
    for g in c.gates:
        psi = apply_gate_statevector(psi, g)
    return Statevector(c.n_qubits, psi)


# ---------------------------------------------------------------------------
# expectation values

def expectation_exact(state: Union[Statevector, DensityMatrix],
                      h: PauliSum, hermitian_tol: float = 1e-10) -> float:
    """<H> from the Hamiltonian's compiled sparse matrix.

    ``h.sparse_matrix()`` folds every Pauli term into one CSR matrix; it is
    built on the first call for a given PauliSum and cached on it, so each
    later call is a single sparse product: <psi|H|psi> for a Statevector,
    Tr(rho H) for a DensityMatrix.
    """
    if state.n_qubits != h.n_qubits:
        raise SimulationError("state / operator qubit-count mismatch")
    if not h.is_hermitian(hermitian_tol):
        raise SimulationError("expectation requires a Hermitian PauliSum")
    m = h.sparse_matrix()
    if isinstance(state, Statevector):
        psi = state.amplitudes
        return float(np.vdot(psi, m @ psi).real)
    # Tr(rho H) = sum over stored H[r, c] of H[r, c] * rho[c, r]
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return float(np.dot(m.data, state.rho[m.indices, rows]).real)


def _pauli_expectations(state: Union[Statevector, DensityMatrix],
                        letters: list[str]) -> np.ndarray:
    """Exact <P> of each Pauli string, from its flip mask f, sign mask s and
    prefactor (``pauli._string_action``):

    <psi|P|psi> = pref * sum_z conj(psi[z ^ f]) (-1)^popcount(z & s) psi[z]
    Tr(rho P)   = pref * sum_z rho[z, z ^ f] (-1)^popcount(z & s)

    Strings go in blocks of about 2^14 (string, z) entries: temporaries of
    that size measured fastest, and memory stays bounded at any n.
    """
    z = np.arange(2 ** state.n_qubits)
    flips, signs, prefs = (np.array(a) for a in
                           zip(*map(_string_action, letters)))
    out = np.empty(len(letters))
    step = max(1, 2 ** 14 // z.size)
    for lo in range(0, len(letters), step):
        block = slice(lo, lo + step)
        cols = z ^ flips[block, None]
        if isinstance(state, Statevector):
            psi = state.amplitudes
            pairs = psi[cols].conj() * psi
        else:
            pairs = state.rho[z, cols]
        sign = 1.0 - 2.0 * parity(z & signs[block, None])
        out[block] = (prefs[block] * np.einsum("kz,kz->k", sign, pairs)).real
    return out


def sample_bitstrings(state: Union[Statevector, DensityMatrix],
                      n_shots: int, rng_seed: int) -> list[str]:
    """i.i.d. Born-rule samples; qubit 0 is the leftmost character."""
    if n_shots <= 0:
        raise SimulationError("n_shots must be positive")
    if isinstance(state, Statevector):
        p = np.abs(state.amplitudes) ** 2
    else:
        p = np.real(np.diag(state.rho))
    p = np.clip(p, 0.0, None)
    rng = np.random.default_rng(rng_seed)
    draws = rng.choice(p.size, size=n_shots, p=p / p.sum())
    n = state.n_qubits
    return [format(z, f"0{n}b")[::-1] for z in draws]


def expectation_sampled(state: Union[Statevector, DensityMatrix],
                        h: PauliSum, n_shots: int, rng_seed: int) -> float:
    """Shot-based estimate of <H>; n_shots = 0 falls back to the exact value.

    Every non-identity term P_k is measured on its own with n_shots shots,
    each a +-1 outcome of mean <P_k>. The number of -1 outcomes is then
    Binomial(n_shots, (1 - <P_k>) / 2), so it is drawn directly from the
    exact <P_k> of the statevector or density matrix.
    """
    if n_shots < 0:
        raise SimulationError("n_shots must be >= 0")
    if state.n_qubits != h.n_qubits:
        raise SimulationError("state / operator qubit-count mismatch")
    if n_shots == 0:
        return expectation_exact(state, h)
    if not h.is_hermitian():
        raise SimulationError("expectation requires a Hermitian PauliSum")
    terms = dict(h.sorted_items())
    total = terms.pop("I" * h.n_qubits, 0.0).real
    if terms:
        # rounding can put an eigenstate's p a little outside [0, 1]
        p = np.clip((1.0 - _pauli_expectations(state, list(terms))) / 2.0,
                    0.0, 1.0)
        minus = np.random.default_rng(rng_seed).binomial(n_shots, p)
        coeffs = np.real(list(terms.values()))
        total += float(np.dot(coeffs, 1.0 - 2.0 * minus / n_shots))
    return float(total)


# ---------------------------------------------------------------------------
# scheduling and the noisy engine

@dataclass(frozen=True)
class Schedule:
    """ASAP gate timing (ns) plus per-qubit idle intervals."""

    gate_spans: tuple[tuple[float, float], ...]   # (start, duration) per gate
    idle_intervals: tuple[tuple[tuple[float, float], ...], ...]  # per qubit
    circuit_end: float


def schedule_circuit(c: ParameterizedCircuit, nm: NoiseModel) -> Schedule:
    """Each gate starts at the max end-time of its qubits' previous gates."""
    ready: dict[int, float] = {}   # end of the last gate on each used qubit
    spans = []
    idles: list[list[tuple[float, float]]] = [[] for _ in range(c.n_qubits)]
    for g in c.gates:
        dur = float(nm.duration(g.kind))
        start = max(ready.get(q, 0.0) for q in g.qubits)
        for q in g.qubits:
            if q in ready and ready[q] < start:
                idles[q].append((ready[q], start))
            ready[q] = start + dur
        spans.append((start, dur))
    end = max(ready.values(), default=0.0)
    for q, t in ready.items():
        if t < end:
            idles[q].append((t, end))
    return Schedule(tuple(spans), tuple(tuple(iv) for iv in idles), end)


def amplitude_damping_kraus(t_ns: float, t1_us: float) -> list[np.ndarray]:
    p = 1.0 - np.exp(-(t_ns * 1e-3) / t1_us)
    return [np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex),
            np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)]


def dephasing_kraus(t_ns: float, t2_us: float) -> list[np.ndarray]:
    p = 1.0 - np.exp(-2.0 * (t_ns * 1e-3) / t2_us)
    return [np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex),
            np.array([[0, 0], [0, np.sqrt(p)]], dtype=complex)]


def _idle_kraus(t_ns: float, nm: NoiseModel) -> list[np.ndarray]:
    """Kraus operators of amplitude damping followed by pure dephasing."""
    return [d @ a for d in dephasing_kraus(t_ns, nm.t2_us)
            for a in amplitude_damping_kraus(t_ns, nm.t1_us)]


def _superoperator(kraus: list[np.ndarray]) -> np.ndarray:
    """sum_k K (x) K*: the channel on vector qubits (q + n, q) of rho."""
    return sum(np.kron(e, e.conj()) for e in kraus)


def _apply_gate_density(v: np.ndarray, g: Gate, n: int) -> np.ndarray:
    u = gate_matrix(g)
    if g.kind == "CNOT":
        c, t = g.qubits
        return _apply_2q(_apply_2q(v, u, c + n, t + n), u.conj(), c, t)
    q = g.qubits[0]
    return _apply_2q(v, _superoperator([u]), q + n, q)


def _apply_kraus_1q(rho: np.ndarray, kraus: list[np.ndarray],
                    q: int) -> np.ndarray:
    n = rho.shape[0].bit_length() - 1
    v = _apply_2q(rho.reshape(-1), _superoperator(kraus), q + n, q)
    return v.reshape(rho.shape)


def apply_idle_channel(rho: np.ndarray, q: int, t_ns: float,
                       nm: NoiseModel) -> np.ndarray:
    if t_ns <= 0:
        return rho
    return _apply_kraus_1q(rho, _idle_kraus(t_ns, nm), q)


def run_density_matrix(c: ParameterizedCircuit, nm: NoiseModel,
                       cap: int = 12) -> DensityMatrix:
    """Noisy execution: ideal gates with decoherence applied to idle qubits.

    Gates run in the order of ``schedule_circuit``; each of its idle
    intervals applies one idle channel, so that every qubit touched by a
    gate idles up to the global circuit end and measurement is simultaneous.
    """
    if not c.is_bound:
        raise SimulationError("circuit has unbound parameters")
    if c.n_qubits > cap:
        raise SimulationError(f"{c.n_qubits} qubits exceeds cap {cap}")
    if not nm.enabled:
        return DensityMatrix.from_statevector(run_statevector(c, cap=24))

    n = c.n_qubits
    sched = schedule_circuit(c, nm)
    # an interval on qubit q ends at the start of q's next gate or at the end
    waits = {(q, b): b - a for q, intervals in enumerate(sched.idle_intervals)
             for a, b in intervals}
    superops = {t: _superoperator(_idle_kraus(t, nm))
                for t in set(waits.values())}
    v = Statevector.zero_state(2 * n).amplitudes
    for g, (start, _) in zip(c.gates, sched.gate_spans):
        for q in g.qubits:
            if (q, start) in waits:
                v = _apply_2q(v, superops[waits.pop((q, start))], q + n, q)
        v = _apply_gate_density(v, g, n)
    for (q, _), t in waits.items():
        v = _apply_2q(v, superops[t], q + n, q)
    return DensityMatrix(n, v.reshape(2 ** n, 2 ** n))
