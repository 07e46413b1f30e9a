"""Execution engines: exact statevector and density matrix with idle noise.

An n-qubit rho runs as the 2n-qubit vector rho.reshape(-1), row qubit q as
vector qubit q + n and column qubit q as q. In both engines a CNOT is a
gather through an index permutation (``_cnot_index``); on rho one gather
acts on rows and columns. Every other operator goes through the kernels
``_apply_1q``/``_apply_2q``: on psi a 2x2 matrix u, on rho the 4x4
superoperator u (x) u*, times an idle channel (amplitude damping, then pure
dephasing) where the qubit waits in the schedule of ``schedule_circuit``.

Both engines run a circuit at a parameter vector theta, never binding it:
a rotation turns by ``Gate.angle_at(theta)``, as in ``bind``, so the state
equals that of the bound circuit bit for bit.

Both engines run one program (``_program``), compiled once per gate
layout (``ParameterizedCircuit.layout``, cached on the circuit) and, for
rho, NoiseModel. Every one-qubit gate that acts on a qubit before any CNOT
touches it folds into a product state psi0: one 2-vector per qubit, joined
by outer products; rho starts as |psi0><psi0|. It covers the H/RY/RX
prefix of the HE ansaetze and the Hartree-Fock X layer of qUCC. After
that, the one-qubit gates on a qubit between two of its CNOTs fuse into
one 2x2 product u, and with the idle channel of the wait that ends them
into one pass over psi or rho; each CNOT stays one gather. Per call only
the products are built, one gate matrix at a time. ``_apply_1q``
multiplies rows of 2 * 2^q amplitudes by (u (x) I_{2^q})^T for low q and
the stack of (2, 2^q) blocks by u above, whichever measured fastest. Index
arrays are cached for vectors of at most ``_INDEX_CACHE_MAX_LEN`` entries,
in at most ``_INDEX_CACHE_BYTES``.

Expectation values read the Hamiltonian's compiled form
(``PauliSum.sparse_matrix`` and ``string_table``), exact and sampled alike
with the Hermiticity tolerance ``pauli.HERMITIAN_TOL``. The engines run at
most ``MAX_STATEVECTOR_QUBITS`` and ``MAX_DENSITY_MATRIX_QUBITS`` qubits.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .ansatz import ROTATIONS, Gate, ParameterizedCircuit
from .pauli import HERMITIAN_TOL, PauliSum, parity


class SimulationError(ValueError):
    pass


MAX_STATEVECTOR_QUBITS = 24
MAX_DENSITY_MATRIX_QUBITS = 12
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
    is the physical bound on the total T2, applied to ``t2_us``. A
    noiseless run passes no NoiseModel.
    """

    t1_us: float = TABLE1_T1_US
    t2_us: float = TABLE1_T2_US
    durations_ns: dict = field(default_factory=lambda: dict(TABLE1_DURATIONS_NS))

    def __post_init__(self):
        # NaN fails every comparison, so it is ruled out by name
        if not all(math.isfinite(t) and t > 0 for t in
                   (self.t1_us, self.t2_us, *self.durations_ns.values())):
            raise SimulationError(
                "T1, T2 and gate durations must be finite and positive")
        if self.t2_us > 2 * self.t1_us + 1e-12:
            raise SimulationError("unphysical times: T2 > 2*T1")

    @property
    def t2_prime_us(self) -> float:
        return 1.0 / (1.0 / self.t2_us + 1.0 / (2.0 * self.t1_us))

    def duration(self, kind: str) -> float:
        try:
            return self.durations_ns[kind]
        except KeyError:
            raise SimulationError(f"no duration defined for gate {kind!r}")

    @classmethod
    def from_json(cls, text: str) -> "NoiseModel":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise SimulationError("noise JSON must be an object")
        durations = dict(TABLE1_DURATIONS_NS)
        durations.update(data.get("durations_ns", {}))
        return cls(t1_us=data.get("t1_us", TABLE1_T1_US),
                   t2_us=data.get("t2_us", TABLE1_T2_US),
                   durations_ns=durations)

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

def gate_matrix(g: Gate, theta: Sequence[float] = ()) -> np.ndarray:
    """2x2 matrix of a one-qubit gate; a rotation turns by g.angle_at(theta)."""
    k = g.kind
    if k == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    if k == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if k == "Y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if k == "Z":
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if k not in ROTATIONS:
        raise SimulationError(f"no 2x2 matrix for gate kind {k!r}")
    t = g.angle_at(theta) / 2.0
    if k == "RX":
        return np.array([[np.cos(t), -1j * np.sin(t)],
                         [-1j * np.sin(t), np.cos(t)]], dtype=complex)
    if k == "RY":
        return np.array([[np.cos(t), -np.sin(t)],
                         [np.sin(t), np.cos(t)]], dtype=complex)
    return np.array([[np.exp(-1j * t), 0],
                     [0, np.exp(1j * t)]], dtype=complex)


_EYE = {1 << q: np.eye(1 << q) for q in range(5)}


def _apply_1q(psi: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    # qubit q is the axis of stride lo = 2^q. Up to lo = 8 (16 from 12
    # qubits on) one matmul by (u (x) I_lo)^T over rows of 2 lo amplitudes
    # measured fastest; above that, u times the stack of (2, lo) blocks.
    lo = 1 << q
    if lo <= 8 or (lo == 16 and psi.size >= 1 << 12):
        k = (u[:, None, :, None] * _EYE[lo][None, :, None, :]).reshape(
            2 * lo, 2 * lo)
        return (psi.reshape(-1, 2 * lo) @ k.T).reshape(-1)
    return (u @ psi.reshape(-1, 2, lo)).reshape(-1)


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


# Index arrays are cached only for vectors of at most 2^16 entries (an
# 8-qubit rho), 512 KiB each, at most 64 of them; larger vectors build
# theirs per call. They stay intp: int32 indices gathered 2-3x slower.
_INDEX_CACHE_MAX_LEN = 2 ** 16
_INDEX_CACHE_ENTRIES = 64
_INDEX_CACHE_BYTES = (_INDEX_CACHE_ENTRIES * _INDEX_CACHE_MAX_LEN
                     * np.dtype(np.intp).itemsize)   # 32 MiB


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _build_cnot_index(n_bits: int,
                      pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    z = np.arange(2 ** n_bits, dtype=np.intp)
    index = z.copy()
    for c, t in pairs:
        index ^= ((z >> c) & 1) << t
    return _read_only(index)


_cached_cnot_index = functools.lru_cache(maxsize=_INDEX_CACHE_ENTRIES)(
    _build_cnot_index)


def _cnot_index(n_bits: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Gather index of CNOTs on disjoint (control, target) bit pairs.

    v[index] maps basis index z to z ^ (bit_c(z) << t) for every pair. A
    gather only moves entries, so it is exact. The index is read-only.
    """
    if 2 ** n_bits <= _INDEX_CACHE_MAX_LEN:
        return _cached_cnot_index(n_bits, pairs)
    return _build_cnot_index(n_bits, pairs)


@functools.lru_cache(maxsize=8)
def _program(n: int, layout: tuple, noise: tuple | None = None) -> tuple:
    """The theta-independent plan of a run: (prefix, ops).

    ``prefix[q]`` lists the gates on qubit q before any CNOT touches it;
    they act on |0>, so each qubit starts in a product state. Each op is
    (q, run, idle): the gates ``run`` on qubit q between two of its CNOTs,
    or after its last, fused into one 2x2 product; with q None, run is the
    (control, target) pair of a CNOT. Gates are indices into ``layout``.
    ``noise`` is None or (t1_us, t2_us, sorted duration items), the key of
    a NoiseModel, which holds a dict. With noise, ``idle`` is the read-only
    superoperator of the wait that ends the run, else None: a qubit idles
    only before one of its CNOTs or up to the end, so after its run (which
    may then be empty). The tuple is shared by every caller.
    """
    idles = _idle_superoperators(n, layout, noise)
    prefix: list[list[int]] = [[] for _ in range(n)]
    runs: dict[int, list[int]] = {}   # open run of each qubit past a CNOT
    ops = []

    def close(q: int, i: int) -> None:   # the run of q ends at gate i
        run, idle = tuple(runs.get(q, ())), idles.get((q, i))
        if run or idle is not None:
            ops.append((q, run, idle))

    for i, (kind, qubits) in enumerate(layout):
        if kind != "CNOT":
            q = qubits[0]
            (runs[q] if q in runs else prefix[q]).append(i)
            continue
        for q in qubits:
            close(q, i)
            runs[q] = []
        ops.append((None, qubits, None))
    for q in [*runs, *(q for q in range(n) if q not in runs)]:
        close(q, len(layout))
    return tuple(map(tuple, prefix)), tuple(ops)


def _idle_superoperators(n: int, layout: tuple,
                         noise: tuple | None) -> dict:
    """{(q, i): superoperator} of each wait of qubit q that ends at gate i
    of ``layout``, or at the circuit's end for i = len(layout)."""
    if noise is None:
        return {}
    nm = NoiseModel(noise[0], noise[1], dict(noise[2]))
    sched = _schedule(n, layout, nm)
    gate_at = {(q, start): i for i, ((_, qubits), (start, _))
               in enumerate(zip(layout, sched.gate_spans)) for q in qubits}
    # a wait on qubit q ends at the start of q's next gate or at the end
    waits = {(q, gate_at.get((q, b), len(layout))): b - a
             for q, intervals in enumerate(sched.idle_intervals)
             for a, b in intervals}
    superops = {t: _read_only(_superoperator(_idle_kraus(t, nm)))
                for t in set(waits.values())}
    return {key: superops[t] for key, t in waits.items()}


def _fused(gates: tuple[Gate, ...], run: tuple[int, ...],
           theta: list[float]) -> np.ndarray:
    """The 2x2 product of ``gates[i]`` for i in ``run``, first gate rightmost."""
    if not run:
        return np.eye(2, dtype=complex)
    u = gate_matrix(gates[run[0]], theta)
    for i in run[1:]:
        u = gate_matrix(gates[i], theta) @ u
    return u


def _product_state(gates: tuple[Gate, ...], prefix: tuple,
                   theta: list[float]) -> np.ndarray:
    """The amplitudes after the ``prefix`` gates of each qubit act on |0>."""
    psi = np.ones(1, dtype=complex)
    for q in reversed(range(len(prefix))):   # qubit 0 is the least significant
        psi = np.multiply.outer(psi, _fused(gates, prefix[q], theta)[:, 0])
    return psi.reshape(-1)


def _parameter_values(c: ParameterizedCircuit, theta: Sequence[float],
                      max_qubits: int) -> list[float]:
    """theta as floats, one per parameter of c, if c has <= max_qubits."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (c.n_parameters,):
        raise SimulationError(
            f"expected {c.n_parameters} parameters, got {theta.shape}")
    if c.n_qubits > max_qubits:
        raise SimulationError(f"{c.n_qubits} qubits exceeds cap {max_qubits}")
    return theta.tolist()


def run_statevector(c: ParameterizedCircuit,
                    theta: Sequence[float] = ()) -> Statevector:
    """Apply circuit c at parameters theta to |0...0>.

    Only the 2x2 products depend on theta; the rest is ``_program``,
    compiled once per gate layout.
    """
    values = _parameter_values(c, theta, MAX_STATEVECTOR_QUBITS)
    n = c.n_qubits
    prefix, ops = _program(n, c.layout)
    psi = _product_state(c.gates, prefix, values)
    for q, run, _ in ops:
        if q is None:
            psi = psi[_cnot_index(n, (run,))]
        else:
            psi = _apply_1q(psi, _fused(c.gates, run, values), q)
    return Statevector(n, psi)


# ---------------------------------------------------------------------------
# expectation values

def expectation_exact(state: Union[Statevector, DensityMatrix],
                      h: PauliSum) -> float:
    """<H> from the Hamiltonian's compiled sparse matrix.

    ``h.sparse_matrix()`` folds every Pauli term into one CSR matrix; it is
    built on the first call for a given PauliSum and cached on it, so each
    later call is a single sparse product: <psi|H|psi> for a Statevector,
    Tr(rho H) for a DensityMatrix.
    """
    if state.n_qubits != h.n_qubits:
        raise SimulationError("state / operator qubit-count mismatch")
    if not h.is_hermitian(HERMITIAN_TOL):
        raise SimulationError("expectation requires a Hermitian PauliSum")
    m = h.sparse_matrix()
    if isinstance(state, Statevector):
        psi = state.amplitudes
        return float(np.vdot(psi, m @ psi).real)
    # Tr(rho H) = sum over stored H[r, c] of H[r, c] * rho[c, r]
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return float(np.dot(m.data, state.rho[m.indices, rows]).real)


def _pauli_expectations(state: Union[Statevector, DensityMatrix],
                        flips: np.ndarray, signs: np.ndarray,
                        prefs: np.ndarray) -> np.ndarray:
    """Exact <P> of each Pauli string, from its flip mask f, sign mask s and
    prefactor (``pauli.string_actions``):

    <psi|P|psi> = pref * sum_z conj(psi[z ^ f]) (-1)^popcount(z & s) psi[z]
    Tr(rho P)   = pref * sum_z rho[z, z ^ f] (-1)^popcount(z & s)

    Strings go in blocks of about 2^14 (string, z) entries: temporaries of
    that size measured fastest, and memory stays bounded at any n.
    """
    z = np.arange(2 ** state.n_qubits)
    out = np.empty(len(flips))
    step = max(1, 2 ** 14 // z.size)
    for lo in range(0, len(flips), step):
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
    if not h.is_hermitian(HERMITIAN_TOL):
        raise SimulationError("expectation requires a Hermitian PauliSum")
    flips, signs, prefs, coeffs = h.string_table()
    measured = (flips | signs) != 0   # all but the identity string
    total = float(coeffs[~measured].real.sum())
    if measured.any():
        # rounding can put an eigenstate's p a little outside [0, 1]
        p = np.clip((1.0 - _pauli_expectations(
            state, flips[measured], signs[measured], prefs[measured])) / 2.0,
            0.0, 1.0)
        minus = np.random.default_rng(rng_seed).binomial(n_shots, p)
        total += float(np.dot(coeffs[measured].real,
                              1.0 - 2.0 * minus / n_shots))
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
    return _schedule(c.n_qubits, c.layout, nm)


def _schedule(n_qubits: int, layout, nm: NoiseModel) -> Schedule:
    ready: dict[int, float] = {}   # end of the last gate on each used qubit
    spans = []
    idles: list[list[tuple[float, float]]] = [[] for _ in range(n_qubits)]
    for kind, qubits in layout:
        dur = float(nm.duration(kind))
        start = max(ready.get(q, 0.0) for q in qubits)
        for q in qubits:
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
                       theta: Sequence[float] = ()) -> DensityMatrix:
    """Noisy execution at theta: ideal gates, decoherence on idle qubits.

    Each idle interval of ``schedule_circuit`` applies one idle channel, so
    every qubit touched by a gate idles up to the global circuit end and
    measurement is simultaneous.
    """
    values = _parameter_values(c, theta, MAX_DENSITY_MATRIX_QUBITS)
    n = c.n_qubits
    prefix, ops = _program(n, c.layout, (
        nm.t1_us, nm.t2_us, tuple(sorted(nm.durations_ns.items()))))
    psi = _product_state(c.gates, prefix, values)   # no qubit idles before
    v = np.outer(psi, psi.conj()).reshape(-1)
    for q, run, idle in ops:
        if q is None:
            ctl, tgt = run
            v = v[_cnot_index(2 * n, ((ctl + n, tgt + n), (ctl, tgt)))]
            continue
        u = _fused(c.gates, run, values)
        s = np.kron(u, u.conj())
        v = _apply_2q(v, s if idle is None else idle @ s, q + n, q)
    return DensityMatrix(n, v.reshape(2 ** n, 2 ** n))
