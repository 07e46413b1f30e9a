"""Execution engines: exact statevector and density matrix with idle noise.

An n-qubit rho runs as the 2n-qubit vector rho.reshape(-1), row qubit q as
vector qubit q + n and column qubit q as q. In both engines a CNOT is a
gather through an index permutation (``_cnot_index``); on rho one gather
acts on rows and columns. Every other operator goes through the kernels
``_apply_1q``/``_apply_2q``: on psi a 2x2 matrix u, on rho the 4x4
superoperator u (x) u*, times an idle channel (amplitude damping, then pure
dephasing) where the qubit waits in the schedule of ``schedule_circuit``.
The idle channel has one form: ``_superoperator(_idle_kraus(t, nm))``,
which the program compiles once per wait length (``_idle_superoperators``).

Both engines run a circuit at a parameter vector theta, never binding it:
a rotation turns by scale * theta[index] (the program's ``angles``), as
in ``bind``, so the state equals that of the bound circuit bit for bit.

Both engines run one program (``_program``), compiled once per circuit
(for rho, per NoiseModel) and kept in the circuit's memo ``programs``.
Every one-qubit gate that acts on a qubit before any CNOT
touches it folds into a product state psi0: one 2-vector per qubit, joined
by outer products; rho starts as |psi0><psi0|. It covers the H/RY/RX
prefix of the HE ansaetze and the Hartree-Fock X layer of qUCC. After
that, the one-qubit gates on a qubit between two of its CNOTs fuse into
one 2x2 product u, and with the idle channel of the wait that ends them
into one pass over psi or rho; each CNOT stays one gather. Only the
products depend on theta, and ``_compiled_call`` builds them once per
call in one vectorised pass over all gates; the engines only index that
stack. ``_apply_1q`` multiplies rows of 2 * 2^q amplitudes by
(u (x) I_{2^q})^T for low q and the stack of (2, 2^q) blocks by u above,
whichever measured fastest. Index arrays are cached for vectors of at
most ``_INDEX_CACHE_MAX_LEN`` entries, in at most ``_INDEX_CACHE_BYTES``.

Expectation values read the Hamiltonian's compiled form, exact and
sampled alike with the Hermiticity tolerance ``pauli.HERMITIAN_TOL``: the
exact value its upper triangle U (``PauliSum.sparse_matrix``, with
H = U + U^dagger - diag(U)), the sampled value its term table
(``string_table``). Shots are drawn per Pauli term from its exact
expectation, never as bitstrings. The engines run at most
``MAX_STATEVECTOR_QUBITS`` and ``MAX_DENSITY_MATRIX_QUBITS`` qubits.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

from .ansatz import ROTATIONS, ParameterizedCircuit
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
        # NaN fails every comparison, so it is ruled out by name; a bool is
        # an int, so JSON's true would pass as 1
        if not all(isinstance(t, numbers.Real) and not isinstance(t, bool)
                   and math.isfinite(t) and t > 0 for t in
                   (self.t1_us, self.t2_us, *self.durations_ns.values())):
            raise SimulationError(
                "T1, T2 and gate durations must be finite positive numbers")
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
        """A JSON object with the optional keys ``t1_us``, ``t2_us`` and
        ``durations_ns`` (gate kind to ns), each defaulting to table 1;
        any other key, or a gate kind not in the table, is an error."""
        data = json.loads(text)
        if not (isinstance(data, dict)
                and isinstance(data.get("durations_ns", {}), dict)):
            raise SimulationError("noise JSON and durations_ns must be objects")
        durations = data.get("durations_ns", {})
        unknown = ((set(data) - {"t1_us", "t2_us", "durations_ns"})
                   | (set(durations) - set(TABLE1_DURATIONS_NS)))
        if unknown:
            raise SimulationError(f"unknown noise keys: {sorted(unknown)}")
        return cls(t1_us=data.get("t1_us", TABLE1_T1_US),
                   t2_us=data.get("t2_us", TABLE1_T2_US),
                   durations_ns={**TABLE1_DURATIONS_NS, **durations})


@dataclass
class Statevector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2 ** self.n_qubits,):
            raise SimulationError("amplitude vector has wrong length")


@dataclass
class DensityMatrix:
    n_qubits: int
    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        dim = 2 ** self.n_qubits
        if self.rho.shape != (dim, dim):
            raise SimulationError("density matrix has wrong shape")


# ---------------------------------------------------------------------------
# gate matrices and application

_FIXED = {"H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
          "X": np.array([[0, 1], [1, 0]], dtype=complex),
          "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
          "Z": np.array([[1, 0], [0, -1]], dtype=complex)}


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


class _Program(NamedTuple):   # see ``_program``
    table: np.ndarray        # (rows, width) gate indices, run order
    rotations: tuple         # gate indices of the RX, RY and RZ gates
    fixed: np.ndarray        # (gates + 1, 2, 2): H/X/Y/Z, the identity last
    idle: np.ndarray | None  # (rows, 4, 4) superoperator of each row's wait
    ops: tuple               # (q, row) per fused run, (None, pair) per CNOT
    angles: tuple            # (index, scale, fixed angle) per gate


def _program(c: ParameterizedCircuit, noise: tuple | None = None) -> _Program:
    """The theta-independent plan of a run of c, read-only.

    Compiled once per ``noise`` into c's memo ``c.programs``, it lives as
    long as c: circuits with equal gates, a bound copy too, compile one
    each, and c keeps one per noise model it runs under. Two threads may
    both compile c's first program; the first stored is kept.

    Row q < n of ``table`` lists the gates on qubit q before any CNOT
    touches it; they act on |0>, so each qubit starts in a product state.
    Each later row is a run, the gates on one qubit between two of its
    CNOTs or after its last, fused into one 2x2 product. Rows index
    ``c.gates``; index len(c.gates) is the identity that pads each row.
    An op is (q, row) for a run on qubit q, or (None, (control, target)).
    ``noise`` is None or (t1_us, t2_us, sorted duration items), the key of
    a NoiseModel. With noise, ``idle[row]`` is the superoperator of the
    wait that ends the run, else the identity: a qubit idles only before
    one of its CNOTs or up to the end, so after its run (maybe empty).
    Gate i turns by scale[i] * theta[index[i]] + fixed[i] (``angles``)
    under theta extended by one 0: ``Gate.angle_at(theta)``.
    """
    if noise in c.programs:
        return c.programs[noise]
    n, gates = c.n_qubits, c.gates
    idles = _idle_superoperators(c, noise)
    rows: list[list[int]] = [[] for _ in range(n)]
    waits: list = [None] * n
    runs: dict[int, list[int]] = {}   # open run of each qubit past a CNOT
    ops = []

    def close(q: int, i: int) -> None:   # the run of q ends at gate i
        run, idle = runs.get(q, []), idles.get((q, i))
        if run or idle is not None:
            ops.append((q, len(rows)))
            rows.append(run)
            waits.append(idle)

    for i, g in enumerate(gates):
        if g.kind != "CNOT":
            q = g.qubits[0]
            (runs[q] if q in runs else rows[q]).append(i)
            continue
        for q in g.qubits:
            close(q, i)
            runs[q] = []
        ops.append((None, g.qubits))
    for q in [*runs, *(q for q in range(n) if q not in runs)]:
        close(q, len(gates))
    table = np.full((len(rows), max(map(len, rows), default=0) or 1),
                    len(gates), dtype=np.intp)
    for row, run in zip(table, rows):
        row[:len(run)] = run
    kinds = np.array([g.kind for g in gates], dtype=str)
    rotations = tuple(_read_only(np.flatnonzero(kinds == r))
                      for r in ROTATIONS)
    fixed = np.array([_FIXED.get(k, np.zeros((2, 2))) for k in kinds]
                     + [np.eye(2)], dtype=complex)
    idle = None if noise is None else _read_only(np.array(
        [np.eye(4) if s is None else s for s in waits], dtype=complex))
    params = [g.param or (c.n_parameters, 0.0) for g in gates]
    angles = (np.array([p[0] for p in params], dtype=np.intp),
              np.array([p[1] for p in params], dtype=float),
              np.array([g.angle or 0.0 for g in gates], dtype=float))
    return c.programs.setdefault(noise, _Program(
        _read_only(table), rotations, _read_only(fixed), idle, tuple(ops),
        tuple(map(_read_only, angles))))


def _idle_superoperators(c: ParameterizedCircuit, noise: tuple | None) -> dict:
    """{(q, i): superoperator} of each wait of qubit q that ends at gate i
    of c, or at the circuit's end for i = len(c.gates)."""
    if noise is None:
        return {}
    nm = NoiseModel(noise[0], noise[1], dict(noise[2]))
    sched = schedule_circuit(c, nm)
    gate_at = {(q, start): i for i, (g, (start, _))
               in enumerate(zip(c.gates, sched.gate_spans)) for q in g.qubits}
    # a wait on qubit q ends at the start of q's next gate or at the end
    waits = {(q, gate_at.get((q, b), len(c.gates))): b - a
             for q, intervals in enumerate(sched.idle_intervals)
             for a, b in intervals}
    superops = {t: _superoperator(_idle_kraus(t, nm))
                for t in set(waits.values())}
    return {key: superops[t] for key, t in waits.items()}


def _compiled_call(c: ParameterizedCircuit, theta: Sequence[float],
                   max_qubits: int, noise: tuple | None = None) -> tuple:
    """(ops, psi0, stack) of c at theta: the program's ops, the start
    state and one matrix per table row. Every 2x2 gate matrix is built in
    one vectorised pass, and the row products (first gate rightmost) with
    one batched matmul per table column. The stack holds these products,
    or with noise the superoperators idle (u (x) u*)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (c.n_parameters,):
        raise SimulationError(
            f"expected {c.n_parameters} parameters, got {theta.shape}")
    if c.n_qubits > max_qubits:
        raise SimulationError(f"{c.n_qubits} qubits exceeds cap {max_qubits}")
    prog = _program(c, noise)
    index, scale, fixed = prog.angles
    half = (scale * np.append(theta, 0.0)[index] + fixed) / 2.0
    cos, sin = np.cos(half), np.sin(half)
    m = prog.fixed.copy()
    rx, ry, rz = prog.rotations
    m[rx, 0, 0] = m[rx, 1, 1] = cos[rx]
    m[rx, 0, 1] = m[rx, 1, 0] = -1j * sin[rx]
    m[ry, 0, 0] = m[ry, 1, 1] = cos[ry]
    m[ry, 0, 1], m[ry, 1, 0] = -sin[ry], sin[ry]
    m[rz, 0, 0], m[rz, 1, 1] = np.exp(-1j * half[rz]), np.exp(1j * half[rz])
    u = m[prog.table[:, 0]]
    for column in prog.table.T[1:]:
        u = m[column] @ u
    psi = np.ones(1, dtype=complex)
    for q in reversed(range(c.n_qubits)):   # qubit 0 is the least significant
        psi = np.multiply.outer(psi, u[q, :, 0])
    if noise is not None:
        u = prog.idle @ (u[:, :, None, :, None]
                         * u.conj()[:, None, :, None, :]).reshape(-1, 4, 4)
    return prog.ops, psi.reshape(-1), u


def run_statevector(c: ParameterizedCircuit,
                    theta: Sequence[float] = ()) -> Statevector:
    """Apply circuit c at parameters theta to |0...0>.

    Only the 2x2 products depend on theta (``_compiled_call``); the rest
    is ``_program``, compiled once per circuit.
    """
    n = c.n_qubits
    ops, psi, stack = _compiled_call(c, theta, MAX_STATEVECTOR_QUBITS)
    for q, op in ops:
        if q is None:
            psi = psi[_cnot_index(n, (op,))]
        else:
            psi = _apply_1q(psi, stack[op], q)
    return Statevector(n, psi)


# ---------------------------------------------------------------------------
# expectation values

def expectation_exact(state: Union[Statevector, DensityMatrix],
                      h: PauliSum) -> float:
    """<H> from the Hamiltonian's compiled upper triangle U.

    ``h.sparse_matrix()`` folds every Pauli term into U, with
    H = U + U^dagger - diag(U); it is built on the first call for a given
    PauliSum and cached on it, so each later call is one sparse product
    over U: <psi|H|psi> = 2 Re <psi|U psi> - sum_i U_ii |psi_i|^2 for a
    Statevector, Tr(rho H) = 2 Re sum U_rc rho_cr - sum_i U_ii rho_ii for
    a DensityMatrix.
    """
    if state.n_qubits != h.n_qubits:
        raise SimulationError("state / operator qubit-count mismatch")
    if not h.is_hermitian(HERMITIAN_TOL):
        raise SimulationError("expectation requires a Hermitian PauliSum")
    u, diag = h.sparse_matrix(), h.diagonal().real
    if isinstance(state, Statevector):
        psi = state.amplitudes
        if u.dtype == np.float64:
            # psi = a + ib: Re <psi|U psi> = a.Ua + b.Ub for a real U, and
            # two real products beat one product that casts U to complex
            a, b = psi.real.copy(), psi.imag.copy()
            upper = a @ (u @ a) + b @ (u @ b)
        else:
            upper = np.vdot(psi, u @ psi).real
        return float(2.0 * upper - diag @ (psi.real ** 2 + psi.imag ** 2))
    rows = np.repeat(np.arange(u.shape[0]), np.diff(u.indptr))
    upper = np.dot(u.data, state.rho[u.indices, rows]).real
    return float(2.0 * upper - diag @ state.rho.diagonal().real)


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


def run_density_matrix(c: ParameterizedCircuit, nm: NoiseModel,
                       theta: Sequence[float] = ()) -> DensityMatrix:
    """Noisy execution at theta: ideal gates, decoherence on idle qubits.

    Each idle interval of ``schedule_circuit`` applies one idle channel, so
    every qubit touched by a gate idles up to the global circuit end and
    measurement is simultaneous.
    """
    n = c.n_qubits
    ops, psi, stack = _compiled_call(c, theta, MAX_DENSITY_MATRIX_QUBITS, (
        nm.t1_us, nm.t2_us, tuple(sorted(nm.durations_ns.items()))))
    v = np.outer(psi, psi.conj()).reshape(-1)   # no qubit idles before psi0
    for q, op in ops:
        if q is None:
            ctl, tgt = op
            v = v[_cnot_index(2 * n, ((ctl + n, tgt + n), (ctl, tgt)))]
        else:
            v = _apply_2q(v, stack[op], q + n, q)
    return DensityMatrix(n, v.reshape(2 ** n, 2 ** n))
