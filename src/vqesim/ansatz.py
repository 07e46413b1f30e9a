"""Parameterized circuits: hardware-efficient variants and Trotterized qUCC.

A symbolic rotation angle is stored as (parameter index, scale); under a
parameter vector theta it is scale * theta[index]: ``Gate.angle_at`` in
``bind``, and the compiled program's angle arrays for every gate at once
in the engines, which run the unbound circuit at theta and keep its
programs on it (``ParameterizedCircuit.programs``).
Hardware efficient layers use scale 1; the qUCC Pauli exponentials carry
the 2*coefficient scale of their generator terms.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .fermion import FermionOperator, MolecularIntegrals, jordan_wigner
from .pauli import HERMITIAN_TOL, PRUNE_TOL

ROTATIONS = ("RX", "RY", "RZ")
FIXED = ("H", "X", "Y", "Z")
_KINDS = ROTATIONS + FIXED + ("CNOT",)
DEGENERACY_TOL = 1e-10     # |MP2 denominator| whose amplitude is set to 0


class AnsatzError(ValueError):
    pass


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: Optional[float] = None
    param: Optional[tuple[int, float]] = None   # (index, scale)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise AnsatzError(f"unknown gate kind {self.kind!r}")
        if self.kind in ROTATIONS:
            if (self.angle is None) == (self.param is None):
                raise AnsatzError(
                    f"{self.kind} needs exactly one of angle or param")
        elif self.angle is not None or self.param is not None:
            raise AnsatzError(f"{self.kind} carries no parameter")
        if self.kind == "CNOT":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise AnsatzError("CNOT needs distinct control and target")
        elif len(self.qubits) != 1:
            raise AnsatzError(f"{self.kind} acts on one qubit")

    def angle_at(self, theta: Sequence[float]) -> Optional[float]:
        """The angle under theta: scale * theta[index] for a parameter."""
        if self.param is None:
            return self.angle
        idx, scale = self.param
        return scale * theta[idx]


@dataclass(frozen=True)
class ParameterizedCircuit:
    n_qubits: int
    gates: tuple[Gate, ...]
    n_parameters: int
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.n_parameters < 0:
            raise AnsatzError("n_parameters must be >= 0")
        used = set()
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise AnsatzError(f"qubit {q} out of range")
            if g.param is not None:
                idx = g.param[0]
                if not 0 <= idx < self.n_parameters:
                    raise AnsatzError(f"parameter index {idx} out of range")
                used.add(idx)
        if self.n_parameters and used != set(range(self.n_parameters)):
            missing = set(range(self.n_parameters)) - used
            raise AnsatzError(f"unreferenced parameter indices: {sorted(missing)}")

    def __getstate__(self):   # a copy compiles its own programs
        return {k: v for k, v in self.__dict__.items()
                if k not in ("programs", "gathers")}

    @functools.cached_property
    def programs(self) -> dict:
        """Compiled programs by noise key (``simulator._program``)."""
        return {}

    @functools.cached_property
    def gathers(self) -> dict:
        """CNOT gathers by bit pairs, shared by the programs."""
        return {}

    def bind(self, theta: Sequence[float]) -> "ParameterizedCircuit":
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_parameters,):
            raise AnsatzError(
                f"expected {self.n_parameters} parameters, got {theta.shape}")
        values = theta.tolist()
        gates = tuple(g if g.param is None
                      else Gate(g.kind, g.qubits, angle=g.angle_at(values))
                      for g in self.gates)
        return ParameterizedCircuit(self.n_qubits, gates, 0,
                                    dict(self.metadata))


def he_parameter_count(variant: str, n_qubits: int, depth: int) -> int:
    if variant in ("v1", "v2"):
        return depth * n_qubits
    if variant == "v3":
        return 2 * depth * (3 * n_qubits - 2)
    raise AnsatzError(f"unknown HE variant {variant!r}")


def build_he(variant: str, n_qubits: int, depth: int) -> ParameterizedCircuit:
    """Hardware-efficient circuit; one of the three fixed layouts.

    An H layer, then ``depth`` copies of one layer: each qubit's rotations,
    then each CNOT, followed (v3 only) by an (RY, RX) pair on both qubits.
    v1: H on the lower half, one rotation per qubit (RY even / RX odd),
        HOMO-LUMO CNOTs (i, i+N/2), then spin CNOTs (2k, 2k+1).
    v2: H everywhere, one rotation per qubit as in v1, the chain (i, i+1).
    v3: H everywhere, an (RY, RX) pair on every qubit, the chain of v2.
    """
    if depth < 1:
        raise AnsatzError("depth must be >= 1")
    # v2's data, which v1 and v3 change in part
    hadamards = range(n_qubits)
    rotations = [("RY",) if q % 2 == 0 else ("RX",) for q in range(n_qubits)]
    cnots = [(i, i + 1) for i in range(n_qubits - 1)]
    after = ()
    if variant == "v1":
        if n_qubits % 2:
            raise AnsatzError("v1 requires an even qubit count")
        half = n_qubits // 2
        hadamards = range(half)
        cnots = ([(i, i + half) for i in range(half)]
                 + [(k, k + 1) for k in range(0, n_qubits - 1, 2)])
    elif variant == "v3":
        rotations = [("RY", "RX")] * n_qubits
        after = ("RY", "RX")
    elif variant != "v2":
        raise AnsatzError(f"unknown HE variant {variant!r}")
    layer = [(kind, (q,)) for q in range(n_qubits) for kind in rotations[q]]
    for pair in cnots:
        layer.append(("CNOT", pair))
        for q in pair:
            for kind in after:
                layer.append((kind, (q,)))
    index = itertools.count()
    gates = [Gate("H", (q,)) for q in hadamards]
    gates += [Gate(kind, qubits, param=(next(index), 1.0)
                   if kind in ROTATIONS else None)
              for kind, qubits in layer * depth]
    p = next(index)
    assert p == he_parameter_count(variant, n_qubits, depth)
    return ParameterizedCircuit(n_qubits, tuple(gates), p,
                                {"family": f"he_{variant}", "depth": depth})


# ---------------------------------------------------------------------------
# qUCC

@dataclass(frozen=True)
class QuccGenerator:
    """Anti-Hermitian excitation generator, one operator per parameter.

    excitations[k] is either (p, r) for a single or (p, q, r, s) for a
    double, with p, q unoccupied and r, s occupied spin-orbitals of the
    Hartree-Fock reference, which fills spin-orbitals 0..n_electrons-1.
    operators[k] is the matching anti-Hermitian FermionOperator with unit
    amplitude. Doubles come first, each group in lexicographic order.
    """

    n_modes: int
    n_electrons: int
    excitations: tuple[tuple[int, ...], ...]
    operators: tuple[FermionOperator, ...]

    @property
    def n_parameters(self) -> int:
        return len(self.excitations)


def _spin(so: int) -> int:
    return so % 2


def enumerate_excitations(n_modes: int, n_electrons: int):
    """Spin-conserving singles and doubles from the HF reference.

    Occupied spin-orbitals are 0..n_electrons-1. Returns (doubles, singles)
    with doubles as (p, q, r, s), p > q unoccupied, r > s occupied, and the
    created spins matching the annihilated spins as multisets.
    """
    def rank(k):   # (created..., annihilated...), each half descending
        return sorted(
            created[::-1] + annihilated[::-1]
            for created in itertools.combinations(range(n_electrons, n_modes), k)
            for annihilated in itertools.combinations(range(n_electrons), k)
            if sorted(map(_spin, created)) == sorted(map(_spin, annihilated)))
    return rank(2), rank(1)


def build_qucc_generator(m: MolecularIntegrals) -> QuccGenerator:
    """Unit-amplitude anti-Hermitian generator for the frozen integrals.

    An excitation's first half is created and its second annihilated:
    T = a+_p a+_q a_r a_s for (p, q, r, s), and its operator is T - T+,
    where T+ swaps the two halves.
    """
    if m.n_electrons <= 0:
        raise AnsatzError("no active electrons")
    n_modes = 2 * m.n_orbitals
    doubles, singles = enumerate_excitations(n_modes, m.n_electrons)
    excitations = tuple(doubles + singles)
    operators = []
    for exc in excitations:
        k = len(exc) // 2
        daggers = (True,) * k + (False,) * k
        operators.append(FermionOperator.from_terms(n_modes, [
            (1.0, tuple(zip(exc, daggers))),
            (-1.0, tuple(zip(exc[k:] + exc[:k], daggers)))]))
    return QuccGenerator(n_modes, m.n_electrons, excitations,
                         tuple(operators))


def mp2_initial_amplitudes(m: MolecularIntegrals,
                           gen: QuccGenerator) -> np.ndarray:
    """Moller-Plesset second-order amplitudes as the qUCC starting point.

    Returns theta_0 in ``gen.excitations`` order. Singles get 0. A double
    (p, q, r, s) gets
        (<pq|sr> - <pq|rs>) / (eps_r + eps_s - eps_p - eps_q)
    over spin-orbitals, evaluated from the spatial chemists' integrals.
    Degenerate denominators yield a zero amplitude with a warning.
    """
    if m.orbital_energies is None:
        raise AnsatzError("MP2 amplitudes require orbital energies")
    if (gen.n_modes, gen.n_electrons) != (2 * m.n_orbitals, m.n_electrons):
        raise AnsatzError("generator does not match the integrals")
    g = m.h_two
    eps = m.orbital_energies
    theta = np.zeros(gen.n_parameters)
    for k, exc in enumerate(gen.excitations):
        if len(exc) != 4:
            continue
        p, q, r, s = exc
        ps, qs, rs, ss = p // 2, q // 2, r // 2, s // 2
        # <PQ|SR> = (ps|qr) with spin(P)=spin(S), spin(Q)=spin(R)
        direct = 0.0
        if _spin(p) == _spin(s) and _spin(q) == _spin(r):
            direct = g[ps, ss, qs, rs]
        exchange = 0.0
        if _spin(p) == _spin(r) and _spin(q) == _spin(s):
            exchange = g[ps, rs, qs, ss]
        numer = direct - exchange
        denom = eps[rs] + eps[ss] - eps[ps] - eps[qs]
        if abs(denom) < DEGENERACY_TOL:
            if abs(numer) > PRUNE_TOL:
                warnings.warn(
                    f"degenerate MP2 denominator for excitation {exc}; "
                    "amplitude set to 0")
        else:
            theta[k] = numer / denom
    return theta


def _pauli_exponential_gates(letters: str, param_index: int,
                             scale: float) -> list[Gate]:
    """Gates for exp(-i * (scale/2) * theta_k * P) via the CNOT staircase."""
    active = [q for q, l in enumerate(letters) if l != "I"]
    if not active:
        return []  # global phase only

    def to_z(sign):   # X -> Z by H, Y -> Z by RX(pi/2); sign -1 undoes it
        return [Gate("H", (q,)) if letters[q] == "X"
                else Gate("RX", (q,), angle=sign * np.pi / 2)
                for q in active if letters[q] != "Z"]
    chain = [Gate("CNOT", (a, b)) for a, b in zip(active, active[1:])]
    rz = Gate("RZ", (active[-1],), param=(param_index, scale))
    return to_z(1) + chain + [rz] + chain[::-1] + to_z(-1)[::-1]


def trotterize_qucc(gen: QuccGenerator) -> ParameterizedCircuit:
    """First-order Trotter circuit for exp(T(theta)) after the HF layer.

    Every excitation operator is mapped through Jordan-Wigner; each of its
    Pauli strings i*c*P (c real) becomes one staircase exponential whose RZ
    angle is linear in the excitation's parameter.
    """
    gates: list[Gate] = [Gate("X", (q,)) for q in range(gen.n_electrons)]
    for k, op in enumerate(gen.operators):
        # anti-Hermitian fermionic input <=> purely imaginary JW coefficients
        jw = jordan_wigner(op)
        for letters, coeff in jw.sorted_items():
            if abs(coeff.real) > HERMITIAN_TOL:
                raise AnsatzError(
                    "anti-Hermitian generator produced a real Pauli coefficient")
            gamma = coeff.imag
            if abs(gamma) <= PRUNE_TOL:
                continue
            # exp(theta_k * i*gamma*P) = exp(-i * (-gamma*theta_k) * P)
            gates.extend(_pauli_exponential_gates(letters, k, -2.0 * gamma))
    return ParameterizedCircuit(gen.n_modes, tuple(gates), gen.n_parameters,
                                {"family": "qucc",
                                 "excitations": gen.excitations})
