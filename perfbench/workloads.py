"""The three benchmark workloads: inputs, set-up, one round and its checks.

A round is one closed loop per sweep point: ``vqe.run_trials`` with COBYLA,
which asks for the next theta only after the previous energy returns.
Every round of a workload does the same number of evaluations.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

import vqesim.exact
import vqesim.pipeline
import vqesim.simulator
import vqesim.vqe
from vqesim.ansatz import ParameterizedCircuit
from vqesim.simulator import NoiseModel

import pimodel
from hostspeed import HostSpeed

JITTER_A = 0.01            # seeded offset of the distortion parameter
WEAK_NOISE_US = 1e12       # T1 = T2 for the weak-noise limit
ENERGY_TOL = 1e-9
REFERENCE_TOL = 1e-8


@dataclass(frozen=True)
class SweepPoint:
    label: str
    n_shots: int = 0
    t1_us: Optional[float] = None

    @property
    def exact_expectation(self) -> bool:
        return self.n_shots == 0


@dataclass(frozen=True)
class Spec:
    distortion: int
    parameter: float
    ansatz: str
    budget: int
    trials: int
    jobs: int
    sweep: tuple[SweepPoint, ...]
    active: Optional[tuple[int, ...]] = None
    frozen: tuple[int, ...] = ()


# Each workload stresses other layers; BENCHMARK.json and README.md say why.
WORKLOADS = {
    # the two C3H3 halves slid 1.60 A apart: two allyl-like fragments,
    # where RHF misses most of the correlation
    "he_ensemble": Spec(
        distortion=3, parameter=1.60, ansatz="he_v3", budget=200, trials=4,
        jobs=2, sweep=(SweepPoint("exact"),)),
    # two sides 2.50 A apart, near the regular ring's 2.44 A
    "qucc_shots": Spec(
        distortion=2, parameter=2.50, ansatz="qucc", budget=40, trials=1,
        jobs=1, active=(1, 2, 3, 4), frozen=(0,),
        sweep=(SweepPoint("shots_0", n_shots=0),
               SweepPoint("shots_1024", n_shots=1024),
               SweepPoint("shots_8192", n_shots=8192))),
    # a mild slide of the two C3H3 halves
    "noisy_t1": Spec(
        distortion=3, parameter=0.40, ansatz="qucc", budget=16, trials=1,
        jobs=1, active=(1, 2, 3), frozen=(0,),
        sweep=(SweepPoint("t1_10us", t1_us=10.0),
               SweepPoint("t1_50us", t1_us=50.0),
               SweepPoint("t1_250us", t1_us=250.0))),
}


@dataclass
class Inputs:
    model: pimodel.PiModel
    fcidump: Path
    parameter: float


@dataclass
class Prepared:
    point: SweepPoint
    problem: vqesim.pipeline.Problem
    circuit: ParameterizedCircuit
    config: vqesim.vqe.VqeConfig
    reference: float


@dataclass
class RoundResult:
    point: Prepared
    ensemble: vqesim.vqe.TrialEnsemble
    seconds: float


@dataclass
class References:
    """Energies computed by the benchmark's own code."""

    fock_floor: float
    full_ground: float
    sector_ground: float
    h_own: object               # Fock-space H of the active space


def make_inputs(spec: Spec, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's FCIDUMP; the seed sets the distortion offset."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    parameter = spec.parameter + float(rng.uniform(-JITTER_A, JITTER_A))
    model = pimodel.build_model(spec.distortion, parameter)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"d{spec.distortion}_{parameter:.6f}.fcidump"
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(pimodel.fcidump_text(model))
    os.replace(tmp, path)
    return Inputs(model=model, fcidump=path, parameter=parameter)


def setup(spec: Spec, inputs: Inputs) -> list[Prepared]:
    """Make every sweep point ready to evaluate, as a campaign point does."""
    points = []
    for sp in spec.sweep:
        problem = vqesim.pipeline.prepare_problem(
            str(inputs.fcidump), active=spec.active, frozen=spec.frozen)
        circuit, gen = vqesim.pipeline.build_ansatz(spec.ansatz, problem,
                                                    depth=1)
        initial = ("random" if gen is None
                   else vqesim.pipeline.mp2_vector(problem, gen))
        noise = (None if sp.t1_us is None
                 else NoiseModel(t1_us=sp.t1_us, t2_us=sp.t1_us))
        if sp.exact_expectation:
            problem.hamiltonian.sparse_matrix()
        reference = vqesim.exact.ground_state(
            problem.hamiltonian, problem.n_electrons,
            problem.e_core).ground_energy
        cfg = vqesim.vqe.VqeConfig(max_iterations=spec.budget,
                                   n_shots=sp.n_shots, noise=noise,
                                   initial_guess=initial)
        points.append(Prepared(sp, problem, circuit, cfg, reference))
    return points


def _close(name: str, a: float, b: float, tol: float, out: list) -> None:
    ok = abs(a - b) <= tol
    out.append(f"{'ok  ' if ok else 'FAIL'} {name}: {a:.12f} vs {b:.12f} "
               f"(|diff| {abs(a - b):.1e} <= {tol:.0e})")


def own_references(spec: Spec, inputs: Inputs) -> References:
    """Spectra of the written model from the benchmark's own code."""
    model = inputs.model
    site = pimodel.block_ground_energies(
        pimodel.fock_hamiltonian(pimodel.site_model_integrals(model)),
        model.h_site.shape[0])
    full_ground = pimodel.sector_ground(site, model.n_electrons)
    floor = pimodel.fock_floor(site)
    h_own, sector = None, full_ground
    if spec.active is not None:
        folded = pimodel.freeze_core(model.mo_integrals(), spec.active,
                                     spec.frozen)
        h_own = pimodel.fock_hamiltonian(folded)
        sector = pimodel.sector_ground(
            pimodel.block_ground_energies(h_own, folded.n_orbitals),
            folded.n_electrons)
    return References(fock_floor=floor, full_ground=full_ground,
                      sector_ground=sector, h_own=h_own)


def check_problem(spec: Spec, inputs: Inputs, refs: References,
                  points: list[Prepared]) -> list[str]:
    """The generator against the program on the space the VQE uses."""
    model = inputs.model
    space = ("full space" if spec.active is None
             else f"{len(spec.active)}-orbital active space (own fold)")
    msgs = [f"info input {model.label} (seeded parameter "
            f"{inputs.parameter:.6f}); RHF {model.e_rhf:.10f} after "
            f"{model.scf_iterations} SCF iterations; site-basis "
            f"E0(N={model.n_electrons}) {refs.full_ground:.10f}; "
            f"Fock-space floor {refs.fock_floor:.10f}"]
    _close(f"exact.ground_state vs own ED, {space}", points[0].reference,
           refs.sector_ground, REFERENCE_TOL, msgs)
    _close(f"pipeline.hf_energy vs own RHF, {space}",
           vqesim.pipeline.hf_energy(points[0].problem), model.e_rhf,
           REFERENCE_TOL, msgs)
    return msgs


def check_full_space(inputs: Inputs, refs: References) -> list[str]:
    """exact.ground_state on the whole written file vs the site-basis ED."""
    full = vqesim.pipeline.prepare_problem(str(inputs.fcidump))
    ref = vqesim.exact.ground_state(full.hamiltonian, full.n_electrons,
                                    full.e_core).ground_energy
    msgs: list[str] = []
    _close("exact.ground_state vs own site-basis ED, full space", ref,
           refs.full_ground, REFERENCE_TOL, msgs)
    return msgs


def round_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, 1, index]).generate_state(1)[0])


def run_round(spec: Spec, points: list[Prepared], seed: int,
              host: Optional[HostSpeed] = None) -> list[RoundResult]:
    """Run every sweep point once; ``host`` interleaves its kernel."""
    out = []
    for p in points:
        cfg = replace(p.config, rng_seed=seed)
        timing = (contextlib.nullcontext() if host is None
                  else host.interleaved(p.point.label))
        kernel_s = 0.0 if host is None else host.kernel_s
        t0 = time.perf_counter()
        with timing:
            ens = vqesim.vqe.run_trials(p.circuit, p.problem.hamiltonian,
                                        p.problem.e_core, cfg, spec.trials,
                                        jobs=spec.jobs)
        seconds = time.perf_counter() - t0
        if host is not None:
            seconds -= host.kernel_s - kernel_s
        out.append(RoundResult(p, ens, seconds))
    return out


def count_evaluations(spec: Spec, results: list[RoundResult]):
    """(attempted, failed) evaluations; a failed trial loses its budget."""
    attempted = failed = 0
    for r in results:
        for res, err in zip(r.ensemble.results, r.ensemble.errors):
            if res is None:
                attempted += spec.budget
                failed += spec.budget
            else:
                attempted += res.n_evaluations
    return attempted, failed


# ---------------------------------------------------------------------------
# per-round checks

def _popcount(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x.astype(np.uint64)).astype(np.int64)


def pauli_expectations(psi: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients, <P>) of every term, evaluated on the amplitudes."""
    z = np.arange(psi.size)
    coeffs, values = [], []
    for letters, coeff in h.sorted_items():
        flip = sum(1 << q for q, l in enumerate(letters) if l in "XY")
        sign = sum(1 << q for q, l in enumerate(letters) if l in "YZ")
        phase = 1j ** letters.count("Y")
        parity = 1.0 - 2.0 * (_popcount(z & sign) & 1)
        val = phase * np.sum(np.conj(psi[z ^ flip]) * parity * psi)
        coeffs.append(coeff.real)
        values.append(val.real)
    return np.array(coeffs), np.array(values)


def _expect(h_own, vec_or_rho) -> float:
    if vec_or_rho.ndim == 1:
        return float(np.vdot(vec_or_rho, h_own @ vec_or_rho).real)
    return float(np.real(np.sum(h_own.toarray().T * vec_or_rho)))


def check_round(spec: Spec, refs: References, results: list[RoundResult],
                check_seed: int) -> list[str]:
    msgs: list[str] = []
    for r in results:
        p, ens = r.point, r.ensemble
        label = p.point.label
        done = [res for res in ens.results if res is not None]
        for err in ens.errors:
            if err is not None:
                msgs.append(f"FAIL {label}: trial error {err}")
        if not done:
            continue
        if spec.active is None:
            evals = sum(res.n_evaluations for res in done)
            low = min(min(res.energy_trace) for res in done)
            ok = (len(done) == spec.trials
                  and evals == spec.trials * spec.budget
                  and low >= refs.fock_floor - ENERGY_TOL)
            msgs.append(f"{'ok  ' if ok else 'FAIL'} {label}: {len(done)}/"
                        f"{spec.trials} trials, {evals} evaluations "
                        f"(= {spec.trials}x{spec.budget}); lowest energy "
                        f"{low:.10f} >= Fock-space floor "
                        f"{refs.fock_floor:.10f}")
            msgs.append(f"info {label}: best {low:.10f}, exact "
                        f"{p.reference:.10f}, RHF "
                        f"{vqesim.pipeline.hf_energy(p.problem):.10f}")
            continue
        res = done[0]
        circuit = p.circuit.bind(res.best_theta)
        hf = vqesim.pipeline.hf_energy(p.problem)
        if p.point.t1_us is not None:
            msgs += _check_noisy(p, refs, res, circuit)
        elif p.point.n_shots == 0:
            low = min(res.energy_trace)
            ok = low >= refs.sector_ground - ENERGY_TOL
            msgs.append(f"{'ok  ' if ok else 'FAIL'} {label}: lowest of "
                        f"{res.n_evaluations} energies {low:.10f} >= sector "
                        f"ground {refs.sector_ground:.10f}")
        else:
            msgs += _check_sampled(p, refs, circuit, check_seed)
        msgs.append(f"info {label}: best {res.best_energy:.10f}, exact "
                    f"{p.reference:.10f}, error "
                    f"{res.best_energy - p.reference:.2e}, HF {hf:.10f} "
                    f"({'below' if res.best_energy < hf else 'not below'} HF)")
    if spec.sweep[0].t1_us is not None:
        msgs += _check_weak_noise(results[-1], refs)
    return msgs


def _check_sampled(p: Prepared, refs: References, circuit,
                   check_seed: int) -> list[str]:
    e_core = p.problem.e_core
    psi = vqesim.simulator.run_statevector(circuit).amplitudes
    coeffs, values = pauli_expectations(psi, p.problem.hamiltonian)
    exact = e_core + float(coeffs @ values)
    identity = np.array([set(l) == {"I"}
                         for l, _ in p.problem.hamiltonian.sorted_items()])
    var = np.sum((coeffs ** 2 * (1.0 - values ** 2))[~identity])
    sigma = float(np.sqrt(var / p.point.n_shots))
    sampled = e_core + vqesim.simulator.expectation_sampled(
        vqesim.simulator.Statevector(circuit.n_qubits, psi),
        p.problem.hamiltonian, p.point.n_shots, check_seed)
    own = _expect(refs.h_own, psi)
    msgs = []
    ok = abs(sampled - exact) <= 5.0 * sigma
    msgs.append(f"{'ok  ' if ok else 'FAIL'} {p.point.label}: sampled "
                f"{sampled:.8f} within 5 sigma ({sigma:.2e}) of exact "
                f"{exact:.8f} at best theta ({int((~identity).sum())} "
                f"measured terms)")
    ok = abs(own - exact) <= ENERGY_TOL
    msgs.append(f"{'ok  ' if ok else 'FAIL'} {p.point.label}: term sum "
                f"{exact:.12f} equals own Fock-space <H> {own:.12f}")
    return msgs


def _check_noisy(p: Prepared, refs: References, res,
                 circuit) -> list[str]:
    rho = vqesim.simulator.run_density_matrix(circuit, p.config.noise).rho
    trace_err = abs(np.trace(rho) - 1.0)
    herm_err = float(np.max(np.abs(rho - rho.conj().T)))
    low_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    energy = _expect(refs.h_own, rho)
    label = p.point.label
    ok = trace_err <= 1e-12 and herm_err <= 1e-12 and low_eig >= -1e-10
    msgs = [f"{'ok  ' if ok else 'FAIL'} {label}: rho at best theta has "
            f"|tr-1| {trace_err:.1e}, |rho-rho^H| {herm_err:.1e}, "
            f"lowest eigenvalue {low_eig:.1e}"]
    ok = (energy >= refs.fock_floor - ENERGY_TOL
          and abs(energy - res.best_energy) <= ENERGY_TOL)
    msgs.append(f"{'ok  ' if ok else 'FAIL'} {label}: own Tr(rho H) "
                f"{energy:.12f} equals best energy {res.best_energy:.12f} "
                f"and lies above the Fock-space floor {refs.fock_floor:.10f}")
    return msgs


def _check_weak_noise(r: RoundResult, refs: References) -> list[str]:
    res = next(x for x in r.ensemble.results if x is not None)
    circuit = r.point.circuit.bind(res.best_theta)
    weak = NoiseModel(t1_us=WEAK_NOISE_US, t2_us=WEAK_NOISE_US)
    rho = vqesim.simulator.run_density_matrix(circuit, weak).rho
    psi = vqesim.simulator.run_statevector(circuit).amplitudes
    e_dm, e_sv = _expect(refs.h_own, rho), _expect(refs.h_own, psi)
    ok = abs(e_dm - e_sv) <= REFERENCE_TOL
    return [f"{'ok  ' if ok else 'FAIL'} weak-noise limit (T1 = T2 = "
            f"{WEAK_NOISE_US:g} us): density matrix {e_dm:.12f} vs "
            f"statevector {e_sv:.12f}"]
