"""The VQE loop: derivative-free minimization and multi-trial ensembles.

"1000 iterations" is counted in objective evaluations; the evaluation
budget is enforced exactly by the objective wrapper regardless of what
the underlying optimizer would do. Shot-noise seeds are drawn from a
per-run PCG64 stream so identical configurations replay identically.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.optimize

from .ansatz import ParameterizedCircuit
from .pauli import PauliSum
from .simulator import (DensityMatrix, NoiseModel, expectation_exact,
                        expectation_sampled, run_density_matrix,
                        run_statevector)


class VqeError(RuntimeError):
    pass


@dataclass(frozen=True)
class VqeConfig:
    max_iterations: int = 1000
    optimizer: str = "cobyla"            # or "nelder_mead"
    n_shots: int = 0                     # 0 = exact expectation
    noise: Optional[NoiseModel] = None
    initial_guess: Union[str, Sequence[float]] = "random"  # zeros|random|vector
    rng_seed: int = 0
    cobyla_rhobeg: float = 0.5
    cobyla_rhoend: float = 1e-6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise VqeError("max_iterations must be >= 1")
        if self.n_shots < 0:
            raise VqeError("n_shots must be >= 0")
        if self.optimizer not in ("cobyla", "nelder_mead"):
            raise VqeError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class VqeResult:
    best_energy: float
    best_theta: np.ndarray
    energy_trace: list[float]
    n_evaluations: int
    converged: bool
    seed: int = 0

    def to_json_dict(self, include_trace: bool = True) -> dict:
        out = {"seed": self.seed, "best_energy": self.best_energy,
               "n_evaluations": self.n_evaluations,
               "converged": self.converged,
               "best_theta": [float(x) for x in self.best_theta]}
        if include_trace:
            out["trace"] = [float(e) for e in self.energy_trace]
        return out


@dataclass
class TrialEnsemble:
    results: list[Optional[VqeResult]]
    errors: list[Optional[str]]
    summary: dict

    def to_json_dict(self, include_trace: bool = False) -> dict:
        return {
            "trials": [r.to_json_dict(include_trace) if r is not None
                       else {"error": e}
                       for r, e in zip(self.results, self.errors)],
            "summary": self.summary,
        }


class _BudgetExhausted(Exception):
    pass


def run_optimizer(objective: Callable[[np.ndarray], float],
                  x0: np.ndarray, max_evals: int, method: str = "cobyla",
                  rhobeg: float = 0.5, rhoend: float = 1e-6):
    """Minimize with an exact evaluation budget.

    Returns (best_x, best_f, n_evals, trace) where trace holds every
    observed objective value in evaluation order.
    """
    x0 = np.asarray(x0, dtype=float)
    trace: list[float] = []
    best = {"f": np.inf, "x": x0.copy()}

    def wrapped(x):
        if len(trace) >= max_evals:
            raise _BudgetExhausted
        f = float(objective(np.asarray(x, dtype=float)))
        if not np.isfinite(f):
            raise VqeError(f"non-finite objective value {f} at evaluation "
                           f"{len(trace) + 1}")
        trace.append(f)
        if f < best["f"]:
            best["f"] = f
            best["x"] = np.array(x, dtype=float)
        return f

    try:
        if x0.size == 0:
            wrapped(x0)  # nothing to optimize; record the single energy
        elif method == "cobyla":
            # COBYLA needs at least n + 2 evaluations; wrapped enforces the
            # budget, so asking for fewer would only draw a scipy warning
            scipy.optimize.minimize(
                wrapped, x0, method="COBYLA",
                options={"rhobeg": rhobeg, "tol": rhoend,
                         "maxiter": max(max_evals, x0.size + 2)})
        elif method == "nelder_mead":
            scipy.optimize.minimize(
                wrapped, x0, method="Nelder-Mead",
                options={"maxfev": max_evals, "xatol": rhoend,
                         "fatol": rhoend})
        else:
            raise VqeError(f"unknown optimizer {method!r}")
    except _BudgetExhausted:
        pass
    return best["x"], best["f"], len(trace), trace


def make_energy_fn(c: ParameterizedCircuit, h: PauliSum, e_core: float,
                   cfg: VqeConfig):
    """Objective E(theta) = e_core + <H> under the configured execution mode."""
    if c.n_qubits != h.n_qubits:
        raise VqeError("circuit / Hamiltonian qubit-count mismatch")
    noisy = cfg.noise is not None
    shot_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.rng_seed, spawn_key=(1,)))

    def energy(theta: np.ndarray) -> float:
        bound = c.bind(theta)
        if noisy:
            state = run_density_matrix(bound, cfg.noise)
        else:
            state = run_statevector(bound)
        if cfg.n_shots > 0:
            seed = int(shot_rng.integers(0, 2 ** 63 - 1))
            val = expectation_sampled(state, h, cfg.n_shots, seed)
        else:
            val = expectation_exact(state, h)
        return e_core + val

    return energy


def _initial_theta(cfg: VqeConfig, n_parameters: int) -> np.ndarray:
    guess = cfg.initial_guess
    if isinstance(guess, str):
        if guess == "zeros":
            return np.zeros(n_parameters)
        if guess in ("random", "random_uniform"):
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=cfg.rng_seed, spawn_key=(0,)))
            # uniform on (-pi, pi]
            return np.pi - rng.uniform(0.0, 2.0 * np.pi, size=n_parameters)
        raise VqeError(f"unknown initial guess {guess!r}")
    theta = np.asarray(guess, dtype=float)
    if theta.shape != (n_parameters,):
        raise VqeError(f"initial guess length {theta.shape} does not match "
                       f"{n_parameters} parameters")
    return theta


def minimize(c: ParameterizedCircuit, h: PauliSum, e_core: float,
             cfg: VqeConfig) -> VqeResult:
    """Run one VQE optimization and return the best observed point."""
    energy = make_energy_fn(c, h, e_core, cfg)
    theta0 = _initial_theta(cfg, c.n_parameters)
    best_x, best_f, n_evals, trace = run_optimizer(
        energy, theta0, cfg.max_iterations, method=cfg.optimizer,
        rhobeg=cfg.cobyla_rhobeg, rhoend=cfg.cobyla_rhoend)
    return VqeResult(best_energy=best_f, best_theta=best_x,
                     energy_trace=trace, n_evaluations=n_evals,
                     converged=n_evals < cfg.max_iterations,
                     seed=cfg.rng_seed)


def derive_trial_seeds(base_seed: int, n_trials: int) -> list[int]:
    ss = np.random.SeedSequence(base_seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(n_trials)]


def summarize(energies: Sequence[float]) -> dict:
    e = np.asarray(sorted(energies), dtype=float)
    if e.size == 0:
        return {"n": 0}
    q1, med, q3 = np.percentile(e, [25, 50, 75])
    return {"n": int(e.size), "min": float(e[0]), "q1": float(q1),
            "median": float(med), "q3": float(q3), "max": float(e[-1]),
            "mean": float(e.mean())}


def run_trials(c: ParameterizedCircuit, h: PauliSum, e_core: float,
               cfg: VqeConfig, n_trials: int, jobs: int = 1) -> TrialEnsemble:
    """Independent VQE trials with derived per-trial seeds.

    Per-trial failures are recorded in the errors slot rather than raised.
    Results are merged by trial index, so concurrency does not affect the
    outcome.
    """
    if n_trials < 1:
        raise VqeError("n_trials must be >= 1")
    seeds = derive_trial_seeds(cfg.rng_seed, n_trials)
    configs = [replace(cfg, rng_seed=s) for s in seeds]

    def one(trial_cfg):
        return minimize(c, h, e_core, trial_cfg)

    results: list[Optional[VqeResult]] = [None] * n_trials
    errors: list[Optional[str]] = [None] * n_trials
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(one, tc) for tc in configs]
            for i, fut in enumerate(futures):
                try:
                    results[i] = fut.result()
                except Exception as exc:
                    errors[i] = f"{type(exc).__name__}: {exc}"
    else:
        for i, tc in enumerate(configs):
            try:
                results[i] = one(tc)
            except Exception as exc:
                errors[i] = f"{type(exc).__name__}: {exc}"
    energies = [r.best_energy for r in results if r is not None]
    return TrialEnsemble(results=results, errors=errors,
                         summary=summarize(energies))
