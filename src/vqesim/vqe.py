"""The VQE loop: derivative-free minimization and multi-trial ensembles.

"1000 iterations" is counted in objective evaluations; the evaluation
budget is enforced exactly by the objective wrapper regardless of what
the underlying optimizer would do. Shot-noise seeds are drawn from a
per-run PCG64 stream so identical configurations replay identically.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.optimize

from .ansatz import ParameterizedCircuit
from .pauli import PauliSum
from .simulator import (NoiseModel, expectation_exact, expectation_sampled,
                        run_density_matrix, run_statevector)

COBYLA_RHOBEG = 0.5        # initial trust-region radius
COBYLA_RHOEND = 1e-6       # final radius; Nelder-Mead's xatol and fatol


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
    stop_reason: str = ""   # "budget" or the optimizer's own message

    def to_json_dict(self, include_trace: bool = True) -> dict:
        out = {"seed": self.seed, "best_energy": self.best_energy,
               "n_evaluations": self.n_evaluations,
               "converged": self.converged,
               "stop_reason": self.stop_reason,
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
                  x0: np.ndarray, max_evals: int, method: str = "cobyla"):
    """Minimize with an exact evaluation budget.

    Returns (best_x, best_f, n_evals, trace, converged, stop_reason) where
    trace holds every observed objective value in evaluation order.
    ``converged`` and ``stop_reason`` are scipy's ``success`` and
    ``message``; when the budget cuts the optimizer off they are False and
    "budget", and with no parameters True and "no parameters".
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

    converged, reason = True, "no parameters"
    try:
        if x0.size == 0:
            wrapped(x0)  # nothing to optimize; record the single energy
        elif method == "cobyla":
            # COBYLA needs at least n + 2 evaluations; wrapped enforces the
            # budget, so asking for fewer would only draw a scipy warning
            res = scipy.optimize.minimize(
                wrapped, x0, method="COBYLA",
                options={"rhobeg": COBYLA_RHOBEG, "tol": COBYLA_RHOEND,
                         "maxiter": max(max_evals, x0.size + 2)})
        elif method == "nelder_mead":
            res = scipy.optimize.minimize(
                wrapped, x0, method="Nelder-Mead",
                options={"maxfev": max_evals, "xatol": COBYLA_RHOEND,
                         "fatol": COBYLA_RHOEND})
        else:
            raise VqeError(f"unknown optimizer {method!r}")
        if x0.size:
            converged, reason = bool(res.success), str(res.message)
    except _BudgetExhausted:
        converged, reason = False, "budget"
    return best["x"], best["f"], len(trace), trace, converged, reason


def make_energy_fn(c: ParameterizedCircuit, h: PauliSum, e_core: float,
                   cfg: VqeConfig):
    """Objective E(theta) = e_core + <H> under the configured execution mode.

    The engines run c at theta directly; no evaluation binds the circuit.
    """
    if c.n_qubits != h.n_qubits:
        raise VqeError("circuit / Hamiltonian qubit-count mismatch")
    noisy = cfg.noise is not None
    shot_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.rng_seed, spawn_key=(1,)))

    def energy(theta: np.ndarray) -> float:
        if noisy:
            state = run_density_matrix(c, cfg.noise, theta)
        else:
            state = run_statevector(c, theta)
        if cfg.n_shots > 0:
            seed = int(shot_rng.integers(0, 2 ** 63 - 1))
            val = expectation_sampled(state, h, cfg.n_shots, seed)
        else:
            val = expectation_exact(state, h)
        return e_core + val

    return energy


# the named initial guesses; any other guess is a vector of parameters
INITIAL_GUESSES = ("zeros", "random")


def _initial_theta(cfg: VqeConfig, n_parameters: int) -> np.ndarray:
    guess = cfg.initial_guess
    if isinstance(guess, str):
        if guess not in INITIAL_GUESSES:
            raise VqeError(f"unknown initial guess {guess!r}")
        if guess == "zeros":
            return np.zeros(n_parameters)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=cfg.rng_seed, spawn_key=(0,)))
        # uniform on (-pi, pi]
        return np.pi - rng.uniform(0.0, 2.0 * np.pi, size=n_parameters)
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
    best_x, best_f, n_evals, trace, converged, reason = run_optimizer(
        energy, theta0, cfg.max_iterations, method=cfg.optimizer)
    return VqeResult(best_energy=best_f, best_theta=best_x,
                     energy_trace=trace, n_evaluations=n_evals,
                     converged=converged, seed=cfg.rng_seed,
                     stop_reason=reason)


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
    if jobs < 1:
        raise VqeError("jobs must be >= 1")
    seeds = derive_trial_seeds(cfg.rng_seed, n_trials)
    configs = [replace(cfg, rng_seed=s) for s in seeds]

    def one(trial_cfg):   # (result, None) or (None, error)
        try:
            return minimize(c, h, e_core, trial_cfg), None
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(one, configs))
    else:
        outcomes = [one(tc) for tc in configs]
    results, errors = map(list, zip(*outcomes))
    energies = [r.best_energy for r in results if r is not None]
    return TrialEnsemble(results=results, errors=errors,
                         summary=summarize(energies))
