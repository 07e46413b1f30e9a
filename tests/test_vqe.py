import numpy as np
import pytest

from vqesim.ansatz import Gate, ParameterizedCircuit
from vqesim.pauli import PauliSum
from vqesim.simulator import NoiseModel
from vqesim.vqe import (TrialEnsemble, VqeConfig, VqeError, VqeResult,
                        derive_trial_seeds, make_energy_fn, minimize,
                        run_optimizer, run_trials, summarize)


def ry_circuit():
    return ParameterizedCircuit(1, (Gate("RY", (0,), param=(0, 1.0)),), 1)


Z1 = PauliSum(1, {"Z": 1.0})


# ---------------------------------------------------------------------------
# optimizer contract

def test_quadratic_four_dims():
    target = np.array([0.3, -0.7, 1.1, 0.05])

    def f(x):
        return float(np.sum((x - target) ** 2))

    x, fbest, n, trace = run_optimizer(f, np.zeros(4), 200)
    assert n <= 200
    assert fbest < 1e-6


@pytest.mark.filterwarnings("error")
def test_budget_one_returns_initial_value():
    def f(x):
        return float(np.sum(x ** 2)) + 5.0

    x, fbest, n, trace = run_optimizer(f, np.array([1.0, 2.0]), 1)
    assert n == 1
    assert fbest == pytest.approx(10.0)
    np.testing.assert_array_equal(x, [1.0, 2.0])


def test_rosenbrock_benchmark():
    def rosen(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)

    # the simplex method tracks the curved valley to the optimum
    _, fbest, n, _ = run_optimizer(rosen, np.zeros(2), 1000,
                                   method="nelder_mead")
    assert fbest < 1e-2
    assert n <= 1000
    # the linear-approximation method makes progress but is known to stall
    # in the valley; it must still improve on the start and obey the budget
    _, fcob, ncob, _ = run_optimizer(rosen, np.zeros(2), 1000)
    assert fcob < rosen(np.zeros(2))
    assert ncob <= 1000


def test_budget_enforced_exactly():
    calls = []

    def f(x):
        calls.append(1)
        return float(np.sum(x ** 2))

    _, _, n, trace = run_optimizer(f, np.ones(3), 25)
    assert n == len(trace) == len(calls) == 25


def test_best_so_far_monotone():
    def f(x):
        return float(np.sin(3 * x[0]) + 0.1 * x[0] ** 2)

    _, _, _, trace = run_optimizer(f, np.array([2.0]), 120)
    best = np.minimum.accumulate(trace)
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


def test_non_finite_objective_aborts():
    def f(x):
        return float("nan")

    with pytest.raises(VqeError):
        run_optimizer(f, np.zeros(1), 10)


def test_nelder_mead_also_satisfies_contract():
    def f(x):
        return float(np.sum((x - 0.4) ** 2))

    _, fbest, n, _ = run_optimizer(f, np.zeros(3), 500, method="nelder_mead")
    assert fbest < 1e-6 and n <= 500


# ---------------------------------------------------------------------------
# minimize

def test_ry_z_analytic_minimum():
    cfg = VqeConfig(max_iterations=200, initial_guess="zeros", rng_seed=0)
    res = minimize(ry_circuit(), Z1, 0.0, cfg)
    assert abs(res.best_energy - (-1.0)) < 1e-6
    assert abs(abs(res.best_theta[0]) - np.pi) < 1e-3


def test_ry_z_nelder_mead():
    cfg = VqeConfig(max_iterations=400, optimizer="nelder_mead",
                    initial_guess=[2.0], rng_seed=0)
    res = minimize(ry_circuit(), Z1, 0.0, cfg)
    assert abs(res.best_energy - (-1.0)) < 1e-6


def test_minimize_applies_core_energy():
    cfg = VqeConfig(max_iterations=100, initial_guess="zeros")
    res = minimize(ry_circuit(), Z1, 3.0, cfg)
    assert abs(res.best_energy - 2.0) < 1e-6


def test_minimize_respects_budget():
    cfg = VqeConfig(max_iterations=7, initial_guess="zeros")
    res = minimize(ry_circuit(), Z1, 0.0, cfg)
    assert res.n_evaluations == 7
    assert not res.converged
    assert res.best_energy == min(res.energy_trace)


def test_energy_fn_qubit_mismatch():
    with pytest.raises(VqeError):
        make_energy_fn(ry_circuit(), PauliSum(2, {"ZZ": 1.0}), 0.0, VqeConfig())


def test_initial_guess_modes():
    from vqesim.vqe import _initial_theta
    cfg = VqeConfig(initial_guess="zeros")
    np.testing.assert_array_equal(_initial_theta(cfg, 3), np.zeros(3))
    cfg = VqeConfig(initial_guess="random", rng_seed=5)
    t1 = _initial_theta(cfg, 50)
    t2 = _initial_theta(cfg, 50)
    np.testing.assert_array_equal(t1, t2)   # deterministic per seed
    assert np.all(t1 > -np.pi) and np.all(t1 <= np.pi)
    cfg = VqeConfig(initial_guess=[0.1, 0.2])
    np.testing.assert_array_equal(_initial_theta(cfg, 2), [0.1, 0.2])
    with pytest.raises(VqeError):
        _initial_theta(VqeConfig(initial_guess="bogus"), 2)
    with pytest.raises(VqeError):
        _initial_theta(VqeConfig(initial_guess=[0.1]), 2)


def test_config_validation():
    with pytest.raises(VqeError):
        VqeConfig(max_iterations=0)
    with pytest.raises(VqeError):
        VqeConfig(n_shots=-1)
    with pytest.raises(VqeError):
        VqeConfig(optimizer="bfgs")


def test_shot_noise_path_is_deterministic():
    cfg = VqeConfig(max_iterations=30, n_shots=64, initial_guess="random",
                    rng_seed=9)
    r1 = minimize(ry_circuit(), Z1, 0.0, cfg)
    r2 = minimize(ry_circuit(), Z1, 0.0, cfg)
    assert r1.energy_trace == r2.energy_trace


def test_noisy_best_theta_reevaluates_above_ground():
    # the sampled estimate may dip below the true minimum, the state cannot
    cfg = VqeConfig(max_iterations=60, n_shots=32, initial_guess="random",
                    rng_seed=3, noise=NoiseModel(t1_us=100.0, t2_us=100.0))
    res = minimize(ry_circuit(), Z1, 0.0, cfg)
    exact_cfg = VqeConfig(max_iterations=1, initial_guess=list(res.best_theta))
    energy = make_energy_fn(ry_circuit(), Z1, 0.0, exact_cfg)
    assert energy(res.best_theta) >= -1.0 - 1e-9


# ---------------------------------------------------------------------------
# trials

def test_run_trials_single_collapses_to_result():
    cfg = VqeConfig(max_iterations=80, initial_guess="random", rng_seed=1)
    ens = run_trials(ry_circuit(), Z1, 0.0, cfg, 1)
    assert ens.summary["n"] == 1
    assert ens.summary["min"] == ens.results[0].best_energy
    assert ens.summary["min"] == ens.summary["max"] == ens.summary["median"]


def test_run_trials_deterministic_and_ordered():
    cfg = VqeConfig(max_iterations=40, initial_guess="random", rng_seed=2)
    a = run_trials(ry_circuit(), Z1, 0.0, cfg, 6)
    b = run_trials(ry_circuit(), Z1, 0.0, cfg, 6)
    assert [r.best_energy for r in a.results] == [r.best_energy for r in b.results]
    s = a.summary
    assert s["min"] <= s["q1"] <= s["median"] <= s["q3"] <= s["max"]


def test_run_trials_jobs_parallel_matches_serial():
    cfg = VqeConfig(max_iterations=30, initial_guess="random", rng_seed=4)
    serial = run_trials(ry_circuit(), Z1, 0.0, cfg, 4, jobs=1)
    parallel = run_trials(ry_circuit(), Z1, 0.0, cfg, 4, jobs=4)
    assert ([r.best_energy for r in serial.results]
            == [r.best_energy for r in parallel.results])


def test_run_trials_distinct_seeds_give_spread():
    seeds = derive_trial_seeds(0, 10)
    assert len(set(seeds)) == 10
    cfg = VqeConfig(max_iterations=3, initial_guess="random", rng_seed=0)
    ens = run_trials(ry_circuit(), Z1, 0.0, cfg, 10)
    starts = [r.energy_trace[0] for r in ens.results]
    assert max(starts) - min(starts) > 0.0


def test_run_trials_records_per_trial_errors():
    cfg = VqeConfig(max_iterations=5, initial_guess=[0.1, 0.2], rng_seed=0)
    ens = run_trials(ry_circuit(), Z1, 0.0, cfg, 3)   # wrong guess length
    assert all(r is None for r in ens.results)
    assert all(e is not None for e in ens.errors)
    assert ens.summary == {"n": 0}


def test_run_trials_validates_count():
    with pytest.raises(VqeError):
        run_trials(ry_circuit(), Z1, 0.0, VqeConfig(), 0)


def test_result_json_round_trip():
    res = VqeResult(best_energy=-1.0, best_theta=np.array([3.14]),
                    energy_trace=[0.0, -1.0], n_evaluations=2,
                    converged=True, seed=42)
    d = res.to_json_dict()
    assert d["seed"] == 42 and d["trace"] == [0.0, -1.0]
    assert "trace" not in res.to_json_dict(include_trace=False)
    ens = TrialEnsemble([res], [None], summarize([-1.0]))
    j = ens.to_json_dict()
    assert j["summary"]["n"] == 1
    assert j["trials"][0]["best_energy"] == -1.0


def test_summarize_statistics():
    s = summarize([3.0, 1.0, 2.0, 4.0])
    assert s["min"] == 1.0 and s["max"] == 4.0
    assert s["mean"] == 2.5 and s["median"] == 2.5
    assert summarize([]) == {"n": 0}
