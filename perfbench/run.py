"""vqesim benchmark: three paper workloads on a PPP benzene pi model.

    python3 perfbench/run.py --workload he_ensemble --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the program from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# BLAS threads would compete with the trial threads for the two CPUs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {"evals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_LAYERS = {
    "pipeline.prepare_problem_s": "pipeline.prepare_problem",
    "fermion.jordan_wigner_s": "fermion.jordan_wigner",
    "pauli.sparse_matrix_s": "pauli.sparse_matrix",
    "exact.ground_state_s": "exact.ground_state",
    "ansatz.build_s": "ansatz.build",
}
LOOP_LAYERS = ("ansatz.bind", "simulator.statevector",
               "simulator.density_matrix", "simulator.expectation_exact",
               "simulator.expectation_sampled")
LOOP_COUNTS = {
    "simulator.gates_applied": ("gates_applied", "count"),
    "simulator.statevector_bytes_computed": ("statevector_bytes", "B"),
    "simulator.density_matrix_gates_applied":
        ("density_matrix_gates_applied", "count"),
    "simulator.idle_channels_applied": ("idle_channels_applied", "count"),
    "simulator.density_matrix_bytes_computed": ("density_matrix_bytes", "B"),
    "simulator.shots_drawn": ("shots_drawn", "count"),
}
TAIL_PERCENTILES = (99, 95, 90, 75)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def per_layer_metrics(tracer, loop_start, rounds, jobs, setup_nnz,
                      untraced_rate, traced_rate):
    """Set-up layers once per run; loop layers per round of the workload."""
    import numpy as np

    setup_spans = [s for s in tracer.spans if s[2] <= loop_start]
    loop_spans = [s for s in tracer.spans if s[1] >= loop_start]

    def total(spans, name):
        return float(sum(end - start for n, start, end, *_ in spans
                         if n == name))

    def calls(spans, name):
        return sum(1 for s in spans if s[0] == name)

    m = {}
    for metric, name in SETUP_LAYERS.items():
        m[metric] = (total(setup_spans, name), "s")
    m["pauli.sparse_nnz"] = (setup_nnz, "count")
    for name in LOOP_LAYERS:
        m[f"{name}_calls"] = (calls(loop_spans, name) / rounds, "count")
        m[f"{name}_s"] = (total(loop_spans, name) / rounds, "s")
    for metric, (key, unit) in LOOP_COUNTS.items():
        m[metric] = (tracer.counts.get(key, 0.0) / rounds, unit)
    evals = np.array([end - start for n, start, end, *_ in loop_spans
                      if n == "vqe.evaluation"]) * 1e3
    m["vqe.evaluations"] = (evals.size / rounds, "count")
    m["vqe.eval_ms_p50"] = (float(np.median(evals)), "ms")
    tail = next((q for q in TAIL_PERCENTILES
                 if evals.size * (100 - q) / 100 >= 10), 50)
    m["vqe.eval_ms_tail"] = (float(np.percentile(evals, tail)), "ms")
    m["vqe.eval_tail_percentile"] = (float(tail), "pct")
    trial_s = total(loop_spans, "vqe.trial")
    m["vqe.optimizer_self_s"] = (
        (trial_s - total(loop_spans, "vqe.evaluation")) / rounds, "s")
    m["vqe.parallel_efficiency"] = (
        trial_s / (total(loop_spans, "vqe.run_trials") * jobs), "ratio")
    m["trace.overhead_pct"] = (
        100.0 * (untraced_rate - traced_rate) / untraced_rate, "pct")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not (SRC / "vqesim" / "__init__.py").is_file():
        _fail(f"program sources not found under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))

    import vqesim  # noqa: F401  (the program's import is part of set-up)
    import workloads
    from hostspeed import HostSpeed
    from spans import Tracer

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}")

    t_gen = time.perf_counter()
    inputs = workloads.make_inputs(spec, args.seed, OUT / "inputs")
    gen_s = time.perf_counter() - t_gen

    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer.installed():
            points = workloads.setup(spec, inputs)
    else:
        points = workloads.setup(spec, inputs)
    setup_s = time.perf_counter() - T0 - gen_s
    setup_nnz = sum(tracer.nnz.values()) if tracer else 0

    refs = workloads.own_references(spec, inputs)
    report = workloads.check_problem(spec, inputs, refs, points)

    attempted = failed = 0
    evals_done = 0
    loop_s = 0.0
    rounds = 0
    untraced_rate = None
    host = None if tracer else HostSpeed()
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and untraced_rate is not None
        if traced and rounds == 0:
            loop_start = time.perf_counter()
        seed = workloads.round_seed(args.seed, rounds)
        if traced:
            with tracer.installed():
                results = workloads.run_round(spec, points, seed)
        else:
            results = workloads.run_round(spec, points, seed, host)
        a, f = workloads.count_evaluations(spec, results)
        seconds = sum(r.seconds for r in results)
        report += workloads.check_round(spec, refs, results,
                                        workloads.round_seed(args.seed,
                                                             10_000 + rounds))
        if tracer is not None and untraced_rate is None:
            # one untraced round first, as the base of the trace overhead
            untraced_rate = (a - f) / seconds
            continue
        attempted += a
        failed += f
        evals_done += a - f
        loop_s += seconds
        rounds += 1
        if loop_s >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if spec.active is not None:
        report += workloads.check_full_space(inputs, refs)

    correct = not any(line.startswith("FAIL") for line in report)
    for line in report:
        print(line)
    print(f"info {args.workload}: {rounds} round(s), {evals_done} "
          f"evaluations in {loop_s:.3f} s; trials attempted "
          f"{rounds * spec.trials * len(spec.sweep)}, evaluations attempted "
          f"{attempted}, failed {failed}; inputs written in {gen_s:.3f} s; "
          f"{evals_done / loop_s:.4f} evaluations/s as timed")

    if tracer:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace_{args.workload}_seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"info spans written to {path.relative_to(ROOT)}")
        metrics = per_layer_metrics(tracer, loop_start, rounds, spec.jobs,
                                    setup_nnz, untraced_rate,
                                    evals_done / loop_s)
    else:
        print(f"info host scale {host.scale():.4f}: loop time at reference "
              f"speed over loop time as timed")
        metrics = {"evals_per_s": (evals_done / (loop_s * host.scale()),
                                   END_TO_END["evals_per_s"]),
                   "setup_s": (setup_s, END_TO_END["setup_s"]),
                   "peak_rss_mb": (peak_rss_mb, END_TO_END["peak_rss_mb"])}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
