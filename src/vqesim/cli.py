"""Command-line front end: geometry emission, exact references, VQE campaigns.

Exit codes: 0 success, 1 validation error, 2 runtime error. The default
output directory comes from $VQESIM_OUT_DIR (falling back to the current
directory). All result files are deterministic for a fixed seed; wall-clock
timestamps appear only in the campaign metadata file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .exact import MAX_QUBITS, ground_state, one_rdm
from .geometry import DISTORTIONS
from .pipeline import Problem, build_ansatz, hf_energy, mp2_vector, prepare_problem
from .simulator import NoiseModel
from .vqe import INITIAL_GUESSES, VqeConfig, run_trials


class ValidationError(ValueError):
    pass


def _out_dir(arg: str | None) -> Path:
    base = arg or os.environ.get("VQESIM_OUT_DIR") or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def cmd_geometry(args) -> int:
    out = _out_dir(args.out_dir)
    builder = DISTORTIONS[args.distortion]
    for value in args.params:
        geom = builder(value)
        name = f"benzene_d{args.distortion}_{value:g}.xyz"
        (out / name).write_text(geom.to_xyz())
        print(f"wrote {out / name}")
    return 0


def _problem_from_args(args, fcidump=None, sidecar=None) -> Problem:
    return prepare_problem(
        fcidump or args.fcidump[0],
        sidecar_path=sidecar if sidecar is not None else args.sidecar,
        eps1=args.eps1, eps2=args.eps2,
        active=args.active, frozen=args.frozen)


def cmd_exact(args) -> int:
    if len(args.fcidump) != 1:
        raise ValidationError("exact takes a single FCIDUMP file")
    problem = _problem_from_args(args, fcidump=args.fcidump[0])
    n_qubits = problem.n_qubits
    if n_qubits > MAX_QUBITS:
        raise ValidationError(f"active space needs {n_qubits} qubits, above "
                              f"the {MAX_QUBITS}-qubit cap")
    result = ground_state(problem.hamiltonian, problem.n_electrons,
                          problem.e_core)
    rdm = one_rdm(result.ground_state, problem.integrals.n_orbitals)
    data = {"ground_energy": result.ground_energy,
            "n_qubits": n_qubits,
            "n_electrons": problem.n_electrons,
            "noons": [float(x) for x in rdm.noons]}
    out_path = Path(args.out) if args.out else _out_dir(args.out_dir) / "exact.json"
    _write_json(out_path, data)
    print(f"wrote {out_path}")
    return 0


def _noise_from_args(args, t1_us=None) -> NoiseModel | None:
    """The point's NoiseModel; a value it rejects or an unreadable --noise
    file is a ValidationError."""
    try:
        if t1_us is not None:
            return NoiseModel(t1_us=t1_us, t2_us=t1_us)
        if args.noise == "table1":
            return NoiseModel()
        if args.noise:
            return NoiseModel.from_json(Path(args.noise).read_text())
    except (OSError, ValueError, TypeError) as exc:
        source = "--t1-list" if t1_us is not None else "--noise"
        raise ValidationError(f"{source}: {exc}") from exc
    return None


def _campaign_points(args):
    """Yield (label, sweep_value, fcidump, sidecar, n_shots, noise_t1)."""
    sweeps = [bool(getattr(args, "t1_list", None)),
              bool(getattr(args, "shots_list", None)),
              len(args.fcidump) > 1]
    if sum(sweeps) > 1:
        raise ValidationError("exactly one sweep axis is allowed")
    for flag, given in (("--sweep-params", args.sweep_params),
                        ("--sidecar-list", args.sidecar_list)):
        if given and len(args.fcidump) == 1:
            raise ValidationError(f"{flag} needs more than one FCIDUMP")
    if getattr(args, "t1_list", None):
        for t1 in args.t1_list:
            yield f"t1_{t1:g}", t1, args.fcidump[0], args.sidecar, args.shots, t1
    elif getattr(args, "shots_list", None):
        for s in args.shots_list:
            yield f"shots_{s}", s, args.fcidump[0], args.sidecar, s, None
    elif len(args.fcidump) > 1:
        values = args.sweep_params or list(range(len(args.fcidump)))
        if len(values) != len(args.fcidump):
            raise ValidationError("--sweep-params must match the FCIDUMP list")
        sidecars = args.sidecar_list or [args.sidecar] * len(args.fcidump)
        if len(sidecars) != len(args.fcidump):
            raise ValidationError("sidecar list must match the FCIDUMP list")
        for v, f, s in zip(values, args.fcidump, sidecars):
            yield f"param_{v:g}", v, f, s, args.shots, None
    else:
        yield "single", 0.0, args.fcidump[0], args.sidecar, args.shots, None


# least valid value of each count flag of a campaign
_LEAST = {"shots": 0, "trials": 1, "max_iter": 1, "depth": 1, "jobs": 1}


def _check_counts(args) -> None:
    for name, least in _LEAST.items():
        if getattr(args, name) < least:
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"{flag} must be >= {least}")
    if any(s < 0 for s in getattr(args, "shots_list", None) or []):
        raise ValidationError("--shots-list values must be >= 0")


def _check_initial(args) -> None:
    if args.initial not in INITIAL_GUESSES + ("mp2",):
        raise ValidationError(
            f"--initial must be one of {', '.join(INITIAL_GUESSES)} or mp2, "
            f"got {args.initial!r}")
    if args.initial == "mp2" and args.ansatz != "qucc":
        raise ValidationError("MP2 initialization requires qucc")


def _run_campaign(args) -> int:
    _check_counts(args)
    _check_initial(args)
    # every point's noise model is built first, so bad noise input writes
    # nothing
    points = [(label, value, fcidump, sidecar, n_shots,
               _noise_from_args(args, t1_us=t1))
              for label, value, fcidump, sidecar, n_shots, t1
              in _campaign_points(args)]
    out = _out_dir(args.out_dir)
    rows = []
    failures = []
    campaign_cfg = {k: v for k, v in sorted(vars(args).items())
                    if k != "func" and v is not None}
    for label, value, fcidump, sidecar, n_shots, noise in points:
        try:
            problem = _problem_from_args(args, fcidump=fcidump, sidecar=sidecar)
            circuit, gen = build_ansatz(args.ansatz, problem, depth=args.depth)
            initial = (mp2_vector(problem, gen) if args.initial == "mp2"
                       else args.initial)
            cfg = VqeConfig(max_iterations=args.max_iter,
                            optimizer=args.optimizer, n_shots=n_shots,
                            noise=noise, initial_guess=initial,
                            rng_seed=args.seed)
            ensemble = run_trials(circuit, problem.hamiltonian,
                                  problem.e_core, cfg, args.trials,
                                  jobs=args.jobs)
            reference = (ground_state(problem.hamiltonian,
                                      problem.n_electrons,
                                      problem.e_core).ground_energy
                         if problem.n_qubits <= MAX_QUBITS else None)
            initial_energy = hf_energy(problem)
            point = ensemble.to_json_dict(include_trace=args.save_traces)
            point["sweep_value"] = value
            point["reference_energy"] = reference
            point["initial_energy"] = initial_energy
            _write_json(out / f"point_{label}.json", point)
            s = ensemble.summary
            rows.append([value, s.get("mean"), s.get("min"), s.get("q1"),
                         s.get("median"), s.get("q3"), s.get("max"),
                         reference, initial_energy])
        except Exception as exc:
            failures.append({"point": label,
                             "error": f"{type(exc).__name__}: {exc}"})
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sweep_value", "mean", "min", "q1", "median", "q3",
                     "max", "reference_energy", "initial_energy"])
    writer.writerows(rows)
    (out / "summary.csv").write_text(buf.getvalue())
    cfg_hash = hashlib.sha256(
        json.dumps(campaign_cfg, sort_keys=True, default=str).encode()).hexdigest()
    _write_json(out / "campaign.json", {
        "config": {k: str(v) for k, v in campaign_cfg.items()},
        "config_hash": cfg_hash,
        "version": __version__,
        "seed": args.seed,
        "stack": {"python": platform.python_version(),
                  "numpy": np.__version__, "scipy": scipy.__version__},
        "failures": failures,
        "metadata": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                time.gmtime())},
    })
    print(f"wrote {out / 'summary.csv'}")
    if failures:
        for f in failures:
            print(f"point {f['point']} failed: {f['error']}", file=sys.stderr)
        return 2
    return 0


def _add_problem_args(p):
    p.add_argument("--fcidump", nargs="+", required=True)
    p.add_argument("--sidecar")
    p.add_argument("--eps1", type=float)
    p.add_argument("--eps2", type=float)
    p.add_argument("--active", type=int, nargs="+")
    p.add_argument("--frozen", type=int, nargs="+")
    p.add_argument("--out-dir")


def _add_vqe_args(p):
    _add_problem_args(p)
    p.add_argument("--ansatz", required=True,
                   choices=["he_v1", "he_v2", "he_v3", "qucc"])
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--optimizer", default="cobyla",
                   choices=["cobyla", "nelder_mead"])
    p.add_argument("--initial", default="random",
                   help="zeros | random | mp2")
    p.add_argument("--noise", help="noise JSON path, or 'table1'")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--sweep-params", type=float, nargs="+")
    p.add_argument("--sidecar-list", nargs="+")
    p.add_argument("--save-traces", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqesim",
        description="VQE simulation engine for molecular ground states")
    sub = parser.add_subparsers(dest="command", required=True)

    p_geo = sub.add_parser("geometry", help="emit benzene distortion XYZ files")
    p_geo.add_argument("--distortion", type=int, required=True, choices=[1, 2, 3])
    p_geo.add_argument("--params", type=float, nargs="+", required=True)
    p_geo.add_argument("--out-dir")
    p_geo.set_defaults(func=cmd_geometry)

    p_exact = sub.add_parser("exact", help="exact reference energy and NOONs")
    _add_problem_args(p_exact)
    p_exact.add_argument("--out")
    p_exact.set_defaults(func=cmd_exact)

    p_vqe = sub.add_parser("vqe", help="run a VQE campaign")
    _add_vqe_args(p_vqe)
    p_vqe.set_defaults(func=_run_campaign)

    p_t1 = sub.add_parser("sweep-t1", help="VQE over a list of T1 (= T2) values")
    _add_vqe_args(p_t1)
    p_t1.add_argument("--t1-list", type=float, nargs="+", required=True)
    p_t1.set_defaults(func=_run_campaign)

    p_shots = sub.add_parser("sweep-shots", help="VQE over a list of shot counts")
    _add_vqe_args(p_shots)
    p_shots.add_argument("--shots-list", type=int, nargs="+", required=True)
    p_shots.set_defaults(func=_run_campaign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
