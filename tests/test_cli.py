import json
import os

import numpy as np
import pytest

from vqesim.cli import main
from vqesim.exact import MAX_QUBITS
from vqesim.fermion import MolecularIntegrals, write_fcidump


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_geometry_command(tmp_path):
    rc = main(["geometry", "--distortion", "1", "--params", "1.41",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = tmp_path / "benzene_d1_1.41.xyz"
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0] == "12"
    first = out.read_bytes()
    main(["geometry", "--distortion", "1", "--params", "1.41",
          "--out-dir", str(tmp_path)])
    assert out.read_bytes() == first


def test_geometry_multiple_params(tmp_path):
    rc = main(["geometry", "--distortion", "3", "--params", "0.0", "1.5",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "benzene_d3_0.xyz").exists()
    assert (tmp_path / "benzene_d3_1.5.xyz").exists()


@pytest.mark.parametrize("params", [["--params", "1.41", "nan"],
                                    ["--params", "1.41", "inf"],
                                    ["--params=-inf"]],
                         ids=["nan", "inf", "minus_inf"])
def test_geometry_non_finite_param_is_validation_error(tmp_path, params):
    # every geometry is built before any file is written
    rc = main(["geometry", "--distortion", "1", *params,
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("params", [["1.41", "1.41"],
                                    ["1.4100001", "1.4100002"]],
                         ids=["equal", "equal_label"])
def test_geometry_repeated_file_name_is_validation_error(tmp_path, capsys,
                                                         params):
    # "{:g}" names both benzene_d1_1.41.xyz: one would overwrite the other
    rc = main(["geometry", "--distortion", "1", "--params", *params,
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert list(tmp_path.iterdir()) == []
    assert "wrote" not in capsys.readouterr().out


def test_exact_command(tmp_path, h2_path):
    out = tmp_path / "exact.json"
    rc = main(["exact", "--fcidump", h2_path, "--out", str(out)])
    assert rc == 0
    data = read_json(out)
    assert set(data) == {"ground_energy", "n_qubits", "n_electrons", "noons"}
    assert abs(data["ground_energy"] - (-1.1372698361356877)) < 1e-10
    assert data["n_qubits"] == 4 and data["n_electrons"] == 2
    assert abs(sum(data["noons"]) - 2.0) < 1e-6


def test_exact_empty_active_space_is_validation_error(tmp_path, h2_path,
                                                      h2_sidecar_path):
    rc = main(["exact", "--fcidump", h2_path, "--sidecar", h2_sidecar_path,
               "--eps1", "0.001", "--eps2", "1.99",
               "--out", str(tmp_path / "x.json")])
    assert rc == 1


@pytest.mark.parametrize("orbitals", [
    ["--active", "1", "1", "--frozen", "0"],
    ["--active", "1", "2", "--frozen", "0", "0"],
])
def test_exact_repeated_orbital_is_validation_error(tmp_path, toy4_path,
                                                     orbitals):
    rc = main(["exact", "--fcidump", toy4_path, *orbitals,
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert not (tmp_path / "exact.json").exists()


@pytest.mark.parametrize("flags", [["--frozen", "0"], ["--eps1", "0.01"]],
                         ids=["frozen_without_active", "eps1_without_eps2"])
def test_exact_ignored_flag_is_validation_error(tmp_path, toy4_path,
                                                toy4_sidecar_path, flags):
    rc = main(["exact", "--fcidump", toy4_path, "--sidecar",
               toy4_sidecar_path, *flags, "--out-dir", str(tmp_path)])
    assert rc == 1
    assert not (tmp_path / "exact.json").exists()


@pytest.mark.parametrize("noons", [[2.0, 1.5, 0.5], [2.0, 1.0, 0.5, 0.3, 0.2]],
                         ids=["short", "long"])
def test_exact_sidecar_of_wrong_length_is_validation_error(tmp_path, toy4_path,
                                                           capsys, noons):
    side = tmp_path / "side.json"
    side.write_text(json.dumps({"noons": noons}))
    rc = main(["exact", "--fcidump", toy4_path, "--sidecar", str(side),
               "--eps1", "0.02", "--eps2", "0.02", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert f"noons has shape ({len(noons)},)" in capsys.readouterr().err
    assert not (tmp_path / "exact.json").exists()


@pytest.mark.parametrize("content", [
    '{"noons": [NaN, 1.9972, 0.0027, 0.0006]}',
    '{"noons": [Infinity, 1.9972, 0.0027, 0.0006]}',
    '{"orbital_energies": [-0.5, NaN, 0.3, 0.6]}',
    '{"orbital_energies": [-0.5, 0.1, -Infinity, 0.6]}',
], ids=["nan_noon", "inf_noon", "nan_energy", "inf_energy"])
def test_exact_non_finite_sidecar_is_validation_error(tmp_path, toy4_path,
                                                      capsys, content):
    # a NaN NOON passes the sum check and is dropped as a virtual orbital
    side = tmp_path / "side.json"
    side.write_text(content)
    rc = main(["exact", "--fcidump", toy4_path, "--sidecar", str(side),
               "--eps1", "0.02", "--eps2", "0.001", "--out-dir",
               str(tmp_path)])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "exact.json").exists()


@pytest.mark.parametrize("eps2, active", [("0.001", ["0", "1", "2"]),
                                          ("0.02", ["0", "1"])])
def test_exact_noon_selection_matches_the_active_run(tmp_path, toy4_path,
                                                     toy4_sidecar_path, eps2,
                                                     active):
    # the dropped virtual orbitals hold NOON > 0, so the active NOONs do not
    # sum to the active electron count; selection must still succeed
    by_noons, by_active = tmp_path / "noons.json", tmp_path / "active.json"
    assert main(["exact", "--fcidump", toy4_path, "--sidecar",
                 toy4_sidecar_path, "--eps1", "0.02", "--eps2", eps2,
                 "--out", str(by_noons)]) == 0
    assert main(["exact", "--fcidump", toy4_path, "--active", *active,
                 "--out", str(by_active)]) == 0
    assert read_json(by_noons) == read_json(by_active)
    assert read_json(by_noons)["n_qubits"] == 2 * len(active)


@pytest.mark.parametrize("content", [
    '{"orbital_energy": [-0.5, 0.1, 0.3, 0.6]}',
    '{"noons": [1.9995, 1.9972, 0.0027, 0.0006], "note": "x"}',
    '[1.9995, 1.9972, 0.0027, 0.0006]',
    '{}',
], ids=["misspelt_key", "extra_key", "bare_list", "empty_object"])
def test_exact_bad_sidecar_is_validation_error(tmp_path, toy4_path, capsys,
                                               content):
    side = tmp_path / "side.json"
    side.write_text(content)
    rc = main(["exact", "--fcidump", toy4_path, "--sidecar", str(side),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "sidecar" in capsys.readouterr().err
    assert not (tmp_path / "exact.json").exists()


def test_mp2_with_short_orbital_energies_records_integral_error(tmp_path,
                                                                 toy4_path):
    side = tmp_path / "side.json"
    side.write_text(json.dumps({"orbital_energies": [-0.5, 0.3]}))
    out = tmp_path / "out"
    argv = vqe_args(toy4_path, out, **{"--sidecar": str(side),
                                       "--ansatz": "qucc", "--initial": "mp2",
                                       "--trials": "1", "--max-iter": "3"})
    argv[0] = "sweep-t1"
    # the points share one input, and each records its failure
    assert main(argv + ["--t1-list", "40", "80"]) == 2
    failures = read_json(out / "campaign.json")["failures"]
    assert [f["point"] for f in failures] == ["t1_40", "t1_80"]
    assert all(f["error"].startswith("IntegralError: orbital_energies")
               for f in failures)
    assert sorted(p.name for p in out.iterdir()) == ["campaign.json",
                                                     "summary.csv"]


def test_exact_above_qubit_limit_is_validation_error(tmp_path, capsys):
    n = 9   # 18 spin-orbitals, so 18 qubits
    assert 2 * n > MAX_QUBITS
    m = MolecularIntegrals(n_orbitals=n, n_electrons=2, e_core=0.0,
                           h_one=np.diag(np.arange(1.0, n + 1)),
                           h_two=np.zeros((n, n, n, n)))
    path = tmp_path / "big.fcidump"
    path.write_text(write_fcidump(m))
    rc = main(["exact", "--fcidump", str(path), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert f"{MAX_QUBITS}-qubit cap" in capsys.readouterr().err
    assert not (tmp_path / "exact.json").exists()


def test_missing_fcidump_is_validation_error(tmp_path):
    rc = main(["exact", "--fcidump", str(tmp_path / "nope.fcidump"),
               "--out", str(tmp_path / "x.json")])
    assert rc == 1


def vqe_args(h2_path, out_dir, **overrides):
    args = {"--fcidump": h2_path, "--ansatz": "he_v2", "--depth": "1",
            "--trials": "2", "--seed": "7", "--max-iter": "25",
            "--out-dir": str(out_dir)}
    args.update(overrides)
    argv = ["vqe"]
    for k, v in args.items():
        argv.extend([k] + (v if isinstance(v, list) else [v]))
    return argv


def test_vqe_single_point_campaign(tmp_path, h2_path):
    rc = main(vqe_args(h2_path, tmp_path))
    assert rc == 0
    point = read_json(tmp_path / "point_single.json")
    assert len(point["trials"]) == 2
    assert point["reference_energy"] == pytest.approx(-1.1372698361356877)
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    header = summary[0].split(",")
    assert header == ["sweep_value", "mean", "min", "q1", "median", "q3",
                      "max", "reference_energy", "initial_energy"]
    row = summary[1].split(",")
    assert float(row[2]) >= float(row[7]) - 1e-9   # min above the reference
    campaign = read_json(tmp_path / "campaign.json")
    assert campaign["seed"] == 7
    assert campaign["failures"] == []
    assert "config_hash" in campaign and "version" in campaign
    assert campaign["stack"]["numpy"] == np.__version__
    assert set(campaign["stack"]) == {"python", "numpy", "scipy"}
    assert "timestamp" in campaign["metadata"]


@pytest.mark.parametrize("command, flag, value", [
    ("vqe", "--shots", "-5"),
    ("sweep-shots", "--shots-list", ["64", "-1"]),
    ("vqe", "--trials", "0"),
    ("vqe", "--max-iter", "0"),
    ("vqe", "--depth", "0"),
    ("vqe", "--jobs", "0"),
    ("vqe", "--jobs", "-3"),
])
def test_invalid_count_is_validation_error(tmp_path, h2_path, capsys,
                                           command, flag, value):
    argv = vqe_args(h2_path, tmp_path, **{flag: value})
    argv[0] = command
    assert main(argv) == 1
    assert f"error: {flag} " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag, value", [
    ("sweep-t1", "--t1-list", "-5"),
    ("sweep-t1", "--t1-list", ["100", "0"]),
    ("sweep-t1", "--t1-list", "nan"),
    ("vqe", "--noise", "unphysical.json"),
    ("vqe", "--noise", "missing.json"),
    ("vqe", "--noise", "text_t1.json"),
    ("vqe", "--noise", "list.json"),
    ("vqe", "--noise", "nan_cnot.json"),
    ("vqe", "--noise", "bool_times.json"),
    ("vqe", "--noise", "bool_cnot.json"),
    ("vqe", "--noise", "unknown_key.json"),
    ("vqe", "--noise", "unknown_gate.json"),
    ("vqe", "--noise", "durations_list.json"),
])
def test_invalid_noise_is_validation_error(tmp_path, h2_path, capsys,
                                           command, flag, value):
    # T2 = 30 us > 2 * T1 = 20 us
    (tmp_path / "unphysical.json").write_text('{"t1_us": 10.0, "t2_us": 30.0}')
    (tmp_path / "text_t1.json").write_text('{"t1_us": "fifty"}')
    (tmp_path / "list.json").write_text('[50.0]')
    # json reads a bare NaN; it would drop every idle channel
    (tmp_path / "nan_cnot.json").write_text('{"durations_ns": {"CNOT": NaN}}')
    # a JSON true is a Python bool, an int: it would read as 1 us or 1 ns
    (tmp_path / "bool_times.json").write_text('{"t1_us": true, "t2_us": true}')
    (tmp_path / "bool_cnot.json").write_text('{"durations_ns": {"CNOT": true}}')
    # keys that would be dropped or kept unused: T1 would stay at 50 us
    (tmp_path / "unknown_key.json").write_text('{"t1": 10.0}')
    (tmp_path / "unknown_gate.json").write_text('{"durations_ns": {"CX": 300}}')
    (tmp_path / "durations_list.json").write_text('{"durations_ns": [150]}')
    if flag == "--noise":
        value = str(tmp_path / value)
    out = tmp_path / "out"
    argv = vqe_args(h2_path, out, **{flag: value})
    argv[0] = command
    assert main(argv) == 1
    assert f"error: {flag}: " in capsys.readouterr().err
    assert not out.exists()


def test_vqe_qucc_mp2_initialization(tmp_path, h2_path):
    rc = main(vqe_args(h2_path, tmp_path, **{"--ansatz": "qucc",
                                             "--initial": "mp2",
                                             "--trials": "1",
                                             "--max-iter": "200"}))
    assert rc == 0
    point = read_json(tmp_path / "point_single.json")
    best = point["trials"][0]["best_energy"]
    assert abs(best - (-1.1372698361356877)) < 1e-6


def test_vqe_mp2_requires_qucc(tmp_path, h2_path):
    rc = main(vqe_args(h2_path, tmp_path, **{"--initial": "mp2"}))
    assert rc == 1


@pytest.mark.parametrize("initial, ansatz", [
    ("foo", "he_v2"),
    ("mp2", "he_v1"),
])
def test_invalid_initial_writes_nothing(tmp_path, h2_path, capsys, initial,
                                        ansatz):
    out = tmp_path / "out"
    argv = vqe_args(h2_path, out, **{"--initial": initial, "--ansatz": ansatz})
    assert main(argv) == 1
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


def test_campaign_determinism(tmp_path, h2_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = vqe_args(h2_path, d1)
    assert main(argv) == 0
    argv2 = vqe_args(h2_path, d2)
    assert main(argv2) == 0
    assert (d1 / "summary.csv").read_bytes() == (d2 / "summary.csv").read_bytes()
    assert ((d1 / "point_single.json").read_bytes()
            == (d2 / "point_single.json").read_bytes())
    c1, c2 = read_json(d1 / "campaign.json"), read_json(d2 / "campaign.json")
    c1["metadata"].pop("timestamp")
    c2["metadata"].pop("timestamp")
    c1["config"].pop("out_dir")
    c2["config"].pop("out_dir")
    c1.pop("config_hash")
    c2.pop("config_hash")
    assert c1 == c2


def test_sweep_shots(tmp_path, h2_path):
    argv = vqe_args(h2_path, tmp_path, **{"--max-iter": "10", "--trials": "1"})
    argv[0] = "sweep-shots"
    argv.extend(["--shots-list", "64", "256"])
    assert main(argv) == 0
    assert (tmp_path / "point_shots_64.json").exists()
    assert (tmp_path / "point_shots_256.json").exists()
    rows = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[0] == "64"


def test_sweep_t1(tmp_path, h2_path):
    argv = vqe_args(h2_path, tmp_path, **{"--max-iter": "8", "--trials": "1"})
    argv[0] = "sweep-t1"
    argv.extend(["--t1-list", "100", "1000"])
    assert main(argv) == 0
    assert (tmp_path / "point_t1_100.json").exists()
    assert (tmp_path / "point_t1_1000.json").exists()


def counting(monkeypatch, module, name):
    """Wrap module.name to record each call; returns the list of calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_sweep_t1_prepares_its_input_once(tmp_path, toy4_path, monkeypatch):
    import vqesim.cli as cli
    prepared = counting(monkeypatch, cli, "prepare_problem")
    solved = counting(monkeypatch, cli, "ground_state")
    t1s = ["40", "80", "500"]
    argv = vqe_args(toy4_path, tmp_path / "all",
                    **{"--max-iter": "6", "--trials": "1"})
    argv[0] = "sweep-t1"
    assert main(argv + ["--t1-list", *t1s]) == 0
    assert len(prepared) == len(solved) == 1
    for t1 in t1s:
        one = vqe_args(toy4_path, tmp_path / t1,
                       **{"--max-iter": "6", "--trials": "1"})
        one[0] = "sweep-t1"
        assert main(one + ["--t1-list", t1]) == 0
        name = f"point_t1_{t1}.json"
        assert ((tmp_path / "all" / name).read_bytes()
                == (tmp_path / t1 / name).read_bytes())


def test_sweep_t1_with_noise_is_validation_error(tmp_path, h2_path, capsys):
    noise = tmp_path / "noise.json"
    noise.write_text('{"durations_ns": {"CNOT": 5000.0}}')
    out = tmp_path / "out"
    argv = vqe_args(h2_path, out, **{"--noise": str(noise), "--trials": "1"})
    argv[0] = "sweep-t1"
    argv.extend(["--t1-list", "20"])
    assert main(argv) == 1
    assert "--noise cannot be given with --t1-list" in capsys.readouterr().err
    assert not out.exists()


def test_conflicting_sweep_axes_rejected(tmp_path, h2_path):
    argv = vqe_args(h2_path, tmp_path, **{"--fcidump": [h2_path, h2_path],
                                          "--sweep-params": ["0.5", "1.0"]})
    argv[0] = "sweep-t1"
    argv.extend(["--t1-list", "100"])
    assert main(argv) == 1


@pytest.mark.parametrize("flag", ["--sweep-params", "--sidecar-list"])
def test_single_fcidump_sweep_flag_is_validation_error(
        tmp_path, h2_path, h2_sidecar_path, capsys, flag):
    values = {"--sweep-params": ["1", "2"],
              "--sidecar-list": [h2_sidecar_path]}[flag]
    out = tmp_path / "out"
    assert main(vqe_args(h2_path, out, **{"--ansatz": "qucc",
                                          flag: values})) == 1
    assert f"{flag} needs more than one FCIDUMP" in capsys.readouterr().err
    assert not out.exists()


def test_fcidump_sweep_with_params(tmp_path, h2_path, toy4_path):
    argv = vqe_args(h2_path, tmp_path,
                    **{"--fcidump": [h2_path, h2_path],
                       "--sweep-params": ["1.2", "1.6"],
                       "--max-iter": "5", "--trials": "1"})
    assert main(argv) == 0
    assert (tmp_path / "point_param_1.2.json").exists()
    assert (tmp_path / "point_param_1.6.json").exists()


@pytest.mark.parametrize("command, flag, values", [
    ("vqe", "--sweep-params", ["1", "1"]),
    # both read param_1: a label keeps 6 significant digits
    ("vqe", "--sweep-params", ["1.0000001", "1.0000002"]),
    ("sweep-shots", "--shots-list", ["0", "0"]),
    ("sweep-t1", "--t1-list", ["10", "10"]),
])
def test_repeated_point_label_is_validation_error(tmp_path, h2_path,
                                                  toy4_path, capsys,
                                                  command, flag, values):
    # one point file per label: a repeated label would overwrite a point
    out = tmp_path / "out"
    files = [h2_path, toy4_path] if flag == "--sweep-params" else h2_path
    argv = vqe_args(h2_path, out, **{flag: values, "--fcidump": files})
    argv[0] = command
    assert main(argv) == 1
    assert "distinct labels" in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_env_default(tmp_path, h2_path, monkeypatch):
    monkeypatch.setenv("VQESIM_OUT_DIR", str(tmp_path / "envout"))
    rc = main(["geometry", "--distortion", "2", "--params", "2.0"])
    assert rc == 0
    assert (tmp_path / "envout" / "benzene_d2_2.xyz").exists()


def test_noise_json_file(tmp_path, h2_path):
    noise = tmp_path / "noise.json"
    noise.write_text('{"t1_us": 200.0, "t2_us": 150.0}')
    rc = main(vqe_args(h2_path, tmp_path, **{"--noise": str(noise),
                                             "--max-iter": "8",
                                             "--trials": "1"}))
    assert rc == 0


def test_save_traces_flag(tmp_path, h2_path):
    argv = vqe_args(h2_path, tmp_path, **{"--max-iter": "6", "--trials": "1"})
    argv.append("--save-traces")
    assert main(argv) == 0
    point = read_json(tmp_path / "point_single.json")
    assert len(point["trials"][0]["trace"]) == 6
