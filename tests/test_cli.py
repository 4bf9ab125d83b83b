import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cribmem import cli
from cribmem.errors import NumericsError

# N = 11 is the smallest controlled comb that does not rephase inside the
# broadening stages at gamma = 3 (model.min_safe_classes).
TINY = ["--grid-k", "5", "--grid-n", "11", "--quad-level", "4",
        "--contour-nodes", "16"]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines()]
    assert lines[0].startswith("# cribmem ")
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    return header, rows


def test_importing_cli_leaves_numpy_unloaded():
    # The BLAS pin sets environment variables, which act only if numpy is
    # not loaded yet when the command starts.
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, cribmem.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "False"


_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(name + " is blocked")

sys.meta_path.insert(0, NoScipy())
from cribmem import analytic, cli, kernels, modes, oracle, sweeps
row = sweeps.evaluate_point(25, 1, sweeps.GridSettings(k=5, n=9),
                            include_gaussian=True, include_mode=True)
assert 0.0 < row["eta_gauss"] <= row["eta_max"] + 1e-9
assert 0.0 < analytic.broadening_stage_efficiency_numeric(analytic.Profile.flat(), 5.0, 1.0) < 1.0
ramp = analytic.Profile.from_callable(lambda z: z)
assert abs(ramp.double_integral() - 0.125) < 1e-12
assert 0.0 < analytic.perturbative_efficiency(ramp, 5.0, 1.0) < 1.0
sys.exit(cli.main(["sweep-gaussian", "--d0", "25", "--gamma", "1",
                   "--grid-k", "5", "--grid-n", "9"]))
"""


def test_package_runs_without_scipy():
    # scipy is a test dependency only: no module of the package imports it.
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("# cribmem ")


def test_transmission_resonance(capsys):
    code, out, _ = run_cli(["transmission", "--d0", "5", "--omega", "0"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["omega_rel", "transmission"]
    assert len(rows) == 1
    assert float(rows[0]["transmission"]) == pytest.approx(math.exp(-5.0), rel=1e-12)
    assert float(rows[0]["transmission"]) == pytest.approx(6.7379e-3, abs=1e-7)


def test_perturbative_rows(capsys):
    code, out, _ = run_cli(["perturbative", "--gamma", "5,10", "--taud", "1"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["gamma_rel", "eta_eq_closed", "eta_numeric"]
    assert len(rows) == 2
    by_gamma = {float(r["gamma_rel"]): r for r in rows}
    # strong-broadening agreement; at gamma = 5 the first-order formula is
    # 0.065 below the numeric (second-order term), so only bound loosely.
    assert abs(float(by_gamma[10.0]["eta_numeric"])
               - float(by_gamma[10.0]["eta_eq_closed"])) <= 0.05
    assert abs(float(by_gamma[5.0]["eta_numeric"])
               - float(by_gamma[5.0]["eta_eq_closed"])) <= 0.07


def test_perturbative_aliasing_class_count_exits_2(capsys):
    # A 33-class comb rephases at 2*pi/step = 2.01, inside the 2*tau_d = 4
    # window; the smallest safe odd count is 65.
    code, _, err = run_cli(["perturbative", "--gamma", "10", "--taud", "2",
                            "--grid-n", "33"], capsys)
    assert code == 2
    assert "at least 65" in err


def test_perturbative_safe_class_count_matches_library_default(capsys):
    from cribmem.analytic import Profile, broadening_stage_efficiency_numeric

    want = broadening_stage_efficiency_numeric(Profile.flat(), 10.0, 2.0)
    assert want == pytest.approx(0.8400, abs=1e-4)
    # Without --grid-n the library picks the class count, and the settings
    # comment does not claim one.
    for extra, grid_n in (([], "auto"), (["--grid-n", "65"], "65")):
        code, out, _ = run_cli(["perturbative", "--gamma", "10", "--taud", "2"]
                               + extra, capsys)
        assert code == 0
        assert f"grid_n={grid_n} " in out.splitlines()[0]
        _, rows = parse_csv(out)
        assert float(rows[0]["eta_numeric"]) == want


def test_perturbative_records_only_the_settings_it_reads(tmp_path, capsys):
    unused = ("grid_k", "quad_level", "threads", "d0")
    argv = ["perturbative", "--gamma", "5", "--taud", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    tokens = out.splitlines()[0].split()[3:]
    assert [t.split("=")[0] for t in tokens] == [
        "grid_n", "extent", "contour_nodes", "taud", "gamma"]
    path = tmp_path / "p.json"
    code, _, _ = run_cli(argv + ["--format", "json", "--out", str(path)], capsys)
    assert code == 0
    settings = json.loads(path.read_text())["settings"]
    assert not set(unused) & set(settings)
    assert settings["grid_n"] is None and settings["gamma"] == [5.0]


def test_taud_for_a_command_that_ignores_it_exits_2(tmp_path, capsys):
    # Only perturbative reads tau_d; the others use the default schedule.
    path = tmp_path / "taud.json"
    path.write_text(json.dumps({"taud": 1.0}))
    for argv in (["sweep-optimal", "--d0", "10", "--gamma", "3", "--taud", "2"] + TINY,
                 ["transmission", "--d0", "5", "--omega", "0", "--taud", "1"],
                 ["modes", "--d0", "10", "--gamma", "3", "--config", str(path)] + TINY):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert "configuration error: taud is read only by perturbative" in err


def test_aliasing_class_count_exits_2(capsys):
    # At gamma = 20 the default 33-class comb rephases at 1.005, inside the
    # tau_d = 1 stages; the smallest safe odd count is 65.
    code, _, err = run_cli(["sweep-optimal", "--d0", "100", "--gamma", "20"], capsys)
    assert code == 2
    assert "configuration error" in err and "at least 65" in err


def test_too_fine_quadrature_level_exits_2(capsys):
    # Level 45 would ask np.arange for 2^45 nodes; the level is refused first.
    tracemalloc.start()
    try:
        code, _, err = run_cli(["sweep-optimal", "--d0", "25", "--gamma", "1", "--grid-k", "5",
                                "--grid-n", "9", "--quad-level", "45"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "configuration error" in err and "1 to 12" in err
    assert "Traceback" not in err
    assert peak <= 2 ** 20


def test_odd_contour_node_count_exits_2(capsys):
    # An odd midpoint rule puts a node on the real axis, which the
    # conjugate-half sum would drop.
    for argv in (["sweep-optimal", "--d0", "10", "--gamma", "3"],
                 ["perturbative", "--gamma", "5"]):
        code, _, err = run_cli(argv + ["--contour-nodes", "33"], capsys)
        assert code == 2, argv
        assert "even" in err


def test_too_many_contour_nodes_exit_2(capsys):
    # The contour's rounding floor grows with m; beyond 64 nodes the
    # inversion is garbage, so the count is refused.
    code, _, err = run_cli(["sweep-optimal", "--d0", "10", "--gamma", "3",
                            "--contour-nodes", "200"], capsys)
    assert code == 2
    assert "8 to 64" in err


def test_underflowing_detuning_weights_exit_2(capsys):
    code, _, err = run_cli(["sweep-optimal", "--d0", "10", "--gamma", "3",
                            "--extent", "40"] + TINY, capsys)
    assert code == 2
    assert "underflow" in err


def test_sweep_optimal_tiny(capsys):
    code, out, _ = run_cli(["sweep-optimal", "--d0", "10", "--gamma", "3"] + TINY,
                           capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d0", "gamma_rel", "eta_max"]
    eta = float(rows[0]["eta_max"])
    assert 0.0 < eta < 1.0


def test_sweep_gaussian_tiny(capsys):
    code, out, _ = run_cli(["sweep-gaussian", "--d0", "10", "--gamma", "3"] + TINY,
                           capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d0", "gamma_rel", "t_c_opt", "t_w_opt", "eta_gauss"]
    assert 0.0 < float(rows[0]["eta_gauss"]) < 1.0


def test_gaussian_map_tiny(capsys):
    code, out, _ = run_cli(["gaussian-map", "--d0", "10", "--gamma", "3",
                            "--tc-points", "4", "--tw-points", "3"] + TINY, capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d0", "gamma_rel", "t_c", "t_w", "eta"]
    assert len(rows) == 12


def test_modes_tiny(capsys):
    code, out, _ = run_cli(["modes", "--d0", "10", "--gamma", "3"] + TINY, capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d0", "gamma_rel", "t", "mode_re", "mode_im", "mode_abs"]
    assert len(rows) == 2 ** 5 + 1  # one row per time node at quad level 4
    energies = [float(r["mode_abs"]) for r in rows]
    assert max(energies) > 0.0


def test_json_output_mirrors_csv(tmp_path, capsys):
    out_json = tmp_path / "t.json"
    code, _, _ = run_cli(["transmission", "--d0", "5",
                          "--omega", "0,1", "--format", "json",
                          "--out", str(out_json)], capsys)
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["command"] == "transmission"
    assert payload["settings"] == {"d0": [5.0], "omega": [0.0, 1.0]}
    assert len(payload["rows"]) == 2
    assert set(payload["rows"][0]) == {"omega_rel", "transmission"}


def test_deterministic_csv_single_thread(tmp_path, capsys):
    argv = ["sweep-optimal", "--d0", "10", "--gamma", "1,3", "--threads", "1"] + TINY
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = {"d0": [7.0], "omega": [1.0]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["transmission", "--config", str(path),
                            "--d0", "5", "--omega", "0"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "# cribmem transmission d0=5 omega=0"
    _, rows = parse_csv(out)
    assert float(rows[0]["transmission"]) == pytest.approx(math.exp(-5.0), rel=1e-12)


def test_unknown_command_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def no_points(monkeypatch):
    """Stub the sweep so a sweep command prints its settings and header only."""
    import cribmem.sweeps as sweeps

    monkeypatch.setattr(sweeps, "run_points", lambda *args, **kwargs: [])


def test_config_file_sets_output_format_and_threads(tmp_path, monkeypatch, capsys):
    # --out, --format and --threads come from the file unless a flag is given.
    no_points(monkeypatch)
    out = tmp_path / "x.json"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"format": "json", "out": str(out), "threads": 2}))
    argv = ["sweep-optimal", "--d0", "5", "--gamma", "1", "--config", str(path)]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0 and stdout == ""
    payload = json.loads(out.read_text())
    assert payload["settings"]["threads"] == 2
    code, stdout, _ = run_cli(argv + ["--format", "csv", "--out", "-"], capsys)
    assert code == 0
    assert stdout.startswith("# cribmem sweep-optimal ") and "threads=2" in stdout


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for bad in ({"no_such_key": 1}, {"command": "modes"}, {"threads": 0},
                {"grid_k": "15"}, {"quad_level": 2.5}, {"grid_k": 5.0},
                {"grid_k": True}, {"d0": ["25"]}, {"extent": None}, [1, 2],
                {"extent": math.nan}):
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(["sweep-optimal", "--config", str(path)], capsys)
        assert code == 2, bad
        assert "configuration error" in err
    # Each on a command that reads the key, so the value check itself refuses it.
    for bad, command, message in (
            ({"omega": [math.nan]}, "transmission", "omega must be finite"),
            ({"taud": math.inf}, "perturbative", "taud must be finite"),
            ({"tc_points": 0}, "gaussian-map", "tc_points must be at least 1"),
            ({"tw_points": -1}, "gaussian-map", "tw_points must be at least 1"),
            ({"omega": []}, "transmission", "omega must be a non-empty list"),
            ({"d0": []}, "sweep-optimal", "d0 must be a non-empty list"),
            ({"gamma": []}, "sweep-optimal", "gamma must be a non-empty list")):
        path.write_text(json.dumps(bad))
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2 and out == "", bad
        assert f"configuration error: {message}" in err, bad
    for argv in (["transmission", "--d0", "5", "--omega", "nan"],
                 ["perturbative", "--gamma", "inf"],
                 ["perturbative", "--gamma", "5", "--taud", "inf"],
                 ["sweep-optimal", "--d0=-inf"],
                 ["gaussian-map", "--d0", "10", "--gamma", "1", "--tc-points", "0"],
                 ["gaussian-map", "--d0", "10", "--gamma", "1", "--tw-points", "0"]):
        code, _, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert "configuration error" in err


def test_unwritable_out_exits_2_before_computing(tmp_path, monkeypatch, capsys):
    import cribmem.sweeps as sweeps

    def never(*args, **kwargs):
        raise AssertionError("points computed before the output path was checked")

    monkeypatch.setattr(sweeps, "run_points", never)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"out": ""}))
    argv = ["sweep-optimal", "--d0", "10", "--gamma", "1"] + TINY
    for args in ([argv + ["--out", str(out)] for out in (tmp_path / "missing" / "x.csv",
                                                         tmp_path, "")]
                 + [argv + ["--config", str(path)]]):
        code, _, err = run_cli(args, capsys)
        assert code == 2, args
        assert "configuration error" in err


def test_every_setting_has_one_flag_and_one_config_key(tmp_path, monkeypatch, capsys):
    # A value given by flag or by config file is recorded alike.
    monkeypatch.setattr(cli, "_compute_rows", lambda cfg: [])
    out, path = tmp_path / "out.json", tmp_path / "cfg.json"
    values = {"out": str(out), "format": "json", "threads": 2, "d0": [7.0, 8.5],
              "gamma": [0.5], "grid_k": 7, "grid_n": 13, "extent": 4.5, "quad_level": 5,
              "contour_nodes": 16, "taud": 2.0, "omega": [0.25, -1.5], "tc_points": 3,
              "tw_points": 4}
    assert list(values) == list(cli._SETTINGS)
    help_text = cli.build_parser().format_help()
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        assert f"{flag} " in help_text, key
        command = next(c for c in cli._COMMANDS
                       if key in cli._READS[c] or key in ("out", "format"))
        base = [command] + [a for k in ("format", "out") if k != key
                            for a in ("--" + k, values[k])]
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        path.write_text(json.dumps({key: value}))
        recorded = []
        for argv in (base + [flag, text], base + ["--config", str(path)]):
            code, stdout, err = run_cli(argv, capsys)
            assert code == 0 and stdout == "", (argv, err)
            recorded.append(json.loads(out.read_text())["settings"])
            out.unlink()
        assert recorded[0] == recorded[1], key
        if key in recorded[0]:
            assert recorded[0][key] == value, key


def test_empty_list_exits_2(capsys):
    code, _, err = run_cli(["sweep-optimal", "--d0", ""], capsys)
    assert code == 2


def test_numerical_failure_exits_3(monkeypatch, capsys):
    import cribmem.sweeps as sweeps

    def boom(*args, **kwargs):
        raise NumericsError("synthetic breakdown")

    monkeypatch.setattr(sweeps, "run_points", boom)
    code, _, err = run_cli(["sweep-optimal", "--d0", "10", "--gamma", "1"] + TINY,
                           capsys)
    assert code == 3
    assert "numerical failure" in err


def test_read_in_past_the_collocation_cap_exits_3(capsys):
    # At d0 = 1e6 the read-in window tau_p is so long that the read-in
    # action (the 5 x 1 collapsed grid) needs 9860 collocation nodes.
    code, out, err = run_cli(["sweep-optimal", "--d0", "1e6", "--gamma", "3",
                              "--grid-k", "5", "--grid-n", "11"], capsys)
    assert code == 3
    assert out == ""
    assert re.search(r"numerical failure: 5 x 1 action over T=\d+\.\d+ at beta=.* "
                     r"needs 9860 collocation nodes, more than 1024", err), err


@pytest.mark.parametrize("command", ["sweep-optimal", "gaussian-map"])
def test_efficiency_above_one_exits_3(command, capsys):
    # At d0 = 3200, gamma = 3 the default 32-node contour does not resolve
    # the kernel, whose top eigenvalue then gives eta_max = 4576.
    code, out, err = run_cli([command, "--d0", "3200", "--gamma", "3"], capsys)
    assert code == 3
    assert out == ""
    assert "contour" in err, err


@pytest.mark.parametrize("command", ["sweep-gaussian", "gaussian-map"])
def test_gaussian_narrower_than_the_time_grid_exits_3(command, capsys):
    # At d0 = 3200, gamma = 10 the lattice's narrowest pulse, t_w = 0.05,
    # falls between the q6 time nodes: valid flags, a grid too coarse.
    code, out, err = run_cli([command, "--d0", "3200", "--gamma", "10"], capsys)
    assert code == 3
    assert out == ""
    assert "configuration error" not in err
    assert re.search(r"t_w = 0\.05 .* the 129 time nodes; raise quad_level", err), err


def test_efficiency_above_one_names_the_time_grid(capsys):
    # At q2 (9 times) eta_max = 6.2 with 32 or 64 contour nodes alike, and
    # 0.81 at q6: the time grid, not the contour, is at fault.
    code, out, err = run_cli(["sweep-optimal", "--d0", "400", "--gamma", "3",
                              "--quad-level", "2", "--grid-k", "5", "--grid-n", "11",
                              "--contour-nodes", "64"], capsys)
    assert code == 3
    assert out == ""
    assert "quad_level" in err and "contour_nodes" in err, err


def test_invalid_grid_setting_exits_2(capsys):
    code, _, err = run_cli(["sweep-optimal", "--d0", "10", "--gamma", "1",
                            "--grid-k", "4"], capsys)
    assert code == 2
    assert "configuration error" in err


def test_settings_comment_records_resolved_settings(monkeypatch, capsys):
    no_points(monkeypatch)
    code, out, _ = run_cli(["sweep-optimal", "--d0", "5", "--gamma", "1"], capsys)
    assert code == 0
    assert out.splitlines()[0] == ("# cribmem sweep-optimal grid_k=33 grid_n=33 extent=5.0 "
                                   "quad_level=6 contour_nodes=32 threads=1 d0=5 gamma=1")


@pytest.mark.parametrize("argv, recorded", [
    (["sweep-gaussian", "--d0", "5", "--gamma", "1"],
     ["grid_k", "grid_n", "extent", "quad_level", "contour_nodes", "threads", "d0", "gamma"]),
    (["modes", "--d0", "5", "--gamma", "1"],
     ["grid_k", "grid_n", "extent", "quad_level", "contour_nodes", "threads", "d0", "gamma"]),
    (["gaussian-map", "--d0", "5", "--gamma", "1"],
     ["grid_k", "grid_n", "extent", "quad_level", "contour_nodes", "d0", "gamma",
      "tc_points", "tw_points"]),
    (["transmission", "--d0", "5", "--omega", "0"], ["d0", "omega"]),
], ids=["sweep-gaussian", "modes", "gaussian-map", "transmission"])
def test_each_command_records_the_settings_it_reads(argv, recorded, tmp_path,
                                                    monkeypatch, capsys):
    import cribmem.sweeps as sweeps

    no_points(monkeypatch)
    monkeypatch.setattr(sweeps, "gaussian_map", lambda *args, **kwargs: [])
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert [t.split("=")[0] for t in out.splitlines()[0].split()[3:]] == recorded
    path = tmp_path / "s.json"
    code, _, _ = run_cli(argv + ["--format", "json", "--out", str(path)], capsys)
    assert code == 0
    assert list(json.loads(path.read_text())["settings"]) == sorted(recorded)


@pytest.mark.parametrize("argv, key", [
    (["transmission", "--d0", "5", "--omega", "0", "--grid-k", "7"], "grid_k"),
    (["transmission", "--d0", "5", "--omega", "0", "--quad-level", "9"], "quad_level"),
    (["transmission", "--d0", "5", "--omega", "0", "--contour-nodes", "8"], "contour_nodes"),
    (["transmission", "--d0", "5", "--omega", "0", "--threads", "2"], "threads"),
    (["perturbative", "--gamma", "5", "--d0", "10"], "d0"),
    (["perturbative", "--gamma", "5", "--grid-k", "7"], "grid_k"),
    (["perturbative", "--gamma", "5", "--quad-level", "9"], "quad_level"),
    (["perturbative", "--gamma", "5", "--threads", "2"], "threads"),
    (["gaussian-map", "--d0", "5", "--gamma", "1", "--threads", "2"], "threads"),
    (["sweep-optimal", "--d0", "5", "--gamma", "1", "--omega", "0"], "omega"),
    (["modes", "--d0", "5", "--gamma", "1", "--tc-points", "4"], "tc_points"),
    (["transmission", "--d0", "5", "--omega", "0", "--gamma", "7"], "gamma"),
])
def test_setting_a_command_ignores_exits_2(argv, key, tmp_path, monkeypatch, capsys):
    # The same setting from the config file is refused as well.
    import cribmem.analytic as analytic

    def never(*args, **kwargs):
        raise AssertionError("computed although a setting is ignored")

    no_points(monkeypatch)
    monkeypatch.setattr(analytic, "broadening_stage_efficiency_numeric", never)
    flag = "--" + key.replace("_", "-")
    i = argv.index(flag)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: json.loads(argv[i + 1])}))
    for args in (argv, argv[:i] + argv[i + 2:] + ["--config", str(path)]):
        code, out, err = run_cli(args, capsys)
        assert code == 2, args
        assert out == ""
        assert f"configuration error: {key} is read only by " in err
        assert f"{argv[0]} ignores it" in err
