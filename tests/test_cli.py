import os
import re

import numpy as np
import pytest

from fnlswaves import __version__
from fnlswaves.analysis import decay_slope
from fnlswaves.cli import main, parse_config
from fnlswaves.evolve import EvolveConfig
from fnlswaves.params import ProblemParams
from fnlswaves.petviashvili import SolverConfig, solve_scalar
from fnlswaves.spectral import Grid, load_field

SOLVE_CONFIG = """
[run]
command = solve
format_version = 1

[problem]
s = 0.75
sigma = 1.0
lambda1 = 1.0
lambda2 = 1.0
kind = linear_phase

[grid]
l = 32.0
n = 1024

[solver]
tol = 1e-10
max_iter = 500
mw = 3
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_table(path):
    """(header lines, column row) of a CSV in the output layout."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    header = [line for line in lines if line.startswith("#")]
    return header, lines[len(header)]


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        cfg = parse_config(write(tmp_path, "run.ini", SOLVE_CONFIG))
        assert cfg.command == "solve"
        assert cfg.grid.n == 1024
        assert cfg.solver_cfg.mw == 3

    def test_empty_config_reports_fields(self, tmp_path, capsys):
        code = main(["--config", write(tmp_path, "empty.ini", "")])
        assert code == 2
        err = capsys.readouterr().err
        assert "run" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = SOLVE_CONFIG.replace("[solver]\ntol", "[solver]\nwarp = 9\ntol", 1)
        code = main(["--config", write(tmp_path, "bad.ini", bad)])
        assert code == 2
        assert "warp" in capsys.readouterr().err

    def test_duplicate_section_rejected(self, tmp_path):
        bad = SOLVE_CONFIG + "\n[solver]\ntol = 1e-8\n"
        code = main(["--config", write(tmp_path, "dup.ini", bad)])
        assert code == 2

    def test_unknown_section_rejected(self, tmp_path, capsys):
        code = main(["--config", write(tmp_path, "bad.ini", SOLVE_CONFIG + "\n[mystery]\nx = 1\n")])
        assert code == 2
        assert "mystery" in capsys.readouterr().err

    def test_required_keys_only_give_dataclass_defaults(self, tmp_path):
        text = ("[run]\ncommand = evolve\n[problem]\ns = 0.75\nsigma = 1.0\n"
                "lambda1 = 1.0\nlambda2 = 1.0\n[grid]\n[evolve]\n")
        cfg = parse_config(write(tmp_path, "bare.ini", text))
        assert cfg.grid == Grid()
        assert cfg.solver_cfg == SolverConfig()
        assert cfg.evolve_cfg == EvolveConfig()

    @pytest.mark.parametrize("command, section, key, value", [
        ("solve", "grid", "l", "nan"),
        ("solve", "grid", "l", "inf"),
        ("solve", "problem", "lambda1", "nan"),
        ("solve", "problem", "lambda2", "nan"),
        ("solve", "problem", "sigma", "nan"),
        ("solve", "solver", "tol", "nan"),
        ("scan", "scan", "speeds", "nan"),
        ("scan", "scan", "speeds", ""),
        ("probe", "probe", "alpha", "nan"),
    ], ids=["l-nan", "l-inf", "lambda1-nan", "lambda2-nan", "sigma-nan", "tol-nan",
            "speeds-nan", "speeds-empty", "probe-alpha-nan"])
    def test_non_finite_or_empty_value_exits_2(self, tmp_path, capsys,
                                               command, section, key, value):
        extra = {"scan": "\n[scan]\nspeeds = 0.5\n", "probe": "\n[probe]\nalpha = 1.5\n"}
        text = SOLVE_CONFIG.replace("command = solve", f"command = {command}")
        text += extra.get(command, "")
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        code = main(["--config", write(tmp_path, "run.ini", text), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"[{section}] {key}" in err and "Traceback" not in err

    def test_theta_none_needs_coupled_kind(self, tmp_path, capsys):
        # a linear-phase solve modulates the real sech by e^{iAx}, which is
        # the theta = linear seed, so none would be a silent duplicate
        text = SOLVE_CONFIG.replace("mw = 3", "mw = 3\ntheta = none")
        code = main(["--config", write(tmp_path, "run.ini", text), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "[solver] theta" in err and "Traceback" not in err
        coupled = text.replace("kind = linear_phase", "kind = coupled")
        assert parse_config(write(tmp_path, "coupled.ini", coupled)).theta == "none"

    def test_missing_problem_fields(self, tmp_path, capsys):
        text = SOLVE_CONFIG.replace("s = 0.75\n", "").replace("sigma = 1.0\n", "")
        code = main(["--config", write(tmp_path, "bad.ini", text)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'s'" in err and "'sigma'" in err


class TestSolveCommand:
    def test_solve_produces_artifacts(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.ini", SOLVE_CONFIG)
        out = str(tmp_path / "out")
        assert main(["--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "solve.csv"))
        prof, meta = load_field(os.path.join(out, "solve_profile.dat"))
        assert meta["lambda2"] == "1.0"
        assert float(meta["limiting_speed"]) == pytest.approx(1.8899, abs=5e-4)

    def test_speed_beyond_limit_exits_2(self, tmp_path, capsys):
        # a speed, a scan speed or an alpha outside its window is rejected
        # before the output directory is made
        scan = SOLVE_CONFIG.replace("command = solve", "command = scan")
        for text, message, detail in [
            (SOLVE_CONFIG.replace("lambda2 = 1.0", "lambda2 = 1.9"),
             "error: invalid parameters: ", "1.8899"),
            (scan + "\n[scan]\nspeeds = 0.5, 1.95\n", "error: invalid parameters: ", "1.8899"),
            (SOLVE_CONFIG.replace("mw = 3", "mw = 3\nalpha = 5.0"),
             "error: alpha=5.0 outside the stabilizing window", "(1, 2.0)"),
        ]:
            code = main(["--config", write(tmp_path, "run.ini", text),
                         "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(message) and detail in err
            assert not (tmp_path / "o").exists()

    def test_deterministic_reruns(self, tmp_path):
        cfg = write(tmp_path, "run.ini", SOLVE_CONFIG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["--config", cfg, "--out", out1]) == 0
        assert main(["--config", cfg, "--out", out2]) == 0
        for name in ("solve.csv", "solve_profile.dat"):
            with open(os.path.join(out1, name), "rb") as f1, \
                    open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read()


class TestOtherCommands:
    def test_evolve_from_seed_profile(self, tmp_path):
        cfg = write(tmp_path, "solve.ini", SOLVE_CONFIG)
        out = str(tmp_path / "out")
        assert main(["--config", cfg, "--out", out]) == 0
        evolve_text = SOLVE_CONFIG.replace("command = solve", "command = evolve") + (
            "\n[evolve]\ndt = 0.02\nt_end = 0.2\nnl_tol = 1e-12\n"
        )
        cfg2 = write(tmp_path, "evolve.ini", evolve_text)
        code = main(["--config", cfg2, "--out", out,
                     "--seed-profile", os.path.join(out, "solve_profile.dat")])
        assert code == 0
        with open(os.path.join(out, "evolve.csv")) as fh:
            text = fh.read()
        assert "t,I1,I2,H,amplitude,peak_x" in text
        for name in ("solve.csv", "evolve.csv"):
            with open(os.path.join(out, name)) as fh:
                assert fh.readline() == f"# fnlswaves {__version__}\n"

    @pytest.mark.parametrize("header, body", [
        ({"field_type": "complex", "n": "1024"}, None),
        ({"field_type": "complex", "l": "32.0"}, None),
        ({"l": "32.0", "n": "1024"}, None),
        ({"field_type": "vector", "l": "32.0", "n": "1024"}, None),
        ({"field_type": "complex", "l": "32.0", "n": "1024"}, ""),
        ({"field_type": "complex", "l": "32.0", "n": "1024"}, "1.0e+00\n"),
    ], ids=["no-l", "no-n", "no-field_type", "unknown-field_type", "no-rows",
            "one-column-complex"])
    def test_malformed_seed_profile_exits_2(self, tmp_path, capsys, header, body):
        if body is None:
            body = "1.0e+00 0.0e+00\n" * 1024
        snap = write(tmp_path, "bad.dat", "# fnlswaves-field 1\n" + "".join(
            f"# {k} = {v}\n" for k, v in header.items()) + body)
        evolve_text = SOLVE_CONFIG.replace("command = solve", "command = evolve") + (
            "\n[evolve]\ndt = 0.02\nt_end = 0.2\n"
        )
        cfg = write(tmp_path, "evolve.ini", evolve_text)
        code = main(["--config", cfg, "--out", str(tmp_path / "out"), "--seed-profile", snap])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.dat" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_seed_profile_outside_evolve_exits_2(self, tmp_path, capsys, command):
        text = SOLVE_CONFIG.replace("command = solve", f"command = {command}")
        out = str(tmp_path / "out")
        code = main(["--config", write(tmp_path, "run.ini", text), "--out", out,
                     "--seed-profile", str(tmp_path / "missing.dat")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--seed-profile" in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "solve.csv"))
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command, extra, files", [
        ("solve", "", ["solve.csv", "solve_profile.dat"]),
        ("evolve", "\n[evolve]\ndt = 0.02\nt_end = 0.2\n", ["solve.csv", "solve_profile.dat"]),
        ("analyze", "", []),
        ("probe", "\n[probe]\nalpha = 1.5\n", []),
        ("scan", "\n[scan]\nspeeds = 0.5, 1.0\n", ["scan.csv"]),
    ])
    def test_non_convergence_exits_3(self, tmp_path, capsys, command, extra, files):
        text = SOLVE_CONFIG.replace("command = solve", f"command = {command}").replace(
            "n = 1024", "n = 512").replace("max_iter = 500", "max_iter = 2") + extra
        out = str(tmp_path / "out")
        assert main(["--config", write(tmp_path, "run.ini", text), "--out", out]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(os.listdir(out)) == files
        if command == "scan":
            with open(os.path.join(out, "scan.csv")) as fh:
                lines = fh.read().splitlines()
            assert lines[-3].endswith(",converged")
            assert [row.split(",")[-1] for row in lines[-2:]] == ["False", "False"]

    def test_scan_command(self, tmp_path):
        text = SOLVE_CONFIG.replace("command = solve", "command = scan") + (
            "\n[scan]\nspeeds = 0.5, 1.0\n"
        )
        out = str(tmp_path / "out")
        assert main(["--config", write(tmp_path, "scan.ini", text), "--out", out]) == 0
        with open(os.path.join(out, "scan.csv")) as fh:
            rows = fh.read().strip().splitlines()
        assert rows[-1].split(",")[-1] == "True"

    def test_analyze_command(self, tmp_path, capsys):
        text = SOLVE_CONFIG.replace("command = solve", "command = analyze") + (
            "\n[analyze]\nwindow_min = 5.0\nwindow_max = 25.0\n"
        )
        out = str(tmp_path / "out")
        assert main(["--config", write(tmp_path, "a.ini", text), "--out", out]) == 0
        assert "slope=" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "analyze.csv"))

    def test_half_given_window_takes_the_decay_slope_default(self, tmp_path):
        text = SOLVE_CONFIG.replace("command = solve", "command = analyze").replace(
            "l = 32.0", "l = 64.0") + "\n[analyze]\nwindow_max = 40\n"
        out = str(tmp_path / "out")
        assert main(["--config", write(tmp_path, "a.ini", text), "--out", out]) == 0
        header, _ = read_table(os.path.join(out, "analyze.csv"))
        reported = float(next(h for h in header if h.startswith("# decay_slope = ")).split("=")[1])
        report = solve_scalar(ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=1.0),
                              Grid(l=64.0, n=1024), SolverConfig(tol=1e-10, max_iter=500, mw=3))
        assert reported == decay_slope(report.profile, (0.15 * 64.0, 40.0)).slope

    def test_analyze_accepts_the_decay_model_at_c1(self, tmp_path):
        # the default window on l = 64 reaches far enough for the periodic
        # images to matter; a straight log-log line read -2.307, rejected
        text = SOLVE_CONFIG.replace("command = solve", "command = analyze").replace(
            "l = 32.0", "l = 64.0")
        out = str(tmp_path / "out")
        assert main(["--config", write(tmp_path, "a.ini", text), "--out", out]) == 0
        header, _ = read_table(os.path.join(out, "analyze.csv"))
        assert "# decay_model_ok = True" in header
        slope = float(next(h for h in header if h.startswith("# decay_slope = ")).split("=")[1])
        assert slope == pytest.approx(-2.5, abs=0.05)

    def test_probe_command(self, tmp_path, capsys):
        text = SOLVE_CONFIG.replace("command = solve", "command = probe") + (
            "\n[probe]\nalpha = 0.0\n"
        )
        text = text.replace("l = 32.0", "l = 32.0").replace("n = 1024", "n = 512")
        out = str(tmp_path / "out")
        assert main(["--config", write(tmp_path, "p.ini", text), "--out", out]) == 0
        assert "dominant multiplier=3.0" in capsys.readouterr().out.replace("multiplier=3.00", "multiplier=3.0")


# Every file each recipe writes: its column row and its header keys.
_BASE = ["s", "sigma", "lambda1"]
RECIPE_FILES = {
    "fig1": {"fig1a.csv": ("x,rho_c0.5,rho_c1.0,rho_c1.5", _BASE + ["speeds"]),
             "fig1b.csv": ("mw,iter,residual", _BASE + ["lambda2"])},
    "fig2": {"fig2.csv": ("t,amplitude_error,hamiltonian_error",
                          _BASE + ["lambda2", "kind", "limiting_speed", "phase_slope_A",
                                   "spectral_shift_a", "grid_l",
                                   "grid_n", "dt", "t_end", "nl_tol"])},
    "fig3": {"fig3a.csv": ("x,rho_s0.55,rho_s0.6,rho_s0.75",
                           ["sigma", "lambda1", "lambda2", "s_values"]),
             "fig3b.csv": ("x,rho_sigma1.0,rho_sigma2.0,rho_sigma3.0",
                           ["s", "lambda1", "lambda2", "sigma_values"])},
    "fig4": {"fig4.csv": ("x,rho_theta_x2,rho_theta_Ax",
                          _BASE + ["lambda2", "evenness_defect_quadratic",
                                   "evenness_defect_linear"])},
    "fig5": {"fig5.csv": ("lambda2,log_x,log_rho", _BASE + ["reference_slope"])},
    "fig6": {"fig6.csv": ("lambda2,rho,rho_x", _BASE + ["tail_oscillations"])},
    "fig7": {"fig7a.csv": ("speed_gap,amplitude,lambda2,iterations,converged", _BASE + ["kind"]),
             "fig7b.csv": ("speed_gap,amplitude,lambda2,iterations,converged", _BASE + ["kind"])},
}


class TestRecipes:
    def test_unknown_recipe(self, capsys):
        assert main(["--recipe", "fig9"]) == 2
        assert "unknown recipe" in capsys.readouterr().err

    @pytest.mark.parametrize("recipe", sorted(RECIPE_FILES))
    def test_recipe_files(self, tmp_path, capsys, recipe):
        out = str(tmp_path / "figs")
        assert main(["--recipe", recipe, "--out", out]) == 0
        files = RECIPE_FILES[recipe]
        assert capsys.readouterr().out == f"{recipe}: wrote {', '.join(files)}\n"
        assert sorted(os.listdir(out)) == sorted(files)
        for name, (columns, keys) in files.items():
            header, column_row = read_table(os.path.join(out, name))
            assert header[0] == f"# fnlswaves {__version__}"
            assert [line[2:].split(" = ")[0] for line in header[1:]] == keys
            assert column_row == columns

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
