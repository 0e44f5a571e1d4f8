import os
import re
import shutil
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fnlswaves import __version__, cli
from fnlswaves.analysis import decay_slope
from fnlswaves.cli import _COMMANDS, _KEYS, main, parse_config
from fnlswaves.evolve import EvolveConfig
from fnlswaves.params import ProblemParams
from fnlswaves.petviashvili import SolverConfig, initial_iterate, solve_scalar
from fnlswaves.spectral import Grid, load_field
from test_spectral import TestSnapshots as _Snapshots

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

# an evolve run on the grid of the spectral snapshot fuzz (l = 8, n = 8)
EVOLVE_8_CONFIG = SOLVE_CONFIG.replace("command = solve", "command = evolve").replace(
    "l = 32.0", "l = 8.0").replace("n = 1024", "n = 8") + "\n[evolve]\ndt = 0.02\nt_end = 0.2\n"


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

    def test_missing_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--config", str(tmp_path / "absent.ini"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config file ") and "absent.ini" in err
        assert not out.exists()

    def test_theta_none_parses_for_both_kinds(self, tmp_path):
        # the seed phase and the kind label are independent keys
        text = SOLVE_CONFIG.replace("mw = 3", "mw = 3\ntheta = none")
        coupled = text.replace("kind = linear_phase", "kind = coupled")
        for name, body in (("linear.ini", text), ("coupled.ini", coupled)):
            cfg = parse_config(write(tmp_path, name, body))
            assert cfg.seed.grid == cfg.grid
            assert np.array_equal(cfg.seed.samples, initial_iterate(cfg.grid).samples)

    @pytest.mark.parametrize("probe", ["", "alpha = 1.5\n"], ids=["probe-default", "probe-1.5"])
    @pytest.mark.parametrize("kind", ["linear_phase", "coupled"])
    @pytest.mark.parametrize("theta", ["linear", "quadratic", "none"])
    def test_seed_and_probe_alpha_are_resolved(self, tmp_path, theta, kind, probe):
        # at sigma = 2 the solver's alpha is 5/4, so the default is not 1.5
        text = SOLVE_CONFIG.replace("command = solve", "command = probe").replace(
            "sigma = 1.0", "sigma = 2.0").replace("kind = linear_phase", f"kind = {kind}")
        text += f"theta = {theta}\n\n[probe]\n{probe}"
        cfg = parse_config(write(tmp_path, "run.ini", text))
        if theta == "linear":  # each problem starts from its own sech e^{iAx}
            assert cfg.seed is None
        else:
            seed = {"quadratic": initial_iterate(cfg.grid, "quadratic"),
                    "none": initial_iterate(cfg.grid)}[theta]
            assert cfg.seed.grid == cfg.grid and np.array_equal(cfg.seed.samples, seed.samples)
        assert cfg.probe_alpha == (1.5 if probe else 1.25)

    def test_window_point_count_is_for_analyze_only(self, tmp_path):
        # (0.15 l, 0.8 l) holds 3 of the 8 points; analyze would need 16,
        # solve fits no decay window
        small = SOLVE_CONFIG.replace("n = 1024", "n = 8")
        assert parse_config(write(tmp_path, "solve.ini", small)).grid.n == 8

    # One admissible text per key; a generated config changes at most three
    # of them and leaves out at most two.  A changed text is a magnitude that
    # has overflowed a derived quantity, any float or integer (subnormals,
    # nan and inf included), a choice word, or free text on one line.
    _SANE = {
        "run": {"format_version": "1", "out": "results"},
        "problem": {"s": "0.75", "sigma": "1.0", "lambda1": "1.0", "lambda2": "1.0",
                    "kind": "coupled"},
        "grid": {"l": "32.0", "n": "512"},
        "solver": {"alpha": "", "tol": "1e-10", "max_iter": "500", "mw": "3",
                   "theta": "quadratic"},
        "evolve": {"dt": "0.01", "t_end": "10.0", "snapshot_stride": "0", "nl_tol": "1e-12",
                   "nl_max": "50"},
        "scan": {"speeds": "0.5, 1.0"},
        "analyze": {"window_min": "5.0", "window_max": "25.0"},
        "probe": {"alpha": "1.5"},
    }
    _FIELDS = [(section, key) for section, readers in _KEYS.items() for key in readers
               if key != "command"]
    _WILD = st.one_of(
        st.sampled_from(["5e-324", "1e-300", "1e-6", "1e4", "1e10", "1e308"]),
        st.floats().map(repr),
        st.integers().map(str),
        st.sampled_from(["linear_phase", "coupled", "linear", "quadratic", "none", *_COMMANDS]),
        st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=12),
    )

    @st.composite
    def _ini_text(draw, fields=_FIELDS, sane=_SANE, wild=_WILD):
        changed = draw(st.dictionaries(st.sampled_from(fields), wild, min_size=1, max_size=3))
        dropped = draw(st.sets(st.sampled_from(fields), max_size=2))
        sections = {"run": [f"command = {draw(st.sampled_from(sorted(_COMMANDS)))}"]}
        for section, key in fields:
            if (section, key) not in dropped:
                value = changed.get((section, key), sane[section][key])
                sections.setdefault(section, []).append(f"{key} = {value}")
        return "".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                       for name, lines in sections.items())

    @settings(max_examples=600, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_ini_text())
    def test_generated_config_fails_only_with_value_error(self, tmp_path, text):
        # anything parse_config rejects it rejects with exit 2, never a traceback
        path = tmp_path / "gen.ini"
        path.unlink(missing_ok=True)  # a new file: some filesystems flush one rewritten in place
        path.write_text(text)
        try:
            parse_config(str(path))
        except ValueError:
            pass

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

    @pytest.mark.parametrize("change, line", [
        (("n = 1024", "n = 2050"), "# coarse_iterations = 0"),  # n/2 is odd: one grid
        (("mw = 3", "mw = 3\nalpha = 1.4"), "# alpha = 1.4"),
    ], ids=["n-2050", "alpha-1.4"])
    def test_solve_converges_and_records(self, tmp_path, capsys, change, line):
        out = str(tmp_path / "out")
        assert main(["--config", write(tmp_path, "run.ini", SOLVE_CONFIG.replace(*change)),
                     "--out", out]) == 0
        header, _ = read_table(os.path.join(out, "solve.csv"))
        assert line in header and "# converged = True" in header

    def test_stalled_coupled_solve_switches_and_records(self, tmp_path, capsys):
        # from the quadratic seed on (32, 1024) this problem creeps along
        # its orbit and, untested, runs all 500 iterations (exit 3);
        # aligned onto the class, it finishes in the half layout
        text = SOLVE_CONFIG
        for key, value in {"s": "0.698", "sigma": "2.564", "lambda2": "-0.669",
                           "kind": "coupled", "mw": "1\ntheta = quadratic"}.items():
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        out = str(tmp_path / "out")
        assert main(["--config", write(tmp_path, "run.ini", text), "--out", out]) == 0
        header, _ = read_table(os.path.join(out, "solve.csv"))
        assert "# converged = True" in header
        assert [line for line in header if line.startswith("# class_switch = n=1024 iteration=")]

    def test_speed_beyond_limit_exits_2(self, tmp_path, capsys):
        # a speed, a scan speed, an alpha, a decay window, or a value that
        # overflows a derived quantity is rejected before the output
        # directory is made
        scan = SOLVE_CONFIG.replace("command = solve", "command = scan")
        analyze = SOLVE_CONFIG.replace("command = solve", "command = analyze")
        for text, message, detail in [
            (SOLVE_CONFIG.replace("lambda2 = 1.0", "lambda2 = 1.9"),
             "error: invalid parameters: ", "1.8899"),
            (scan + "\n[scan]\nspeeds = 0.5, 1.95\n", "error: invalid parameters: ", "1.8899"),
            (SOLVE_CONFIG.replace("mw = 3", "mw = 3\nalpha = 5.0"),
             "error: [solver] alpha=5.0 outside the stabilizing window", "(1, 2.0)"),
            (SOLVE_CONFIG.replace("mw = 3", "mw = 0"), "error: [solver] mw must be", ">= 1"),
            (analyze + "\n[analyze]\nwindow_max = 40.0\n",
             "error: [analyze] window reaches 40.0", "0.9*l = 28.8"),
            (analyze + "\n[analyze]\nwindow_min = 30.0\nwindow_max = 20.0\n",
             "error: [analyze] window (30.0, 20.0)", "0 < x_min < x_max"),
            (analyze.replace("n = 1024", "n = 512")
             + "\n[analyze]\nwindow_min = 28.0\nwindow_max = 28.5\n",
             "error: [analyze] window (28.0, 28.5) holds 5 grid points", "need >= 16"),
            (SOLVE_CONFIG + "\n[evolve]\ndt = 5e-324\n",
             "error: [evolve] t_end = 10.0 over dt = 5e-324", "not a finite step count"),
            (SOLVE_CONFIG + "\n[evolve]\ndt = 1e-300\nt_end = 1e10\n",
             "error: [evolve] t_end = 10000000000.0 over dt = 1e-300",
             "not a finite step count"),
            (SOLVE_CONFIG.replace("lambda1 = 1.0", "lambda1 = 1e308").replace(
                "lambda2 = 1.0", "lambda2 = 1e308"),
             "error: invalid parameters: ", "overflow the phase slope A"),
            (SOLVE_CONFIG.replace("l = 32.0", "l = 1e308").replace("n = 1024", "n = 64"),
             "error: [grid] l must be positive and finite", "2l/n"),
            (SOLVE_CONFIG.replace("n = 1024", "n = 7"), "error: [grid] n must be even", "got 7"),
        ]:
            code = main(["--config", write(tmp_path, "run.ini", text),
                         "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(message) and detail in err and "Traceback" not in err
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

    def test_evolve_solves_its_start(self, tmp_path):
        # without --seed-profile evolve starts from the solved envelope and
        # stores every fifth state of the 20 steps, t = 0 included
        text = SOLVE_CONFIG.replace("command = solve", "command = evolve") + (
            "\n[evolve]\nt_end = 0.2\nsnapshot_stride = 5\n")
        cfg = write(tmp_path, "evolve.ini", text)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        header, columns = read_table(out / "evolve.csv")
        assert columns == "t,I1,I2,H,amplitude,peak_x"
        assert not [line for line in header if line.startswith("# aborted")]
        times = [f"{0.05 * k:.6f}" for k in range(5)]
        assert sorted(os.listdir(out)) == ["evolve.csv"] + [f"evolve_t{t}.dat" for t in times]
        run = parse_config(cfg)
        for t in times:
            state, meta = load_field(out / f"evolve_t{t}.dat")
            assert state.grid == run.grid and float(meta["t"]) == pytest.approx(float(t))
        start, _ = load_field(out / f"evolve_t{times[0]}.dat")
        assert start == solve_scalar(run.params, run.grid, run.solver_cfg).envelope

    @pytest.mark.parametrize("header, body", [
        ({"field_type": "complex", "n": "1024"}, None),
        ({"field_type": "complex", "l": "32.0"}, None),
        ({"l": "32.0", "n": "1024"}, None),
        ({"field_type": "vector", "l": "32.0", "n": "1024"}, None),
        ({"field_type": "complex", "l": "32.0", "n": "1024"}, ""),
        ({"field_type": "complex", "l": "32.0", "n": "1024"}, "1.0e+00\n"),
        ({"field_type": "complex", "l": "32.0", "n": "1024"},
         "nan 0.0e+00\n" + "1.0e+00 0.0e+00\n" * 1023),
        ({"field_type": "complex", "l": "32.0", "n": "1024"},
         "1.0e+00 0.0e+00\n" * 1023 + "1.0e+00 inf\n"),
        ({"field_type": "complex", "l": "32.0", "n": "7"}, None),
        ({"field_type": "complex", "l": "32.0", "n": "8"}, "1.0e+00 0.0e+00\n" * 2),
        ({"field_type": "complex", "l": "abc", "n": "1024"}, None),
        ({"field_type": "complex", "l": "32.0", "n": "1024"},
         "zz 0.0e+00\n" + "1.0e+00 0.0e+00\n" * 1023),
    ], ids=["no-l", "no-n", "no-field_type", "unknown-field_type", "no-rows",
            "one-column-complex", "nan-sample", "inf-sample", "odd-n", "short-rows",
            "l-not-a-number", "zz-sample"])
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
        assert not (tmp_path / "out").exists()

    def test_missing_seed_profile_exits_4(self, tmp_path, capsys):
        evolve_text = SOLVE_CONFIG.replace("command = solve", "command = evolve") + (
            "\n[evolve]\ndt = 0.02\nt_end = 0.2\n")
        code = main(["--config", write(tmp_path, "evolve.ini", evolve_text),
                     "--out", str(tmp_path / "out"),
                     "--seed-profile", str(tmp_path / "missing.dat")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: I/O failure: ") and "missing.dat" in err
        assert not (tmp_path / "out").exists()

    @settings(max_examples=600, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_Snapshots._snapshot_text())
    def test_generated_seed_profile_exits_0_2_or_3(self, tmp_path, capsys, text):
        # every snapshot the spectral fuzz draws, handed to an evolve run on
        # its usual grid (l = 8, n = 8): read and evolved (0), refused before
        # --out is created (2) or evolved until it aborts (3), never a traceback
        snap, out = tmp_path / "gen.dat", tmp_path / "out"
        snap.unlink(missing_ok=True)  # a new file: some filesystems flush one rewritten in place
        snap.write_text(text)
        shutil.rmtree(out, ignore_errors=True)
        code = main(["--config", write(tmp_path, "evolve.ini", EVOLVE_8_CONFIG), "--out", str(out),
                     "--seed-profile", str(snap)])
        assert code in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err
        if code == 2:
            assert not out.exists()

    @pytest.mark.parametrize("sample, cause", [
        ("1e308", "invariants overflowed at t=0"),
        ("1e60", "midpoint inner iteration stalled at delta=nan"),
    ])
    def test_huge_seed_profile_aborts_with_one_line(self, tmp_path, capsys, sample, cause):
        # samples of 1e308 overflow the invariants of the seed, samples of
        # 1e60 only the first sweep: either run aborts (exit 3) with its one
        # error line and no numpy warning on the way
        snap = write(tmp_path, "huge.dat", "# fnlswaves-field 1\n# field_type = complex\n"
                     "# l = 8.0\n# n = 8\n" + f"{sample} 0\n" * 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--config", write(tmp_path, "evolve.ini", EVOLVE_8_CONFIG),
                         "--out", str(tmp_path / "out"), "--seed-profile", snap])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: evolution aborted: {cause}") and err.count("\n") == 1

    def test_seed_profile_on_another_grid_exits_2(self, tmp_path, capsys):
        solved = str(tmp_path / "solved")
        assert main(["--config", write(tmp_path, "solve.ini", SOLVE_CONFIG), "--out", solved]) == 0
        evolve_text = SOLVE_CONFIG.replace("command = solve", "command = evolve").replace(
            "l = 32.0", "l = 64.0").replace("n = 1024", "n = 512") + (
            "\n[evolve]\ndt = 0.02\nt_end = 0.2\n")
        out = tmp_path / "out"
        code = main(["--config", write(tmp_path, "evolve.ini", evolve_text), "--out", str(out),
                     "--seed-profile", os.path.join(solved, "solve_profile.dat")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed-profile ") and err.count("\n") == 1
        assert "l=32.0, n=1024" in err and "l=64.0, n=512" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("problem", [
        {"sigma": "1e-6", "lambda2": "0.5"},  # m ** alpha overflows, alpha ~ 5e5
        {"sigma": "1e4"},  # the iterate turns non-finite at base iteration 2
    ], ids=["sigma-1e-6", "sigma-1e4"])
    def test_diverged_solve_exits_3(self, tmp_path, capsys, recwarn, problem):
        text = SOLVE_CONFIG.replace("n = 1024", "n = 512")
        for key, value in problem.items():
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        out = str(tmp_path / "out")
        assert main(["--config", write(tmp_path, "run.ini", text), "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: solve diverged: ") and err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert os.listdir(out) == []

    def test_scan_command(self, tmp_path):
        text = SOLVE_CONFIG.replace("command = solve", "command = scan") + (
            "\n[scan]\nspeeds = 0.5, 1.0\n"
        )
        out = str(tmp_path / "out")
        assert main(["--config", write(tmp_path, "scan.ini", text), "--out", out]) == 0
        with open(os.path.join(out, "scan.csv")) as fh:
            rows = fh.read().strip().splitlines()
        assert rows[-1].split(",")[-1] == "True"

    def test_scan_follows_theta_not_kind(self, tmp_path):
        # every speed starts from the theta seed; kind only labels the header
        text = SOLVE_CONFIG.replace("command = solve", "command = scan") + (
            "\n[scan]\nspeeds = 0.5, 1.0\n")
        tables = {}
        for kind in ("linear_phase", "coupled"):
            body = text.replace("kind = linear_phase", f"kind = {kind}")
            out = str(tmp_path / kind)
            assert main(["--config", write(tmp_path, f"{kind}.ini", body), "--out", out]) == 0
            with open(os.path.join(out, "scan.csv")) as fh:
                lines = fh.read().splitlines()
            assert f"# kind = {kind}" in lines
            tables[kind] = [line for line in lines if not line.startswith("#")]
        assert tables["coupled"] == tables["linear_phase"]
        assert len(tables["coupled"]) == 3

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

    @pytest.mark.parametrize("recipe, failing, files", [
        ("fig1", "solve_scalar", None),
        ("fig1", "solve_on_grid", None),
        ("fig2", "solve_scalar", {}),
        ("fig2", "evolve_run", None),
        ("fig3", "solve_scalar", None),
        ("fig4", "solve_scalar", None),
        ("fig5", "solve_scalar", None),
        ("fig6", "solve_scalar", None),
        ("fig7", "speed_amplitude_scan", None),
    ])
    def test_recipe_failure_exits_3_and_keeps_its_files(self, tmp_path, capsys, monkeypatch,
                                                        recipe, failing, files):
        # the first result of ``failing`` reports a failure: the recipe exits
        # 3 and still writes what it computed (RECIPE_FILES, unless ``files``
        # says otherwise), fig2 nothing when its solve failed
        fail = {
            "solve_scalar": lambda rep: replace(rep, converged=False),
            "solve_on_grid": lambda rep: replace(rep, converged=False),
            "evolve_run": lambda evo: replace(evo, aborted="injected abort"),
            "speed_amplitude_scan": lambda result: replace(
                result, rows=(replace(result.rows[0], converged=False), *result.rows[1:])),
        }[failing]
        original, calls = getattr(cli, failing), []

        def failing_once(*args, **kwargs):
            calls.append(failing)
            result = original(*args, **kwargs)
            return fail(result) if len(calls) == 1 else result

        monkeypatch.setattr(cli, failing, failing_once)
        out = str(tmp_path / "figs")
        assert main(["--recipe", recipe, "--out", out]) == 3
        files = RECIPE_FILES[recipe] if files is None else files
        assert sorted(os.listdir(out)) == sorted(files)
        assert capsys.readouterr().out == (f"{recipe}: wrote {', '.join(files)}\n" if files else "")

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
