"""Command-line front end: config-driven runs and figure-recipe bundles.

Configs are INI key/value files with an explicit schema version; unknown
sections or keys are rejected so typos fail loudly.  Outputs are CSV files
with '#'-prefixed metadata headers (all parameters plus the derived
limiting speed, phase slope and spectral shift) in full-precision
scientific notation, and field snapshots in the documented text layout.

Exit codes: 0 success, 2 config/validation error, 3 solver non-convergence
(partial artifacts are kept), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys

import numpy as np

from . import __version__
from .analysis import decay_slope, evenness_defect, phase_plane, speed_amplitude_scan
from .evolve import EvolveConfig, run as evolve_run, save_evolution
from .params import Kind, ParameterError, ProblemParams, metadata, validate
from .petviashvili import (
    SolverConfig,
    fixed_point_spectrum_probe,
    initial_iterate,
    save_report,
    solve_coupled,
    solve_scalar,
)
from .spectral import ComplexField, Grid, load_field

SCHEMA_VERSION = 1

_COMMANDS = ("solve", "evolve", "scan", "analyze", "probe")

_SCHEMA = {
    "run": {"command", "format_version", "out"},
    "problem": {"s", "sigma", "lambda1", "lambda2", "kind"},
    "grid": {"l", "n"},
    "solver": {"alpha", "tol", "max_iter", "mw", "theta"},
    "evolve": {"dt", "t_end", "snapshot_stride", "nl_tol", "nl_max"},
    "scan": {"speeds"},
    "analyze": {"window_min", "window_max"},
    "probe": {"alpha"},
}

_REQUIRED_BLOCKS = {
    "solve": ("problem", "grid"),
    "evolve": ("problem", "grid", "evolve"),
    "scan": ("problem", "grid", "scan"),
    "analyze": ("problem", "grid"),
    "probe": ("problem", "grid", "probe"),
}


class ConfigError(ValueError):
    pass


class RunConfig:
    """Parsed and validated run configuration."""

    def __init__(self, command, params, grid, solver_cfg, evolve_cfg,
                 speeds, window, probe_alpha, theta, out):
        self.command = command
        self.params = params
        self.grid = grid
        self.solver_cfg = solver_cfg
        self.evolve_cfg = evolve_cfg
        self.speeds = speeds
        self.window = window
        self.probe_alpha = probe_alpha
        self.theta = theta
        self.out = out


def parse_config(path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = cp.read(path)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}")
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")

    problems = []
    for section in cp.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                problems.append(f"unknown key '{key}' in [{section}]")
    if "run" not in cp:
        problems.append("missing [run] section with 'command'")
    if problems:
        raise ConfigError("; ".join(problems))

    command = cp["run"].get("command", "").strip()
    if command not in _COMMANDS:
        raise ConfigError(f"command must be one of {_COMMANDS}, got '{command}'")
    version = cp["run"].getint("format_version", fallback=SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported format_version {version} (expected {SCHEMA_VERSION})")

    missing = [b for b in _REQUIRED_BLOCKS[command] if b not in cp]
    if missing:
        raise ConfigError(f"command '{command}' needs section(s): {', '.join(missing)}")

    def fsec(name):
        return cp[name] if name in cp else {}

    prob = fsec("problem")
    report = []
    for key in ("s", "sigma", "lambda1", "lambda2"):
        if key not in prob:
            report.append(f"[problem] missing '{key}'")
    if report:
        raise ConfigError("; ".join(report))
    kind_txt = prob.get("kind", "linear_phase").strip().lower()
    try:
        kind = Kind(kind_txt)
    except ValueError:
        raise ConfigError(f"kind must be linear_phase or coupled, got '{kind_txt}'")
    params = ProblemParams(
        s=float(prob["s"]),
        sigma=float(prob["sigma"]),
        lambda1=float(prob["lambda1"]),
        lambda2=float(prob["lambda2"]),
        kind=kind,
    )

    gsec = fsec("grid")
    grid = Grid(l=float(gsec.get("l", 64.0)), n=int(gsec.get("n", 4096)))

    ssec = fsec("solver")
    alpha_txt = ssec.get("alpha", "").strip() if "solver" in cp else ""
    solver_cfg = SolverConfig(
        alpha=float(alpha_txt) if alpha_txt else None,
        tol=float(ssec.get("tol", 1e-10)),
        max_iter=int(ssec.get("max_iter", 500)),
        mw=int(ssec.get("mw", 1)),
    )
    theta = ssec.get("theta", "linear").strip().lower() if "solver" in cp else "linear"
    if theta not in ("linear", "quadratic", "none"):
        raise ConfigError(f"solver theta must be linear|quadratic|none, got '{theta}'")

    esec = fsec("evolve")
    evolve_cfg = EvolveConfig(
        dt=float(esec.get("dt", 0.01)),
        t_end=float(esec.get("t_end", 10.0)),
        snapshot_stride=int(esec.get("snapshot_stride", 0)),
        nl_tol=float(esec.get("nl_tol", 1e-12)),
        nl_max=int(esec.get("nl_max", 50)),
    ) if "evolve" in cp else EvolveConfig()

    speeds = None
    if "scan" in cp:
        try:
            speeds = [float(tok) for tok in cp["scan"]["speeds"].replace(",", " ").split()]
        except (KeyError, ValueError):
            raise ConfigError("[scan] needs 'speeds' as a list of numbers")

    asec = fsec("analyze")
    window = None
    if "analyze" in cp and ("window_min" in asec or "window_max" in asec):
        window = (float(asec.get("window_min", 0.15 * grid.l)),
                  float(asec.get("window_max", 0.8 * grid.l)))

    probe_alpha = float(cp["probe"]["alpha"]) if "probe" in cp and "alpha" in cp["probe"] else None

    out = cp["run"].get("out", "results").strip()
    return RunConfig(command, params, grid, solver_cfg, evolve_cfg,
                     speeds, window, probe_alpha, theta, out)


def _write_csv(path, header_meta: dict, columns: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# fnlswaves {__version__}\n")
        for k, v in header_meta.items():
            fh.write(f"# {k} = {v}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                ["%.17e" % v if isinstance(v, float) else v for v in row]
            )


def _seed_for(cfg: RunConfig):
    if cfg.theta == "none":
        return initial_iterate(cfg.grid, None)
    if cfg.theta == "quadratic":
        return initial_iterate(cfg.grid, "quadratic")
    return None  # linear phase is the solver default


def _solve(cfg: RunConfig):
    solve = solve_coupled if cfg.params.kind is Kind.COUPLED else solve_scalar
    return solve(cfg.params, cfg.grid, cfg.solver_cfg, seed=_seed_for(cfg))


def run_command(cfg: RunConfig, out_dir=None, seed_profile=None) -> int:
    """Execute one command; outputs are deterministic given the config."""
    out = out_dir or cfg.out
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as err:
        print(f"error: cannot create output directory: {err}", file=sys.stderr)
        return 4

    try:
        validate(cfg.params)
    except ParameterError as err:
        print(f"error: invalid parameters: {err}", file=sys.stderr)
        return 2

    try:
        if cfg.command == "solve":
            report = _solve(cfg)
            save_report(report, out, "solve")
            print(f"solve: converged={report.converged} iterations={report.iterations} "
                  f"residual={report.final_residual:.3e}")
            return 0 if report.converged else 3

        if cfg.command == "evolve":
            if seed_profile:
                fld, meta = load_field(seed_profile)
                if not isinstance(fld, ComplexField):
                    fld = ComplexField(fld.grid, fld.samples.astype(complex))
                u0, egrid = fld, fld.grid
            else:
                report = _solve(cfg)
                if not report.converged:
                    save_report(report, out, "solve")
                    print("error: profile solve did not converge", file=sys.stderr)
                    return 3
                u0, egrid = report.envelope, cfg.grid
            evo = evolve_run(u0, cfg.params, cfg.evolve_cfg)
            save_evolution(evo, out, "evolve")
            if evo.aborted:
                print(f"error: evolution aborted: {evo.aborted}", file=sys.stderr)
                return 3
            print(f"evolve: steps={len(evo.times) - 1} peak_speed={evo.peak_speed():.6f}")
            return 0

        if cfg.command == "scan":
            result = speed_amplitude_scan(cfg.params, cfg.speeds, cfg.grid, cfg.solver_cfg)
            rows = [
                (r.lambda2, r.speed_gap, r.amplitude, r.iterations, r.residual, r.converged)
                for r in result.rows
            ]
            _write_csv(os.path.join(out, "scan.csv"), metadata(cfg.params),
                       ["lambda2", "speed_gap", "amplitude", "iterations",
                        "residual", "converged"], rows)
            print(f"scan: {len(rows)} rows, all_converged={result.all_converged}")
            return 0 if result.all_converged else 3

        if cfg.command == "analyze":
            report = _solve(cfg)
            if not report.converged:
                print("error: profile solve did not converge", file=sys.stderr)
                return 3
            fit = decay_slope(report.profile, cfg.window)
            defect = evenness_defect(report.profile)
            plane = phase_plane(report.profile)
            meta = metadata(cfg.params)
            meta.update({
                "decay_slope": fit.slope, "decay_model_ok": fit.model_ok,
                "evenness_defect": defect,
                "tail_oscillations": plane.tail_oscillations,
            })
            x = cfg.grid.x
            rows = list(zip(x.tolist(), plane.rho.tolist(), plane.rho_x.tolist()))
            _write_csv(os.path.join(out, "analyze.csv"), meta,
                       ["x", "rho", "rho_x"], rows)
            print(f"analyze: slope={fit.slope:.4f} model_ok={fit.model_ok} "
                  f"evenness={defect:.3e} oscillations={plane.tail_oscillations}")
            return 0

        if cfg.command == "probe":
            report = _solve(cfg)
            if not report.converged:
                print("error: profile solve did not converge", file=sys.stderr)
                return 3
            alpha = cfg.probe_alpha
            if alpha is None:
                alpha = cfg.solver_cfg.resolved_alpha(cfg.params.sigma)
            est = fixed_point_spectrum_probe(cfg.params, cfg.grid, report, alpha)
            meta = metadata(cfg.params)
            meta.update({"alpha": alpha})
            _write_csv(os.path.join(out, "probe.csv"), meta,
                       ["alpha", "dominant_multiplier"], [(float(alpha), float(est))])
            print(f"probe: alpha={alpha} dominant multiplier={est:.6f}")
            return 0
    except (ParameterError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: I/O failure: {err}", file=sys.stderr)
        return 4
    raise AssertionError(f"unhandled command {cfg.command}")


# --------------------------------------------------------------------------
# Figure recipes.  Parameter sets follow the reproduction notes in the
# README; all CSVs carry full metadata headers.
# --------------------------------------------------------------------------

_FIG1_SPEEDS = (0.5, 1.0, 1.5)
_FIG6_SPEEDS = (0.5, 1.0, 1.5, 1.75)


def _base_params(lambda2: float, sigma: float = 1.0, s: float = 0.75,
                 kind: Kind = Kind.LINEAR_PHASE) -> ProblemParams:
    return ProblemParams(s=s, sigma=sigma, lambda1=1.0, lambda2=lambda2, kind=kind)


def reproduce_figures(recipe: str, out_dir) -> int:
    recipes = {
        "fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4,
        "fig5": _fig5, "fig6": _fig6, "fig7": _fig7,
    }
    if recipe not in recipes:
        print(f"error: unknown recipe '{recipe}' (have {sorted(recipes)})", file=sys.stderr)
        return 2
    try:
        os.makedirs(out_dir, exist_ok=True)
        return recipes[recipe](out_dir)
    except OSError as err:
        print(f"error: I/O failure: {err}", file=sys.stderr)
        return 4


def _fig1(out) -> int:
    grid = Grid()
    profiles = {}
    status = 0
    for c in _FIG1_SPEEDS:
        rep = solve_scalar(_base_params(c), grid)
        profiles[c] = rep.profile.samples
        if not rep.converged:
            status = 3
    rows = zip(grid.x.tolist(), *[profiles[c].tolist() for c in _FIG1_SPEEDS])
    _write_csv(os.path.join(out, "fig1a.csv"),
               {"s": 0.75, "sigma": 1.0, "lambda1": 1.0,
                "speeds": list(_FIG1_SPEEDS)},
               ["x"] + [f"rho_c{c}" for c in _FIG1_SPEEDS], rows)

    hist_rows = []
    for mw in (1, 3, 4, 6):
        cfg = SolverConfig(mw=mw)
        rep = solve_scalar(_base_params(1.0), grid, cfg)
        from .petviashvili import _history_iteration_counts

        for it, r in zip(_history_iteration_counts(rep), rep.residual_history):
            hist_rows.append((mw, it, float(r)))
        if not rep.converged:
            status = 3
    _write_csv(os.path.join(out, "fig1b.csv"),
               {"s": 0.75, "sigma": 1.0, "lambda1": 1.0, "lambda2": 1.0},
               ["mw", "iter", "residual"], hist_rows)
    print("fig1: wrote fig1a.csv, fig1b.csv")
    return status


def _fig2(out) -> int:
    params = _base_params(1.0)
    grid = Grid(l=64.0, n=2048)  # spatial step h = 6.25e-2
    rep = solve_scalar(params, grid, SolverConfig(tol=1e-12, max_iter=600))
    if not rep.converged:
        return 3
    evo = evolve_run(rep.envelope, params, EvolveConfig(dt=0.01, t_end=10.0, nl_tol=1e-13))
    amp_err = np.abs(evo.amplitude - evo.amplitude[0])
    ham_err = np.abs(evo.hamiltonian - evo.hamiltonian[0])
    rows = zip(evo.times.tolist(), amp_err.tolist(), ham_err.tolist())
    _write_csv(os.path.join(out, "fig2.csv"), evo.meta,
               ["t", "amplitude_error", "hamiltonian_error"], rows)
    print("fig2: wrote fig2.csv")
    return 3 if evo.aborted else 0


def _fig3(out) -> int:
    grid = Grid()
    status = 0
    eps_set = (0.05, 0.1, 0.25)
    cols, data = ["x"], [grid.x.tolist()]
    for eps in eps_set:
        rep = solve_scalar(_base_params(0.75, s=0.5 + eps), grid)
        cols.append(f"rho_s{0.5 + eps}")
        data.append(rep.profile.samples.tolist())
        status = status or (0 if rep.converged else 3)
    _write_csv(os.path.join(out, "fig3a.csv"),
               {"sigma": 1.0, "lambda1": 1.0, "lambda2": 0.75,
                "s_values": [0.5 + e for e in eps_set]},
               cols, zip(*data))

    cols, data = ["x"], [grid.x.tolist()]
    for sigma in (1.0, 2.0, 3.0):
        rep = solve_scalar(_base_params(1.0, sigma=sigma), grid)
        cols.append(f"rho_sigma{sigma}")
        data.append(rep.profile.samples.tolist())
        status = status or (0 if rep.converged else 3)
    _write_csv(os.path.join(out, "fig3b.csv"),
               {"s": 0.75, "lambda1": 1.0, "lambda2": 1.0,
                "sigma_values": [1.0, 2.0, 3.0]},
               cols, zip(*data))
    print("fig3: wrote fig3a.csv, fig3b.csv")
    return status


def _fig4(out) -> int:
    grid = Grid()
    params = _base_params(1.0, kind=Kind.COUPLED)
    rep_q = solve_coupled(params, grid, seed=initial_iterate(grid, "quadratic"))
    rep_l = solve_scalar(_base_params(1.0), grid)
    rows = zip(grid.x.tolist(),
               np.abs(rep_q.envelope.samples).tolist(),
               rep_l.profile.samples.tolist())
    _write_csv(os.path.join(out, "fig4.csv"),
               {"s": 0.75, "sigma": 1.0, "lambda1": 1.0, "lambda2": 1.0,
                "evenness_defect_quadratic": evenness_defect(rep_q.profile),
                "evenness_defect_linear": evenness_defect(rep_l.profile)},
               ["x", "rho_theta_x2", "rho_theta_Ax"], rows)
    print("fig4: wrote fig4.csv")
    return 0 if (rep_q.converged and rep_l.converged) else 3


def _fig5(out) -> int:
    grid = Grid()
    rows = []
    status = 0
    for c in _FIG1_SPEEDS:
        rep = solve_scalar(_base_params(c), grid)
        status = status or (0 if rep.converged else 3)
        x = grid.x
        vals = rep.profile.samples
        mask = (x > 0.0) & (vals > 0.0)
        for lx, lr in zip(np.log(x[mask]).tolist(), np.log(vals[mask]).tolist()):
            rows.append((c, lx, lr))
    _write_csv(os.path.join(out, "fig5.csv"),
               {"s": 0.75, "sigma": 1.0, "lambda1": 1.0,
                "reference_slope": -(2 * 0.75 + 1)},
               ["lambda2", "log_x", "log_rho"], rows)
    print("fig5: wrote fig5.csv")
    return status


def _fig6(out) -> int:
    grid = Grid()
    rows = []
    osc = {}
    status = 0
    for c in _FIG6_SPEEDS:
        rep = solve_scalar(_base_params(c), grid)
        status = status or (0 if rep.converged else 3)
        plane = phase_plane(rep.profile)
        osc[c] = plane.tail_oscillations
        for r, rx in zip(plane.rho.tolist(), plane.rho_x.tolist()):
            rows.append((c, r, rx))
    _write_csv(os.path.join(out, "fig6.csv"),
               {"s": 0.75, "sigma": 1.0, "lambda1": 1.0,
                "tail_oscillations": {str(k): v for k, v in osc.items()}},
               ["lambda2", "rho", "rho_x"], rows)
    print("fig6: wrote fig6.csv")
    return status


def _fig7(out) -> int:
    grid = Grid()
    speeds = [0.25 * k for k in range(1, 8)]
    status = 0
    for tag, kind in (("a", Kind.LINEAR_PHASE), ("b", Kind.COUPLED)):
        base = _base_params(speeds[0], kind=kind)
        result = speed_amplitude_scan(base, speeds, grid)
        rows = [(r.speed_gap, r.amplitude, r.lambda2, r.iterations, r.converged)
                for r in result.rows]
        _write_csv(os.path.join(out, f"fig7{tag}.csv"),
                   {"s": 0.75, "sigma": 1.0, "lambda1": 1.0, "kind": kind.value},
                   ["speed_gap", "amplitude", "lambda2", "iterations", "converged"],
                   rows)
        status = status or (0 if result.all_converged else 3)
    print("fig7: wrote fig7a.csv, fig7b.csv")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fnlswaves",
        description="Solitary-wave workbench for the 1D fractional NLS",
    )
    parser.add_argument("--config", help="run configuration file (INI)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--recipe", help="figure recipe: fig1 .. fig7")
    parser.add_argument("--seed-profile",
                        help="profile snapshot to evolve instead of solving")
    args = parser.parse_args(argv)

    if args.recipe:
        return reproduce_figures(args.recipe, args.out or "results")
    if not args.config:
        parser.print_usage(sys.stderr)
        print("error: --config or --recipe is required", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(args.config)
    except (ConfigError, ParameterError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return run_command(cfg, out_dir=args.out, seed_profile=args.seed_profile)


if __name__ == "__main__":
    sys.exit(main())
