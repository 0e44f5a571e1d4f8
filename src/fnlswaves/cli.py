"""Command-line front end: config-driven runs and figure-recipe bundles.

Configs are INI key/value files with an explicit schema version; unknown
sections or keys are rejected so typos fail loudly.  Outputs are CSV files
with '#'-prefixed metadata headers (all parameters plus the derived
limiting speed, phase slope and spectral shift) in full-precision
scientific notation, and field snapshots in the documented text layout.

Exit codes: 0 success, 2 config/validation error, 3 solver non-convergence
or divergence (partial artifacts are kept), 4 I/O failure.  ``main`` is the
one place that maps an exception to its code, and it reads every input
(config, seed snapshot, recipe name) before the output directory exists.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import accel
from .analysis import decay_slope, decay_window, phase_plane, speed_amplitude_scan
from .evolve import EvolveConfig, run as evolve_run, save_evolution
from .params import Kind, ParameterError, ProblemParams, metadata
from .petviashvili import (
    SolverConfig,
    fixed_point_spectrum_probe,
    initial_iterate,
    reflection_conjugate_defect,
    save_report,
    solve_on_grid,
    solve_scalar,
)
from .spectral import ComplexField, Grid, load_field, write_csv

SCHEMA_VERSION = 1

# The sections each command needs.
_COMMANDS = {
    "solve": ("problem", "grid"),
    "evolve": ("problem", "grid", "evolve"),
    "scan": ("problem", "grid", "scan"),
    "analyze": ("problem", "grid"),
    "probe": ("problem", "grid", "probe"),
}

_REQUIRED_KEYS = {
    "run": ("command",),
    "problem": ("s", "sigma", "lambda1", "lambda2"),
    "scan": ("speeds",),
}


class ConfigError(ValueError):
    pass


# Value readers: each returns the parsed value or raises ValueError.
def _number(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"'{text}' is not a finite number")
    return value


def _numbers(text: str) -> list:
    values = [_number(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise ValueError("needs at least one number")
    return values


def _choice(*options):
    """Reader for one of ``options`` (strings or enum members), any case."""
    by_name = {getattr(o, "value", o): o for o in options}

    def read(text: str):
        if text.lower() not in by_name:
            raise ValueError(f"'{text}' is not one of {'|'.join(by_name)}")
        return by_name[text.lower()]
    return read


# Every config key and its reader; a section or key not listed is rejected.
# [grid], [solver] (but theta, the seed phase) and [evolve] keys are fields
# of Grid, SolverConfig and EvolveConfig, built from the keys present.
_KEYS = {
    "run": {"command": _choice(*_COMMANDS), "format_version": int, "out": str},
    "problem": {"s": _number, "sigma": _number, "lambda1": _number, "lambda2": _number,
                "kind": _choice(*Kind)},
    "grid": {"l": _number, "n": int},
    "solver": {"alpha": lambda text: _number(text) if text else None, "tol": _number,
               "max_iter": int, "mw": int, "theta": _choice("linear", "quadratic", "none")},
    "evolve": {"dt": _number, "t_end": _number, "snapshot_stride": int,
               "nl_tol": _number, "nl_max": int},
    "scan": {"speeds": _numbers},
    "analyze": {"window_min": _number, "window_max": _number},
    "probe": {"alpha": _number},
}


@dataclass
class RunConfig:
    """Parsed, validated and resolved run configuration: ``seed`` is the
    theta seed (None for linear, each problem's own sech e^{iAx}), and
    ``probe_alpha`` is [probe] alpha, else the solver's resolved alpha."""

    command: str
    params: ProblemParams
    grid: Grid
    solver_cfg: SolverConfig
    evolve_cfg: EvolveConfig
    speeds: list | None
    window: tuple
    probe_alpha: float
    seed: ComplexField | None
    out: str


def parse_config(path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}")
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")

    problems, values = [], {}
    for section in cp.sections():
        readers = _KEYS.get(section)
        if readers is None:
            problems.append(f"unknown section [{section}]")
            continue
        values[section] = {}
        for key, text in cp[section].items():
            if key not in readers:
                problems.append(f"unknown key '{key}' in [{section}]")
                continue
            try:
                values[section][key] = readers[key](text)
            except ValueError as err:
                problems.append(f"[{section}] {key}: {err}")
    if "run" not in values:
        problems.append("missing [run] section with 'command'")
    problems += [f"[{section}] missing '{key}'" for section, keys in _REQUIRED_KEYS.items()
                 if section in values for key in keys if key not in values[section]]
    if problems:
        raise ConfigError("; ".join(problems))

    run = values["run"]
    command = run["command"]
    version = run.get("format_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported format_version {version} (expected {SCHEMA_VERSION})")
    missing = [b for b in _COMMANDS[command] if b not in values]
    if missing:
        raise ConfigError(f"command '{command}' needs section(s): {', '.join(missing)}")

    grid = _in_section("grid", Grid, **values["grid"])
    solver = dict(values.get("solver", {}))
    phase = {"linear": None, "quadratic": "quadratic", "none": 0.0}[solver.pop("theta", "linear")]
    speeds = values.get("scan", {}).get("speeds")
    try:
        params = ProblemParams(**values["problem"])
        for c in speeds or ():  # each scan row is built the same way
            replace(params, lambda2=c)
    except ParameterError as err:
        raise ConfigError(f"invalid parameters: {err}")
    solver_cfg = _in_section("solver", SolverConfig, **solver)
    # the window of alpha depends on sigma
    alpha = _in_section("solver", solver_cfg.resolved_alpha, params.sigma)
    analyze = values.get("analyze", {})
    window = _in_section("analyze", decay_window, grid,
                         (analyze.get("window_min"), analyze.get("window_max")),
                         count=command == "analyze")
    return RunConfig(
        command=command,
        params=params,
        grid=grid,
        solver_cfg=solver_cfg,
        evolve_cfg=_in_section("evolve", EvolveConfig, **values.get("evolve", {})),
        speeds=speeds,
        window=window,
        probe_alpha=values.get("probe", {}).get("alpha", alpha),
        seed=None if phase is None else initial_iterate(grid, phase),
        out=run.get("out", "results"),
    )


def _in_section(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError prefixed with [section]."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"[{section}] {err}")


def _solve(cfg: RunConfig):
    return solve_scalar(cfg.params, cfg.grid, cfg.solver_cfg, seed=cfg.seed)


def run_command(cfg: RunConfig, out_dir=None, start: ComplexField | None = None) -> int:
    """Execute one command; outputs are deterministic given the config.

    ``start`` is the evolve start read from --seed-profile; None solves for it.
    """
    out = out_dir or cfg.out
    os.makedirs(out, exist_ok=True)
    if cfg.command == "solve":
        report = _solve(cfg)
        save_report(report, out, "solve")
        print(f"solve: converged={report.converged} iterations={report.iterations} "
              f"residual={report.final_residual:.3e}")
        return 0 if report.converged else 3

    if cfg.command == "evolve":
        if start is None:
            report = _solve(cfg)
            if not report.converged:
                save_report(report, out, "solve")
                print("error: profile solve did not converge", file=sys.stderr)
                return 3
            start = report.envelope
        evo = evolve_run(start, cfg.params, cfg.evolve_cfg)
        save_evolution(evo, out, "evolve")
        if evo.aborted:
            print(f"error: evolution aborted: {evo.aborted}", file=sys.stderr)
            return 3
        print(f"evolve: steps={len(evo.times) - 1} peak_speed={evo.peak_speed():.6f}")
        return 0

    if cfg.command == "scan":
        result = speed_amplitude_scan(cfg.params, cfg.speeds, cfg.grid, cfg.solver_cfg,
                                      seed=cfg.seed)
        rows = [
            (r.lambda2, r.speed_gap, r.amplitude, r.iterations, r.residual, r.converged)
            for r in result.rows
        ]
        write_csv(os.path.join(out, "scan.csv"), metadata(cfg.params),
                  ["lambda2", "speed_gap", "amplitude", "iterations",
                   "residual", "converged"], rows)
        print(f"scan: {len(rows)} rows, all_converged={result.all_converged}")
        return 0 if result.all_converged else 3

    # analyze and probe read the solved profile and write nothing without it
    report = _solve(cfg)
    if not report.converged:
        print("error: profile solve did not converge", file=sys.stderr)
        return 3
    if cfg.command == "analyze":
        fit = decay_slope(report.profile, cfg.window)
        defect = reflection_conjugate_defect(report.profile.samples)
        plane = phase_plane(report.profile)
        meta = {**metadata(cfg.params),
                "decay_slope": fit.slope, "decay_model_ok": fit.model_ok,
                "evenness_defect": defect,
                "tail_oscillations": plane.tail_oscillations}
        rows = zip(cfg.grid.x.tolist(), plane.rho.tolist(), plane.rho_x.tolist())
        write_csv(os.path.join(out, "analyze.csv"), meta, ["x", "rho", "rho_x"], rows)
        print(f"analyze: slope={fit.slope:.4f} model_ok={fit.model_ok} "
              f"evenness={defect:.3e} oscillations={plane.tail_oscillations}")
        return 0

    est = fixed_point_spectrum_probe(cfg.params, report, cfg.probe_alpha)
    write_csv(os.path.join(out, "probe.csv"), {**metadata(cfg.params), "alpha": cfg.probe_alpha},
              ["alpha", "dominant_multiplier"], [(float(cfg.probe_alpha), float(est))])
    print(f"probe: alpha={cfg.probe_alpha} dominant multiplier={est:.6f}")
    return 0


# --------------------------------------------------------------------------
# Figure recipes; the README lists each one's parameter set.  A recipe is
# handed two recorders: ``solve`` runs solve_scalar and records whether it
# converged, and ``write`` writes a CSV, records its name and records ``ok``
# for a result that is not one nested solve.
# --------------------------------------------------------------------------

# Every recipe works around s = 3/4, the cubic nonlinearity and lambda1 = 1.
_RECIPE = {"s": 0.75, "sigma": 1.0, "lambda1": 1.0}
_FIG1_SPEEDS = (0.5, 1.0, 1.5)
_FIG3_S = tuple(0.5 + eps for eps in (0.05, 0.1, 0.25))
_FIG3_SIGMAS = (1.0, 2.0, 3.0)
_FIG6_SPEEDS = (0.5, 1.0, 1.5, 1.75)
_FIG7_SPEEDS = tuple(0.25 * k for k in range(1, 8))


def _params(lambda2: float, **change) -> ProblemParams:
    return ProblemParams(**{**_RECIPE, **change}, lambda2=lambda2)


def _header(*drop, **extra) -> dict:
    """The recipe parameter set without the keys in ``drop``, then ``extra``."""
    return {**{k: v for k, v in _RECIPE.items() if k not in drop}, **extra}


def _profile_table(write, name: str, meta: dict, reports: dict):
    """x, then the profile rho of each {column name: report} entry."""
    rows = zip(Grid().x.tolist(), *[r.profile.samples.tolist() for r in reports.values()])
    write(name, meta, ["x", *reports], rows)


def _fig1(write, solve):
    _profile_table(write, "fig1a.csv", _header(speeds=list(_FIG1_SPEEDS)),
                   {f"rho_c{c}": solve(_params(c)) for c in _FIG1_SPEEDS})
    # the residual history of the iteration itself, cold on one grid
    reports = {mw: solve_on_grid(_params(1.0), Grid(), SolverConfig(mw=mw)) for mw in (1, 3, 4, 6)}
    rows = [(mw, it, float(r)) for mw, rep in reports.items()
            for it, r in zip(rep.history_iterations, rep.residual_history)]
    write("fig1b.csv", _header(lambda2=1.0), ["mw", "iter", "residual"], rows,
          ok=all(rep.converged for rep in reports.values()))


def _fig2(write, solve):
    params = _params(1.0)
    # h = 6.25e-2 on the default l = 64; the default dt = 0.01 up to t = 10
    rep = solve(params, Grid(n=2048), SolverConfig(tol=1e-12, max_iter=600))
    if not rep.converged:
        return
    evo = evolve_run(rep.envelope, params, EvolveConfig(nl_tol=1e-13))
    amp_err = np.abs(evo.amplitude - evo.amplitude[0])
    ham_err = np.abs(evo.hamiltonian - evo.hamiltonian[0])
    rows = zip(evo.times.tolist(), amp_err.tolist(), ham_err.tolist())
    write("fig2.csv", evo.meta, ["t", "amplitude_error", "hamiltonian_error"], rows,
          ok=not evo.aborted)


def _fig3(write, solve):
    _profile_table(
        write, "fig3a.csv", _header("s", lambda2=0.75, s_values=list(_FIG3_S)),
        {f"rho_s{s}": solve(_params(0.75, s=s)) for s in _FIG3_S})
    _profile_table(
        write, "fig3b.csv", _header("sigma", lambda2=1.0, sigma_values=list(_FIG3_SIGMAS)),
        {f"rho_sigma{sigma}": solve(_params(1.0, sigma=sigma)) for sigma in _FIG3_SIGMAS})


def _fig4(write, solve):
    quadratic = solve(_params(1.0), seed=initial_iterate(Grid(), "quadratic"))
    linear = solve(_params(1.0))
    meta = _header(lambda2=1.0,
                   evenness_defect_quadratic=reflection_conjugate_defect(quadratic.profile.samples),
                   evenness_defect_linear=reflection_conjugate_defect(linear.profile.samples))
    _profile_table(write, "fig4.csv", meta, {"rho_theta_x2": quadratic, "rho_theta_Ax": linear})


def _fig5(write, solve):
    x = Grid().x
    rows = []
    for c in _FIG1_SPEEDS:
        vals = solve(_params(c)).profile.samples
        mask = (x > 0.0) & (vals > 0.0)
        logs = zip(np.log(x[mask]).tolist(), np.log(vals[mask]).tolist())
        rows += [(c, lx, lr) for lx, lr in logs]
    meta = _header(reference_slope=-(2 * _RECIPE["s"] + 1))
    write("fig5.csv", meta, ["lambda2", "log_x", "log_rho"], rows)


def _fig6(write, solve):
    rows, osc = [], {}
    for c in _FIG6_SPEEDS:
        plane = phase_plane(solve(_params(c)).profile)
        osc[str(c)] = plane.tail_oscillations
        rows += [(c, r, rx) for r, rx in zip(plane.rho.tolist(), plane.rho_x.tolist())]
    write("fig6.csv", _header(tail_oscillations=osc), ["lambda2", "rho", "rho_x"], rows)


def _fig7(write, solve):
    for tag, kind, seed in (("a", Kind.LINEAR_PHASE, None),
                            ("b", Kind.COUPLED, initial_iterate(Grid(), "quadratic"))):
        result = speed_amplitude_scan(_params(_FIG7_SPEEDS[0]), _FIG7_SPEEDS, Grid(), seed=seed)
        rows = [(r.speed_gap, r.amplitude, r.lambda2, r.iterations, r.converged)
                for r in result.rows]
        write(f"fig7{tag}.csv", _header(kind=kind.value),
              ["speed_gap", "amplitude", "lambda2", "iterations", "converged"], rows,
              ok=result.all_converged)


_RECIPES = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4,
            "fig5": _fig5, "fig6": _fig6, "fig7": _fig7}


def reproduce_figures(recipe: str, out_dir) -> int:
    if recipe not in _RECIPES:
        raise ValueError(f"unknown recipe '{recipe}' (have {sorted(_RECIPES)})")
    os.makedirs(out_dir, exist_ok=True)
    files, outcomes = [], []

    def write(name: str, meta: dict, columns, rows, ok: bool = True) -> None:
        write_csv(os.path.join(out_dir, name), meta, columns, rows)
        files.append(name)
        outcomes.append(ok)

    def solve(params, grid=Grid(), cfg=None, seed=None):
        report = solve_scalar(params, grid, cfg, seed=seed)
        outcomes.append(report.converged)
        return report

    _RECIPES[recipe](write, solve)
    if files:
        print(f"{recipe}: wrote {', '.join(files)}")
    return 0 if all(outcomes) else 3


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

    if not (args.recipe or args.config):
        parser.print_usage(sys.stderr)
        print("error: --config or --recipe is required", file=sys.stderr)
        return 2
    try:
        if args.recipe:
            return reproduce_figures(args.recipe, args.out or "results")
        cfg = parse_config(args.config)
        start = None
        if args.seed_profile:
            if cfg.command != "evolve":
                raise ConfigError("--seed-profile applies to the evolve command only")
            fld, _ = load_field(args.seed_profile)
            if fld.grid != cfg.grid:
                raise ConfigError(f"--seed-profile is on {fld.grid}, [grid] on {cfg.grid}")
            start = ComplexField(fld.grid, fld.samples)
        return run_command(cfg, out_dir=args.out, start=start)
    except ValueError as err:  # ConfigError and ParameterError included
        print(f"error: {err}", file=sys.stderr)
        return 2
    except accel.DivergenceError as err:
        print(f"error: solve diverged: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: I/O failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
