"""Seeded workloads of the fnlswaves benchmark.

A workload turns a seed into a deterministic stream of operations.  An
operation is one call into the public fnlswaves API and a check of what the
call returned.  ``run.py`` times the calls and counts the outcomes; the
program itself only ever sees the generated inputs.

Every call goes through a module attribute (``petviashvili.solve_scalar``,
``evolve.run``, ``cli.main``) looked up at call time, so the traced run can
wrap it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from fnlswaves import cli, evolve, petviashvili
from fnlswaves.params import Kind, ProblemParams, limiting_speed
from fnlswaves.petviashvili import SolverConfig, initial_iterate
from fnlswaves.spectral import ComplexField, Grid

# Outcome of one checked operation.  UNSOLVED is an honest "did not
# converge" report (the solver hit max_iter and said so, or the CLI exited
# with its documented non-convergence code 3): the op delivered no result
# but the program did not misbehave.  FAIL is a wrong, inconsistent or
# missing result, an exception, or any other exit code.
PASS, UNSOLVED, FAIL = "pass", "unsolved", "fail"

MWS = (1, 3, 4, 6)
TOL = 1e-10
MAX_ITER = 500

# (s, sigma, lambda2, kind) of every profile the fig1..fig7 recipes and the
# acceptance suite solve (lambda1 = 1 throughout); coupled entries use the
# quadratic-phase seed, as fig4 and fig7b do.
RECIPE_POINTS = tuple(
    [(0.75, 1.0, 0.25 * k, Kind.LINEAR_PHASE) for k in range(1, 8)]
    + [(0.55, 1.0, 0.75, Kind.LINEAR_PHASE), (0.6, 1.0, 0.75, Kind.LINEAR_PHASE)]
    + [(0.75, 2.0, 1.0, Kind.LINEAR_PHASE), (0.75, 3.0, 1.0, Kind.LINEAR_PHASE)]
    + [(0.75, 1.0, 0.25 * k, Kind.COUPLED) for k in range(1, 8)]
)


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (outcome, detail)


def _radical_inverse(i: int, base: int, perm) -> float:
    out, f = 0.0, 1.0
    while i:
        f /= base
        i, digit = divmod(i, base)
        out += f * perm[digit]
    return out


class _Halton:
    """Scrambled, randomly shifted Halton points in [0, 1)^d.

    The first N points cover the cube far more evenly than N random ones,
    so a design of a few hundred problems still meets every grid size,
    width and corner of the parameter window in its proper share.
    """

    PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

    def __init__(self, rng: np.random.Generator, dim: int):
        self.bases = self.PRIMES[:dim]
        self.perms = [np.concatenate([[0], 1 + rng.permutation(b - 1)]) for b in self.bases]
        self.shift = rng.random(dim)

    def point(self, i: int) -> np.ndarray:
        u = [_radical_inverse(i + 1, b, p) for b, p in zip(self.bases, self.perms)]
        return (np.asarray(u) + self.shift) % 1.0


def cold_solve(params: ProblemParams, grid: Grid, mw: int, tol=TOL, max_iter=MAX_ITER):
    """One cold solve: the coupled kind starts from the quadratic-phase seed."""
    cfg = SolverConfig(tol=tol, max_iter=max_iter, mw=mw)
    if params.kind is Kind.COUPLED:
        return petviashvili.solve_coupled(params, grid, cfg, seed=initial_iterate(grid, "quadratic"))
    return petviashvili.solve_scalar(params, grid, cfg)


def check_solve(report, tol=TOL, max_iter=MAX_ITER) -> tuple:
    if report.converged:
        if report.final_residual <= tol:
            return PASS, ""
        return FAIL, f"claims convergence at residual {report.final_residual:.2e} > tol"
    if report.iterations >= max_iter and np.all(np.isfinite(report.envelope.samples)):
        return UNSOLVED, f"no convergence in {report.iterations} its"
    return FAIL, f"stopped early without converging ({report.iterations} its)"


# --------------------------------------------------------------------------
# solve-mix: cold profile solves across sizes, widths and parameters.
# --------------------------------------------------------------------------

# (l, n, share, kinds of window draws).  The n spread separates per-call
# Python overhead (n=1024) from FFT cost (n=65536); n=65536 is rare because
# one solve there costs as much as fifty at n=1024.
#
# Window draws are kept off the grids where a non-converging solve would
# swamp a run: a solve that runs to max_iter costs 0.1-0.5 s at n <= 4096,
# 2-3 s at n=16384 and about 10 s at n=65536.  The coupled quadratic-seed
# solve fails to converge on a patchy part of the window (small s, large
# sigma; wider at l=32), so it is drawn only up to n=4096.  At n=65536 the
# residual floor of the absolute residual sits near 1e-10, so window draws
# with s >~ 0.8 run to max_iter there; that grid takes recipe points only,
# which all converge at every width.
SOLVE_GRIDS = (
    (32.0, 1024, 0.30, (Kind.LINEAR_PHASE, Kind.COUPLED)),
    (64.0, 4096, 0.40, (Kind.LINEAR_PHASE, Kind.COUPLED)),
    (256.0, 16384, 0.27, (Kind.LINEAR_PHASE,)),
    (256.0, 65536, 0.03, ()),
)
TINY_SOLVE_GRIDS = tuple((l, n, share, kinds) for (l, n), (_, _, share, kinds)
                         in zip(((32.0, 512), (32.0, 1024), (64.0, 2048), (64.0, 4096)), SOLVE_GRIDS))
CLASSICAL_EVERY = 20  # every 20th problem of the design is the s=1, c=0 soliton
DESIGN_SIZE = 160
DESIGN_SEED = 20240119  # fixes the problem set; --seed only orders and mirrors it


@dataclass(frozen=True)
class SolveDraw:
    params: ProblemParams
    l: float
    n: int
    mw: int
    source: str  # "recipe", "window" or "classical"


class SolveMix:
    """Op = one cold profile solve to tol 1e-10.

    The design is DESIGN_SIZE problems.  Half of them are recipe parameter
    sets; half span the admissible window (s in (0.5, 1], sigma in
    [0.5, 3], |c| < 0.9 c(1), either kind, see SOLVE_GRIDS), placed by a
    scrambled Halton sequence so they cover it evenly.  The problem set is
    the same for every seed: which window problems fail to converge, and
    how many n=65536 solves there are, would otherwise change ops_per_s by
    more than any bound worth keeping.  The seed orders the design (each
    grid size spread evenly over a pass) and mirrors the speed sign of each
    problem, which routes it through the speed-sign canonicalization
    without changing the iteration.  Non-converging problems stay in the
    mix as UNSOLVED ops.
    """

    name = "solve-mix"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.grids = TINY_SOLVE_GRIDS if tiny else SOLVE_GRIDS
        self.draws: list = []

    def setup(self) -> None:
        self.draws = self.generate()
        self.warm_grids = sorted({(d.l, d.n) for d in self.draws})

    def design(self) -> list:
        halton = _Halton(np.random.default_rng(DESIGN_SEED), 7)
        cum = np.cumsum([g[2] for g in self.grids])
        small_l, small_n = self.grids[0][:2]
        draws = []
        for i in range(DESIGN_SIZE):
            if i % CLASSICAL_EVERY == 0:
                p = ProblemParams(s=1.0, sigma=1.0, lambda1=1.0, lambda2=0.0)
                draws.append(SolveDraw(p, small_l, small_n, MWS[(i // CLASSICAL_EVERY) % 4], "classical"))
                continue
            u = halton.point(i)
            l, n, _, kinds = self.grids[min(int(np.searchsorted(cum, u[0], side="right")), len(cum) - 1)]
            mw = MWS[int(u[1] * len(MWS))]
            if u[2] < 0.5 or not kinds:
                s, sigma, c, kind = RECIPE_POINTS[int(u[3] * len(RECIPE_POINTS))]
                source = "recipe"
            else:
                s = 0.51 + 0.49 * u[3]
                sigma = 0.5 + 2.5 * u[4]
                c = (2.0 * u[5] - 1.0) * 0.9 * limiting_speed(s, 1.0)
                kind = kinds[int(u[6] * len(kinds))]
                source = "window"
            p = ProblemParams(s=s, sigma=sigma, lambda1=1.0, lambda2=c, kind=kind)
            draws.append(SolveDraw(p, l, n, mw, source))
        return draws

    def generate(self) -> list:
        """The design in seeded order, speed signs mirrored at random.

        Each (grid size, width) stratum gets evenly spaced slots in the
        pass, so every prefix, including the part-pass that ends a run, holds
        about its share of cheap and costly solves.
        """
        rng = np.random.default_rng(self.seed)
        draws = self.design()
        keys = np.empty(len(draws))
        for stratum in sorted({(d.n, d.mw) for d in draws}):
            idx = [i for i, d in enumerate(draws) if (d.n, d.mw) == stratum]
            keys[rng.permutation(idx)] = (np.arange(len(idx)) + rng.random(len(idx))) / len(idx)
        out = []
        for i in np.argsort(keys, kind="stable"):
            d = draws[i]
            if rng.random() < 0.5:
                p = d.params
                d = SolveDraw(ProblemParams(s=p.s, sigma=p.sigma, lambda1=p.lambda1,
                                            lambda2=-p.lambda2, kind=p.kind), d.l, d.n, d.mw, d.source)
            out.append(d)
        return out

    def warmup(self) -> None:
        """One untimed solve per grid size, so FFT plans and allocations exist."""
        p = ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=1.0)
        for l, n in self.warm_grids:
            cold_solve(p, Grid(l=l, n=n), mw=6)

    def ops(self) -> Iterator[Op]:
        i = 0
        while True:
            d = self.draws[i % len(self.draws)]
            i += 1
            grid = Grid(l=d.l, n=d.n)
            check = self._check_classical(grid) if d.source == "classical" else check_solve
            label = f"{d.source} n={d.n} mw={d.mw} kind={d.params.kind.value}"
            yield Op(label, lambda d=d, grid=grid: cold_solve(d.params, grid, d.mw), check)

    @staticmethod
    def _check_classical(grid: Grid):
        exact = math.sqrt(2.0) / np.cosh(grid.x)

        def check(report):
            outcome, detail = check_solve(report)
            if outcome != PASS:
                return outcome, detail
            err = float(np.max(np.abs(report.profile.samples - exact)))
            if err > 1e-8:
                return FAIL, f"classical profile off sqrt(2) sech by {err:.1e}"
            return PASS, ""

        return check

    def describe(self) -> list:
        return [(d.params, d.l, d.n, d.mw, d.source) for d in self.generate()]


# --------------------------------------------------------------------------
# evolve-long: chained implicit-midpoint segments from solved profiles.
# --------------------------------------------------------------------------

SEGMENT_STEPS = 50
DT = 0.01
WAVE = ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=1.0)


@dataclass(frozen=True)
class EvolveCase:
    name: str
    l: float
    n: int
    seed_tol: float
    nl_tol: float


# fig2 as the recipe runs it, and a 4x finer grid on a wider domain.  The
# n=8192 seed is solved to 1e-10: at 1e-12 it never converges (the
# residual floor grows with n).
EVOLVE_CASES = (
    EvolveCase("fig2", 64.0, 2048, 1e-12, 1e-13),
    EvolveCase("n8192", 128.0, 8192, 1e-10, 1e-12),
)
TINY_EVOLVE_CASES = (
    EvolveCase("fig2", 32.0, 512, 1e-12, 1e-13),
    EvolveCase("n8192", 32.0, 1024, 1e-10, 1e-12),
)
# Three fig2 segments per n=8192 segment keep both percentiles inside one
# case each: p50 among the fig2 segments, p90 among the n=8192 ones.
EVOLVE_PATTERN = (0, 0, 0, 1)


class _Chain:
    """One long evolution, advanced a segment per op."""

    def __init__(self, case: EvolveCase, u0: ComplexField):
        self.case = case
        self.u0 = u0
        self.u = u0
        self.mass0 = evolve.mass(u0)
        self.cfg = evolve.EvolveConfig(dt=DT, t_end=SEGMENT_STEPS * DT,
                                       snapshot_stride=SEGMENT_STEPS, nl_tol=case.nl_tol)

    def advance(self):
        report = evolve.run(self.u, WAVE, self.cfg)
        if report.aborted is None:
            self.u = report.snapshots[-1][1]
        return report

    def check(self, report) -> tuple:
        if report.aborted is not None:
            return FAIL, f"{self.case.name}: aborted: {report.aborted}"
        drift = float(np.max(np.abs(report.mass - self.mass0)))
        if drift > 1e-9:
            return FAIL, f"{self.case.name}: mass drift {drift:.1e} > 1e-9"
        speed = report.peak_speed()
        if abs(speed - 1.0) > 0.01:
            return FAIL, f"{self.case.name}: peak speed {speed:.4f} outside 1 +- 1%"
        return PASS, ""


class EvolveLong:
    """Op = one evolve.run segment of 50 steps.

    Each segment starts from the previous segment's final state, so each
    case is one long evolution.  The seed translates the solved profile by
    a whole number of grid points and rotates its phase: the same wave,
    different numbers.  The seed solves count toward set-up.
    """

    name = "evolve-long"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.cases = TINY_EVOLVE_CASES if tiny else EVOLVE_CASES
        self.starts: list = []

    def symmetry_draw(self) -> list:
        rng = np.random.default_rng(self.seed)
        return [(int(rng.integers(case.n)), float(rng.uniform(0.0, 2.0 * math.pi)))
                for case in self.cases]

    def setup(self) -> None:
        self.starts = []
        for case, (shift, phase) in zip(self.cases, self.symmetry_draw()):
            grid = Grid(l=case.l, n=case.n)
            report = cold_solve(WAVE, grid, mw=1, tol=case.seed_tol, max_iter=600)
            if not report.converged:
                raise RuntimeError(f"{case.name}: seed solve did not converge")
            u = np.roll(report.envelope.samples, shift) * np.exp(1j * phase)
            self.starts.append(ComplexField(grid, u))

    def warmup(self) -> None:
        for case, u0 in zip(self.cases, self.starts):
            _Chain(case, u0).advance()

    def ops(self) -> Iterator[Op]:
        chains = [_Chain(case, u0) for case, u0 in zip(self.cases, self.starts)]
        k = 0
        while True:
            chain = chains[EVOLVE_PATTERN[k % len(EVOLVE_PATTERN)]]
            k += 1
            yield Op(f"segment {chain.case.name}", chain.advance, chain.check)

    def describe(self) -> list:
        return self.symmetry_draw()


# --------------------------------------------------------------------------
# cli-pipeline: in-process CLI commands on generated INI configs.
# --------------------------------------------------------------------------

CLI_COMMANDS = ("solve", "evolve", "analyze", "probe", "scan")
# Column layout of every CSV the commands write, as tests/test_cli.py pins it.
CLI_COLUMNS = {
    "solve": ("solve.csv", "iter,residual,m_nu"),
    "evolve": ("evolve.csv", "t,I1,I2,H,amplitude,peak_x"),
    "analyze": ("analyze.csv", "x,rho,rho_x"),
    "probe": ("probe.csv", "alpha,dominant_multiplier"),
    "scan": ("scan.csv", "lambda2,speed_gap,amplitude,iterations,residual,converged"),
}
FIG7_SPEEDS = tuple(0.25 * k for k in range(1, 8))


def _ini(command: str, point, mw: int, l: float, n: int) -> str:
    s, sigma, c, kind = point
    theta = "quadratic" if kind is Kind.COUPLED else "linear"
    text = (
        f"[run]\ncommand = {command}\nformat_version = 1\n\n"
        f"[problem]\ns = {s!r}\nsigma = {sigma!r}\nlambda1 = 1.0\nlambda2 = {c!r}\nkind = {kind.value}\n\n"
        f"[grid]\nl = {l!r}\nn = {n}\n\n"
        f"[solver]\ntol = {TOL!r}\nmax_iter = {MAX_ITER}\nmw = {mw}\ntheta = {theta}\n"
    )
    if command == "evolve":
        text += "\n[evolve]\ndt = 0.01\nt_end = 0.2\nnl_tol = 1e-12\n"
    elif command == "probe":
        text += "\n[probe]\n"
    elif command == "scan":
        limit = 0.95 * limiting_speed(s, 1.0)
        speeds = FIG7_SPEEDS if FIG7_SPEEDS[-1] < limit else [limit * k / 8.0 for k in range(1, 8)]
        text += "\n[scan]\nspeeds = " + ", ".join(repr(v) for v in speeds) + "\n"
    return text


class CliPipeline:
    """Op = one in-process ``fnlswaves.cli.main([...])`` call, stdout captured.

    The calls cycle through solve (writes a snapshot), evolve --seed-profile
    (reads it back), analyze, probe and a 7-speed scan.  There is one cycle
    per recipe parameter set, each with a fixed width; the seed orders the
    cycles, so every seed runs the same commands.  Configs and outputs live
    in ``workdir``.
    """

    name = "cli-pipeline"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.l, self.n = (32.0, 512) if tiny else (64.0, 4096)
        self.cycles: list = []
        self.bytes_written: list = []

    def draw(self) -> list:
        cycles = [(point, MWS[i % len(MWS)]) for i, point in enumerate(RECIPE_POINTS)]
        order = np.random.default_rng(self.seed).permutation(len(cycles))
        return [cycles[i] for i in order]

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        for command in CLI_COMMANDS:
            os.makedirs(os.path.join(self.workdir, "out", command))
        self.cycles = []
        for j, (point, mw) in enumerate(self.draw()):
            paths = {}
            for command in CLI_COMMANDS:
                path = os.path.join(self.workdir, f"c{j:03d}_{command}.ini")
                with open(path, "w") as fh:
                    fh.write(_ini(command, point, mw, self.l, self.n))
                paths[command] = path
            self.cycles.append(paths)

    def warmup(self) -> None:
        """One untimed call of each command."""
        for command in CLI_COMMANDS:
            self._main(command, self.cycles[0][command])

    def _out(self, command: str) -> str:
        return os.path.join(self.workdir, "out", command)

    def _main(self, command: str, config: str):
        argv = ["--config", config, "--out", self._out(command)]
        if command == "evolve":
            argv += ["--seed-profile", os.path.join(self._out("solve"), "solve_profile.dat")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def ops(self) -> Iterator[Op]:
        k = 0
        while True:
            paths = self.cycles[(k // len(CLI_COMMANDS)) % len(self.cycles)]
            command = CLI_COMMANDS[k % len(CLI_COMMANDS)]
            k += 1
            yield Op(command, lambda c=command, p=paths[command]: self._main(c, p),
                     lambda result, c=command: self._check(c, result))

    def _check(self, command: str, result) -> tuple:
        code, out, err = result
        if code == 3:
            return UNSOLVED, f"{command}: exit 3: {err.strip()}"
        if code != 0:
            return FAIL, f"{command}: exit {code}: {err.strip()}"
        name, columns = CLI_COLUMNS[command]
        path = os.path.join(self._out(command), name)
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(line for line in fh if not line.startswith("#"))]
        if not rows or ",".join(rows[0]) != columns:
            return FAIL, f"{command}: {name} columns {rows[0] if rows else None} != {columns}"
        if command == "scan" and any(row[-1] != "True" for row in rows[1:]):
            return FAIL, "scan: a row did not converge"
        if command == "solve" and not os.path.isfile(os.path.join(self._out("solve"), "solve_profile.dat")):
            return FAIL, "solve: no profile snapshot"
        out_dir = self._out(command)
        self.bytes_written.append(sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file()))
        return PASS, ""

    def describe(self) -> list:
        return self.draw()


def make(name: str, seed: int, workdir: str, tiny: bool = False):
    if name == SolveMix.name:
        return SolveMix(seed, tiny)
    if name == EvolveLong.name:
        return EvolveLong(seed, tiny)
    if name == CliPipeline.name:
        return CliPipeline(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")
