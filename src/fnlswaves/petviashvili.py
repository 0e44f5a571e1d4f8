"""Petviashvili fixed-point solver for the solitary-wave profile equations.

The coupled profile system Q(v, w)^T = (v^2+w^2)^sigma (v, w)^T diagonalizes
in the complex variable u = v + i w: both rows combine into

    L u = |u|^{2 sigma} u,   L with real symbol  |xi|^{2s} + lambda1 - lambda2*xi.

The linear-phase subfamily u = rho(x) e^{iAx} turns the same equation into
(M + a) rho = rho^{2 sigma + 1}, so one iteration on u solves both profile
problems, and the seed alone picks the wave it converges to: sech e^{iAx}
gives the linear-phase wave, other phases enter the basin elsewhere.  The
iteration runs on the spectrum of u, where L is diagonal, and transforms
only to form the nonlinearity: two transforms a step.  A seed with
u(x) = conj(u(-x)), the default one among them, keeps that symmetry under
the iteration, which then runs on a real spectrum with half-size
transforms (see ProfileIteration).  The reported residual is the discrete
Euclidean residual of the profile equation on the grid samples, taken
from the spectrum by Parseval, and the real profile rho is the modulus of
the converged envelope.  Each step evaluates the stabilizing factor

    m = <L z, z> / <G(z), z>,

raises it to the power alpha in (1, (2 sigma + 2) / (2 sigma)), and inverts
L mode by mode.  m tames the harmful eigenvalue 2 sigma + 1 of the naive
fixed-point map; at the optimal alpha = (2 sigma + 1) / (2 sigma) that
eigenvalue maps to zero.  The iteration is D. Pelinovsky and
Yu. Stepanyants, SIAM J. Numer. Anal. 42 (2004); its Fourier form follows
J. Alvarez and A. Duran, J. Comput. Appl. Math. 266 (2014).

On grids of NEST_MIN_N points or more, solve_scalar nests: it solves on
the half grid (l, n/2) first and starts the n grid from that answer,
prolonged by zero-padding its spectrum, so the fine grid only polishes
it (nested iteration, A. Brandt, Math. Comp. 31 (1977)).  The gap
between the two answers is the grid-doubling estimate of how well the
wave is resolved (J. P. Boyd, Chebyshev and Fourier Spectral Methods,
2001), reported as ``resolution_defect``.  solve_on_grid is the cold
one-grid iteration that both levels run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import accel
from .params import ProblemParams, metadata
from .spectral import ComplexField, Grid, RealField, profile_operator, save_field, write_csv

# fixed_point_spectrum_probe: power-iteration cap, and the change of the
# estimate below which it stops
PROBE_MAX_ITER = 200
PROBE_TOL = 1e-8

# relative Euclidean distance from u(x) = conj(u(-x)) below which a seed is
# solved in the half layout; the default seed sech e^{iAx} misses the class
# by 2 sech(l) |sin(Al)| at x = -l, 1.3e-14 relative on l = 32, n = 512
CLASS_RTOL = 1e-13

# solve_scalar nests on grids with at least NEST_MIN_N points: it solves on
# (l, n/2) to max(tol, COARSE_TOL) within max_iter // COARSE_ITER_SHARE
# iterations first (the choice is argued in DECISIONS.md, "Nested solves")
NEST_MIN_N = 2048
COARSE_TOL = 1e-8
COARSE_ITER_SHARE = 4


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls.

    alpha ``None`` selects the optimal (2 sigma + 1)/(2 sigma) for the
    problem's sigma; explicit values must lie in (1, (2 sigma + 2)/(2 sigma)).
    mw is the extrapolation width (1 = no acceleration).  Seeds are passed
    to the solve functions, not stored here.
    """

    alpha: float | None = None
    tol: float = 1e-10
    max_iter: int = 500
    mw: int = 1

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.mw < 1:
            raise ValueError("mw must be >= 1")

    def resolved_alpha(self, sigma: float) -> float:
        hi = (2.0 * sigma + 2.0) / (2.0 * sigma)
        if self.alpha is None:
            return (2.0 * sigma + 1.0) / (2.0 * sigma)
        if not 1.0 < self.alpha < hi:
            raise ValueError(
                f"alpha={self.alpha} outside the stabilizing window (1, {hi})"
            )
        return self.alpha


@dataclass(kw_only=True)
class SolveReport(accel.AccelResult):
    """The driver's record, whose ``z`` stays the uncentred last iterate,
    plus ``envelope``, that iterate centred, and its modulus ``profile``.
    A nested solve (see solve_scalar) adds the iterations of its coarse
    solve and its ``resolution_defect``; a one-grid solve leaves 0 and NaN."""

    envelope: ComplexField
    meta: dict
    coarse_iterations: int = 0
    resolution_defect: float = float("nan")

    @cached_property
    def profile(self) -> RealField:
        return self.envelope.modulus()

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]

    @property
    def amplitude(self) -> float:
        return float(np.abs(self.envelope.samples).max())


def initial_iterate(grid: Grid, theta=0.0) -> ComplexField:
    """Seed field sech(x) e^{i theta(x)}.

    A float is the linear slope A (theta = A*x; the default 0 gives the
    real sech); the string "quadratic" gives theta = x^2.
    """
    x = grid.x
    sech = 1.0 / np.cosh(x)
    if isinstance(theta, str):
        if theta != "quadratic":
            raise ValueError(f"unknown phase descriptor {theta!r}")
        phase = x ** 2
    else:
        phase = float(theta) * x
    return ComplexField(grid, sech * np.exp(1j * phase))


class ProfileIteration:
    """One Petviashvili iteration on the spectrum of the complex envelope
    u = v + i w.

    The iterate is the spectrum u_hat, never the samples: L is diagonal
    there, and Parseval gives the residual and both pairings of m,

        |L u - G(u)| = |L u_hat - G_hat| / sqrt(n),
        <L u, u> = sum L |u_hat|^2 / n,   <G(u), u> = Re sum G_hat conj(u_hat) / n,

    so a step transforms twice, u from u_hat and G_hat from G(u), and
    returns the residual and m of its input with the next iterate.  Two
    layouts share every line but that pair:

    * full (default): u_hat = fft(u), a complex vector, with ifft/fft;
    * half: for an envelope in the reflection-conjugate class
      u(x) = conj(u(-x)), the spectrum of u rolled so that x = 0 sits at
      index 0 is real, (-1)^k u_hat_k; that real vector is the iterate,
      and ihfft/hfft move between it and the n/2 + 1 samples x >= 0 that
      determine u.

    L has a real symbol and G commutes with u(x) -> conj(u(-x)), so the
    iteration keeps the class and the half layout never leaves it.  MPE
    pairs either iterate as a real vector, which by Parseval is the
    pairing of the samples scaled by n, so the extrapolants do not depend
    on the layout.
    """

    def __init__(self, params: ProblemParams, grid: Grid, alpha: float, seed: ComplexField,
                 half: bool = False):
        self.grid = grid
        self.sigma = params.sigma
        self.alpha = alpha
        self.half = half
        self.symbol = profile_operator(params, grid)
        if np.any(self.symbol <= 0.0):
            raise ValueError(
                "profile operator loses positivity on the grid modes; "
                "the speed is outside the admissible window"
            )
        if np.sum(np.abs(seed.samples) ** (2.0 * self.sigma + 2.0)) == 0.0:
            raise ValueError("degenerate seed: <G(z), z> vanishes")
        self._seed = seed
        # (-1)^k: the spectrum of u rolled by n/2 is (-1)^k u_hat_k
        self._roll_sign = 1.0 - 2.0 * (np.arange(grid.n) % 2)

    def initial(self) -> np.ndarray:
        """The seed's spectrum, projected onto the class in the half layout."""
        spec = self._seed.spectrum()
        return (self._roll_sign * spec).real if self.half else spec.copy()

    def samples(self, spec: np.ndarray) -> np.ndarray:
        """The n envelope samples u on the grid of an iterate ``spec``."""
        return np.fft.ifft(self._roll_sign * spec if self.half else spec)

    def step(self, z: np.ndarray):
        """Next iterate, plus the residual and stabilizing factor of ``z``.

        The residual |L u - G(u)| and the pairings <L u, u> and <G(u), u>
        (both times n, which cancels in m) come by Parseval from the G_hat
        the step forms anyway, so a step transforms twice and evaluates its
        input at no extra transform.
        """
        u = np.fft.ihfft(z) if self.half else np.fft.ifft(z)
        g = np.abs(u) ** (2.0 * self.sigma) * u
        g_hat = np.fft.hfft(g, self.grid.n) if self.half else np.fft.fft(g)
        lu_hat = self.symbol * z
        res = float(np.linalg.norm(lu_hat - g_hat)) / np.sqrt(self.grid.n)
        num = float(np.vdot(z, lu_hat).real)
        den = float(np.vdot(z, g_hat).real)
        if den == 0.0:
            raise accel.DivergenceError("stabilizing factor undefined: <G(z), z> = 0")
        m = num / den
        try:
            scale = m ** self.alpha
        except OverflowError:
            raise accel.DivergenceError(f"m**alpha overflows at m={m}, alpha={self.alpha}") from None
        return scale * g_hat / self.symbol, res, m


def reflect_samples(samples: np.ndarray) -> np.ndarray:
    """Index reflection x -> -x on the periodic grid: x = 0, the grid point
    at index n/2, and x = -l at index 0 map to themselves."""
    return np.roll(samples[::-1], 1)


def reflection_conjugate_defect(u: np.ndarray) -> float:
    """Relative Euclidean distance of the samples u from conj(u(-x)); 0 on
    the reflection-conjugate class, which holds the zero field.  For real
    samples, a profile rho say, it is the evenness defect of rho."""
    norm = np.linalg.norm(u)
    return float(np.linalg.norm(u - np.conj(reflect_samples(u))) / norm) if norm else 0.0


def center_samples(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Circularly shift so the modulus peak sits at the grid point x = 0."""
    j = int(np.argmax(np.abs(u)))
    return np.roll(u, grid.zero_index() - j)


def _resolve_seed(params, grid: Grid, seed: ComplexField | None) -> ComplexField:
    """``seed``, or the sech e^{iAx} seed on ``grid`` for None; a seed that
    is not a ComplexField on ``grid`` is refused."""
    if seed is None:
        return initial_iterate(grid, params.A)
    if not isinstance(seed, ComplexField):
        raise TypeError(f"unsupported seed {type(seed).__name__}")
    if seed.grid != grid:
        raise ValueError(f"seed is on {seed.grid}, the solve on {grid}")
    return seed


def solve_on_grid(params, grid: Grid, cfg: SolverConfig | None = None,
                  seed: ComplexField | None = None) -> SolveReport:
    """Solve L u = |u|^{2 sigma} u from ``seed`` on ``grid`` alone.

    ``seed`` is a ComplexField v + i w (build one with initial_iterate), or
    None for the sech e^{iAx} seed, which converges to the linear-phase
    wave rho e^{iAx}.  The seed, not params.kind, picks the wave; kind is
    only carried into the metadata.  The report's ``profile`` is the real
    modulus rho = |u|, centered, and ``envelope`` is the centered complex
    profile that time evolution should be seeded with; ``z`` is the
    uncentred last iterate, as grid samples.  A seed within CLASS_RTOL of
    u(x) = conj(u(-x)) is solved in the half layout of ProfileIteration,
    any other in the full one; the report reads the same either way.
    A seed on another grid than ``grid`` raises ValueError.  This is the
    iteration itself, cold from its seed: whatever measures the iteration
    (its counts, layouts and transform budget) calls it.
    """
    cfg = cfg or SolverConfig()
    alpha = cfg.resolved_alpha(params.sigma)
    seed = _resolve_seed(params, grid, seed)
    half = reflection_conjugate_defect(seed.samples) <= CLASS_RTOL
    iteration = ProfileIteration(params, grid, alpha, seed, half=half)
    # a non-finite iterate raises DivergenceError, so the overflow on the
    # way to it needs no warning of its own
    with np.errstate(over="ignore", invalid="ignore"):
        raw = accel.accelerated_iterate(iteration, cfg)
    raw.z = iteration.samples(raw.z)

    meta = metadata(params)
    meta.update({"alpha": alpha, "mw": cfg.mw, "tol": cfg.tol})
    return SolveReport(**vars(raw), envelope=ComplexField(grid, center_samples(raw.z, grid)),
                       meta=meta)


def prolong(field: ComplexField, grid: Grid) -> ComplexField:
    """Trigonometric interpolant of ``field`` sampled on ``grid``, the same
    domain with more points.

    The spectrum is zero-padded and its unpaired Nyquist mode split evenly
    between +-n/2 of the coarse grid, so a field band-limited below that
    mode comes back exactly, a real spectrum stays real, and a field in
    the class u(x) = conj(u(-x)) stays in it.  One transform each way; the
    result carries its spectrum.
    """
    m, n = field.grid.n, grid.n
    if grid.l != field.grid.l or n <= m:
        raise ValueError(f"cannot prolong from (l={field.grid.l}, n={m}) to (l={grid.l}, n={n})")
    coarse = field.spectrum()
    spec = np.zeros(n, dtype=complex)
    k = m // 2
    spec[:k] = coarse[:k]
    spec[n - k + 1:] = coarse[k + 1:]
    spec[k] = spec[n - k] = 0.5 * coarse[k]
    spec *= n / m
    return ComplexField.with_spectrum(grid, np.fft.ifft(spec), spec)


def solve_scalar(params, grid: Grid, cfg: SolverConfig | None = None,
                 seed: ComplexField | None = None) -> SolveReport:
    """Solve L u = |u|^{2 sigma} u from ``seed``, the one profile solve.

    The seed and the report read as in solve_on_grid.  On a grid with
    n >= NEST_MIN_N the solve is nested: the seed sampled on (l, n/2)
    (every other point; for the formula seeds that is the same seed built
    there) is solved to max(tol, COARSE_TOL) within max_iter //
    COARSE_ITER_SHARE iterations, and its last iterate, prolonged onto n,
    seeds the solve on n.  The fine grid then only polishes the coarse
    answer, in a handful of iterations.  If the coarse solve does not
    converge, the solve on n starts from ``seed`` instead, exactly as
    solve_on_grid.  ``iterations`` and the histories are those of the
    requested grid either way.  ``coarse_iterations`` counts the coarse
    solve's, also when it did not converge (0 on a grid too small to
    nest), and ``resolution_defect`` is || |P u_{n/2}| - |u_n| || / ||u_n||
    for the prolongation P, the grid-doubling estimate of how well n/2
    resolves the wave (NaN when the solve was not nested or fell back).
    It costs no transform: both sample vectors are at hand.
    """
    cfg = cfg or SolverConfig()
    coarse_iter = cfg.max_iter // COARSE_ITER_SHARE
    if grid.n < NEST_MIN_N or coarse_iter < 1:
        return solve_on_grid(params, grid, cfg, seed)
    seed = _resolve_seed(params, grid, seed)
    coarse_grid = Grid(grid.l, grid.n // 2)
    coarse_cfg = SolverConfig(alpha=cfg.alpha, tol=max(cfg.tol, COARSE_TOL),
                              max_iter=coarse_iter, mw=cfg.mw)
    try:
        coarse = solve_on_grid(params, coarse_grid, coarse_cfg,
                               ComplexField(coarse_grid, seed.samples[::2]))
    except (accel.DivergenceError, ValueError):
        # the one-grid solve below raises again if the problem is bad on n too
        coarse = None
    if coarse is None or not coarse.converged:
        report = solve_on_grid(params, grid, cfg, seed)
        report.coarse_iterations = coarse.iterations if coarse is not None else 0
        return report
    start = prolong(ComplexField(coarse_grid, coarse.z), grid)
    report = solve_on_grid(params, grid, cfg, start)
    report.coarse_iterations = coarse.iterations
    # z is uncentred on both grids, and the fine solve starts where P u_{n/2} is
    report.resolution_defect = float(np.linalg.norm(np.abs(start.samples) - np.abs(report.z))
                                     / np.linalg.norm(report.z))
    return report


# The coupled system needs no solve of its own; bench/workloads.py calls and
# traces this alias by name (ROADMAP direction 13).
solve_coupled = solve_scalar


def fixed_point_spectrum_probe(params, report: SolveReport, alpha: float) -> float:
    """Dominant multiplier of the linearized iteration map at a fixed point.

    Finite-difference Jacobian-vector products of ``ProfileIteration.step``
    drive a power iteration.  The translation and phase-rotation directions
    carry multiplier exactly one (the symmetry orbit of the wave) and are
    deflated, so the estimate measures the convergence rate transverse to
    the orbit: below one for a stabilized iteration, 2 sigma + 1 for the
    naive map alpha = 0.  It reads the wave's grid and envelope from ``report``.
    """
    grid = report.envelope.grid
    # the full layout: the perturbations leave the reflection-conjugate class
    iteration = ProfileIteration(params, grid, alpha, report.envelope)
    z0 = iteration.initial()

    # symmetry directions: translation du/dx and phase rotation i*u, as spectra
    d0 = 1j * grid.xi_odd * z0
    d0 /= np.linalg.norm(d0)
    d1 = 1j * z0
    d1 -= np.vdot(d1, d0).real * d0
    d1 /= np.linalg.norm(d1)

    eps = 1e-7 * np.linalg.norm(z0)
    # the start is drawn on the samples and transformed, which keeps the
    # estimates of the sample iteration
    rng = np.random.default_rng(0)
    h = np.fft.fft(rng.standard_normal(2 * grid.n).view(np.complex128))
    estimate = 0.0
    for k in range(PROBE_MAX_ITER):
        h -= np.vdot(h, d0).real * d0
        h -= np.vdot(h, d1).real * d1
        h /= np.linalg.norm(h)
        jv = (iteration.step(z0 + eps * h)[0] - iteration.step(z0 - eps * h)[0]) / (2.0 * eps)
        new = float(np.vdot(jv, h).real)
        done = k > 10 and abs(new - estimate) < PROBE_TOL
        estimate = new
        h = jv
        if done:
            break
    return estimate


def save_report(report: SolveReport, directory, stem: str):
    """Write <stem>.csv (iter, residual, m_nu) and <stem>_profile.dat.

    The iter column is ``report.history_iterations``, so an extrapolant's
    row repeats the base-iteration count before it; the profile snapshot
    stores the complex envelope with full metadata.
    """
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, f"{stem}.csv")
    prof_path = os.path.join(directory, f"{stem}_profile.dat")
    meta = {**report.meta, "iterations": report.iterations, "converged": report.converged,
            "mpe_fallbacks": report.mpe_fallbacks, "coarse_iterations": report.coarse_iterations,
            "resolution_defect": report.resolution_defect, "profile_file": os.path.basename(prof_path)}
    rows = zip(report.history_iterations, report.residual_history, report.m_history)
    write_csv(csv_path, meta, ["iter", "residual", "m_nu"], rows)
    save_field(prof_path, report.envelope, metadata=report.meta)
    return csv_path, prof_path

