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
transforms (see ProfileIteration).  Any other seed runs on the full
spectrum, where the grid pins the wave's translations (the Peierls-Nabarro
barrier of lattice NLS, P. G. Kevrekidis, The Discrete Nonlinear
Schroedinger Equation, Springer 2009), and an iterate can creep along
them instead of converging; such a run is aligned onto the class in
closed form (align_to_class) where it stalls, and goes on in the half
layout.  The reported residual is the discrete Euclidean residual of the
profile equation on the grid samples, taken from the spectrum by
Parseval, and the real profile rho is the modulus of the converged
envelope.  Each step evaluates the stabilizing factor

    m = <L z, z> / <G(z), z>,

raises it to the power alpha in (1, (2 sigma + 2) / (2 sigma)), and inverts
L mode by mode.  m tames the harmful eigenvalue 2 sigma + 1 of the naive
fixed-point map; at the optimal alpha = (2 sigma + 1) / (2 sigma) that
eigenvalue maps to zero.  The iteration is D. Pelinovsky and
Yu. Stepanyants, SIAM J. Numer. Anal. 42 (2004); its Fourier form follows
J. Alvarez and A. Duran, J. Comput. Appl. Math. 266 (2014).

solve_scalar nests (nested iteration, A. Brandt, Math. Comp. 31 (1977)):
on a grid that nests, see _nests, it solves on the half grid (l, n/2)
first and starts the n grid from that answer, prolonged by zero-padding
its spectrum, so the fine grid only polishes it.  The half grid nests
again by the same rule, down to NEST_MIN_N // 2 points or the spacing
NEST_MAX_H.  The gap between the answers on n/2 and n is the
grid-doubling estimate of how well the wave is resolved (J. P. Boyd,
Chebyshev and Fourier Spectral Methods, 2001), reported as
``resolution_defect``.  Each level is one call of _solve, which solves
the level below first where there is one; solve_on_grid gives it none,
so it is the cold one-grid solve.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import accel
from .params import ProblemParams, metadata
from .spectral import ComplexField, Grid, RealField, profile_operator, save_field, write_csv

# fixed_point_spectrum_probe: power-iteration cap, and the change of the
# estimate below which it stops
PROBE_MAX_ITER = 200
PROBE_TOL = 1e-8

# relative Euclidean distance from u(x) = conj(u(-x)) below which a start is
# solved in the half layout; the default seed sech e^{iAx} misses the class
# by 2 sech(l) |sin(Al)| at x = -l, 1.3e-14 relative on l = 32, n = 512
CLASS_RTOL = 1e-13

# a grid nests when n/2 is an even grid of at least NEST_MIN_N // 2 points
# whose spacing 2l/(n/2) is at most NEST_MAX_H, which keeps the quadratic
# seed e^{ix^2} from aliasing there; every level below the requested one
# is solved to max(tol, COARSE_TOL) within the requested
# max_iter // COARSE_ITER_SHARE iterations (the choice is argued in
# DECISIONS.md, "Nested solves")
NEST_MIN_N = 2048
NEST_MAX_H = 1.0 / 8.0
COARSE_TOL = 1e-9
COARSE_ITER_SHARE = 4

# a full-layout run that stalls (accel.STALL_WINDOW) is aligned onto the
# reflection-conjugate class by align_to_class, and goes on in the half
# layout from the aligned iterate when its class defect is at most
# CLASS_GUARD (the choice is argued in DECISIONS.md, "Lattice pinning")
CLASS_GUARD = 1e-3


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


@dataclass(frozen=True)
class ClassSwitch:
    """A stalled full-layout run on ``n`` points, aligned onto the class
    after ``iteration`` base iterations: the shift ``d`` and phase ``phi``
    of align_to_class and the class ``defect`` of the aligned iterate.
    ``taken`` when the defect was within CLASS_GUARD and the run went on
    in the half layout from the aligned iterate; otherwise it carried on
    in the full layout."""

    n: int
    iteration: int
    d: float
    phi: float
    defect: float
    taken: bool

    def __str__(self):
        return (f"n={self.n} iteration={self.iteration} d={self.d:.6e} phi={self.phi:.6e} "
                f"defect={self.defect:.3e} finished={'half' if self.taken else 'full'}")


@dataclass(kw_only=True)
class SolveReport(accel.AccelResult):
    """The driver's record, whose ``z`` stays the uncentred last iterate,
    plus ``envelope``, that iterate centred, and its modulus ``profile``.
    A nested solve (see solve_scalar) adds its ``coarse_iterations`` and
    ``resolution_defect``, which reads 0 to roundoff, bounding nothing
    beyond tol, when n took no iteration; a one-grid solve leaves 0 and NaN.
    ``class_switch`` is the ClassSwitch of the stalled run on the
    requested grid or, failing that, of the finest level below it whose
    run stalled; None when no run stalled."""

    envelope: ComplexField
    meta: dict
    coarse_iterations: int = 0
    resolution_defect: float = float("nan")
    class_switch: ClassSwitch | None = None

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
    """The Petviashvili map of one problem and grid, acting on the spectrum
    of the complex envelope u = v + i w; it holds no seed, and ``iterate``
    turns a field into the vector its ``step`` maps.

    The iterate is the spectrum u_hat, never the samples: L is diagonal
    there, and Parseval gives the residual and both pairings of m,

        |L u - G(u)| = |L u_hat - G_hat| / sqrt(n),
        <L u, u> = sum L |u_hat|^2 / n,   <G(u), u> = Re sum G_hat conj(u_hat) / n,

    so a step transforms twice, u from u_hat and G_hat from G(u), and
    returns the residual and m of its input with the next iterate.  Two
    layouts share every line but that pair, and the iterate's dtype says
    which one it is in:

    * full, a complex iterate: u_hat = fft(u), with ifft/fft;
    * half, a real iterate: for an envelope in the reflection-conjugate
      class u(x) = conj(u(-x)), the spectrum of u rolled so that x = 0
      sits at index 0 is real, (-1)^k u_hat_k; that real vector is the
      iterate, and ihfft/hfft move between it and the n/2 + 1 samples
      x >= 0 that determine u.

    L has a real symbol and G commutes with u(x) -> conj(u(-x)), so the
    iteration keeps the class and the half layout never leaves it.  MPE
    pairs either iterate as a real vector, which by Parseval is the
    pairing of the samples scaled by n, so the extrapolants do not depend
    on the layout.
    """

    def __init__(self, params: ProblemParams, grid: Grid, alpha: float):
        self.grid = grid
        self.sigma = params.sigma
        self.alpha = alpha
        self.symbol = profile_operator(params, grid)
        if np.any(self.symbol <= 0.0):
            raise ValueError(
                "profile operator loses positivity on the grid modes; "
                "the speed is outside the admissible window"
            )
        # (-1)^k: the spectrum of u rolled by n/2 is (-1)^k u_hat_k
        self._roll_sign = 1.0 - 2.0 * (np.arange(grid.n) % 2)

    def iterate(self, field: ComplexField) -> np.ndarray:
        """The iterate of ``field``: in the half layout, its rolled spectrum
        projected onto the class, when the field is within CLASS_RTOL of it;
        in the full layout, a copy of its spectrum, otherwise."""
        spec = field.spectrum()
        if reflection_conjugate_defect(field.samples) <= CLASS_RTOL:
            return (self._roll_sign * spec).real
        return spec.copy()

    def samples(self, spec: np.ndarray) -> np.ndarray:
        """The n envelope samples u on the grid of an iterate ``spec``."""
        return np.fft.ifft(self._roll_sign * spec if np.isrealobj(spec) else spec)

    def step(self, z: np.ndarray):
        """Next iterate, plus the residual and stabilizing factor of ``z``.

        The residual |L u - G(u)| and the pairings <L u, u> and <G(u), u>
        (both times n, which cancels in m) come by Parseval from the G_hat
        the step forms anyway, so a step transforms twice and evaluates its
        input at no extra transform.  A non-finite residual, <G(z), z> = 0
        or an overflowing m**alpha raises DivergenceError.
        """
        half = np.isrealobj(z)
        u = np.fft.ihfft(z) if half else np.fft.ifft(z)
        g = np.abs(u) ** (2.0 * self.sigma) * u
        g_hat = np.fft.hfft(g, self.grid.n) if half else np.fft.fft(g)
        lu_hat = self.symbol * z
        res = float(np.linalg.norm(lu_hat - g_hat)) / np.sqrt(self.grid.n)
        if not res < np.inf:  # NaN and inf in z survive the transforms and the norm
            raise accel.DivergenceError(f"residual {res}; check the parameters and the seed")
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


def align_to_class(field: ComplexField):
    """The translate and rotation of ``field`` nearest the
    reflection-conjugate class, in closed form.

    The rolled spectrum w_k = (-1)^k u_hat_k of a class envelope is real,
    so its translate by d, rotated by phi, has w_k = e^{i phi}
    e^{-i xi_k d} r_k with r real.  Squaring removes the sign of r, and
    with the modes in xi order, spaced by dxi = pi / l,

        d = -arg sum_k w_{k+1}^2 conj(w_k^2) / (2 dxi),
        phi = arg sum_k w_k^2 e^{2 i xi_k d} / 2,

    d unique for |d| < l/2 and phi modulo pi.  Returns the half-layout
    iterate of the aligned envelope, the real part of
    e^{-i phi} e^{i xi d} w (its projection onto the class), with d, phi
    and the class defect of the aligned envelope (its
    reflection_conjugate_defect, 2 |Im| / |.| of the aligned w by
    Parseval).  It costs the field's spectrum and O(n) work.
    """
    grid = field.grid
    w = field.spectrum().copy()
    w[1::2] *= -1.0
    w2 = np.fft.fftshift(w) ** 2
    d = -float(np.angle(np.vdot(w2[:-1], w2[1:]))) / (2.0 * np.pi / grid.l)
    phi = 0.5 * float(np.angle(np.sum(w ** 2 * np.exp(2j * d * grid.xi_odd))))
    aligned = w * np.exp(1j * (d * grid.xi_odd - phi))
    defect = 2.0 * float(np.linalg.norm(aligned.imag) / np.linalg.norm(aligned))
    return aligned.real, d, phi, defect


def _resolve_seed(params, grid: Grid, seed: ComplexField | None) -> ComplexField:
    """``seed``, or the sech e^{iAx} seed on ``grid`` for None; a seed that
    is not a ComplexField on ``grid``, or on which <G(z), z> vanishes, is
    refused.  Only the requested grid's seed is checked: on a coarse level
    the first step raises DivergenceError on <G(z), z> = 0."""
    if seed is None:
        return initial_iterate(grid, params.A)
    if not isinstance(seed, ComplexField):
        raise TypeError(f"unsupported seed {type(seed).__name__}")
    if seed.grid != grid:
        raise ValueError(f"seed is on {seed.grid}, the solve on {grid}")
    with np.errstate(over="ignore"):  # a huge sample overflows to inf, which is not 0
        if np.sum(np.abs(seed.samples) ** (2.0 * params.sigma + 2.0)) == 0.0:
            raise ValueError("degenerate seed: <G(z), z> vanishes")
    return seed


def _solve(params, seed: ComplexField, cfg: SolverConfig, coarse_cfg: SolverConfig | None = None) -> SolveReport:
    """The solve of one level, the grid of ``seed``, under ``cfg``.

    Given a ``coarse_cfg`` on a grid that nests, the level first solves
    (l, n/2) from the seed sampled there, under ``coarse_cfg``, and starts
    from that answer, prolonged, if it converged, else from ``seed``.
    Each level runs in the layout of its own start: sampling on n/2 and
    prolong both keep the class.  A full-layout run that stalls is aligned
    onto the class (align_to_class) and, within CLASS_GUARD, goes on from
    there in the half layout, where the translation and phase that the
    lattice pins are gone; beyond it, the run carries on untouched.  A
    half-layout run is not tested."""
    grid, switch, coarse = seed.grid, None, None
    iteration = ProfileIteration(params, grid, cfg.resolved_alpha(params.sigma))
    if coarse_cfg is not None and _nests(grid):
        try:
            coarse = _solve(params, ComplexField(Grid(grid.l, grid.n // 2), seed.samples[::2]),
                            coarse_cfg, coarse_cfg)
        except accel.DivergenceError:
            # n then starts from its own seed, and raises again if the problem is
            # bad there too; a seed degenerate on (l, n/2) raises at its first step
            pass
    nested = coarse is not None and coarse.converged
    start = prolong(ComplexField(coarse.envelope.grid, coarse.z), grid) if nested else seed

    def align(z, iterations):
        nonlocal switch
        aligned, d, phi, defect = align_to_class(ComplexField.with_spectrum(grid, iteration.samples(z), z))
        switch = ClassSwitch(grid.n, iterations, d, phi, defect, taken=defect <= CLASS_GUARD)
        return aligned if switch.taken else None

    # the layout test of a huge start overflows to the full layout, where the step raises
    # DivergenceError on a residual that is not finite: no overflow needs a warning of its own
    with np.errstate(over="ignore", invalid="ignore"):
        z0 = iteration.iterate(start)
        raw = accel.accelerated_iterate(iteration, z0, cfg, on_stall=None if np.isrealobj(z0) else align)
    z = raw.z = iteration.samples(raw.z)
    meta = {**metadata(params), "alpha": iteration.alpha, "mw": cfg.mw, "tol": cfg.tol}
    # the envelope is z centred: its modulus peak on the grid point x = 0
    envelope = ComplexField(grid, np.roll(z, grid.zero_index() - int(np.argmax(np.abs(z)))))
    report = SolveReport(**vars(raw), envelope=envelope, meta=meta, class_switch=switch)
    if coarse is not None:
        report.coarse_iterations = coarse.iterations + coarse.coarse_iterations
        report.class_switch = coarse.class_switch if switch is None else switch
    if nested:
        # z is uncentred on both grids, and this level starts where P u_{n/2} is
        report.resolution_defect = float(np.linalg.norm(np.abs(start.samples) - np.abs(z))
                                         / np.linalg.norm(z))
    return report


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
    any other in the full one; the report reads the same either way.  A
    full-layout run that stalls is aligned onto the class and, within
    CLASS_GUARD, goes on in the half layout; the report's ``class_switch``
    records it.
    A seed on another grid than ``grid`` raises ValueError.  This is the
    iteration itself, cold from its seed: the level solve of solve_scalar
    with no level below it.  Whatever measures the iteration (its counts,
    layouts and transform budget) calls it.
    """
    return _solve(params, _resolve_seed(params, grid, seed), cfg or SolverConfig())


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


def _nests(grid: Grid) -> bool:
    """Whether a solve on ``grid`` starts from one on (l, n/2): n/2 is even
    and at least NEST_MIN_N // 2, and its spacing 2l/(n/2) is at most
    NEST_MAX_H."""
    half = grid.n // 2
    return grid.n % 4 == 0 and half >= NEST_MIN_N // 2 and 2.0 * grid.l / half <= NEST_MAX_H


def solve_scalar(params, grid: Grid, cfg: SolverConfig | None = None,
                 seed: ComplexField | None = None) -> SolveReport:
    """Solve L u = |u|^{2 sigma} u from ``seed``, the one profile solve.

    The seed and the report read as in solve_on_grid.  On a grid that
    nests (n divisible by 4, n/2 >= NEST_MIN_N // 2 and the spacing of
    (l, n/2) at most NEST_MAX_H), the solve is nested: the seed sampled on
    (l, n/2) (every other point; for the formula seeds that is the same
    seed built there) is solved to max(tol, COARSE_TOL) within
    max_iter // COARSE_ITER_SHARE iterations, and its last iterate,
    prolonged onto n, seeds the solve on n.  The fine grid then only
    polishes the coarse answer, in a handful of iterations.  The solve on
    (l, n/2) nests again by the same rule, with the same tolerance and
    budget, so on (256, 16384) the levels are 4096, 8192 and 16384.  Every
    level is one call of the same level solve as solve_on_grid, which
    first solves the level below it, if any; a level whose coarse solve
    does not converge starts from its own seed instead, exactly as
    solve_on_grid.  ``iterations`` and the histories are those of the
    requested grid either way.
    A passed ``seed`` that meets tol at one step on a grid that nests (a
    converged envelope passed back) is solved there alone; a step raising
    DivergenceError is a miss, and the default seed is never stepped.
    ``coarse_iterations`` sums the iterations of every level below n, also
    of those that did not converge (0 on a grid that does not nest), and
    ``resolution_defect`` is || |P u_{n/2}| - |u_n| || / ||u_n|| for the
    prolongation P, the grid-doubling estimate of how well n/2 resolves
    the wave (NaN when the solve was not nested or fell back).  It costs
    no transform: both sample vectors are at hand.  When n takes no
    iteration it reads 0 to roundoff (exactly 0 in the full layout),
    which bounds nothing beyond tol.
    """
    cfg = cfg or SolverConfig()
    share = cfg.max_iter // COARSE_ITER_SHARE
    start = _resolve_seed(params, grid, seed)
    if share and seed is not None and _nests(grid):
        iteration = ProfileIteration(params, grid, cfg.resolved_alpha(params.sigma))
        with np.errstate(over="ignore", invalid="ignore"), suppress(accel.DivergenceError):
            share = 0 if iteration.step(iteration.iterate(start))[1] <= cfg.tol else share
        del iteration  # its n-point arrays would otherwise live through the solve
    coarse_cfg = replace(cfg, tol=max(cfg.tol, COARSE_TOL), max_iter=share) if share else None
    return _solve(params, start, cfg, coarse_cfg)


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
    iteration = ProfileIteration(params, grid, alpha)
    # the full iterate: the perturbations leave the reflection-conjugate class
    z0 = report.envelope.spectrum().copy()

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
    row, and a restart row, repeat the base-iteration count before them;
    the profile snapshot stores the complex envelope with full metadata.
    """
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, f"{stem}.csv")
    prof_path = os.path.join(directory, f"{stem}_profile.dat")
    meta = {**report.meta, "iterations": report.iterations, "converged": report.converged,
            "mpe_fallbacks": report.mpe_fallbacks, "coarse_iterations": report.coarse_iterations,
            "resolution_defect": report.resolution_defect}
    if report.class_switch is not None:
        meta["class_switch"] = str(report.class_switch)
    meta["profile_file"] = os.path.basename(prof_path)
    write_csv(csv_path, meta, {"iter": report.history_iterations,
                               "residual": report.residual_history, "m_nu": report.m_history})
    save_field(prof_path, report.envelope, metadata=report.meta)
    return csv_path, prof_path

