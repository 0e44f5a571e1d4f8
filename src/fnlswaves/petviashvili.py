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
first and starts the n grid from that answer's spectrum, zero-padded
(prolong), so the fine grid only polishes it.  The half grid nests
again by the same rule, down to NEST_MIN_N // 2 points or the spacing
NEST_MAX_H; those levels only make a start, and make no samples.  The
gap between the answers on n/2 and n is the grid-doubling estimate of
how well the wave is resolved (J. P. Boyd, Chebyshev and Fourier
Spectral Methods, 2001), reported as ``resolution_defect``.  Each level
is one call of _level, which solves the level below first; solve_on_grid
gives it none, so it is the cold one-grid solve.

A solve transforms in its steps and, outside them, only its seed, once,
on the level that starts from it, a passed seed's G(u) once for its
check, and a nested solve's padded start on n once, for
``resolution_defect``: layout tests read spectra, and the samples of the
answer are those the last step made of it.

How fast the iteration contracts near its answer, and so what MPE can
gain (A. Sidi, Vector Extrapolation Methods, SIAM 2017), is set by the
spectrum of the linearized map.  fixed_point_spectrum_probe measures its
dominant multiplier by Arnoldi on the exact derivative of the
half-layout map at the wave's real iterate (ProfileIteration.derivative):
G_hat, m and the two factors of DG(u) are made once, and each product
then takes two half-size transforms.  The half layout holds only the
class, which the translation and phase directions of the wave's orbit,
multiplier one, leave, so nothing is deflated; a wave off the class is
aligned onto it first (align_to_class).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import accel
from .params import ProblemParams, metadata
from .spectral import (ComplexField, Grid, RealField, profile_operator, save_field, vector_norm,
                       write_csv)

# fixed_point_spectrum_probe: the Ritz residual |h_{k+1,k} y_k| of the
# dominant Ritz pair at which the Arnoldi run stops, and the Krylov
# dimension at which it stops in any case
PROBE_TOL = 1e-8
PROBE_MAX_DIM = 60

# relative Euclidean distance from u(x) = conj(u(-x)) below which a start is
# solved in the half layout; the default seed sech e^{iAx} misses the class
# by 2 sech(l) |sin(Al)| at x = -l, 1.3e-14 relative on l = 32, n = 512
CLASS_RTOL = 1e-13

# a grid nests when n/2 is an even grid of at least NEST_MIN_N // 2 points
# whose spacing 2l/(n/2) is at most NEST_MAX_H, which keeps the quadratic
# seed e^{ix^2} from aliasing there; every level below the requested one
# is solved to max(tol, COARSE_TOL) within the requested
# max_iter // COARSE_ITER_SHARE iterations, at the width COARSE_MW whatever
# the requested mw when it starts in the half layout (the choices are
# argued in DECISIONS.md, "Nested solves")
NEST_MIN_N = 2048
NEST_MAX_H = 1.0 / 8.0
COARSE_TOL = 1e-9
COARSE_ITER_SHARE = 4
COARSE_MW = 6

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
    ``resolution_defect`` (0, bounding nothing, when n took no iteration),
    and its ``meta["mw"]`` and histories are n's; one grid leaves 0 and NaN.
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
    turns a field's spectrum into the vector its ``step`` maps.

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
      iterate, and rfft/irfft move between it and conj(u) at the n/2 + 1
      points x >= 0 that determine u, where G acts as on u itself.

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
        self._last = None  # (z, u): the last step's input and its transform, see samples

    def iterate(self, spec: np.ndarray) -> np.ndarray:
        """The iterate of the field whose spectrum is ``spec``: in the half
        layout, its rolled spectrum projected onto the class, when the field
        is within CLASS_RTOL of it (_class_defect, no transform); ``spec``
        itself, in the full layout, otherwise."""
        if _class_defect(spec) <= CLASS_RTOL:
            return _rolled(spec).real
        return spec

    def samples(self, z: np.ndarray) -> np.ndarray:
        """The n envelope samples u on the grid of an iterate ``z``.

        When z is the last iterate stepped, that step's transform of it is
        used, and released; otherwise z is transformed once, at half size
        in the half layout.  There rfft(z, norm="forward") is conj(u) at the
        n/2 + 1 points x >= 0, and u(-x) = conj(u(x)) mirrors it onto x < 0.
        """
        last, self._last = self._last, None
        u = last[1] if last is not None and last[0] is z else None
        if z.dtype.kind == "c":
            return np.fft.ifft(z) if u is None else u
        if u is None:
            u = np.fft.rfft(z, norm="forward")
        k = self.grid.zero_index()
        out = np.empty(self.grid.n, dtype=complex)
        np.conjugate(u[:k], out=out[k:])
        out[0] = u[k].conjugate()  # x = l, the point x = -l
        out[1:k] = u[k - 1:0:-1]
        return out

    def _nonlinearity(self, u: np.ndarray) -> np.ndarray:
        """G(u) = |u|^{2 sigma} u of samples u."""
        g = np.abs(u)
        g **= 2.0 * self.sigma
        return g * u

    def step(self, z: np.ndarray):
        """Next iterate, plus the residual and stabilizing factor of ``z``.

        The residual |L u - G(u)| and the pairings <L u, u> and <G(u), u>
        (both times n, which cancels in m) come by Parseval from the G_hat
        the step forms anyway, so a step transforms twice and evaluates its
        input at no extra transform.  It keeps its transform u of z until
        the next step or a call of samples.  A non-finite residual,
        <G(z), z> = 0 or an overflowing m**alpha raises DivergenceError.
        """
        self._last = None  # the previous u goes before this one is made
        half = z.dtype.kind != "c"
        u = np.fft.rfft(z, norm="forward") if half else np.fft.ifft(z)
        self._last = z, u
        g = self._nonlinearity(u)
        g_hat = np.fft.irfft(g, self.grid.n, norm="forward") if half else np.fft.fft(g)
        del g
        lu_hat = self.symbol * z
        num = float(np.vdot(z, lu_hat).real)
        den = float(np.vdot(z, g_hat).real)
        lu_hat -= g_hat
        res = vector_norm(lu_hat) / math.sqrt(self.grid.n)
        if not res < np.inf:  # NaN and inf in z survive the transforms and the norm
            raise accel.DivergenceError(f"residual {res}; check the parameters and the seed")
        if den == 0.0:
            raise accel.DivergenceError("stabilizing factor undefined: <G(z), z> = 0")
        m = num / den
        try:
            scale = m ** self.alpha
        except OverflowError:
            raise accel.DivergenceError(f"m**alpha overflows at m={m}, alpha={self.alpha}") from None
        g_hat *= scale
        g_hat /= self.symbol
        return g_hat, res, m

    def derivative(self, w: np.ndarray):
        """The derivative DT of the half-layout map T(w) = m(w)^alpha
        G_hat(w) / L at a real iterate ``w``, as a function h -> DT h of a
        real vector h; it writes to no input.

        With u = rfft(w) and v = rfft(h), the samples at x >= 0 as in step,

            DG(u) v = (sigma + 1) |u|^{2 sigma} v + sigma |u|^{2 sigma - 2} u^2 conj(v),
            DT h = [m^alpha irfft(DG(u) v) + alpha m^{alpha - 1} dm(h) G_hat] / L,

        where dm(h) = (d<L w, w> - m d<G(w), w>) / <G(w), w> comes from the
        two Parseval pairings of step.  G_hat, m and both factors of DG(u)
        are made once, at two half-size transforms, so a product takes two
        more: rfft(h) and irfft(DG(u) v).  A zero sample gives the second
        factor 0 at any sigma > 0.
        """
        n = self.grid.n
        u = np.fft.rfft(w, norm="forward")
        r = np.abs(u)
        power = r ** (2.0 * self.sigma)
        g_hat = np.fft.irfft(power * u, n, norm="forward")
        lw = self.symbol * w
        den = float(w.dot(g_hat))
        m = float(w.dot(lw)) / den
        scale, dscale = m ** self.alpha, self.alpha * m ** (self.alpha - 1.0)
        direct = (self.sigma + 1.0) * power
        phase = np.divide(u, r, out=np.zeros_like(u), where=r > 0.0)
        conjugate = self.sigma * power * phase ** 2

        def product(h: np.ndarray) -> np.ndarray:
            v = np.fft.rfft(h, norm="forward")
            dg_hat = np.fft.irfft(direct * v + conjugate * v.conj(), n, norm="forward")
            dnum = 2.0 * float(h.dot(lw))
            dden = float(h.dot(g_hat)) + float(w.dot(dg_hat))
            dg_hat *= scale
            dg_hat += (dscale * (dnum - m * dden) / den) * g_hat
            dg_hat /= self.symbol
            return dg_hat

        return product


def _rolled(spec: np.ndarray) -> np.ndarray:
    """(-1)^k spec_k, a new array: the spectrum of u rolled by n/2 when
    ``spec`` is that of u, and the other way round."""
    w = spec.copy()
    w[1::2] *= -1.0
    return w


def _class_defect(w: np.ndarray) -> float:
    """2 |Im w| / |w| of a spectrum w, rolled or not: by Parseval the
    reflection_conjugate_defect of the samples, since u(x) = conj(u(-x))
    holds exactly when the spectrum of u is real."""
    norm = np.linalg.norm(w)
    return 2.0 * float(np.linalg.norm(w.imag) / norm) if norm else 0.0


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


def align_to_class(z: np.ndarray, grid: Grid):
    """The translate and rotation nearest the reflection-conjugate class of
    the field on ``grid`` whose spectrum is ``z``, a full-layout iterate,
    in closed form.

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
    reflection_conjugate_defect, _class_defect of the aligned w).  It
    transforms nothing, and writes to no input: O(n) work.
    """
    w = _rolled(z)
    w2 = np.fft.fftshift(w) ** 2
    d = -float(np.angle(np.vdot(w2[:-1], w2[1:]))) / (2.0 * np.pi / grid.l)
    phi = 0.5 * float(np.angle(np.sum(w ** 2 * np.exp(2j * d * grid.xi_odd))))
    aligned = w * np.exp(1j * (d * grid.xi_odd - phi))
    return aligned.real, d, phi, _class_defect(aligned)


def _resolve_seed(params, grid: Grid, seed: ComplexField | None) -> ComplexField | None:
    """``seed``, or None for the sech e^{iAx} seed, which the level that
    starts from it builds on its own grid; a seed that is not a
    ComplexField on ``grid``, or on which <G(z), z> vanishes, is refused.
    Only the requested grid's seed is checked: on a coarse level the first
    step raises DivergenceError on <G(z), z> = 0."""
    if seed is None:
        return None
    if not isinstance(seed, ComplexField):
        raise TypeError(f"unsupported seed {type(seed).__name__}")
    if seed.grid != grid:
        raise ValueError(f"seed is on {seed.grid}, the solve on {grid}")
    with np.errstate(over="ignore"):  # a huge sample overflows to inf, which is not 0
        if np.sum(np.abs(seed.samples) ** (2.0 * params.sigma + 2.0)) == 0.0:
            raise ValueError("degenerate seed: <G(z), z> vanishes")
    return seed


def _checked(iteration: ProfileIteration, seed: ComplexField, tol: float) -> np.ndarray | None:
    """The seed check of solve_scalar: the iterate of ``seed`` when the
    residual |L u - G(u)| of its samples u meets ``tol``, else None.  It
    takes two transforms, of u and of G(u), and keeps neither on a miss."""
    spec = np.fft.fft(seed.samples)
    diff = iteration.symbol * spec
    diff -= np.fft.fft(iteration._nonlinearity(seed.samples))
    return iteration.iterate(spec) if vector_norm(diff) / math.sqrt(iteration.grid.n) <= tol else None


def _level(params, grid: Grid, seed: ComplexField | None, cfg: SolverConfig,
           coarse_cfg: SolverConfig | None, below=False):
    """One level of a solve on ``grid`` from ``seed`` (None for the default
    seed, built on ``grid`` only if this level starts from it), under ``cfg``.

    Given a ``coarse_cfg`` on a grid that nests, the level first solves
    (l, n/2) from the seed sampled there, under ``coarse_cfg``, and starts
    from that answer's iterate padded by prolong if it converged, else
    from the seed, in the layout of that start; each layout test reads a
    spectrum, so a padded start is not transformed.  Before that, the
    requested level (not ``below``) checks a passed seed (_checked): if
    the residual of its samples meets tol it solves from it at once, on
    this level alone; on a miss the seed is transformed again only if the
    level falls back to it.  A level ``below`` n that starts in the half
    layout runs at width COARSE_MW.  Returns the iteration, the driver
    record (``z`` a spectrum), the padded start or None, the ClassSwitch
    of this run (see solve_on_grid) or else of the finest level below,
    and the iterations of the levels below."""
    iteration = ProfileIteration(params, grid, cfg.resolved_alpha(params.sigma))
    switch = start = z0 = None
    coarse_iterations = 0
    descend = coarse_cfg is not None and _nests(grid)

    def align(z, iterations):
        nonlocal switch
        aligned, d, phi, defect = align_to_class(z, grid)
        switch = ClassSwitch(grid.n, iterations, d, phi, defect, taken=defect <= CLASS_GUARD)
        return aligned if switch.taken else None

    # the check and the layout test of a huge seed overflow: the check misses, the layout
    # is the full one, where the step raises DivergenceError on a residual that is not
    # finite; no overflow needs a warning of its own
    with np.errstate(over="ignore", invalid="ignore"):
        if descend and seed is not None and not below:
            z0 = _checked(iteration, seed, cfg.tol)
            descend = z0 is None
        if descend:
            half = Grid(grid.l, grid.n // 2)
            try:
                _, coarse, _, switch, coarse_iterations = _level(
                    params, half, None if seed is None else ComplexField(half, seed.samples[::2]),
                    coarse_cfg, coarse_cfg, below=True)
            except accel.DivergenceError:
                # n then starts from its own seed, and raises again if the problem is
                # bad there too; a seed degenerate on (l, n/2) raises at its first step
                pass
            else:
                coarse_iterations += coarse.iterations
                if coarse.converged:
                    start = prolong(coarse.z, half, grid)
                del coarse  # the run on n holds no array of (l, n/2)
        if start is not None:
            z0 = start if np.isrealobj(start) else iteration.iterate(start)
        elif z0 is None:
            z0 = iteration.iterate((initial_iterate(grid, params.A) if seed is None else seed).spectrum())
        real = np.isrealobj(z0)
        run_cfg = replace(cfg, mw=COARSE_MW) if below and real else cfg
        raw = accel.accelerated_iterate(iteration, z0, run_cfg, on_stall=None if real else align)
    return iteration, raw, start, switch, coarse_iterations


def _solve(params, grid: Grid, seed: ComplexField | None, cfg: SolverConfig,
           coarse_cfg: SolverConfig | None = None) -> SolveReport:
    """The _level on ``grid``, whose iterate alone becomes samples and a
    report: those the last step made, and one transform of a padded start."""
    iteration, raw, start, switch, coarse_its = _level(params, grid, seed, cfg, coarse_cfg)
    z = raw.z = iteration.samples(raw.z)
    meta = {**metadata(params), "alpha": iteration.alpha, "mw": cfg.mw, "tol": cfg.tol}
    # the envelope is z centred, its modulus peak on the grid point x = 0: one copy of z
    envelope = ComplexField._adopt(grid, np.roll(z, grid.zero_index() - int(np.argmax(np.abs(z)))))
    report = SolveReport(**vars(raw), envelope=envelope, meta=meta, coarse_iterations=coarse_its, class_switch=switch)
    if start is not None:
        # z is uncentred on both grids, and n starts where P u_{n/2} is
        report.resolution_defect = float(np.linalg.norm(np.abs(iteration.samples(start)) - np.abs(z))
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
    return _solve(params, grid, _resolve_seed(params, grid, seed), cfg or SolverConfig())


def prolong(z: np.ndarray, coarse: Grid, grid: Grid) -> np.ndarray:
    """The iterate on ``grid`` of the trigonometric interpolant of the
    iterate ``z`` on ``coarse``, of an even number of points on the same l:
    its spectrum zero-padded, the unpaired Nyquist mode split evenly
    between +-m/2, so a field band-limited below that mode comes back
    exactly.  A rolled spectrum pads the same way, (-1)^k being the same on
    both grids for each mode, so a real one stays real, at no transform.
    """
    m, n = coarse.n, grid.n
    if grid.l != coarse.l or n <= m:
        raise ValueError(f"cannot prolong from (l={coarse.l}, n={m}) to (l={grid.l}, n={n})")
    spec, k = np.zeros(n, dtype=z.dtype), m // 2
    spec[:k], spec[n - k + 1:] = z[:k], z[k + 1:]
    spec[k] = spec[n - k] = 0.5 * z[k]
    spec *= n / m
    return spec


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
    max_iter // COARSE_ITER_SHARE iterations, at width COARSE_MW if it
    starts in the half layout, and its last iterate, padded onto n,
    starts the solve on n, which then only polishes it.  (l, n/2) nests
    again by the same rule, so on (256, 16384) the levels are 4096, 8192
    and 16384; a level whose coarse solve does not converge starts from
    its own seed instead, exactly as solve_on_grid.  ``mw``,
    ``iterations`` and the histories are those of the requested grid.
    A passed ``seed`` on a grid that nests is checked first, from its
    samples at two transforms, on the iteration n then uses: one that
    meets tol there (a converged envelope passed back) is solved on n
    alone, and a residual that is not finite is a miss.  The default seed
    is never checked, and is built only on the level that starts from it.
    ``coarse_iterations`` sums the iterations of every level below n, also
    of those that did not converge (0 on a grid that does not nest), and
    ``resolution_defect`` is || |P u_{n/2}| - |u_n| || / ||u_n|| for the
    padding P, the grid-doubling estimate of how well n/2 resolves the
    wave (NaN when the solve was not nested or fell back), at one
    transform of the padded start, half-size in the half layout.  When n
    takes no iteration it reads 0, which bounds nothing beyond tol.
    """
    cfg = cfg or SolverConfig()
    share = cfg.max_iter // COARSE_ITER_SHARE
    coarse_cfg = replace(cfg, tol=max(cfg.tol, COARSE_TOL), max_iter=share) if share else None
    return _solve(params, grid, _resolve_seed(params, grid, seed), cfg, coarse_cfg)


# The coupled system needs no solve of its own; bench/workloads.py calls and
# traces this alias by name (ROADMAP direction 13).
solve_coupled = solve_scalar


class ProbeEstimate(float):
    """The dominant multiplier of fixed_point_spectrum_probe, a float that
    also carries the Krylov dimension the Arnoldi run reached and the Ritz
    residual |h_{k+1,k} y_k| of the dominant Ritz pair there."""

    def __new__(cls, value: float, krylov_dim: int, ritz_residual: float):
        self = super().__new__(cls, value)
        self.krylov_dim = krylov_dim
        self.ritz_residual = ritz_residual
        return self


def fixed_point_spectrum_probe(params, report: SolveReport, alpha: float) -> ProbeEstimate:
    """Dominant multiplier of the linearized iteration map at a fixed point.

    Arnoldi on the exact derivative DT of the half-layout map
    (ProfileIteration.derivative) at the wave's real iterate, in a basis
    of real n-vectors.  The wave's translation and phase directions
    (multiplier one, its orbit) leave the class that layout holds, so
    nothing is deflated and the estimate is the rate transverse to the
    orbit: below one for a stabilized iteration, 2 sigma + 1 for the naive
    map alpha = 0.  An envelope outside CLASS_RTOL (a quadratic-seed wave)
    is aligned onto the class first, and one whose aligned defect exceeds
    CLASS_GUARD raises ValueError.  The estimate is the real part of the
    Ritz value of largest modulus; the run stops once that pair's Ritz
    residual is at most PROBE_TOL, or at PROBE_MAX_DIM products.
    """
    grid = report.envelope.grid
    iteration = ProfileIteration(params, grid, alpha)
    z = iteration.iterate(report.envelope.spectrum())
    if z.dtype.kind == "c":
        z, _, _, defect = align_to_class(z, grid)
        if defect > CLASS_GUARD:
            raise ValueError(f"aligned class defect {defect:.3e} of the envelope exceeds CLASS_GUARD")
    product = iteration.derivative(z)

    # one array per basis vector: freeing one block of PROBE_MAX_DIM + 1 rows
    # raises glibc's mmap threshold, and the heap then keeps more memory
    hess = np.zeros((PROBE_MAX_DIM + 1, PROBE_MAX_DIM))
    v = np.random.default_rng(0).standard_normal(grid.n)
    basis = [v / np.linalg.norm(v)]
    for k in range(PROBE_MAX_DIM):
        w = product(basis[k])
        for _ in range(2):  # modified Gram-Schmidt, repeated once to keep the basis orthogonal
            for i, q in enumerate(basis):
                c = q.dot(w)
                w -= c * q
                hess[i, k] += c
        hess[k + 1, k] = np.linalg.norm(w)
        theta, y = np.linalg.eig(hess[:k + 1, :k + 1])
        j = int(np.argmax(np.abs(theta)))
        residual = float(hess[k + 1, k] * abs(y[k, j]))
        if residual <= PROBE_TOL:
            break
        basis.append(w / hess[k + 1, k])
    return ProbeEstimate(theta[j].real, k + 1, residual)


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

