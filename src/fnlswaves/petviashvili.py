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
    plus ``envelope``, that iterate centred, and its modulus ``profile``."""

    envelope: ComplexField
    meta: dict

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

    so a step or a diagnostics call transforms twice: u from u_hat, and
    G_hat from G(u).  Two layouts share every line but that pair:

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
        self.symbol = profile_operator(params, grid).values
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

    def _evaluate(self, spec: np.ndarray):
        """G_hat, the residual |L u - G(u)| and the pairings <L u, u> and
        <G(u), u> (both times n, which cancels in m) at the iterate with
        spectrum ``spec``, by Parseval from two transforms.  step and
        diagnostics each call this, never each other, so a per-call count
        of transforms reads 2 for each."""
        u = np.fft.ihfft(spec) if self.half else np.fft.ifft(spec)
        g = np.abs(u) ** (2.0 * self.sigma) * u
        g_hat = np.fft.hfft(g, self.grid.n) if self.half else np.fft.fft(g)
        lu_hat = self.symbol * spec
        res = float(np.linalg.norm(lu_hat - g_hat)) / np.sqrt(self.grid.n)
        num = float(np.vdot(spec, lu_hat).real)
        den = float(np.vdot(spec, g_hat).real)
        return g_hat, res, num, den

    def step(self, z: np.ndarray):
        """Next iterate, plus the residual and stabilizing factor of ``z``.

        The residual and m come from the G_hat the step forms anyway, by
        the same expressions as ``diagnostics``, so they are bit-identical
        to ``diagnostics(z)`` at no extra transform.
        """
        g_hat, res, num, den = self._evaluate(z)
        if den == 0.0:
            raise accel.DivergenceError("stabilizing factor undefined: <G(z), z> = 0")
        m = num / den
        try:
            scale = m ** self.alpha
        except OverflowError:
            raise accel.DivergenceError(f"m**alpha overflows at m={m}, alpha={self.alpha}") from None
        return scale * g_hat / self.symbol, res, m

    def diagnostics(self, z: np.ndarray):
        """Euclidean residual of the profile equation on the grid samples
        and the stabilizing factor, both evaluated at the given iterate; m
        is NaN where <G(z), z> = 0."""
        _, res, num, den = self._evaluate(z)
        return res, num / den if den != 0.0 else np.nan


def reflection_conjugate_defect(u: np.ndarray) -> float:
    """Relative Euclidean distance of the samples u from conj(u(-x)), with
    x = 0 the grid point at index n/2; 0 on the reflection-conjugate class,
    which holds the zero field."""
    norm = np.linalg.norm(u)
    return float(np.linalg.norm(u - np.conj(np.roll(u[::-1], 1))) / norm) if norm else 0.0


def center_samples(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Circularly shift so the modulus peak sits at the grid point x = 0."""
    j = int(np.argmax(np.abs(u)))
    return np.roll(u, grid.zero_index() - j)


def solve_scalar(params, grid: Grid, cfg: SolverConfig | None = None,
                 seed: ComplexField | None = None) -> SolveReport:
    """Solve L u = |u|^{2 sigma} u from ``seed``, the one profile solve.

    ``seed`` is a ComplexField v + i w (build one with initial_iterate), or
    None for the sech e^{iAx} seed, which converges to the linear-phase
    wave rho e^{iAx}.  The seed, not params.kind, picks the wave; kind is
    only carried into the metadata.  The report's ``profile`` is the real
    modulus rho = |u|, centered, and ``envelope`` is the centered complex
    profile that time evolution should be seeded with; ``z`` is the
    uncentred last iterate, as grid samples.  A seed within CLASS_RTOL of
    u(x) = conj(u(-x)) is solved in the half layout of ProfileIteration,
    any other in the full one; the report reads the same either way.
    """
    cfg = cfg or SolverConfig()
    alpha = cfg.resolved_alpha(params.sigma)
    if seed is None:
        seed = initial_iterate(grid, params.A)
    if not isinstance(seed, ComplexField):
        raise TypeError(f"unsupported seed {type(seed).__name__}")
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


# The coupled system needs no solve of its own; the name stays for callers
# that still use it (the benchmark harness calls and traces it by name).
solve_coupled = solve_scalar


def fixed_point_spectrum_probe(params, grid: Grid, profile, alpha: float) -> float:
    """Dominant multiplier of the linearized iteration map at a fixed point.

    Finite-difference Jacobian-vector products of ``ProfileIteration.step``
    drive a power iteration.  The translation and phase-rotation directions
    carry multiplier exactly one (the symmetry orbit of the wave) and are
    deflated, so the estimate measures the convergence rate transverse to
    the orbit: below one for a stabilized iteration, 2 sigma + 1 for the
    naive map alpha = 0.
    """
    if isinstance(profile, SolveReport):
        profile = profile.envelope
    u0 = profile.samples.astype(complex)
    # the full layout: the perturbations leave the reflection-conjugate class
    iteration = ProfileIteration(params, grid, alpha, ComplexField(grid, u0))
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
            "mpe_fallbacks": report.mpe_fallbacks, "profile_file": os.path.basename(prof_path)}
    rows = zip(report.history_iterations, report.residual_history, report.m_history)
    write_csv(csv_path, meta, ["iter", "residual", "m_nu"], rows)
    save_field(prof_path, report.envelope, metadata=report.meta)
    return csv_path, prof_path

