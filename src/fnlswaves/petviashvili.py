"""Petviashvili fixed-point solvers for the solitary-wave profile equations.

The coupled profile system Q(v, w)^T = (v^2+w^2)^sigma (v, w)^T diagonalizes
in the complex variable u = v + i w: both rows combine into

    L u = |u|^{2 sigma} u,   L with real symbol  |xi|^{2s} + lambda1 - lambda2*xi.

The solver iterates this complex form.  The linear-phase subfamily
u = rho(x) e^{iAx} turns the same equation into (M + a) rho = rho^{2 sigma + 1},
so the scalar solve is the identical iteration in the modulated frame: its
reported residual is the discrete Euclidean residual of the profile
equation, and the real profile rho is recovered as the (exactly even)
modulus of the converged envelope.  Each step evaluates the stabilizing
factor

    m = <L z, z> / <G(z), z>,

raises it to the power alpha in (1, (2 sigma + 2) / (2 sigma)), and inverts
L mode by mode.  m tames the harmful eigenvalue 2 sigma + 1 of the naive
fixed-point map; at the optimal alpha = (2 sigma + 1) / (2 sigma) that
eigenvalue maps to zero.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import accel
from .params import ProblemParams, metadata
from .spectral import (ComplexField, Grid, RealField, derivative_samples, profile_operator,
                       save_field, write_csv)

# fixed_point_spectrum_probe: power-iteration cap, and the change of the
# estimate below which it stops
PROBE_MAX_ITER = 200
PROBE_TOL = 1e-8


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


@dataclass
class SolveReport:
    """Converged profile plus the iteration record."""

    profile: RealField | ComplexField
    envelope: ComplexField
    residual_history: list
    m_history: list
    iterations: int
    converged: bool
    cycle_ends: list
    mpe_fallbacks: int
    meta: dict

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]

    @property
    def amplitude(self) -> float:
        return float(np.abs(self.envelope.samples).max())


def initial_iterate(grid: Grid, theta=None):
    """Seed fields sech(x) e^{i theta(x)}.

    theta=None gives the plain real sech seed; a float is the linear slope
    A (theta = A*x); the string "quadratic" gives theta = x^2.
    """
    x = grid.x
    sech = 1.0 / np.cosh(x)
    if theta is None:
        return RealField(grid, sech)
    if isinstance(theta, str):
        if theta != "quadratic":
            raise ValueError(f"unknown phase descriptor {theta!r}")
        phase = x ** 2
    else:
        phase = float(theta) * x
    return ComplexField(grid, sech * np.exp(1j * phase))


class ProfileIteration:
    """One Petviashvili iteration on the complex envelope samples u = v + i w."""

    def __init__(self, params: ProblemParams, grid: Grid, alpha: float, seed: ComplexField):
        self.grid = grid
        self.sigma = params.sigma
        self.alpha = alpha
        self.symbol = profile_operator(params, grid).values
        if np.any(self.symbol <= 0.0):
            raise ValueError(
                "profile operator loses positivity on the grid modes; "
                "the speed is outside the admissible window"
            )
        if np.sum(np.abs(seed.samples) ** (2.0 * self.sigma + 2.0)) == 0.0:
            raise ValueError("degenerate seed: <G(z), z> vanishes")
        self._seed = seed.samples

    def initial(self) -> np.ndarray:
        return self._seed.copy()

    def _evaluate(self, u: np.ndarray):
        """G(u), the residual |L u - G(u)| and the pairings <L u, u> and
        <G(u), u> at iterate u, from two transforms.  step and diagnostics
        each call this, never each other, so a per-call count of transforms
        reads 4 per step and 2 per diagnostics."""
        lu = np.fft.ifft(self.symbol * np.fft.fft(u))
        g = np.abs(u) ** (2.0 * self.sigma) * u
        res = float(np.linalg.norm(lu - g))
        num = float(np.sum((lu * np.conj(u)).real))
        den = float(np.sum((g * np.conj(u)).real))
        return g, res, num, den

    def step(self, z: np.ndarray):
        """Next iterate, plus the residual and stabilizing factor of ``z``.

        The residual and m come from the L u and G(u) the step forms anyway,
        by the same expressions as ``diagnostics``, so they are bit-identical
        to ``diagnostics(z)`` at no extra transform.
        """
        g, res, num, den = self._evaluate(z)
        if den == 0.0:
            raise accel.DivergenceError("stabilizing factor undefined: <G(z), z> = 0")
        m = num / den
        nxt = np.fft.ifft((m ** self.alpha) * np.fft.fft(g) / self.symbol)
        return nxt, res, m

    def diagnostics(self, z: np.ndarray):
        """Euclidean residual of the profile equation and the stabilizing
        factor, both evaluated at the given iterate; m is NaN where
        <G(z), z> = 0."""
        _, res, num, den = self._evaluate(z)
        return res, num / den if den != 0.0 else np.nan


def center_samples(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Circularly shift so the modulus peak sits at the grid point x = 0."""
    j = int(np.argmax(np.abs(u)))
    return np.roll(u, grid.zero_index() - j)


def solve_scalar(params, grid: Grid, cfg: SolverConfig | None = None, seed=None) -> SolveReport:
    """Solve the linear-phase profile equation (M + a) rho = rho^{2 sigma + 1}.

    The iteration runs on the complex envelope u = rho e^{iAx} (the operator
    is diagonal in Fourier space there); the report's ``profile`` is the
    real modulus, centered, and ``envelope`` retains the full complex
    profile that time evolution should be seeded with.  ``seed`` may be a
    RealField (read in the rho frame and modulated by e^{iAx}), a
    ComplexField used as-is, or None for the sech e^{iAx} seed.
    """
    return _solve(params, grid, cfg, seed, scalar=True)


def solve_coupled(params, grid: Grid, cfg: SolverConfig | None = None, seed=None) -> SolveReport:
    """Solve the coupled profile system Q z = G(z) for z = (v, w).

    ``seed`` is a ComplexField v + i w (build one with initial_iterate);
    a RealField seed is taken as a zero-phase pair (v, 0), and None gives
    the sech e^{iAx} seed.
    """
    return _solve(params, grid, cfg, seed, scalar=False)


def _solve(params, grid: Grid, cfg: SolverConfig | None, seed, scalar: bool) -> SolveReport:
    """The one solve path: seed, iterate, then center and project the result."""
    cfg = cfg or SolverConfig()
    alpha = cfg.resolved_alpha(params.sigma)
    if seed is None:
        seed = initial_iterate(grid, params.A)
    if isinstance(seed, RealField):
        phase = params.A * grid.x if scalar else 0.0
        seed = ComplexField(grid, seed.samples * np.exp(1j * phase))
    if not isinstance(seed, ComplexField):
        raise TypeError(f"unsupported seed {type(seed).__name__}")
    iteration = ProfileIteration(params, grid, alpha, seed)
    raw = accel.accelerated_iterate(iteration, cfg)

    envelope = ComplexField(grid, center_samples(raw.z, grid))
    meta = metadata(params)
    meta.update({"solver": "scalar" if scalar else "coupled", "alpha": alpha,
                 "mw": cfg.mw, "tol": cfg.tol})
    return SolveReport(
        profile=envelope.modulus() if scalar else envelope,
        envelope=envelope,
        residual_history=raw.residual_history,
        m_history=raw.m_history,
        iterations=raw.iterations,
        converged=raw.converged,
        cycle_ends=raw.cycle_ends,
        mpe_fallbacks=raw.fallbacks,
        meta=meta,
    )


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
    iteration = ProfileIteration(params, grid, alpha, ComplexField(grid, u0))

    # symmetry directions: translation du/dx and phase rotation i*u
    d0 = derivative_samples(grid, u0)
    d0 /= np.linalg.norm(d0)
    d1 = 1j * u0
    d1 -= np.vdot(d1, d0).real * d0
    d1 /= np.linalg.norm(d1)

    z0 = iteration.initial()
    eps = 1e-7 * np.linalg.norm(z0)
    rng = np.random.default_rng(0)
    h = rng.standard_normal(2 * grid.n).view(np.complex128)
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

    History rows after an extrapolation repeat the base-iteration count;
    the profile snapshot stores the complex envelope with full metadata.
    """
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, f"{stem}.csv")
    prof_path = os.path.join(directory, f"{stem}_profile.dat")
    meta = {**report.meta, "iterations": report.iterations, "converged": report.converged,
            "mpe_fallbacks": report.mpe_fallbacks, "profile_file": os.path.basename(prof_path)}
    rows = zip(_history_iteration_counts(report), report.residual_history, report.m_history)
    write_csv(csv_path, meta, ["iter", "residual", "m_nu"], rows)
    save_field(prof_path, report.envelope, metadata=report.meta)
    return csv_path, prof_path


def _history_iteration_counts(report: SolveReport) -> list:
    """Base-iteration count attached to each history row."""
    ends = set(report.cycle_ends)
    counts, it = [], 0
    for idx in range(len(report.residual_history)):
        if idx > 0 and idx not in ends:
            it += 1
        counts.append(it)
    return counts
