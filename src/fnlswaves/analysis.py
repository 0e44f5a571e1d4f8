"""Post-processing of computed profiles: decay fits, tail diagnostics, and
speed-amplitude scans.  The evenness defect of a profile is
petviashvili.reflection_conjugate_defect of its samples.

The waves decay algebraically like |x|^{-(2s+1)}.  On the periodic grid the
samples approximate the periodized profile sum_k rho(x + 2lk), and every
image adds an algebraic tail of its own: keeping the window inside 0.9 l
does not keep it clear of them, and a straight log-log line through the
tail is biased flat (an exact |x|^{-2.5} periodized on l=64 fits -2.29 over
[10, 50]).  decay_slope therefore fits the image sum itself; an
exponentially decaying profile (the s=1 soliton) steepens without bound
across sub-windows, which is what the plausibility flag looks for.  Near
the limiting speed the decay stops being monotone and the tails develop
small symmetric oscillations; those register as sign changes of the tail
derivative.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .params import ProblemParams
from .petviashvili import SolverConfig, solve_scalar
from .spectral import ComplexField, Grid, derivative_samples

# decay-fit plausibility thresholds
SLOPE_SPREAD_LIMIT = 0.3  # max sub-window slope spread for algebraic decay
FIT_RMS_LIMIT = 0.25  # max rms residual of the decay fit, in log|rho|
TAIL_HALFWIDTHS = 5.0  # phase_plane counts oscillations beyond this many half-widths
MIN_FIT_POINTS = 16  # least number of samples a decay window must hold

# periodic-image decay model
PERIODIC_IMAGES = 8  # images |k| <= K summed exactly, the rest as an integral
EXPONENT_BRACKET = (1.0 + 1e-9, 64.0)  # the image sum diverges for p <= 1
EXPONENT_TOL = 1e-8  # Gauss-Newton stops at a shorter step in p


@dataclass(frozen=True)
class DecayFit:
    window: tuple
    slope: float
    intercept: float
    fit_rms: float
    subwindow_slopes: tuple
    model_ok: bool
    points: int


def _image_fit(x: np.ndarray, vals: np.ndarray, l: float):
    """-p, log C and rms residual of log vals = log C + log sum_k |x + 2lk|^{-p}.

    For a given p the best log C is the mean residual, so the fit is over p
    alone (variable projection): Gauss-Newton on the centred residual and
    the centred d/dp of the log image sum, from p = 2.  Each step is
    clipped to EXPONENT_BRACKET and halved until the sum of squares does
    not rise; the fit stops once a step is shorter than EXPONENT_TOL.

    Images with |k| <= PERIODIC_IMAGES are summed term by term, relative to
    the k=0 term so nothing underflows at large p; the rest is the midpoint
    integral of each one-sided tail, sum_{k>K} f(k) ~ int_{K+1/2}^inf f.
    The sum converges only for p > 1.
    """
    k = np.arange(1, PERIODIC_IMAGES + 1)
    lx = np.log(x)
    ly = np.log(vals)
    log_ratio = lx[:, None] - np.log(np.abs(x[:, None] + 2.0 * l * np.concatenate([k, -k])))
    reach = 2.0 * l * (PERIODIC_IMAGES + 0.5)
    log_far = np.stack([np.log(reach + x), np.log(reach - x)])

    def residual(p: float):
        """Residual ly - log sum at p, its mean, and the centred d/dp of the sum."""
        near = np.exp(p * log_ratio)
        far = np.exp(p * lx + (1.0 - p) * log_far) / (2.0 * l * (p - 1.0))
        rel = near.sum(axis=1) + far.sum(axis=0)
        d_far = (lx - log_far - 1.0 / (p - 1.0)) * far
        d_rel = (log_ratio * near).sum(axis=1) + d_far.sum(axis=0)
        r = ly + p * lx - np.log1p(rel)
        d_sum = d_rel / (1.0 + rel) - lx
        return r - r.mean(), float(r.mean()), d_sum - d_sum.mean()

    p = 2.0
    r, log_c, d_sum = residual(p)
    step = np.inf
    while abs(step) >= EXPONENT_TOL:
        step = min(max(p + float(d_sum @ r / (d_sum @ d_sum)), EXPONENT_BRACKET[0]),
                   EXPONENT_BRACKET[1]) - p
        while abs(step) >= EXPONENT_TOL:
            trial = residual(p + step)
            if trial[0] @ trial[0] <= r @ r:
                p, (r, log_c, d_sum) = p + step, trial
                break
            step *= 0.5
    return -p, log_c, float(np.sqrt(np.mean(r ** 2)))


def decay_window(grid: Grid, window=None, count: bool = False) -> tuple:
    """The decay-fit window (x_min, x_max) on ``grid``.

    The window, or either end of it left None, defaults to [0.15 l, 0.8 l];
    it must satisfy 0 < x_min < x_max and stay within the positive tail,
    x_max <= 0.9 l.  That bound keeps the window off the wrap point itself,
    not free of the periodic images (see decay_slope).  With ``count`` the
    window must also hold MIN_FIT_POINTS grid points, counted from l and n
    without building the grid.
    """
    x_min, x_max = (None, None) if window is None else window
    x_min = 0.15 * grid.l if x_min is None else x_min
    x_max = 0.8 * grid.l if x_max is None else x_max
    if not 0.0 < x_min < x_max:
        raise ValueError(f"window {(x_min, x_max)} must satisfy 0 < x_min < x_max")
    if x_max > 0.9 * grid.l:
        raise ValueError(f"window reaches {x_max}, beyond 0.9*l = {0.9 * grid.l}")
    if count:
        points = math.floor((x_max + grid.l) / grid.h) - math.ceil((x_min + grid.l) / grid.h) + 1
        if points < MIN_FIT_POINTS:
            raise ValueError(f"window {(x_min, x_max)} holds {max(points, 0)} grid points, "
                             f"need >= {MIN_FIT_POINTS}")
    return float(x_min), float(x_max)


def decay_slope(profile, window=None) -> DecayFit:
    """Fitted decay exponent of |rho| over the tail window.

    The profile is the real, centered rho of a SolveReport; ``window`` is
    read by decay_window.
    The samples approximate sum_k rho(x + 2lk), so an algebraic tail picks
    up the tails of every periodic image.  The fit is therefore
    log|rho| = intercept + log sum_k |x + 2lk|^{-p}, and slope = -p; it
    assumes the wave is the only source of the tail and p > 1, where the
    periodized sum converges.

    fit_rms and the slopes of three log-spaced sub-windows are measured
    against the same model.  model_ok goes false when the windowed fit
    scatters beyond FIT_RMS_LIMIT or the sub-window slopes drift by more
    than SLOPE_SPREAD_LIMIT (the signature of non-algebraic decay).
    """
    grid = profile.grid
    x_min, x_max = decay_window(grid, window)
    x = grid.x
    vals = profile.samples
    mask = (x >= x_min) & (x <= x_max) & (vals > 0.0)
    if int(mask.sum()) < MIN_FIT_POINTS:
        raise ValueError(f"window holds {int(mask.sum())} usable points, need >= {MIN_FIT_POINTS}")
    slope, intercept, rms = _image_fit(x[mask], vals[mask], grid.l)

    edges = np.exp(np.linspace(np.log(x_min), np.log(x_max), 4))
    subs = []
    for a, b in zip(edges[:-1], edges[1:]):
        m = (x >= a) & (x <= b) & (vals > 0.0)
        if int(m.sum()) >= 4:
            subs.append(_image_fit(x[m], vals[m], grid.l)[0])
    spread = max(subs) - min(subs) if len(subs) >= 2 else np.inf
    ok = rms <= FIT_RMS_LIMIT and spread <= SLOPE_SPREAD_LIMIT
    return DecayFit(
        window=(x_min, x_max),
        slope=slope,
        intercept=intercept,
        fit_rms=rms,
        subwindow_slopes=tuple(subs),
        model_ok=bool(ok),
        points=int(mask.sum()),
    )


@dataclass(frozen=True)
class PhasePlane:
    """(rho, rho') pairs for phase plots plus the tail oscillation count."""

    rho: np.ndarray
    rho_x: np.ndarray
    tail_oscillations: int
    tail_window: tuple


def phase_plane(profile) -> PhasePlane:
    """Pair the profile with its spectral derivative and count tail
    oscillations.

    Oscillations are strict sign changes of d|rho|/dx in the region from
    TAIL_HALFWIDTHS half-maximum widths out to 0.9 l: zero for a
    monotone decay, positive once the tail wiggles (speeds close to the
    limiting value).  Samples below 1e-12 of the peak are roundoff noise
    of the spectral derivative and are excluded from the count.
    """
    grid = profile.grid
    vals = profile.samples
    deriv = derivative_samples(grid, vals)
    x = grid.x
    amp = vals.max()
    osc = 0
    lo = hi = 0.0
    if amp > 0.0:
        above = (vals >= 0.5 * amp) & (x >= 0.0)
        half_width = float(x[above].max()) if above.any() else 0.0
        lo, hi = TAIL_HALFWIDTHS * half_width, 0.9 * grid.l
        region = (x > lo) & (x <= hi) & (vals > 1e-12 * amp)
        signs = np.sign(deriv[region])
        signs = signs[signs != 0.0]
        if signs.size:
            osc = int(np.sum(signs[1:] != signs[:-1]))
    return PhasePlane(rho=vals, rho_x=deriv, tail_oscillations=osc, tail_window=(lo, hi))


@dataclass(frozen=True)
class ScanRow:
    lambda2: float
    speed_gap: float  # c(lambda1) - |lambda2|
    amplitude: float
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class ScanResult:
    rows: tuple

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.rows)

    def amplitudes_increase_with_gap(self) -> bool:
        """Strict amplitude monotonicity in the speed gap c(lambda1) - c_s."""
        ordered = sorted(self.rows, key=lambda r: r.speed_gap)
        amps = [r.amplitude for r in ordered]
        return all(b > a for a, b in zip(amps, amps[1:]))


def speed_amplitude_scan(base: ProblemParams, speeds, grid: Grid,
                         cfg: SolverConfig | None = None, workers: int = 1,
                         seed: ComplexField | None = None) -> ScanResult:
    """Solve one profile per speed and tabulate max-modulus amplitudes.

    Every speed starts from ``seed``, or from the sech e^{iAx} seed of its
    own speed when None.  Rows come back ordered by speed; non-converged
    rows are flagged rather than fatal.  Every speed is checked against the
    window before the first solve.
    """
    cfg = cfg or SolverConfig()
    problems = [replace(base, lambda2=c) for c in sorted(float(c) for c in speeds)]

    def solve_one(p: ProblemParams) -> ScanRow:
        rep = solve_scalar(p, grid, cfg, seed=seed)
        return ScanRow(
            lambda2=p.lambda2,
            speed_gap=p.limiting_speed() - abs(p.lambda2),
            amplitude=rep.amplitude,
            iterations=rep.iterations,
            residual=rep.final_residual,
            converged=rep.converged,
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(solve_one, problems))
    else:
        rows = [solve_one(p) for p in problems]
    return ScanResult(rows=tuple(rows))
