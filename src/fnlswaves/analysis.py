"""Post-processing of computed profiles: decay fits, symmetry and tail
diagnostics, and speed-amplitude scans.

The waves decay algebraically like |x|^{-(2s+1)}, so log|rho| against
log|x| is asymptotically a line of slope -(2s+1); an exponentially decaying
profile (the s=1 soliton) steepens without bound across sub-windows, which
is what the plausibility flag looks for.  On the periodic grid the samples
approximate the periodized profile sum_k rho(x + 2lk), and every image adds
an algebraic tail of its own: keeping the window inside 0.9 l does not keep
it clear of them.  The straight line is then biased flat (an exact
|x|^{-2.5} periodized on l=64 fits -2.29 over [10, 50]); the periodic-image
model of decay_slope fits the image sum instead.  Near the limiting speed
the decay stops being monotone and the tails develop small symmetric
oscillations; those register as sign changes of the tail derivative.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .params import Kind, ProblemParams
from .petviashvili import SolveReport, SolverConfig, initial_iterate, solve_coupled, solve_scalar
from .spectral import ComplexField, Grid, RealField, derivative_samples

# decay-fit plausibility thresholds
SLOPE_SPREAD_LIMIT = 0.3  # max sub-window slope spread for algebraic decay
FIT_RMS_LIMIT = 0.25  # max rms residual of the log-log fit

# periodic-image decay model
PERIODIC_IMAGES = 8  # images |k| <= K summed exactly, the rest as an integral
EXPONENT_BRACKET = (1.0 + 1e-9, 64.0)  # the image sum diverges for p <= 1
EXPONENT_TOL = 1e-8  # width of the final golden-section bracket on p


@dataclass(frozen=True)
class DecayFit:
    window: tuple
    slope: float
    intercept: float
    fit_rms: float
    subwindow_slopes: tuple
    model_ok: bool
    points: int


def _tail_values(profile) -> np.ndarray:
    if isinstance(profile, ComplexField):
        return np.abs(profile.samples)
    return np.asarray(profile.samples)


def _line_fit(x: np.ndarray, vals: np.ndarray):
    """Slope, intercept and rms residual of the line log vals = a log x + b."""
    lx = np.log(x)
    ly = np.log(vals)
    slope, intercept = np.polyfit(lx, ly, 1)
    rms = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), float(intercept), rms


def _log_image_sum(x: np.ndarray, l: float):
    """p -> log sum_k |x + 2lk|^{-p} for samples 0 < x < l.

    Images with |k| <= PERIODIC_IMAGES are summed term by term, relative to
    the k=0 term so nothing underflows at large p; the rest is the midpoint
    integral of each one-sided tail, sum_{k>K} f(k) ~ int_{K+1/2}^inf f.
    The sum converges only for p > 1.
    """
    k = np.arange(1, PERIODIC_IMAGES + 1)
    lx = np.log(x)
    log_ratio = lx[:, None] - np.log(np.abs(x[:, None] + 2.0 * l * np.concatenate([k, -k])))
    reach = 2.0 * l * (PERIODIC_IMAGES + 0.5)
    log_far = np.stack([np.log(reach + x), np.log(reach - x)])

    def log_sum(p: float) -> np.ndarray:
        near = np.exp(p * log_ratio).sum(axis=1)
        far = np.exp(p * lx + (1.0 - p) * log_far).sum(axis=0) / (2.0 * l * (p - 1.0))
        return -p * lx + np.log1p(near + far)

    return log_sum


def _image_fit(x: np.ndarray, vals: np.ndarray, l: float):
    """-p, log C and rms residual of log vals = log C + log sum_k |x + 2lk|^{-p}.

    For a given p the best log C is the mean residual, so the search is over
    p alone: a coarse scan of EXPONENT_BRACKET picks the basin and golden
    sections refine it to EXPONENT_TOL.
    """
    ly = np.log(vals)
    log_sum = _log_image_sum(x, l)

    def sse(p: float) -> float:
        r = ly - log_sum(p)
        return float(np.sum((r - r.mean()) ** 2))

    scan = np.linspace(*EXPONENT_BRACKET, 64)
    i = int(np.argmin([sse(p) for p in scan]))
    a, b = scan[max(i - 1, 0)], scan[min(i + 1, scan.size - 1)]
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc, fd = sse(c), sse(d)
    while b - a > EXPONENT_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = sse(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = sse(d)
    p = 0.5 * (a + b)
    r = ly - log_sum(p)
    return -p, float(r.mean()), float(np.sqrt(np.mean((r - r.mean()) ** 2)))


def decay_slope(profile, window=None, periodic: bool = False) -> DecayFit:
    """Fitted decay exponent of log|rho| against log|x| over the tail window.

    The profile must be centered; the window, or either end of it left
    None, defaults to [0.15 l, 0.8 l], and it must stay within the positive
    tail, x_max <= 0.9 l.
    That bound keeps the window off the wrap point itself, not free of the
    periodic images: the samples approximate sum_k rho(x + 2lk), so an
    algebraic tail picks up the tails of every image.

    periodic=False fits the straight line log|rho| = slope log x + intercept,
    which the images bias flat unless the window is short against l.
    periodic=True fits log|rho| = intercept + log sum_k |x + 2lk|^{-p}
    instead and reports slope = -p; it assumes the wave is the only source
    of the tail and p > 1, where the periodized sum converges.

    fit_rms and the slopes of three log-spaced sub-windows are measured
    against the chosen model.  model_ok goes false when the windowed fit
    scatters beyond FIT_RMS_LIMIT or the sub-window slopes drift by more
    than SLOPE_SPREAD_LIMIT (the signature of non-algebraic decay).
    """
    grid = profile.grid
    x_min, x_max = (None, None) if window is None else window
    x_min = 0.15 * grid.l if x_min is None else x_min
    x_max = 0.8 * grid.l if x_max is None else x_max
    if not 0.0 < x_min < x_max:
        raise ValueError(f"window {(x_min, x_max)} must satisfy 0 < x_min < x_max")
    if x_max > 0.9 * grid.l:
        raise ValueError(f"window reaches {x_max}, beyond 0.9*l = {0.9 * grid.l}")
    x = grid.x
    vals = _tail_values(profile)
    mask = (x >= x_min) & (x <= x_max) & (vals > 0.0)
    if int(mask.sum()) < 16:
        raise ValueError(f"window holds {int(mask.sum())} usable points, need >= 16")
    fit = partial(_image_fit, l=grid.l) if periodic else _line_fit
    slope, intercept, rms = fit(x[mask], vals[mask])

    edges = np.exp(np.linspace(np.log(x_min), np.log(x_max), 4))
    subs = []
    for a, b in zip(edges[:-1], edges[1:]):
        m = (x >= a) & (x <= b) & (vals > 0.0)
        if int(m.sum()) >= 4:
            subs.append(fit(x[m], vals[m])[0])
    spread = max(subs) - min(subs) if len(subs) >= 2 else np.inf
    ok = rms <= FIT_RMS_LIMIT and spread <= SLOPE_SPREAD_LIMIT
    return DecayFit(
        window=(float(x_min), float(x_max)),
        slope=slope,
        intercept=intercept,
        fit_rms=rms,
        subwindow_slopes=tuple(subs),
        model_ok=bool(ok),
        points=int(mask.sum()),
    )


def reflect_samples(samples: np.ndarray) -> np.ndarray:
    """Index reflection x -> -x on the periodic grid (x_0 maps to itself)."""
    return np.roll(samples[::-1], 1)


def evenness_defect(profile) -> float:
    """Relative norm of rho minus its reflection; zero for even profiles."""
    vals = _tail_values(profile)
    norm = np.linalg.norm(vals)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(vals - reflect_samples(vals)) / norm)


@dataclass(frozen=True)
class PhasePlane:
    """(rho, rho') pairs for phase plots plus the tail oscillation count."""

    rho: np.ndarray
    rho_x: np.ndarray
    tail_oscillations: int
    tail_window: tuple


def phase_plane(profile, tail_halfwidths: float = 5.0) -> PhasePlane:
    """Pair the profile with its spectral derivative and count tail
    oscillations.

    Oscillations are strict sign changes of d|rho|/dx in the region from
    ``tail_halfwidths`` half-maximum widths out to 0.9 l: zero for a
    monotone decay, positive once the tail wiggles (speeds close to the
    limiting value).  Samples below 1e-12 of the peak are roundoff noise
    of the spectral derivative and are excluded from the count.
    """
    grid = profile.grid
    vals = _tail_values(profile)
    deriv = derivative_samples(grid, vals)
    x = grid.x
    amp = vals.max()
    osc = 0
    lo = hi = 0.0
    if amp > 0.0:
        above = (vals >= 0.5 * amp) & (x >= 0.0)
        half_width = float(x[above].max()) if above.any() else 0.0
        lo, hi = tail_halfwidths * half_width, 0.9 * grid.l
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
                         cfg: SolverConfig | None = None, workers: int = 1) -> ScanResult:
    """Solve one profile per speed and tabulate max-modulus amplitudes.

    The profile equation follows base.kind: the linear-phase scalar solve,
    or the coupled solve seeded with the quadratic phase.  Rows come back
    ordered by speed; non-converged rows are flagged rather than fatal.
    Every speed is checked against the window before the first solve.
    """
    cfg = cfg or SolverConfig()
    problems = [replace(base, lambda2=c) for c in sorted(float(c) for c in speeds)]

    def solve_one(p: ProblemParams) -> ScanRow:
        if base.kind is Kind.COUPLED:
            seed = initial_iterate(grid, "quadratic")
            rep = solve_coupled(p, grid, cfg, seed=seed)
        else:
            rep = solve_scalar(p, grid, cfg)
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
