"""Validation of solitary waves by time evolution of the periodic fNLS ivp.

Fourier collocation in space, implicit midpoint in time:

    u^{n+1} = u^n + dt * F((u^n + u^{n+1}) / 2),
    F(u) = -i [ (-d_xx)^s u - |u|^{2 sigma} u ].

Each step solves for the midpoint value w = (u^n + u^{n+1}) / 2 by the
fixed-point sweep

    w <- ifft((fft(u^n) + (i dt/2) fft(|w|^{2 sigma} w)) / (1 + (i dt/2) |xi|^{2s})),

with the (diagonal-in-Fourier) linear part implicit and the nonlinearity
lagged; a sweep takes two FFTs.  ``run`` starts the sweep from the average
of u^n and the polynomial extrapolation of the last ``PREDICT_ORDER``
states to t_{n+1}, the usual starting approximation for implicit
Runge-Kutta iterations (Hairer, Lubich & Wanner, Geometric Numerical
Integration, 2006, VIII.6): on the fig2 case it takes 2-3 sweeps where
u^n takes 7.  The order ramps up over the first steps of a run, whose
first step starts from u^n as ``step_midpoint`` does; a predicted start
that stops contracting is dropped, and the step reruns from u^n before it
can fail.  The new state carries the spectrum 2 w_hat -
fft(u^n) of the last sweep, so no state is transformed again.

The midpoint rule is symmetric, hence time reversible, and preserves the
quadratic invariants (mass, momentum) up to the inner-solver tolerance
(Duran & Sanz-Serna, IMA J. Numer. Anal. 20, 2000, for its conservative
setting); tracking them along with the Hamiltonian and the interpolated
peak of |u| is how a computed profile proves it travels as a solitary wave.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import comb

import numpy as np

from .params import metadata
from .spectral import (ComplexField, Grid, fractional_symbol, hamiltonian, mass, momentum,
                       save_field, write_csv)

# Number of past states the starting guess of run's inner sweep reads: w0 =
# (u_k + P(t_{k+1})) / 2 with P the degree PREDICT_ORDER - 1 polynomial
# through u_{k-PREDICT_ORDER+1} .. u_k.  Order 8 takes 2.1-2.2 sweeps per
# step on the fig2 case and on an n = 8192 one, where order 7 takes 3.0-3.1
# and u_k takes 7.  Higher orders gain little, and from order 10 on the
# weights, which sum to 2^(order-1) in modulus, amplify roundoff enough to
# cost fig2 sweeps again.
PREDICT_ORDER = 8


def _start_weights(order: int) -> np.ndarray:
    """Weights c_j of w0 = sum_j c_j u_{k-j} for a predictor of this order:
    P(t_{k+1}) = sum_j (-1)^j C(order, j+1) u_{k-j}, averaged with u_k."""
    return np.array([0.5 * (j == 0) + 0.5 * (-1) ** j * comb(order, j + 1) for j in range(order)])


class StepError(RuntimeError):
    """The inner midpoint solve failed to reach tolerance."""


@dataclass(frozen=True)
class EvolveConfig:
    dt: float = 0.01
    t_end: float = 10.0
    snapshot_stride: int = 0  # steps between stored snapshots, 0 = none
    nl_tol: float = 1e-12
    nl_max: int = 50

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 < self.nl_tol < np.inf:
            raise ValueError(f"nl_tol must be positive and finite, got {self.nl_tol}")
        if self.nl_max < 1:
            raise ValueError("nl_max must be >= 1")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot_stride must be >= 0")
        if not 0.0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.steps < 1:
            raise ValueError(f"t_end = {self.t_end} gives no step of dt = {self.dt}")

    @property
    def steps(self) -> int:
        """The number of steps run takes, round(t_end / dt)."""
        ratio = self.t_end / self.dt
        if not ratio < np.inf:
            raise ValueError(f"t_end = {self.t_end} over dt = {self.dt} is not a finite step count")
        return round(ratio)


@dataclass
class EvolutionReport:
    """Time series of invariants and wave diagnostics, plus snapshots."""

    times: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray
    hamiltonian: np.ndarray
    amplitude: np.ndarray
    peak_x: np.ndarray
    sweeps: np.ndarray  # inner midpoint sweeps, one per completed step
    snapshots: list
    meta: dict
    aborted: str | None = None

    def peak_speed(self) -> float:
        """Linear-regression slope of the unwrapped peak trajectory."""
        if len(self.times) < 2:
            raise ValueError("need at least two samples to fit a speed")
        l = float(self.meta["grid_l"])
        unwrapped = np.unwrap(self.peak_x, period=2.0 * l)
        return float(np.polyfit(self.times, unwrapped, 1)[0])


def step_midpoint(u: ComplexField, dt: float, params, cfg: EvolveConfig | None = None) -> ComplexField:
    """One implicit-midpoint step of size dt (negative dt steps backward),
    its inner sweep started from u."""
    cfg = cfg or EvolveConfig()
    return _step(u, dt, _step_symbol(u.grid, dt, params.s), params.sigma, cfg)[0]


def _step_symbol(grid: Grid, dt: float, s: float) -> np.ndarray:
    """The implicit half of the step, 1 + (i dt/2) |xi|^{2s}, per mode."""
    return 1.0 + 0.5j * dt * fractional_symbol(grid, s)


def _step(u: ComplexField, dt: float, denom: np.ndarray, sigma: float,
          cfg: EvolveConfig, start: np.ndarray | None = None):
    """Advance u by dt; returns (u_next, inner sweeps used).

    The sweep starts from ``start`` if given, else from u.  The sweep from
    ``start`` is guarded: when it stops contracting the step reruns from u,
    and the sweeps of both count.  Only the sweep from u raises StepError.
    The step reads ``u.spectrum()`` and hands u_next the spectrum of its
    last sweep.
    """
    u0, u_hat = u.samples, u.spectrum()
    w, spent = None, 0
    if start is not None:
        with np.errstate(all="ignore"):  # a wild start may overflow before the rerun
            w, w_hat, spent = _sweep(u_hat, start, dt, denom, sigma, cfg, guarded=True)
    if w is None:
        w, w_hat, used = _sweep(u_hat, u0, dt, denom, sigma, cfg)
        spent += used
    return ComplexField.with_spectrum(u.grid, 2.0 * w - u0, 2.0 * w_hat - u_hat), spent


def _sweep(u_hat, w, dt, denom, sigma, cfg: EvolveConfig, guarded: bool = False):
    """Sweep the midpoint map from w until a sweep moves w by at most
    nl_tol; returns (w, w_hat, sweeps), w_hat the spectrum w came from.

    Out of sweeps it raises StepError.  A guarded sweep gives up as soon as
    a sweep moves w no less than the one before, and returns
    (None, None, sweeps) instead.
    """
    last = np.inf
    for j in range(cfg.nl_max):
        nl = np.abs(w) ** (2.0 * sigma) * w
        w_hat = (u_hat + 0.5j * dt * np.fft.fft(nl)) / denom
        w_new = np.fft.ifft(w_hat)
        delta = np.linalg.norm(w_new - w)
        w = w_new
        if delta <= cfg.nl_tol:
            return w, w_hat, j + 1
        if guarded and not delta < last:
            return None, None, j + 1
        last = delta
    if guarded:
        return None, None, cfg.nl_max
    raise StepError(
        f"midpoint inner iteration stalled at delta={delta:.2e} after "
        f"{cfg.nl_max} sweeps; try a smaller dt"
    )


def _predicted_start(past: np.ndarray, stored: int) -> np.ndarray | None:
    """The starting guess for the step from u_k, k = stored - 1, with u_j in
    row j % PREDICT_ORDER of the ring ``past``; None (start from u_k) while
    u_k is the only state stored."""
    rows = len(past)
    order = min(stored, rows)
    if order < 2:
        return None
    weights = np.zeros(rows)
    weights[(stored - 1 - np.arange(order)) % rows] = _start_weights(order)
    return weights @ past


def _peak(grid: Grid, u: np.ndarray):
    """Quadratic interpolation of the modulus maximum around the grid peak."""
    m = np.abs(u)
    j = int(np.argmax(m))
    y0, y1, y2 = m[(j - 1) % grid.n], m[j], m[(j + 1) % grid.n]
    dd = y0 - 2.0 * y1 + y2
    delta = 0.5 * (y0 - y2) / dd if dd != 0.0 else 0.0
    x_peak = grid.x[j] + delta * grid.h
    amp = y1 - 0.25 * (y0 - y2) * delta
    return x_peak, amp


def run(u0: ComplexField, params, cfg: EvolveConfig) -> EvolutionReport:
    """March the ivp from u0, recording invariants and peak diagnostics.

    Each step's inner sweep starts from the predicted midpoint (see the
    module docstring), read from a ring of the last PREDICT_ORDER states.
    A step failure terminates the run and returns the partial report with
    ``aborted`` set to the failure message.
    """
    grid = u0.grid
    s, sigma = params.s, params.sigma
    denom = _step_symbol(grid, cfg.dt, s)

    def record(fld: ComplexField):
        """(mass, momentum, H, amplitude, peak_x) of one state."""
        x_pk, amp = _peak(grid, fld.samples)
        return mass(fld), momentum(fld), hamiltonian(fld, s, sigma), amp, x_pk

    rows = [record(u0)]
    sweeps = []
    snaps = [(0.0, u0)] if cfg.snapshot_stride else []
    aborted = None

    fld = u0
    past = np.zeros((PREDICT_ORDER, grid.n), dtype=complex)
    past[0] = u0.samples
    for k in range(1, cfg.steps + 1):
        try:
            fld, used = _step(fld, cfg.dt, denom, sigma, cfg, _predicted_start(past, k))
        except StepError as err:
            aborted = str(err)
            break
        past[k % PREDICT_ORDER] = fld.samples
        rows.append(record(fld))
        sweeps.append(used)
        if cfg.snapshot_stride and k % cfg.snapshot_stride == 0:
            snaps.append((k * cfg.dt, fld))

    meta = metadata(params)
    meta.update(
        {
            "grid_l": grid.l,
            "grid_n": grid.n,
            "dt": cfg.dt,
            "t_end": cfg.t_end,
            "nl_tol": cfg.nl_tol,
        }
    )
    masses, momenta, hams, amps, peaks = map(np.asarray, zip(*rows))
    return EvolutionReport(
        times=cfg.dt * np.arange(len(rows)),
        mass=masses,
        momentum=momenta,
        hamiltonian=hams,
        amplitude=amps,
        peak_x=peaks,
        sweeps=np.asarray(sweeps, dtype=int),
        snapshots=snaps,
        meta=meta,
        aborted=aborted,
    )


def save_evolution(report: EvolutionReport, directory, stem: str):
    """Write <stem>.csv (t, I1, I2, H, amplitude, peak_x) plus snapshots."""
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, f"{stem}.csv")
    meta = {**report.meta, "aborted": report.aborted} if report.aborted else report.meta
    rows = zip(report.times, report.mass, report.momentum,
               report.hamiltonian, report.amplitude, report.peak_x)
    write_csv(csv_path, meta, ["t", "I1", "I2", "H", "amplitude", "peak_x"], rows)
    paths = [csv_path]
    for t, fld in report.snapshots:
        snap_path = os.path.join(directory, f"{stem}_t{t:.6f}.dat")
        save_field(snap_path, fld, metadata={**report.meta, "t": repr(t)})
        paths.append(snap_path)
    return paths
