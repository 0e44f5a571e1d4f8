"""Validation of solitary waves by time evolution of the periodic fNLS ivp.

Fourier collocation in space, implicit midpoint in time:

    u^{n+1} = u^n + dt * F((u^n + u^{n+1}) / 2),
    F(u) = -i [ (-d_xx)^s u - |u|^{2 sigma} u ].

Each step solves for the midpoint value w = (u^n + u^{n+1}) / 2 by the
fixed-point sweep

    w <- ifft(inv fft(u^n) + kick fft(|w|^{2 sigma} w)),
    inv = 1 / (1 + (i dt/2) |xi|^{2s}),  kick = (i dt/2) inv,

with the (diagonal-in-Fourier) linear part implicit and the nonlinearity
lagged; a sweep takes two FFTs, and inv and kick are built once per run.
``run`` starts the sweep from the average of u^n and the polynomial
extrapolation of the last ``PREDICT_ORDER`` states to t_{n+1}, the usual
starting approximation for implicit Runge-Kutta iterations (Hairer,
Lubich & Wanner, Geometric Numerical Integration, 2006, VIII.6): on the
fig2 case it takes 2-3 sweeps where u^n takes 7.  A run from a fresh
state ramps the order up over its first steps, the first starting from
u^n as ``step_midpoint`` does.  A completed run leaves the ring of its
last states on its final state, and a run started from that state with
the same grid, dt, s and sigma continues it at full order: k chained
runs equal one run of k times the steps, bit for bit.  A predicted start
that stops contracting is dropped, the step reruns from u^n before it
can fail, and the order ramps up again from the new state.  The new
state carries the spectrum 2 w_hat - fft(u^n) of the last sweep, so no
state is transformed again.

The midpoint rule is symmetric, hence time reversible, and preserves the
quadratic invariants (mass, momentum) up to the inner-solver tolerance
(Duran & Sanz-Serna, IMA J. Numer. Anal. 20, 2000, for its conservative
setting); tracking them along with the Hamiltonian and the interpolated
peak of |u| is how a computed profile proves it travels as a solitary wave.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from functools import lru_cache
from math import comb, isfinite

import numpy as np

from .params import metadata
from .spectral import (ComplexField, Grid, fractional_symbol, invariants, save_field,
                       write_csv)
# bench/workloads.py reads and traces mass under this name (ROADMAP direction 13)
from .spectral import mass  # noqa: F401

# Number of past states the starting guess of run's inner sweep reads: w0 =
# (u_k + P(t_{k+1})) / 2 with P the degree PREDICT_ORDER - 1 polynomial
# through u_{k-PREDICT_ORDER+1} .. u_k.  Order 8 takes 2.1-2.2 sweeps per
# step on the fig2 case and on an n = 8192 one, where order 7 takes 3.0-3.1
# and u_k takes 7.  Higher orders gain little, and from order 10 on the
# weights, which sum to 2^(order-1) in modulus, amplify roundoff enough to
# cost fig2 sweeps again.
PREDICT_ORDER = 8


@lru_cache(maxsize=PREDICT_ORDER)
def _start_weights(order: int) -> np.ndarray:
    """Weights c_j of w0 = sum_j c_j u_{k-j} for a predictor of this order:
    P(t_{k+1}) = sum_j (-1)^j C(order, j+1) u_{k-j}, averaged with u_k.
    Built once per order and shared read-only."""
    weights = np.array([0.5 * (j == 0) + 0.5 * (-1) ** j * comb(order, j + 1) for j in range(order)])
    weights.flags.writeable = False
    return weights


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
        if self.snapshot_stride and self.dt * self.snapshot_stride < 1e-6:  # save_evolution's t{t:.6f}
            raise ValueError("snapshot_stride * dt must be >= 1e-6, the t step of snapshot file names")
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


# run steps through _step; bench/run.py times this one (ROADMAP direction 13)
def step_midpoint(u: ComplexField, dt: float, params, cfg: EvolveConfig | None = None) -> ComplexField:
    """One implicit-midpoint step of size dt (negative dt steps backward),
    its inner sweep started from u."""
    cfg = cfg or EvolveConfig()
    return _step(u, *_step_symbols(u.grid, dt, params.s), params.sigma, cfg)[0]


def _step_symbols(grid: Grid, dt: float, s: float):
    """(inv, kick) per mode: inv = 1 / (1 + (i dt/2) |xi|^{2s}), the
    implicit half of the step, and kick = (i dt/2) inv."""
    inv = 1.0 / (1.0 + 0.5j * dt * fractional_symbol(grid, s))
    return inv, 0.5j * dt * inv


def _step(u: ComplexField, inv: np.ndarray, kick: np.ndarray, sigma: float,
          cfg: EvolveConfig, start: np.ndarray | None = None):
    """Advance u by dt; returns (u_next, inner sweeps used, start dropped).

    The sweep starts from ``start`` if given, else from u.  The sweep from
    ``start`` is guarded: when it stops contracting the start is dropped,
    the step reruns from u, and the sweeps of both count.  Only the sweep
    from u raises StepError.  The step reads ``u.spectrum()`` and hands
    u_next the spectrum of its last sweep.
    """
    u0, u_hat = u.samples, u.spectrum()
    rhs = u_hat * inv
    w, spent = None, 0
    if start is not None:
        with np.errstate(all="ignore"):  # a wild start may overflow before the rerun
            w, w_hat, spent = _sweep(rhs, start, kick, sigma, cfg, guarded=True)
    dropped = start is not None and w is None
    if w is None:
        w, w_hat, used = _sweep(rhs, u0, kick, sigma, cfg)
        spent += used
    return ComplexField.with_spectrum(u.grid, 2.0 * w - u0, 2.0 * w_hat - u_hat), spent, dropped


def _sweep(rhs, w, kick, sigma, cfg: EvolveConfig, guarded: bool = False):
    """Sweep the midpoint map w <- ifft(rhs + kick fft(|w|^{2 sigma} w)),
    rhs = inv fft(u), from w until a sweep moves w by at most nl_tol;
    returns (w, w_hat, sweeps), w_hat the spectrum w came from.

    Out of sweeps it raises StepError.  A guarded sweep gives up as soon as
    a sweep moves w no less than the one before, and returns
    (None, None, sweeps) instead.
    """
    last = np.inf
    for j in range(cfg.nl_max):
        nl = (w.real ** 2 + w.imag ** 2) ** sigma * w
        w_hat = rhs + kick * np.fft.fft(nl)
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


class _Predictor:
    """Where run's predicted start stands: the ring ``past`` of the last
    PREDICT_ORDER states, u_j in row j % PREDICT_ORDER, the count
    ``stored`` of states pushed, and how many of the newest the next
    prediction may read (``usable``, reset to 1 by a dropped start).

    ``key`` = (grid, dt, s, sigma) names the steps the ring came from; a
    run continues the predictor only under the same key.
    """

    def __init__(self, key: tuple, u0: np.ndarray):
        self.key = key
        self.past = np.zeros((PREDICT_ORDER, len(u0)), dtype=complex)
        self.past[0] = u0
        self.stored = self.usable = 1

    def copy(self) -> _Predictor:
        dup = copy.copy(self)
        dup.past = self.past.copy()
        return dup

    def start(self) -> np.ndarray | None:
        """The starting guess for the step from the newest state; None
        (start from it) while it is the only usable state."""
        order = min(self.usable, PREDICT_ORDER)
        if order < 2:
            return None
        weights = np.zeros(PREDICT_ORDER)
        weights[(self.stored - 1 - np.arange(order)) % PREDICT_ORDER] = _start_weights(order)
        return weights @ self.past

    def push(self, samples: np.ndarray, dropped: bool) -> None:
        """Store the state a step reached; after a dropped start the order
        ramps up again from that state."""
        self.past[self.stored % PREDICT_ORDER] = samples
        self.stored += 1
        self.usable = 1 if dropped else self.usable + 1


def _resume(u0: ComplexField, key: tuple) -> _Predictor:
    """A working copy of the predictor u0 carries from the run that ended
    on it under the same key, else a fresh one holding u0 alone."""
    carried = vars(u0).get("_predictor")
    if carried is not None and carried.key == key:
        return carried.copy()
    return _Predictor(key, u0.samples)


def run(u0: ComplexField, params, cfg: EvolveConfig) -> EvolutionReport:
    """March the ivp from u0, recording invariants and peak diagnostics.

    Each step's inner sweep starts from the predicted midpoint (see the
    module docstring).  A completed run leaves its predictor on its final
    state, so a run from that state under the same grid, dt, s and sigma
    goes on as if the two were one run.  A step failure, or a state whose
    invariants overflow, terminates the run and returns the partial report
    with ``aborted`` set to the failure message; its last state carries no
    predictor.
    """
    grid = u0.grid
    s, sigma = params.s, params.sigma
    inv, kick = _step_symbols(grid, cfg.dt, s)
    predictor = _resume(u0, (grid, cfg.dt, s, sigma))

    sweeps = []
    snaps = [(0.0, u0)] if cfg.snapshot_stride else []
    aborted = None

    fld = u0
    rows = []
    # a non-finite state ends the run through StepError and a non-finite
    # row of invariants ends it below, so the overflow on the way to either
    # needs no warning of its own
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.steps + 1):
            if k:
                try:
                    fld, used, dropped = _step(fld, inv, kick, sigma, cfg, predictor.start())
                except StepError as err:
                    aborted = str(err)
                    break
                predictor.push(fld.samples, dropped)
                sweeps.append(used)
                if cfg.snapshot_stride and k % cfg.snapshot_stride == 0:
                    snaps.append((k * cfg.dt, fld))
            rows.append(invariants(fld, s, sigma))
            if not all(map(isfinite, rows[-1])):
                aborted = f"invariants overflowed at t={k * cfg.dt:.6g}"
                break
        else:
            # private, like the cached spectrum: equality reads the samples only
            vars(fld)["_predictor"] = predictor

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
