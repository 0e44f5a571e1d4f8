"""Validation of solitary waves by time evolution of the periodic fNLS ivp.

Fourier collocation in space, implicit midpoint in time:

    u^{n+1} = u^n + dt * F((u^n + u^{n+1}) / 2),
    F(u) = -i [ (-d_xx)^s u - |u|^{2 sigma} u ].

Each step solves for the midpoint value by fixed-point iteration with the
(diagonal-in-Fourier) linear part implicit and the nonlinearity lagged.
The midpoint rule is symmetric, hence time reversible, and preserves the
quadratic invariants (mass, momentum) up to the inner-solver tolerance;
tracking them along with the Hamiltonian and the interpolated peak of |u|
is how a computed profile proves it travels as a solitary wave.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .params import metadata
from .spectral import ComplexField, Grid, hamiltonian, mass, momentum, save_field, write_csv


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
        if round(self.t_end / self.dt) < 1:  # the step count run takes
            raise ValueError(f"t_end = {self.t_end} gives no step of dt = {self.dt}")


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
    """One implicit-midpoint step of size dt (negative dt steps backward)."""
    cfg = cfg or EvolveConfig()
    return _step(u, dt, _step_symbol(u.grid, dt, params.s), params.sigma, cfg)[0]


def _step_symbol(grid: Grid, dt: float, s: float) -> np.ndarray:
    """The implicit half of the step, 1 + (i dt/2) |xi|^{2s}, per mode."""
    return 1.0 + 0.5j * dt * np.abs(grid.xi) ** (2.0 * s)


def _step(u: ComplexField, dt: float, denom: np.ndarray, sigma: float,
          cfg: EvolveConfig):
    """Advance u by dt; returns (u_next, inner sweeps used).

    The step's forward transform of u is ``u.spectrum()``, which the field
    caches, so a state whose invariants were just recorded is not
    transformed again.
    """
    u0, u_hat = u.samples, u.spectrum()
    w = u0
    for j in range(cfg.nl_max):
        nl = np.abs(w) ** (2.0 * sigma) * w
        w_new = np.fft.ifft((u_hat + 0.5j * dt * np.fft.fft(nl)) / denom)
        delta = np.linalg.norm(w_new - w)
        w = w_new
        if delta <= cfg.nl_tol:
            return ComplexField(u.grid, 2.0 * w - u0), j + 1
    raise StepError(
        f"midpoint inner iteration stalled at delta={delta:.2e} after "
        f"{cfg.nl_max} sweeps; try a smaller dt"
    )


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

    A step failure terminates the run and returns the partial report with
    ``aborted`` set to the failure message.
    """
    grid = u0.grid
    s, sigma = params.s, params.sigma
    denom = _step_symbol(grid, cfg.dt, s)
    steps = int(round(cfg.t_end / cfg.dt))

    times = [0.0]
    masses = [mass(u0)]
    momenta = [momentum(u0)]
    hams = [hamiltonian(u0, s, sigma)]
    x_pk, amp = _peak(grid, u0.samples)
    peaks = [x_pk]
    amps = [amp]
    sweeps = []
    snaps = [(0.0, u0)] if cfg.snapshot_stride else []
    aborted = None

    fld = u0
    for k in range(steps):
        try:
            fld, used = _step(fld, cfg.dt, denom, sigma, cfg)
        except StepError as err:
            aborted = str(err)
            break
        t = (k + 1) * cfg.dt
        times.append(t)
        masses.append(mass(fld))
        momenta.append(momentum(fld))
        hams.append(hamiltonian(fld, s, sigma))
        x_pk, amp = _peak(grid, fld.samples)
        peaks.append(x_pk)
        amps.append(amp)
        sweeps.append(used)
        if cfg.snapshot_stride and (k + 1) % cfg.snapshot_stride == 0:
            snaps.append((t, fld))

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
    return EvolutionReport(
        times=np.asarray(times),
        mass=np.asarray(masses),
        momentum=np.asarray(momenta),
        hamiltonian=np.asarray(hams),
        amplitude=np.asarray(amps),
        peak_x=np.asarray(peaks),
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
