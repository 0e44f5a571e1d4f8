"""Minimal Polynomial Extrapolation wrapped around fixed-point iterations.

Given kappa+2 consecutive iterates z0..z_{kappa+1} and their differences
u_i = z_{i+1} - z_i, MPE solves

    min over c_0..c_{kappa-1} of || sum_i c_i u_i + u_kappa ||_2,

sets c_kappa = 1, normalizes gamma_i = c_i / sum(c) and returns
sum gamma_i z_i.  The width mw = kappa + 1 controls how many base
iterations feed one extrapolation; mw = 1 disables acceleration.

The driver below uses restarted cycles: run mw base iterations, extrapolate
from the cycle's mw + 1 iterates and restart from the extrapolant; with
mw = 1 it is the plain iteration.  It takes its start z0 and calls only
the iteration's step(z) -> (z_next, residual, m).  Iterates are flat
float64 or complex128 vectors; MPE pairs them as real vectors, a complex
entry counting as its real and imaginary parts, so the least-squares
problem stays real.

A run may also be tested for a stall: when STALL_WINDOW history rows pass
without a residual below STALL_DROP times the residual of the last row
that made such a drop, the run is creeping, not converging (see
DECISIONS.md, "Lattice pinning"), and the driver hands its iterate to the
caller's on_stall hook at the end of that cycle, once, which may restart
the run from another start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_DEGENERATE_RTOL = 1e-12  # |sum c| below this times the coefficient scale
_COND_LIMIT = 1e12  # normal equations handed to SVD lstsq beyond this
STALL_WINDOW = 60  # rows without a drop after which a tested run stalls
STALL_DROP = 0.5  # a drop: a residual below this times the last drop's


def mpe_coefficients(diffs: np.ndarray):
    """Solve the MPE least-squares problem over difference columns.

    diffs has kappa+1 columns u_0..u_kappa.  Returns the gamma weights, or
    None when sum(c) is degenerate and the cycle should fall back to the
    plain iterate.  Normal equations are used while well conditioned, with
    an SVD least-squares fallback otherwise.
    """
    kappa = diffs.shape[1] - 1
    if kappa == 0:
        return np.array([1.0])
    U = diffs[:, :-1]
    rhs = -diffs[:, -1]
    gram = U.T @ U
    gramian_scale = np.trace(gram)
    use_fallback = gramian_scale == 0.0
    if not use_fallback:
        use_fallback = np.linalg.cond(gram) > _COND_LIMIT
    if use_fallback:
        c, *_ = np.linalg.lstsq(U, rhs, rcond=None)
    else:
        c = np.linalg.solve(gram, U.T @ rhs)
    c_full = np.concatenate([c, [1.0]])
    total = c_full.sum()
    if abs(total) < _DEGENERATE_RTOL * np.abs(c_full).sum():
        return None
    return c_full / total


def mpe_extrapolate(iterates):
    """Extrapolated vector from one cycle's iterates z0..z_{kappa+1}, or
    None on degeneracy.

    gamma weights sum to one by construction, so fixed points of the base
    iteration are themselves fixed under extrapolation.
    """
    if len(iterates) < 2:
        raise ValueError(f"MPE needs at least two iterates, got {len(iterates)}")
    zs = np.asarray(iterates)
    # a float64 view, no copy: complex entries read as their (re, im) pairs
    gamma = mpe_coefficients(np.diff(zs.view(np.float64).T, axis=1))
    if gamma is None:
        return None
    return gamma @ zs[:-1]


@dataclass
class AccelResult:
    """The record of one solve: a residual, an m and the base iterations
    taken so far (``history_iterations``, which an extrapolant's row and a
    restart row repeat) per iterate, the rows of the extrapolants
    (``cycle_ends``), the base ``iterations``, the degenerate
    extrapolations (``mpe_fallbacks``) and the last iterate ``z``.  A run
    that an on_stall hook restarted from another start than its last
    iterate records that start's row as ``restart_row``."""

    z: np.ndarray
    converged: bool = False
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    m_history: list = field(default_factory=list)
    history_iterations: list = field(default_factory=list)
    cycle_ends: list = field(default_factory=list)
    mpe_fallbacks: int = 0
    restart_row: int | None = None


def accelerated_iterate(iteration, z0: np.ndarray, cfg, on_stall=None) -> AccelResult:
    """Drive a fixed-point iteration from ``z0`` with restarted-MPE cycles.

    ``iteration`` provides step(z) -> (z_next, residual, m), with the
    residual and m of its input z; the driver calls nothing else and
    writes to no iterate.  One local recorder, the only place that steps
    an iterate, fills the AccelResult as the loop runs: a row of each
    iterate's residual, m and the base count at that moment, each cycle's
    extrapolant included (evaluated on the profile equation itself), and
    it moves the last drop (below) when a residual makes one.

    Every iterate is stepped from exactly once, so one base iteration or
    one extrapolant costs one step.  When an extrapolation is degenerate
    the loop goes on from the step already taken from the cycle's last
    base iterate.  The only step output thrown away is the one taken from
    the final iterate, whether it converged or the loop reached max_iter.
    ``step`` judges its input, a base iterate or an extrapolant, and raises
    DivergenceError on one it cannot evaluate, so the driver takes each
    residual as given and checks no iterate itself.

    With ``on_stall``, the run is tested at the end of every cycle that
    leaves it unconverged and within max_iter: once STALL_WINDOW rows
    have passed since the last drop (a residual below STALL_DROP times
    the previous drop's, the first row being the first drop), the driver
    calls on_stall(z, iterations) with that cycle's last iterate, and
    tests no further.  The hook returns a start, which the driver steps as
    a row of its own (``restart_row``) and goes on from within the same
    budget, or None, and the run goes on untouched.  So a run that never
    stalls, or whose hook returns None, takes the untested path exactly.
    """
    rec = AccelResult(z0)
    hist = rec.residual_history
    drop = 0  # the row of the last drop

    def record(z):
        """Step ``z`` and append its row; returns the step and its residual."""
        nonlocal drop
        nxt, res, m = iteration.step(z)
        hist.append(res)
        rec.m_history.append(m)
        rec.history_iterations.append(rec.iterations)
        if res < STALL_DROP * hist[drop]:
            drop = len(hist) - 1
        return nxt, res

    z = z0
    nxt, res = record(z)
    cycle = [z]
    while res > cfg.tol and rec.iterations < cfg.max_iter:
        z = nxt
        rec.iterations += 1
        cycle.append(z)
        nxt, res = record(z)
        if len(cycle) > cfg.mw:
            if cfg.mw > 1 and not (res <= cfg.tol or rec.iterations >= cfg.max_iter):
                y = mpe_extrapolate(cycle)
                if y is None:
                    rec.mpe_fallbacks += 1
                else:
                    z = y
                    nxt, res = record(z)
                    rec.cycle_ends.append(len(hist) - 1)
            cycle = [z]
            if (on_stall is not None and res > cfg.tol and rec.iterations < cfg.max_iter
                    and len(hist) - 1 - drop >= STALL_WINDOW):
                start, on_stall = on_stall(z, rec.iterations), None
                if start is not None:
                    z = start
                    nxt, res = record(z)
                    rec.restart_row = len(hist) - 1
                    cycle = [z]
    rec.z, rec.converged = z, res <= cfg.tol
    return rec


class DivergenceError(RuntimeError):
    """The iteration cannot evaluate its iterate: NaN or overflow."""
