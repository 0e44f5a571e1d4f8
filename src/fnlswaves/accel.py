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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_DEGENERATE_RTOL = 1e-12  # |sum c| below this times the coefficient scale
_COND_LIMIT = 1e12  # normal equations handed to SVD lstsq beyond this


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
    use_fallback = np.trace(gram) == 0.0
    if not use_fallback:
        # the 2-norm condition number, as np.linalg.cond takes it, without its checks
        sv = np.linalg.svd(gram, compute_uv=False)
        use_fallback = sv[-1] == 0.0 or float(sv[0]) / float(sv[-1]) > _COND_LIMIT
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
    taken so far (``history_iterations``, which an extrapolant's row
    repeats) per iterate, the rows of the extrapolants (``cycle_ends``),
    the base ``iterations``, the degenerate extrapolations
    (``mpe_fallbacks``) and the last iterate ``z``."""

    z: np.ndarray
    converged: bool = False
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    m_history: list = field(default_factory=list)
    history_iterations: list = field(default_factory=list)
    cycle_ends: list = field(default_factory=list)
    mpe_fallbacks: int = 0


def accelerated_iterate(iteration, z0: np.ndarray, cfg) -> AccelResult:
    """Drive a fixed-point iteration from ``z0`` with restarted-MPE cycles.

    ``iteration`` provides step(z) -> (z_next, residual, m), with the
    residual and m of its input z; the driver calls nothing else and
    writes to no iterate.  One local recorder, the only place that steps
    an iterate, fills the AccelResult as the loop runs: a row of each
    iterate's residual, m and the base count at that moment, each cycle's
    extrapolant included (evaluated on the profile equation itself).

    Every iterate is stepped from exactly once, so one base iteration or
    one extrapolant costs one step.  When an extrapolation is degenerate
    the loop goes on from the step already taken from the cycle's last
    base iterate.  The only step output thrown away is the one taken from
    the final iterate, whether it converged or the loop reached max_iter.
    ``step`` judges its input, a base iterate or an extrapolant, and raises
    DivergenceError on one it cannot evaluate, so the driver takes each
    residual as given and checks no iterate itself.
    """
    rec = AccelResult(z0)

    def record(z):
        """Step ``z`` and append its row; returns the step and its residual."""
        nxt, res, m = iteration.step(z)
        rec.residual_history.append(res)
        rec.m_history.append(m)
        rec.history_iterations.append(rec.iterations)
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
                    rec.cycle_ends.append(len(rec.residual_history) - 1)
            cycle = [z]
    rec.z, rec.converged = z, res <= cfg.tol
    return rec


class DivergenceError(RuntimeError):
    """The iteration cannot evaluate its iterate: NaN or overflow."""
