"""Minimal Polynomial Extrapolation wrapped around fixed-point iterations.

Given kappa+2 consecutive iterates z0..z_{kappa+1} and their differences
u_i = z_{i+1} - z_i, MPE solves

    min over c_0..c_{kappa-1} of || sum_i c_i u_i + u_kappa ||_2,

sets c_kappa = 1, normalizes gamma_i = c_i / sum(c) and returns
sum gamma_i z_i.  The width mw = kappa + 1 controls how many base
iterations feed one extrapolation; mw = 1 disables acceleration.

The driver below uses restarted cycles: run mw base iterations, extrapolate
from the cycle's mw + 1 iterates and restart from the extrapolant; with
mw = 1 it is the plain iteration.  Iterates are flat float64 or complex128
vectors; MPE pairs them as real vectors, a complex entry counting as its
real and imaginary parts, so the least-squares problem stays real.  A step
reports the residual of the iterate it starts from, so the driver records
residuals without evaluating the operator a second time.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Raw outcome of the accelerated fixed-point loop."""

    z: np.ndarray
    converged: bool
    iterations: int
    residual_history: list
    m_history: list
    cycle_ends: list
    fallbacks: int


def accelerated_iterate(iteration, cfg) -> AccelResult:
    """Drive a fixed-point iteration with restarted-MPE cycles.

    ``iteration`` provides initial() -> z, step(z) -> (z_next, residual, m)
    with the residual and m of its input z, and diagnostics(z) ->
    (residual, m).  The residual of every iterate is recorded, including
    each cycle's extrapolant (evaluated on the profile equation itself);
    ``iterations`` counts base applications only.

    Each iterate's residual comes from the step taken from it, so one base
    iteration costs one step.  ``diagnostics`` is called only for iterates
    that are never stepped from: the last base iterate of an mw > 1 cycle,
    which feeds the extrapolation, and the iterate at max_iter.  After a
    degenerate extrapolation the loop steps from that kept base iterate.
    The only step output thrown away is the one taken from the converged
    iterate.
    """
    z = iteration.initial()
    nxt, res, m = iteration.step(z)
    history_r = [res]
    history_m = [m]
    cycle_ends: list[int] = []
    fallbacks = 0
    it = 0

    while not res <= cfg.tol:  # a NaN residual is not convergence
        cycle = [z]
        for k in range(1, cfg.mw + 1):
            z = nxt
            it += 1
            _check_finite(z, it)
            cycle.append(z)
            if it >= cfg.max_iter or (cfg.mw > 1 and k == cfg.mw):
                res, m = iteration.diagnostics(z)
            else:
                nxt, res, m = iteration.step(z)
            history_r.append(res)
            history_m.append(m)
            if res <= cfg.tol or it >= cfg.max_iter:
                return AccelResult(z, res <= cfg.tol, it, history_r, history_m, cycle_ends, fallbacks)
        if cfg.mw == 1:
            continue
        y = mpe_extrapolate(cycle)
        if y is None:
            fallbacks += 1
            nxt = iteration.step(z)[0]
            continue
        z = y
        nxt, res, m = iteration.step(z)
        history_r.append(res)
        history_m.append(m)
        cycle_ends.append(len(history_r) - 1)
    return AccelResult(z, True, it, history_r, history_m, cycle_ends, fallbacks)


class DivergenceError(RuntimeError):
    """The iteration produced NaN or overflow."""


def _check_finite(z: np.ndarray, it: int) -> None:
    if not np.all(np.isfinite(z)):
        raise DivergenceError(
            f"iterate became non-finite at base iteration {it}; "
            "check admissibility of the parameters and the seed"
        )
