"""Model parameters for the focusing 1D fractional NLS and derived quantities.

The solitary waves are relative equilibria with two Lagrange multipliers:
``lambda1`` (phase rotation rate) and ``lambda2`` (translation speed c_s).
For a fixed lambda1 the waves exist for speeds below the limiting value

    c(lambda1) = 2s * (lambda1 / (2s - 1)) ** ((2s - 1) / (2s)),

which is where the quadratic form of the constrained problem loses
positivity.  On the linear-phase subfamily u(x) = rho(x) e^{iAx} the slope
A and the spectral shift a = lambda1 - (2s - 1)|A|^{2s} are pinned by
lambda2; ``a`` plays the role of the squared amplitude scale of rho and
vanishes at the limiting speed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class Kind(enum.Enum):
    """Header label of the profile problem; the seed, not the kind, picks the wave."""

    LINEAR_PHASE = "linear_phase"
    COUPLED = "coupled"


class ParameterError(ValueError):
    """A model parameter is outside its admissible window."""


def limiting_speed(s: float, lambda1: float) -> float:
    """Speed threshold c(lambda1) below which profiles exist.

    Strictly increasing in lambda1; equals 2*sqrt(lambda1) at s=1.
    """
    _check_s(s)
    if lambda1 <= 0.0:
        raise ParameterError(f"lambda1 must be positive, got {lambda1}")
    return 2.0 * s * (lambda1 / (2.0 * s - 1.0)) ** ((2.0 * s - 1.0) / (2.0 * s))


def phase_slope(s: float, lambda2: float) -> float:
    """Slope A of the linear phase fixed by lambda2 = 2s|A|^{2s-2}A."""
    _check_s(s)
    if lambda2 == 0.0:
        return 0.0
    return math.copysign(
        (abs(lambda2) / (2.0 * s)) ** (1.0 / (2.0 * s - 1.0)), lambda2
    )


def spectral_shift(s: float, lambda1: float, phase_slope_a: float) -> float:
    """Shift a = lambda1 - (2s-1)|A|^{2s}; equals lambda1 when A=0."""
    _check_s(s)
    return lambda1 - (2.0 * s - 1.0) * abs(phase_slope_a) ** (2.0 * s)


def _check_s(s: float) -> None:
    if not 0.5 < s <= 1.0:
        raise ParameterError(f"dispersion order s must lie in (1/2, 1], got {s}")


@dataclass(frozen=True)
class ProblemParams:
    """Physical parameters of one solitary-wave problem.

    s        : fractional dispersion order, 1/2 < s <= 1
    sigma    : nonlinearity exponent, sigma > 0 (cubic when sigma = 1)
    lambda1  : first multiplier, > 0
    lambda2  : second multiplier = wave speed c_s, |lambda2| < c(lambda1)
    kind     : label of the profile problem (see Kind)

    Building parameters outside this window raises ParameterError listing
    every violated bound.  lambda2 = 0 is accepted (standing wave): the
    existence theory needs |lambda2| > 0, but the zero-speed profile
    equation is well posed.  A and a, the linear-phase slope and spectral
    shift, are derived from the signed speed.
    """

    s: float
    sigma: float
    lambda1: float
    lambda2: float
    kind: Kind = Kind.LINEAR_PHASE
    A: float = field(init=False)
    a: float = field(init=False)

    def __post_init__(self):
        out = [f"{name}={v} must be a finite number" for name, v in
               (("sigma", self.sigma), ("lambda1", self.lambda1), ("lambda2", self.lambda2))
               if not math.isfinite(v)]
        if not 0.5 < self.s <= 1.0:
            out.append(f"s={self.s} outside the open-closed window (0.5, 1]")
        if self.sigma <= 0.0:
            out.append(f"sigma={self.sigma} must exceed 0")
        if self.lambda1 <= 0.0:
            out.append(f"lambda1={self.lambda1} must exceed 0")
        if not out:
            c_lim = limiting_speed(self.s, self.lambda1)
            if abs(self.lambda2) >= c_lim:
                out.append(
                    f"|lambda2|={abs(self.lambda2)} must stay below the "
                    f"limiting speed {c_lim:.4f}"
                )
        if out:
            raise ParameterError("; ".join(out))
        try:
            slope = phase_slope(self.s, self.lambda2)
            shift = spectral_shift(self.s, self.lambda1, slope)
        except OverflowError:
            slope = shift = math.inf
        if not math.isfinite(slope) or not math.isfinite(shift):
            raise ParameterError(f"lambda1={self.lambda1}, lambda2={self.lambda2} overflow "
                                 "the phase slope A or the spectral shift a")
        object.__setattr__(self, "A", slope)
        object.__setattr__(self, "a", shift)

    def limiting_speed(self) -> float:
        return limiting_speed(self.s, self.lambda1)


# the identity, kept for bench/run.py's reference pass (ROADMAP direction 13)
def linear_phase_params(params: ProblemParams) -> ProblemParams:
    """The parameters themselves, which carry the linear-phase (A, a)."""
    return params


def metadata(params: ProblemParams) -> dict:
    """Flat key/value view of the parameters plus derived quantities,
    echoed into every output file header."""
    return {
        "s": params.s,
        "sigma": params.sigma,
        "lambda1": params.lambda1,
        "lambda2": params.lambda2,
        "kind": params.kind.value,
        "limiting_speed": params.limiting_speed(),
        "phase_slope_A": params.A,
        "spectral_shift_a": params.a,
    }
