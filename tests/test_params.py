import math

import numpy as np
import pytest

from fnlswaves.params import (
    Kind,
    ParameterError,
    ProblemParams,
    limiting_speed,
    linear_phase_params,
    metadata,
    phase_slope,
    spectral_shift,
)


class TestLimitingSpeed:
    def test_paper_value_s34(self):
        # 2s (lambda1/(2s-1))^((2s-1)/2s) = 1.5 * 2^(1/3)
        assert limiting_speed(0.75, 1.0) == pytest.approx(1.8899, abs=5e-4)
        assert limiting_speed(0.75, 1.0) == pytest.approx(1.5 * 2.0 ** (1.0 / 3.0), rel=1e-14)

    def test_classical_limit(self):
        assert limiting_speed(1.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_s06_closed_form(self):
        # 1.2 * 5^(1/6)
        assert limiting_speed(0.6, 1.0) == pytest.approx(1.2 * 5.0 ** (1.0 / 6.0), rel=1e-14)
        assert limiting_speed(0.6, 1.0) == pytest.approx(1.5692, abs=1e-4)

    @pytest.mark.parametrize("s,lam1", [(0.5, 1.0), (0.4, 1.0), (1.1, 1.0), (0.75, 0.0), (0.75, -1.0)])
    def test_domain_errors(self, s, lam1):
        with pytest.raises(ParameterError):
            limiting_speed(s, lam1)

    def test_sqrt_specialization_at_s1(self):
        for lam in np.linspace(0.1, 9.0, 25):
            assert limiting_speed(1.0, lam) == pytest.approx(2.0 * math.sqrt(lam), rel=1e-13)

    @pytest.mark.parametrize("s", [0.55, 0.6, 0.75, 0.9, 1.0])
    def test_strictly_increasing_in_lambda1(self, s):
        lams = np.linspace(0.05, 10.0, 100)
        vals = [limiting_speed(s, lam) for lam in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPhaseSlope:
    def test_classical_half_speed(self):
        for c in (0.3, 1.0, 1.7, -0.8):
            assert phase_slope(1.0, c) == pytest.approx(c / 2.0, rel=1e-14)

    def test_zero_speed(self):
        for s in (0.55, 0.75, 1.0):
            assert phase_slope(s, 0.0) == 0.0

    def test_s34_four_ninths(self):
        assert phase_slope(0.75, 1.0) == pytest.approx(4.0 / 9.0, rel=1e-14)

    def test_defining_relation(self):
        # lambda2 = 2s |A|^{2s-2} A reproduced to 1e-12 relative
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.uniform(0.55, 1.0)
            lam2 = rng.uniform(-2.0, 2.0)
            if abs(lam2) < 1e-3:
                continue
            A = phase_slope(s, lam2)
            back = 2.0 * s * abs(A) ** (2.0 * s - 1.0) * math.copysign(1.0, A)
            assert back == pytest.approx(lam2, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            phase_slope(0.5, 1.0)


class TestSpectralShift:
    def test_s34(self):
        a = spectral_shift(0.75, 1.0, 4.0 / 9.0)
        assert a == pytest.approx(1.0 - 4.0 / 27.0, rel=1e-14)
        assert a == pytest.approx(0.85185, abs=1e-5)

    def test_zero_slope(self):
        assert spectral_shift(0.75, 1.0, 0.0) == 1.0

    def test_classical_matches_quarter_square(self):
        # s=1, lambda2=1 -> A=1/2, a = lambda1 - (lambda2)^2/4
        A = phase_slope(1.0, 1.0)
        assert spectral_shift(1.0, 1.0, A) == pytest.approx(0.75, rel=1e-14)


class TestValidate:
    def test_fig1_parameters_accepted(self):
        p = ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=1.0)
        assert p.lambda2 == 1.0 and p.A == phase_slope(0.75, 1.0) > 0.0

    def test_speed_beyond_limit_rejected_with_bound(self):
        with pytest.raises(ParameterError, match="1.8899"):
            ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=1.9)

    def test_boundary_s_rejected(self):
        with pytest.raises(ParameterError, match="s="):
            ProblemParams(s=0.5, sigma=1.0, lambda1=1.0, lambda2=0.5)

    def test_all_violations_reported(self):
        with pytest.raises(ParameterError) as err:
            ProblemParams(s=0.4, sigma=-1.0, lambda1=0.0, lambda2=0.5)
        msg = str(err.value)
        assert "s=" in msg and "sigma=" in msg and "lambda1=" in msg

    @pytest.mark.parametrize("key, value", [
        ("sigma", float("nan")), ("sigma", float("inf")), ("lambda1", float("nan")),
        ("lambda2", float("nan")), ("lambda2", float("-inf")),
    ])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ParameterError, match=f"{key}={value} must be a finite number"):
            ProblemParams(**{"s": 0.75, "sigma": 1.0, "lambda1": 1.0, "lambda2": 0.5, key: value})

    def test_negative_speed_kept_signed(self):
        p = ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=-1.0)
        assert p.lambda2 == -1.0 and p.A == -phase_slope(0.75, 1.0)

    def test_zero_speed_accepted(self):
        p = ProblemParams(s=1.0, sigma=1.0, lambda1=1.0, lambda2=0.0)
        assert p.lambda2 == 0.0


def test_validate_derives_slope_and_shift():
    # the parameters carry the linear-phase (A, a) of the signed speed
    for lambda2 in (0.5, -0.5):
        p = ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=lambda2)
        assert linear_phase_params(p) is p
        assert p.lambda2 == lambda2 and p.A == phase_slope(0.75, lambda2)
        assert p.a == spectral_shift(0.75, 1.0, phase_slope(0.75, 0.5))


def test_linear_phase_params_and_metadata():
    p = ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=1.0)
    lp = linear_phase_params(p)
    assert lp.A == pytest.approx(4.0 / 9.0, rel=1e-14)
    assert lp.a == pytest.approx(1.0 - 4.0 / 27.0, rel=1e-14)
    assert lp.a > 0.0
    meta = metadata(p)
    assert meta["limiting_speed"] == pytest.approx(1.8899, abs=5e-4)
    assert meta["phase_slope_A"] == pytest.approx(4.0 / 9.0)
    assert meta["kind"] == "linear_phase"
    assert set(meta) == {"s", "sigma", "lambda1", "lambda2", "kind", "limiting_speed",
                         "phase_slope_A", "spectral_shift_a"}
    # linear_phase_params hands the parameters back: the signed speed is kept
    for lambda2 in (-0.5, -1.0, -1.5):
        p = ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=lambda2)
        lp = linear_phase_params(p)
        assert lp is p
        assert lp.lambda2 == lambda2
        assert lp.A == pytest.approx(phase_slope(0.75, lambda2), rel=1e-14) and lp.A < 0.0
        assert metadata(p)["lambda2"] == metadata(lp)["lambda2"] == lambda2
        assert set(metadata(p)) == set(meta)
