import numpy as np
import pytest

from fnlswaves import analysis
from fnlswaves.analysis import (
    DecayFit,
    decay_slope,
    phase_plane,
    speed_amplitude_scan,
)
from fnlswaves.params import Kind, ParameterError, ProblemParams
from fnlswaves.petviashvili import (
    SolverConfig,
    initial_iterate,
    reflect_samples,
    reflection_conjugate_defect,
    solve_scalar,
)
from fnlswaves.spectral import ComplexField, Grid, RealField


def params34(lambda2, kind=Kind.LINEAR_PHASE):
    return ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=lambda2, kind=kind)


@pytest.fixture(scope="module")
def grid64():
    return Grid(l=64.0, n=4096)


@pytest.fixture(scope="module")
def profile_c05(grid64):
    rep = solve_scalar(params34(0.5), grid64)
    assert rep.converged
    return rep.profile


def periodized_power_law(grid, p, images, scale=1.0):
    """scale times the sum over |k| <= images of |x + 2lk|^{-p}; the pole at
    x = 0 is set to 10^p."""
    x = grid.x
    with np.errstate(divide="ignore"):
        vals = sum(np.abs(x + 2.0 * grid.l * k) ** (-p) for k in range(-images, images + 1))
    vals[x == 0.0] = 10.0 ** p
    return RealField(grid, scale * vals)


class TestDecaySlope:
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.5, 6.0])
    def test_periodic_fit_recovers_periodized_power_law(self, grid64, p):
        # images summed far beyond the model's exact range and integral tail
        slopes = []
        for scale in (0.1, 1.0, 42.0):
            fit = decay_slope(periodized_power_law(grid64, p, 2000, scale), window=(10.0, 50.0))
            assert fit.slope == pytest.approx(-p, abs=1e-3)
            assert fit.model_ok
            slopes.append(fit.slope)
        assert max(slopes) - min(slopes) <= 1e-12  # log C absorbs the scale

    @pytest.mark.parametrize("lambda2, slope", [(0.5, -2.56951276), (1.0, -2.51790975),
                                                (1.5, -2.45529976)])
    def test_matches_the_golden_section_exponents(self, grid64, lambda2, slope):
        # the exponents the earlier scan-and-golden-section search found
        fit = decay_slope(solve_scalar(params34(lambda2), grid64).profile)
        assert fit.slope == pytest.approx(slope, abs=1e-7)
        assert fit.model_ok

    def test_converged_profile_matches_theorem_decay(self, profile_c05):
        fit = decay_slope(profile_c05, window=(10.0, 50.0))
        assert fit.slope == pytest.approx(-2.5, abs=0.15)

    def test_large_domain_confirms_exponent_for_all_speeds(self):
        # away from the periodic fold the fitted exponent settles on -(2s+1)
        grid = Grid(l=256.0, n=16384)
        for lambda2 in (0.5, 1.0, 1.5):
            rep = solve_scalar(params34(lambda2), grid)
            fit = decay_slope(rep.profile, window=(20.0, 100.0))
            assert fit.slope == pytest.approx(-2.5, abs=0.05), f"{lambda2=}"
            assert fit.model_ok

    def test_exponential_decay_flagged(self):
        grid = Grid(l=64.0, n=4096)
        rep = solve_scalar(ProblemParams(s=1.0, sigma=1.0, lambda1=1.0, lambda2=0.0), grid)
        fit = decay_slope(rep.profile, window=(10.0, 50.0))
        assert not fit.model_ok  # fitted exponent steepens across sub-windows

    def test_window_validation(self, grid64, profile_c05):
        with pytest.raises(ValueError, match="0.9"):
            decay_slope(profile_c05, window=(10.0, 60.0))
        with pytest.raises(ValueError, match="window"):
            decay_slope(profile_c05, window=(-1.0, 20.0))
        tiny = Grid(l=64.0, n=64)
        sparse = RealField(tiny, np.ones(64))
        with pytest.raises(ValueError, match="16"):
            decay_slope(sparse, window=(10.0, 20.0))

    def test_vanishing_profile_on_window(self, grid64):
        vals = np.zeros(grid64.n)
        vals[grid64.zero_index()] = 1.0
        with pytest.raises(ValueError, match="usable points"):
            decay_slope(RealField(grid64, vals), window=(10.0, 50.0))


class TestEvenness:
    """The evenness defect of a real profile is reflection_conjugate_defect
    of its samples: conj(rho(-x)) is rho(-x)."""

    def test_exactly_even_is_zero(self, grid64):
        vals = 1.0 / np.cosh(grid64.x)
        assert reflection_conjugate_defect(vals) == pytest.approx(0.0, abs=1e-14)

    def test_reflection_invariance(self, grid64):
        rng = np.random.default_rng(8)
        vals = np.abs(rng.standard_normal(grid64.n)) + 0.1
        d1 = reflection_conjugate_defect(vals)
        d2 = reflection_conjugate_defect(reflect_samples(vals))
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_scalar_profiles_even(self, profile_c05):
        assert reflection_conjugate_defect(profile_c05.samples) < 1e-6

    def test_quadratic_coupled_profile_uneven(self, grid64):
        rep = solve_scalar(params34(1.0), grid64, seed=initial_iterate(grid64, "quadratic"))
        assert rep.converged
        assert reflection_conjugate_defect(rep.profile.samples) > 1e-2

    def test_zero_profile(self, grid64):
        assert reflection_conjugate_defect(np.zeros(grid64.n)) == 0.0


class TestPhasePlane:
    def test_sech_monotone_tail(self, grid64):
        plane = phase_plane(RealField(grid64, 1.5 / np.cosh(grid64.x)))
        assert plane.tail_oscillations == 0

    def test_zero_profile(self, grid64):
        plane = phase_plane(RealField(grid64, np.zeros(grid64.n)))
        assert plane.tail_oscillations == 0
        assert np.all(plane.rho == 0.0)

    def test_slow_wave_clean_fast_wave_oscillating(self, grid64):
        slow = solve_scalar(params34(0.5), grid64)
        fast = solve_scalar(params34(1.75), grid64)
        assert phase_plane(slow.profile).tail_oscillations == 0
        assert phase_plane(fast.profile).tail_oscillations >= 1

    def test_derivative_consistent(self, grid64, profile_c05):
        plane = phase_plane(profile_c05)
        # rho' vanishes at the centered peak
        assert abs(plane.rho_x[grid64.zero_index()]) < 1e-8 * plane.rho.max()


class TestScan:
    def test_amplitude_monotone_in_gap(self, grid64):
        base = params34(0.25)
        speeds = [0.25 * k for k in range(1, 8)]
        result = speed_amplitude_scan(base, speeds, grid64)
        assert result.all_converged
        assert result.amplitudes_increase_with_gap()
        assert [r.lambda2 for r in result.rows] == sorted(speeds)

    def test_single_speed_matches_solve(self, grid64):
        rep = solve_scalar(params34(1.0), grid64)
        result = speed_amplitude_scan(params34(1.0), [1.0], grid64)
        assert result.rows[0].amplitude == pytest.approx(rep.amplitude, rel=1e-12)

    def test_speed_gap_is_symmetric_in_the_speed_sign(self):
        # the window bounds |lambda2|, so c and -c are the same distance
        # from the limiting speed and carry the same amplitude
        result = speed_amplitude_scan(params34(1.0), [-1.0, 1.0], Grid(l=32.0, n=1024))
        minus, plus = result.rows
        assert minus.lambda2 == -1.0 and plus.lambda2 == 1.0
        assert minus.speed_gap == plus.speed_gap == pytest.approx(0.8899, abs=5e-4)
        assert minus.amplitude == pytest.approx(plus.amplitude, rel=1e-12)

    def test_coupled_kind_same_trend(self):
        grid = Grid(l=64.0, n=2048)
        base = params34(0.5, kind=Kind.COUPLED)
        result = speed_amplitude_scan(base, [0.5, 1.0, 1.5], grid,
                                      seed=initial_iterate(grid, "quadratic"))
        assert result.all_converged
        assert result.amplitudes_increase_with_gap()

    def test_inadmissible_speed_fails_before_any_solve(self, monkeypatch):
        calls = []

        def counted(p, *args, **kwargs):
            calls.append(p.lambda2)
            return solve_scalar(p, *args, **kwargs)
        monkeypatch.setattr(analysis, "solve_scalar", counted)
        with pytest.raises(ParameterError, match="1.8899"):
            speed_amplitude_scan(params34(0.5), [0.5, 1.0, 1.5, 1.95], Grid(l=32.0, n=512))
        assert calls == []

    def test_parallel_matches_serial(self, grid64):
        base = params34(0.5)
        speeds = [0.5, 1.0]
        serial = speed_amplitude_scan(base, speeds, grid64, workers=1)
        threaded = speed_amplitude_scan(base, speeds, grid64, workers=2)
        for a, b in zip(serial.rows, threaded.rows):
            assert a.amplitude == b.amplitude
