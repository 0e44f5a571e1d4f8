import re
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnlswaves import accel, petviashvili
from fnlswaves.params import Kind, ProblemParams, limiting_speed, phase_slope
from fnlswaves.petviashvili import (
    CLASS_RTOL,
    ProfileIteration,
    SolverConfig,
    fixed_point_spectrum_probe,
    initial_iterate,
    prolong,
    reflect_samples,
    reflection_conjugate_defect,
    save_report,
    solve_coupled,
    solve_on_grid,
    solve_scalar,
)
from fnlswaves.spectral import (ComplexField, Grid, RealField, fractional_symbol, invariants,
                                load_field, profile_operator)


def fig1_params(lambda2, sigma=1.0):
    return ProblemParams(s=0.75, sigma=sigma, lambda1=1.0, lambda2=lambda2)


@pytest.fixture(scope="module")
def grid64():
    return Grid(l=64.0, n=4096)


@pytest.fixture(scope="module")
def report_c1(grid64):
    return solve_scalar(fig1_params(1.0), grid64)


@pytest.fixture
def steps_per_n(monkeypatch):
    """Count the ProfileIteration.step calls on each grid size while installed."""
    steps = Counter()
    step = ProfileIteration.step

    def counted(iteration, z):
        steps[iteration.grid.n] += 1
        return step(iteration, z)

    monkeypatch.setattr(ProfileIteration, "step", counted)
    return steps


@pytest.fixture
def driver_runs(monkeypatch):
    """Record (n, dtype of the start, cfg) for each driver run while
    installed; the dtype is "real" for an iterate of the half layout, else
    "complex"."""
    runs = []
    drive = accel.accelerated_iterate

    def recorded(iteration, z0, cfg):
        runs.append((iteration.grid.n, "real" if np.isrealobj(z0) else "complex", cfg))
        return drive(iteration, z0, cfg)

    monkeypatch.setattr(accel, "accelerated_iterate", recorded)
    return runs


@pytest.fixture
def builds(monkeypatch):
    """Count the ProfileIteration constructions and the class tests, each
    the class defect of a spectrum, of the solves run while installed."""
    counts = Counter()
    init, defect = ProfileIteration.__init__, petviashvili._class_defect

    def counted_init(iteration, *args, **kwargs):
        counts["iterations"] += 1
        init(iteration, *args, **kwargs)

    def counted_defect(w):
        counts["class tests"] += 1
        return defect(w)

    monkeypatch.setattr(ProfileIteration, "__init__", counted_init)
    monkeypatch.setattr(petviashvili, "_class_defect", counted_defect)
    return counts


class TestInitialIterate:
    def test_linear_phase(self):
        g = Grid(l=8.0, n=64)
        A = 4.0 / 9.0
        f = initial_iterate(g, A)
        assert isinstance(f, ComplexField)
        assert np.allclose(f.v, np.cos(A * g.x) / np.cosh(g.x))
        assert np.allclose(f.w, np.sin(A * g.x) / np.cosh(g.x))

    def test_default_is_real_sech(self):
        # the default phase is zero: the real sech as a ComplexField
        g = Grid(l=8.0, n=64)
        f = initial_iterate(g)
        assert isinstance(f, ComplexField)
        assert np.allclose(f.v, 1.0 / np.cosh(g.x))
        assert np.all(f.w == 0.0)

    def test_zero_phase_gives_real_pair(self):
        g = Grid(l=8.0, n=64)
        f = initial_iterate(g, 0.0)
        assert isinstance(f, ComplexField)
        assert np.allclose(f.v, 1.0 / np.cosh(g.x))
        assert np.all(f.w == 0.0)

    def test_quadratic_phase(self):
        g = Grid(l=8.0, n=64)
        f = initial_iterate(g, "quadratic")
        assert np.allclose(f.w, np.sin(g.x ** 2) / np.cosh(g.x))

    def test_bad_descriptor(self):
        g = Grid(l=8.0, n=64)
        with pytest.raises(ValueError):
            initial_iterate(g, "cubic")


class TestSolveScalar:
    def test_classical_soliton(self):
        grid = Grid(l=32.0, n=1024)
        rep = solve_scalar(ProblemParams(s=1.0, sigma=1.0, lambda1=1.0, lambda2=0.0), grid)
        assert rep.converged
        exact = np.sqrt(2.0) / np.cosh(grid.x)
        assert np.max(np.abs(rep.profile.samples - exact)) < 1e-8

    def test_exact_seed_converges_immediately(self, grid64, report_c1):
        rep = solve_scalar(fig1_params(1.0), grid64, seed=report_c1.envelope)
        assert rep.converged and rep.iterations == 0
        assert rep.m_history[0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_seed_rejected(self, grid64):
        seed = ComplexField(grid64, np.zeros(grid64.n, dtype=complex))
        with pytest.raises(ValueError, match="degenerate seed"):
            solve_scalar(fig1_params(1.0), grid64, seed=seed)

    def test_real_field_seed_rejected(self, grid64):
        # a seed is the complex envelope itself; a real field has no phase
        # to read, so it is refused rather than modulated
        with pytest.raises(TypeError, match="RealField"):
            solve_scalar(fig1_params(1.0), grid64, seed=initial_iterate(grid64).modulus())

    @pytest.mark.parametrize("lambda2", [0.5, 1.0, 1.5])
    def test_fig1_convergence(self, grid64, lambda2):
        rep = solve_scalar(fig1_params(lambda2), grid64)
        assert rep.converged
        assert rep.final_residual <= 1e-10
        assert rep.iterations <= 500
        assert abs(rep.m_history[-1] - 1.0) <= 10.0 * 1e-10

    def test_amplitude_decreases_with_speed(self, grid64):
        amps = [solve_scalar(fig1_params(c), grid64).amplitude for c in (0.5, 1.0, 1.5)]
        assert amps[0] > amps[1] > amps[2]

    def test_profile_centered_and_even(self, report_c1):
        prof = report_c1.profile.samples
        n = len(prof)
        assert int(np.argmax(prof)) == n // 2
        reflected = np.roll(prof[::-1], 1)
        assert np.max(np.abs(prof - reflected)) < 1e-12 * prof.max()

    def test_translation_covariance(self, grid64, report_c1):
        seed = initial_iterate(grid64, 4.0 / 9.0)
        shifted = ComplexField(grid64, np.roll(seed.samples, 257))
        rep = solve_scalar(fig1_params(1.0), grid64, seed=shifted)
        assert rep.converged
        assert np.max(np.abs(rep.profile.samples - report_c1.profile.samples)) < 1e-8

    def test_residual_history_eventually_monotone(self, grid64):
        for lambda2 in (0.5, 1.0, 1.5):
            rep = solve_scalar(fig1_params(lambda2), grid64)
            hist = rep.residual_history[10:]
            assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_negative_speed_gives_mirror_wave(self, grid64):
        rep_pos = solve_scalar(fig1_params(1.0), grid64)
        rep_neg = solve_scalar(fig1_params(-1.0), grid64)
        assert rep_neg.converged
        assert np.max(np.abs(rep_neg.profile.samples - rep_pos.profile.samples)) < 1e-8
        assert invariants(rep_neg.envelope, 0.75, 1.0).momentum == pytest.approx(
            -invariants(rep_pos.envelope, 0.75, 1.0).momentum, rel=1e-8
        )

    def test_speed_outside_window_rejected(self, grid64):
        with pytest.raises(Exception, match="1.8899|positivity"):
            solve_scalar(fig1_params(1.95), grid64)


class TestSolveCoupled:
    def test_zero_seed_rejected(self, grid64):
        seed = ComplexField(grid64, np.zeros(grid64.n, dtype=complex))
        with pytest.raises(ValueError, match="degenerate seed"):
            solve_coupled(fig1_params(1.0), grid64, seed=seed)

    @pytest.mark.parametrize("lambda2", [0.5, 1.0, 1.5])
    def test_subfamily_consistency(self, grid64, lambda2):
        # linear-phase seed reproduces the scalar modulus after centering
        scalar = solve_scalar(fig1_params(lambda2), grid64)
        from fnlswaves.params import phase_slope

        seed = initial_iterate(grid64, phase_slope(0.75, lambda2))
        coupled = solve_scalar(fig1_params(lambda2), grid64, seed=seed)
        assert coupled.converged
        diff = np.max(np.abs(np.abs(coupled.envelope.samples) - scalar.profile.samples))
        assert diff < 1e-6

    def test_quadratic_seed_gives_the_even_wave(self, grid64, report_c1):
        # the quadratic seed, projected onto the class, reaches the
        # linear-phase wave itself: its centred modulus is even, and not a
        # translate by a fraction of a grid step, whose samples are not
        seed = initial_iterate(grid64, "quadratic")
        rep = solve_scalar(fig1_params(1.0), grid64, seed=seed)
        assert rep.converged
        mod = np.abs(rep.envelope.samples)
        mod = np.roll(mod, grid64.n // 2 - int(np.argmax(mod)))
        defect = np.linalg.norm(mod - np.roll(mod[::-1], 1)) / np.linalg.norm(mod)
        assert defect < 1e-6
        assert np.max(np.abs(mod - report_c1.profile.samples)) <= 1e-10

    def test_unmodulated_seed_finds_same_orbit(self, grid64, report_c1):
        # a plain sech pair (no phase carrier) enters the basin elsewhere but
        # converges to the same wave modulo phase and translation
        seed = initial_iterate(grid64)
        rep = solve_scalar(fig1_params(1.0), grid64, seed=seed)
        assert rep.converged
        mod = np.abs(rep.envelope.samples)
        mod = np.roll(mod, grid64.n // 2 - int(np.argmax(mod)))
        assert np.max(np.abs(mod - report_c1.profile.samples)) < 1e-6


class TestSeedGrid:
    @pytest.mark.parametrize("seed_grid, grid", [
        (Grid(l=64.0, n=512), Grid(l=64.0, n=4096)),  # fewer points: nested
        (Grid(l=128.0, n=4096), Grid(l=64.0, n=4096)),  # same n, another domain
    ], ids=["n", "l"])
    @pytest.mark.parametrize("solve", [solve_scalar, solve_on_grid],
                             ids=["scalar", "on_grid"])
    def test_seed_on_another_grid_is_rejected(self, seed_grid, grid, solve):
        seed = initial_iterate(seed_grid, fig1_params(1.0).A)
        with pytest.raises(ValueError, match=re.escape(f"seed is on {seed_grid}, the solve on {grid}")):
            solve(fig1_params(1.0), grid, seed=seed)


class TestSeedFrame:
    @pytest.mark.parametrize("kind", [Kind.LINEAR_PHASE, Kind.COUPLED],
                             ids=["scalar", "coupled"])
    def test_seed_is_read_in_the_caller_frame(self, grid64, kind):
        # c = -1 is solved as given: the seed built for -1 is the default
        # seed, and T_{-c} = R T_c R keeps the c = +1 iteration count
        params = [ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=c, kind=kind)
                  for c in (1.0, -1.0)]
        plus = solve_on_grid(params[0], grid64)
        default = solve_on_grid(params[1], grid64)
        minus = solve_on_grid(params[1], grid64,
                             seed=initial_iterate(grid64, phase_slope(0.75, -1.0)))
        assert minus.iterations == plus.iterations == 42
        assert minus.residual_history == default.residual_history
        assert np.array_equal(minus.envelope.samples, default.envelope.samples)


class TestKindIsALabel:
    @pytest.mark.parametrize("theta", [None, "quadratic"], ids=["default", "quadratic"])
    def test_kind_does_not_change_the_solve(self, grid64, theta):
        # the seed picks the wave: both kinds run the same iteration from
        # the same seed, also under the solve_coupled name the benchmark
        # harness calls, and both report the real modulus as the profile
        seed = None if theta is None else initial_iterate(grid64, theta)
        lin, cpl = (solve(ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=1.0, kind=kind),
                          grid64, seed=seed)
                    for solve, kind in ((solve_scalar, Kind.LINEAR_PHASE),
                                        (solve_coupled, Kind.COUPLED)))
        assert cpl.converged and cpl.iterations == lin.iterations
        assert cpl.residual_history == lin.residual_history
        assert cpl.m_history == lin.m_history
        assert np.array_equal(cpl.envelope.samples, lin.envelope.samples)
        assert isinstance(cpl.profile, RealField)
        assert np.array_equal(cpl.profile.samples, np.abs(cpl.envelope.samples))
        assert (lin.meta["kind"], cpl.meta["kind"]) == ("linear_phase", "coupled")


class TestSpectrumProbe:
    def test_classical_map_eigenvalue(self, grid64):
        # alpha = 0 exposes the homogeneity eigenvalue 2 sigma + 1
        grid = Grid(l=64.0, n=1024)
        rep = solve_scalar(fig1_params(1.0), grid, SolverConfig(tol=1e-12, max_iter=600))
        est = fixed_point_spectrum_probe(fig1_params(1.0), rep, alpha=0.0)
        assert est == pytest.approx(3.0, abs=1e-3)

    def test_optimal_alpha_contracts(self):
        grid = Grid(l=64.0, n=1024)
        rep = solve_scalar(fig1_params(1.0), grid, SolverConfig(tol=1e-12, max_iter=600))
        est = fixed_point_spectrum_probe(fig1_params(1.0), rep, alpha=1.5)
        assert abs(est) < 1.0

    @pytest.mark.parametrize("alpha", [1.5, 0.0])
    def test_speed_sign_gives_same_estimate(self, alpha):
        # the probe must linearize at the c = -1 wave: at the c = +1 wave it
        # reads 2.46 against 0.565.  c = -1 runs its own float operations,
        # so the two agree to the probe's Ritz residual bound of 1e-8
        grid = Grid(l=32.0, n=1024)
        est = [fixed_point_spectrum_probe(p, solve_scalar(p, grid), alpha)
               for p in (fig1_params(1.0), fig1_params(-1.0))]
        assert abs(est[0] - est[1]) <= 1e-8

    def test_transform_budget(self, grid64, fft_calls, fft_length):
        # three transforms to set up, the envelope's spectrum and the half-size
        # pair of the wave's samples and G_hat, and two half-size ones a
        # product, 11 products at c = 1 on (64, 4096); the full-layout
        # derivative took 2 + 2 * 13 full-size transforms, 28 * 4096 points,
        # and the central-difference power iteration 4 a step and 118 in all
        rep = solve_scalar(fig1_params(1.0), grid64)
        fft_calls[0] = fft_length[0] = 0
        est = fixed_point_spectrum_probe(fig1_params(1.0), rep, alpha=1.5)
        assert est.krylov_dim == 11 and est.ritz_residual <= petviashvili.PROBE_TOL
        assert fft_calls[0] == 3 + 2 * est.krylov_dim
        assert fft_length[0] <= 28 * grid64.n
        assert est == pytest.approx(0.565, abs=1e-3)

    @pytest.mark.parametrize("c", [0.5, 1.5])
    def test_quadratic_seed_wave_reads_as_the_linear_phase_one(self, grid64, c):
        # the coupled wave from the quadratic seed is on the class, as every
        # answer is, and it is probed as the linear-phase wave of the same
        # problem
        params = ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=c, kind=Kind.COUPLED)
        coupled = solve_scalar(params, grid64, seed=initial_iterate(grid64, "quadratic"))
        linear = solve_scalar(fig1_params(c), grid64)
        assert coupled.seed_class_defect > 1.0
        assert reflection_conjugate_defect(coupled.envelope.samples) <= CLASS_RTOL
        estimates = [fixed_point_spectrum_probe(params, rep, 1.5) for rep in (coupled, linear)]
        assert abs(estimates[0] - estimates[1]) <= 1e-8

    def test_envelope_off_the_class_is_refused(self, grid64, report_c1):
        # the map holds only the class: sech(x + 4) + sech(x - 4) / 2 is no
        # fixed point of it, and neither is the wave rotated by 0.3, which
        # the solver never reports
        x = grid64.x
        rotated = np.exp(0.3j) * report_c1.envelope.samples
        for samples in (1.0 / np.cosh(x + 4.0) + 0.5 / np.cosh(x - 4.0), rotated):
            field = ComplexField(grid64, samples)
            with pytest.raises(ValueError, match="exceeds CLASS_RTOL"):
                fixed_point_spectrum_probe(fig1_params(1.0), replace(report_c1, envelope=field), 1.5)

    def test_matches_residual_contraction(self, grid64):
        rep = solve_scalar(fig1_params(1.0), grid64)
        tail = rep.residual_history[-6:]
        ratios = [b / a for a, b in zip(tail, tail[1:])]
        assert all(r < 1.0 for r in ratios)


class TestExactDerivative:
    """ProfileIteration.derivative against a central difference of step,
    the half-layout map it differentiates."""

    @staticmethod
    def assert_matches_central_difference(params, field, seed, eps=1e-6):
        iteration = ProfileIteration(params, field.grid, SolverConfig().resolved_alpha(params.sigma))
        z = iteration.iterate(field.spectrum())
        assert z.dtype.kind == "f"
        product = iteration.derivative(z)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            h = rng.standard_normal(field.grid.n)
            h *= np.linalg.norm(z) / np.linalg.norm(h)
            exact = product(h)
            reference = (iteration.step(z + eps * h)[0] - iteration.step(z - eps * h)[0]) / (2.0 * eps)
            assert np.all(np.isfinite(exact))
            assert np.linalg.norm(exact - reference) <= 1e-6 * np.linalg.norm(reference)

    @pytest.mark.parametrize("c", [1.0, -1.0])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_matches_central_difference(self, sigma, c):
        params = fig1_params(c, sigma)
        self.assert_matches_central_difference(params, solve_scalar(params, Grid(l=32.0, n=512)).envelope, 3)

    def test_zero_samples_below_sigma_one(self):
        # at sigma < 1 the factor sigma |u|^{2 sigma - 2} u^2 of conj(v) is
        # 0 * inf at a zero sample; the product takes its limit 0 there, and
        # matches the central difference at a field that vanishes off |x| < 8.
        # G is only once differentiable at a zero sample, where the central
        # difference errs by O(eps), hence the smaller eps
        x = Grid(l=32.0, n=512).x
        field = ComplexField(Grid(l=32.0, n=512), np.where(np.abs(x) < 8.0, np.exp(0.3j * x) / np.cosh(x), 0.0))
        self.assert_matches_central_difference(fig1_params(1.0, 0.5), field, 5, eps=1e-7)

    @pytest.mark.parametrize("alpha", [None, 1.05])
    @pytest.mark.parametrize("c", [0.5, 1.5])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_euler_identity(self, sigma, c, alpha):
        # G is homogeneous of degree 2 sigma + 1 and m of degree -2 sigma, so T
        # is of degree 2 sigma + 1 - 2 sigma alpha and DT(w) w is that times
        # T(w), by Euler's identity: 0 at the optimal alpha, the eigenvalue
        # 2 sigma + 1 of the naive map mapped to zero.  The exact derivative
        # meets it to roundoff at any w, where the central difference errs by
        # its step; each of its terms (the dm term, its sign, the factor 2 of
        # d<L w, w>, conj(v)) is needed to meet it
        params = fig1_params(c, sigma)
        grid = Grid(l=32.0, n=512)
        alpha = SolverConfig(alpha=alpha).resolved_alpha(sigma)
        iteration = ProfileIteration(params, grid, alpha)
        w = iteration.iterate(initial_iterate(grid, params.A).spectrum())
        assert w.dtype.kind == "f"
        image = iteration.step(w)[0]
        defect = iteration.derivative(w)(w) - (2.0 * sigma + 1.0 - 2.0 * sigma * alpha) * image
        assert np.linalg.norm(defect) <= 1e-12 * np.linalg.norm(image)


def profile_iteration(lambda2, grid):
    """The iteration of the fig1 problem at speed lambda2, and the iterate
    of its default seed."""
    params = fig1_params(lambda2)
    alpha = SolverConfig().resolved_alpha(params.sigma)
    iteration = ProfileIteration(params, grid, alpha)
    return iteration, iteration.iterate(initial_iterate(grid, params.A).spectrum())


def full_step(iteration, z):
    """The step on the full complex spectrum z = fft(u) of any envelope u,
    with ifft and fft, and the step's own arithmetic after them: the
    reference the half-layout step is checked against, in the class or out
    of it."""
    u = np.fft.ifft(z)
    g_hat = np.fft.fft(np.abs(u) ** (2.0 * iteration.sigma) * u)
    lz = iteration.symbol * z
    res = float(np.linalg.norm(lz - g_hat)) / np.sqrt(iteration.grid.n)
    m = float(np.vdot(z, lz).real) / float(np.vdot(z, g_hat).real)
    return m ** iteration.alpha * g_hat / iteration.symbol, res, m


class TestFusedResidual:
    """The iterate is a spectrum, and step(z) reports the residual and m of
    z by Parseval, so each iterate costs one step: 2 half-size transforms."""

    def test_step_reports_diagnostics_of_its_input(self, fft_calls, monkeypatch):
        # the oracle is the residual |ifft(L fft(u)) - |u|^{2 sigma} u| and
        # the pairings of m, all on the samples u of z; the step runs on the
        # half-size rfft and irfft alone.  The reference full_step meets
        # the same oracle on the full spectrum of the same envelopes
        it, z = profile_iteration(1.0, Grid(l=32.0, n=1024))
        assert np.isrealobj(z) and z.shape == (1024,)
        full = np.fft.fft(it.samples(z))
        for _ in range(5):
            u = it.samples(z)
            lu = np.fft.ifft(it.symbol * np.fft.fft(u))
            g = np.abs(u) ** (2.0 * it.sigma) * u
            with monkeypatch.context() as mp:
                mp.setattr(np.fft, "fft", None)
                mp.setattr(np.fft, "ifft", None)
                before = fft_calls[0]
                nxt, res, m = it.step(z)
                assert fft_calls[0] - before == 2
            assert res == pytest.approx(np.linalg.norm(lu - g), rel=1e-13)
            assert m == pytest.approx(np.vdot(u, lu).real / np.vdot(u, g).real, rel=1e-13)
            u = np.fft.ifft(full)
            lu = np.fft.ifft(it.symbol * np.fft.fft(u))
            g = np.abs(u) ** (2.0 * it.sigma) * u
            full, res, m = full_step(it, full)
            assert res == pytest.approx(np.linalg.norm(lu - g), rel=1e-13)
            assert m == pytest.approx(np.vdot(u, lu).real / np.vdot(u, g).real, rel=1e-13)
            z = nxt

    def test_vanishing_pairing(self):
        # <G(z), z> = 0: step cannot form m and raises
        it, z = profile_iteration(1.0, Grid(l=32.0, n=1024))
        with pytest.raises(accel.DivergenceError, match="<G\\(z\\), z> = 0"):
            it.step(np.zeros_like(z))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        # NaN and inf survive the transforms into the residual, which the
        # step checks before it forms m
        it, z = profile_iteration(1.0, Grid(l=32.0, n=1024))
        z[7] = bad
        with np.errstate(all="ignore"), pytest.raises(accel.DivergenceError, match="residual"):
            it.step(z)

    def test_non_finite_extrapolant_raises_at_its_step(self, monkeypatch):
        # the driver checks no iterate: a NaN extrapolant is caught by the
        # step taken from it, the step after the cycle's mw base steps
        inputs = []
        it, z0 = profile_iteration(1.0, Grid(l=32.0, n=1024))
        step = it.step

        def recorded(z):
            inputs.append(z)
            return step(z)

        monkeypatch.setattr(it, "step", recorded)
        monkeypatch.setattr(accel, "mpe_extrapolate", lambda cycle: np.full_like(cycle[0], np.nan))
        with np.errstate(all="ignore"), pytest.raises(accel.DivergenceError, match="residual nan"):
            accel.accelerated_iterate(it, z0, SolverConfig(mw=3))
        assert len(inputs) == 1 + 3 + 1
        assert np.all(np.isfinite(inputs[:-1])) and np.all(np.isnan(inputs[-1]))

    @pytest.mark.parametrize("mw, iterations", [(1, 42), (3, 30), (4, 22), (6, 18)])
    def test_fft_budget_per_solve(self, grid64, fft_calls, mw, iterations):
        # the default seed takes the half layout: two half-size transforms per
        # step, one step per iterate, plus one fft of the seed; the samples of
        # the result are those the last step made.  Iterating the samples took
        # 172/140/102/82 full transforms, and a negative speed is solved
        # directly at the same cost
        ffts = {1: 87, 3: 81, 4: 57, 6: 45}[mw]
        for c in (1.0, -1.0):
            fft_calls[0] = 0
            rep = solve_on_grid(fig1_params(c), grid64, SolverConfig(mw=mw))
            assert rep.converged and rep.iterations == iterations
            assert fft_calls[0] == ffts

    @pytest.mark.parametrize("mw, iterations", [(1, 36), (3, 28), (4, 21), (6, 18)])
    def test_fft_budget_per_solve_moved_seed(self, grid64, fft_calls, mw, iterations):
        # the quadratic seed is moved onto the class and runs at the same two
        # half-size transforms per step; besides them, its own spectrum for
        # the class test and the moved seed's, the start: one transform more
        # than the default seed.  Run on the full spectrum from the seed
        # itself it took 42/31/24/19 iterations and 87/85/61/47 transforms
        ffts = {1: 76, 3: 78, 4: 56, 6: 46}[mw]
        for c in (1.0, -1.0):
            fft_calls[0] = 0
            rep = solve_on_grid(fig1_params(c), grid64, SolverConfig(mw=mw),
                               seed=initial_iterate(grid64, "quadratic"))
            assert rep.converged and rep.iterations == iterations
            assert fft_calls[0] == ffts

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.8])
    def test_speed_sign_is_the_reflection(self, c):
        # T_{-c} = R T_c R for the reflection R: u(x) -> u(-x), since
        # L_{-c}(xi) = L_c(-xi), G and the pairings commute with R, and the
        # Nyquist mode carries no drift; solving at -c needs no second frame.
        # R keeps the class, and on the rolled spectra, (-1)^k being even in
        # k on an even grid, it is the index reflection k -> n - k; z is a
        # random real iterate
        grid = Grid(l=32.0, n=1024)
        z = np.random.default_rng(7).standard_normal(grid.n)
        (plus, _), (minus, _) = profile_iteration(c, grid), profile_iteration(-c, grid)
        nxt_p, res_p, m_p = plus.step(z)
        nxt_m, res_m, m_m = minus.step(reflect_samples(z))
        assert np.linalg.norm(nxt_m - reflect_samples(nxt_p)) <= 1e-13 * np.linalg.norm(nxt_p)
        assert res_m == pytest.approx(res_p, rel=1e-13)
        assert m_m == pytest.approx(m_p, rel=1e-13)

    @pytest.mark.parametrize("mw", [1, 3])
    @pytest.mark.parametrize("max_iter", [500, 7])
    def test_history_replays_diagnostics(self, mw, max_iter):
        # every recorded entry is exactly step(z)[1:] of its iterate z:
        # base iterates from plain steps, extrapolants from each cycle
        it, z = profile_iteration(1.0, Grid(l=32.0, n=1024))
        raw = accel.accelerated_iterate(it, z, SolverConfig(mw=mw, max_iter=max_iter))
        assert raw.converged == (max_iter == 500)
        history = list(zip(raw.residual_history, raw.m_history))
        replay = [it.step(z)[1:]]
        while len(replay) < len(history):
            cycle = [z]
            for _ in range(mw):
                z = it.step(z)[0]
                cycle.append(z)
                replay.append(it.step(z)[1:])
                if len(replay) == len(history):
                    break
            else:
                if mw > 1:
                    z = accel.mpe_extrapolate(cycle)
                    replay.append(it.step(z)[1:])
                    assert len(replay) - 1 in raw.cycle_ends
        assert replay == history
        assert np.array_equal(raw.z, z)


def subgrid_shift(field, d):
    """The field translated by d, a fraction of a grid step, spectrally."""
    return ComplexField(field.grid, np.fft.ifft(field.spectrum() * np.exp(-1j * field.grid.xi * d)))


# a seed in the class, the default one, and the same seed moved off x = 0 by
# 257 grid points, which takes it out of the class until the solve moves it
# back
SEED_SHIFTS = pytest.mark.parametrize("shift", [0, 257], ids=["class", "moved"])


class TestLayouts:
    """solve_on_grid iterates the real half spectrum from every seed: one
    that misses u(x) = conj(u(-x)) by more than CLASS_RTOL is centred on
    its largest sample and rotated to make it real first, and every start
    is projected onto the class; the report reads the same either way, but
    for the passed seed's ``seed_class_defect``."""

    @pytest.mark.parametrize("c, seed, in_class", [
        (1.0, "default", True), (-1.0, "default", True), (1.0, "real sech", True),
        (1.0, "quadratic", False), (1.0, "random", False), (1.0, "sub-grid shift", False)])
    def test_seed_picks_the_layout(self, grid64, driver_runs, c, seed, in_class):
        params = fig1_params(c)
        rng = np.random.default_rng(3)
        field = {
            "default": None,
            "real sech": initial_iterate(grid64),
            "quadratic": initial_iterate(grid64, "quadratic"),
            "random": ComplexField(grid64, rng.standard_normal(grid64.n)
                                   + 1j * rng.standard_normal(grid64.n)),
            "sub-grid shift": subgrid_shift(initial_iterate(grid64, params.A), 0.3 * grid64.h),
        }[seed]
        rep = solve_on_grid(params, grid64, SolverConfig(max_iter=2), seed=field)
        assert [layout for _, layout, _ in driver_runs] == ["real"]
        if field is None:
            assert np.isnan(rep.seed_class_defect)
        else:
            assert (rep.seed_class_defect <= CLASS_RTOL) == in_class
            assert rep.seed_class_defect == pytest.approx(reflection_conjugate_defect(field.samples), rel=1e-12)

    def test_class_tolerance(self):
        # the default seed misses the class by 2 sech(l)|sin(Al)| at x = -l,
        # whose image x = l is not a grid point: 1.3e-14 relative on l = 32,
        # n = 512, inside CLASS_RTOL, and nothing to speak of from l = 64.
        # The quadratic seed misses it by 1.0
        A = fig1_params(1.0).A
        grid = Grid(l=32.0, n=512)
        miss = 2.0 / np.cosh(grid.l) * abs(np.sin(A * grid.l))
        seed = initial_iterate(grid, A).samples
        assert reflection_conjugate_defect(seed) == pytest.approx(
            miss / np.linalg.norm(seed), rel=1e-6)
        assert 1.2e-14 < reflection_conjugate_defect(seed) < 1.3e-14 < CLASS_RTOL
        assert reflection_conjugate_defect(initial_iterate(Grid(l=64.0, n=4096), A).samples) < 1e-28
        assert reflection_conjugate_defect(initial_iterate(grid, "quadratic").samples) > 1.0

    @SEED_SHIFTS
    def test_report_holds_the_samples(self, grid64, shift):
        # z is the uncentred last iterate as grid samples: the moved seed
        # starts at x = 0, so the peak of z sits there, the envelope is z
        # centred, and the residual of z evaluated on the samples is the
        # last one recorded
        params = fig1_params(1.0)
        seed = initial_iterate(grid64, params.A)
        rep = solve_on_grid(params, grid64, seed=ComplexField(grid64, np.roll(seed.samples, shift)))
        assert rep.converged and rep.z.dtype == np.complex128 and rep.z.shape == (grid64.n,)
        assert int(np.argmax(np.abs(rep.z))) == grid64.zero_index()
        assert np.array_equal(rep.envelope.samples, rep.z)
        lu = np.fft.ifft(profile_operator(params, grid64) * np.fft.fft(rep.z))
        res = np.linalg.norm(lu - np.abs(rep.z) ** 2 * rep.z)
        assert res == pytest.approx(rep.final_residual, rel=1e-2)

    def test_report_does_not_leak_the_layout(self, grid64):
        params = fig1_params(1.0)
        seed = initial_iterate(grid64, params.A)
        half = solve_on_grid(params, grid64)
        full = solve_on_grid(params, grid64, seed=ComplexField(grid64, np.roll(seed.samples, 257)))
        assert vars(half).keys() == vars(full).keys()
        assert half.meta == full.meta
        assert half.iterations == full.iterations == 42
        assert np.max(np.abs(half.envelope.samples - full.envelope.samples)) < 1e-12
        assert full.seed_class_defect > CLASS_RTOL

    @SEED_SHIFTS
    def test_tol_1e12_converges_at_n4096(self, grid64, shift):
        # the Parseval residual makes no round trip through the samples, so
        # its floor here is about 3e-15; the sample residual stalled at
        # 1.47e-12 and ran all 600 iterations
        params = fig1_params(1.0)
        seed = initial_iterate(grid64, params.A)
        rep = solve_on_grid(params, grid64, SolverConfig(mw=1, tol=1e-12, max_iter=600),
                           seed=ComplexField(grid64, np.roll(seed.samples, shift)))
        assert rep.converged and rep.iterations == 50
        assert rep.final_residual <= 1e-12


# four solve-mix design problems, (s, sigma, c, mw) to three decimals, on
# which a run from the quadratic seed itself on (32, 1024), off the class,
# crept along the orbit the lattice pins and ended at max_iter
STALLED = [(0.698, 2.564, -0.669, 1), (0.668, 2.895, 0.364, 4),
           (0.646, 2.254, 0.770, 1), (0.617, 2.363, 1.219, 3)]


def coupled_solve(s, sigma, c, mw, seed="quadratic"):
    """The coupled problem's solve on (32, 1024) from ``seed``, a phase
    descriptor of initial_iterate, or None for the default seed."""
    grid = Grid(32.0, 1024)
    params = ProblemParams(s=s, sigma=sigma, lambda1=1.0, lambda2=c, kind=Kind.COUPLED)
    return solve_scalar(params, grid, SolverConfig(mw=mw), seed=seed and initial_iterate(grid, seed))


def search_seeds(wave):
    """The seeds of the seed search, by name, on the grid of the class
    ``wave``: an odd phase x^3, which keeps the class; an asymmetric two
    hump and three random phases, which no translate or rotation brings
    near it; the quadratic phase; and the wave itself translated by 0.37
    of a grid step, rotated by 0.3 and scaled by 1.05."""
    grid = wave.grid
    x, sech = grid.x, 1.0 / np.cosh(grid.x)
    seeds = {"cubic": ComplexField(grid, sech * np.exp(1j * x ** 3)),
             "two humps": ComplexField(grid, 1.0 / np.cosh(x + 4.0) + 0.5 / np.cosh(x - 4.0)),
             "quadratic": initial_iterate(grid, "quadratic"),
             "moved wave": ComplexField(grid, 1.05 * np.exp(0.3j) * subgrid_shift(wave, 0.37 * grid.h).samples)}
    for k in range(3):
        phase = np.random.default_rng(k).random(grid.n)
        seeds[f"random {k}"] = ComplexField(grid, sech * np.exp(2j * np.pi * phase))
    return seeds


SEARCH_SEEDS = ["cubic", "two humps", "quadratic", "moved wave", "random 0", "random 1", "random 2"]

# the seed search's problems by id: (params, grid, mw)
SEARCH_PROBLEMS = {
    "fig1": (ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=1.0, kind=Kind.COUPLED),
             Grid(64.0, 4096), 1),
    **{f"#155{sign}c": (ProblemParams(s=0.5741, sigma=1.9911, lambda1=1.0, lambda2=float(f"{sign}0.494"),
                                      kind=Kind.COUPLED), Grid(32.0, 1024), 6) for sign in "+-"},
}


@pytest.fixture(scope="module")
def search_defaults():
    """The default seed's answer to a seed-search problem, by id, solved once."""
    cache = {}

    def default(problem):
        if problem not in cache:
            params, grid, mw = SEARCH_PROBLEMS[problem]
            cache[problem] = solve_scalar(params, grid, SolverConfig(mw=mw))
        return cache[problem]

    return default


def action(report, sigma):
    """The Nehari form of the action, sigma / (2 sigma + 2) h sum |u|^{2 sigma + 2}."""
    u = report.envelope
    return sigma / (2.0 * sigma + 2.0) * u.grid.h * float(np.sum(np.abs(u.samples) ** (2.0 * sigma + 2.0)))


def assert_same_wave(rep, wave, rtol=1e-10):
    """``rep`` converged to the centred envelope ``wave`` (a report) within
    ``rtol``, relative."""
    assert rep.converged
    want = wave.envelope.samples
    assert np.linalg.norm(rep.envelope.samples - want) <= rtol * np.linalg.norm(want)


class TestClassAlignment:
    """A seed off the class is centred on its largest sample, rotated to
    make that sample real and projected onto the class; from every such
    seed measured, the solve reaches the class wave the default seed
    reaches, and no translate of it."""

    @pytest.mark.parametrize("shift, phi", [(-0.38, 0.3), (1.7, -1.2), (2.87, 0.9)])
    def test_recovers_a_known_translate_and_rotation(self, grid64, report_c1, shift, phi):
        wave = report_c1.envelope
        moved = ComplexField(grid64, np.exp(1j * phi) * subgrid_shift(wave, shift * grid64.h).samples)
        rep = solve_scalar(fig1_params(1.0), grid64, seed=moved)
        assert rep.seed_class_defect > 1e-2
        assert_same_wave(rep, report_c1)

    def test_class_wave_reads_no_shift(self, report_c1):
        # the class wave passed back is not moved: it reads a defect of
        # roundoff, and is returned at once
        rep = solve_scalar(fig1_params(1.0), report_c1.envelope.grid, seed=report_c1.envelope)
        assert rep.seed_class_defect <= 1e-15 and rep.iterations == 0
        assert_same_wave(rep, report_c1, rtol=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+c", "-c"])
    @pytest.mark.parametrize("s, sigma, c, mw", STALLED)
    def test_stalled_run_finishes_in_the_half_layout(self, driver_runs, s, sigma, c, mw, sign):
        # started on the class, the quadratic seed of each problem converges
        # in the half layout to the default seed's wave, in about as many
        # iterations; off the class it crept for hundreds
        rep = coupled_solve(s, sigma, sign * c, mw)
        default = coupled_solve(s, sigma, sign * c, mw, seed=None)
        assert rep.iterations < 50 and rep.iterations <= default.iterations + 3
        assert {layout for _, layout, _ in driver_runs} == {"real"}
        assert reflection_conjugate_defect(rep.z) <= 1e-12
        assert_same_wave(rep, default)

    @pytest.mark.parametrize("seed", SEARCH_SEEDS)
    @pytest.mark.parametrize("problem", SEARCH_PROBLEMS)
    def test_every_seed_reaches_the_default_seed_wave(self, search_defaults, problem, seed):
        # the coupled fig1 point, and design problem #155 to four digits,
        # whose coarse grid h = 1/16 pins an off-site wave midway between
        # two grid points, 5e-5 above the class wave in action; started on
        # the class every seed reaches the class wave.  Only the odd phase
        # x^3 lies in the class and is not moved
        params, grid, mw = SEARCH_PROBLEMS[problem]
        default = search_defaults(problem)
        rep = solve_scalar(params, grid, SolverConfig(mw=mw), seed=search_seeds(default.envelope)[seed])
        assert (rep.seed_class_defect > CLASS_RTOL) == (seed != "cubic")
        assert_same_wave(rep, default)
        assert action(rep, params.sigma) == pytest.approx(action(default, params.sigma), rel=1e-12)

    def test_design_155_is_one_wave_at_both_signs(self):
        # from the quadratic seed on (32, 1024), mw 6, each sign converges in
        # as many iterations to the mirror of the other's wave, of the same
        # action; run off the class the -c solve ended on the off-site wave
        plus, minus = (coupled_solve(0.5741, 1.9911, c, 6) for c in (0.494, -0.494))
        assert plus.converged and minus.converged
        assert minus.iterations == plus.iterations < 30
        mirrored = np.conj(plus.envelope.samples)  # R u = conj(u) on the class
        assert np.linalg.norm(minus.envelope.samples - mirrored) <= 1e-10 * np.linalg.norm(mirrored)
        assert action(minus, 1.9911) == pytest.approx(action(plus, 1.9911), rel=1e-12)

    def test_switch_is_a_header_line(self, tmp_path, report_c1):
        # the seed's move onto the class writes its class defect as one
        # header line; a class seed's solve.csv has none
        rep = coupled_solve(*STALLED[0])
        with open(save_report(rep, tmp_path, "moved")[0]) as fh:
            header = [line.rstrip("\n") for line in fh if line.startswith("#")]
        assert f"# seed_class_defect = {rep.seed_class_defect}" in header
        assert header[-2] == f"# seed_class_defect = {rep.seed_class_defect}"
        for clean in (report_c1, solve_scalar(fig1_params(1.0), report_c1.envelope.grid,
                                              seed=report_c1.envelope)):
            with open(save_report(clean, tmp_path, "c1")[0]) as fh:
                assert not [line for line in fh if line.startswith("# seed_class_defect")]


def hfft_half_step(iteration, z):
    """The half-layout step with ihfft and hfft, which form u and G(u)
    themselves on x >= 0, and the step's own arithmetic after them: the
    oracle of the conjugate-domain step."""
    u = np.fft.ihfft(z)
    g = np.abs(u) ** (2.0 * iteration.sigma) * u
    g_hat = np.fft.hfft(g, iteration.grid.n)
    lu_hat = iteration.symbol * z
    res = float(np.linalg.norm(lu_hat - g_hat)) / np.sqrt(iteration.grid.n)
    m = float(np.vdot(z, lu_hat).real) / float(np.vdot(z, g_hat).real)
    return m ** iteration.alpha * g_hat / iteration.symbol, res, m


class TestHalfLayoutProperty:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.779, 3.0])
    def test_conjugate_domain_step_is_the_hfft_step(self, sigma):
        # the step transforms with rfft and irfft, on conj(u): G commutes
        # with conjugation exactly, so it is the ihfft/hfft step bit for bit
        rng = np.random.default_rng(int(1000 * sigma))
        params = ProblemParams(s=0.75, sigma=sigma, lambda1=1.0, lambda2=0.5)
        for n in (64, 256, 1024):
            grid = Grid(l=32.0, n=n)
            iteration = ProfileIteration(params, grid, SolverConfig().resolved_alpha(sigma))
            for _ in range(5):
                z = rng.standard_normal(n) * np.exp(-np.abs(grid.xi_odd))
                nxt, res, m = iteration.step(z)
                want, res_want, m_want = hfft_half_step(iteration, z)
                assert np.isrealobj(nxt) and np.array_equal(nxt, want)
                assert (res, m) == (res_want, m_want)


    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(s=st.floats(0.6, 1.0), sigma=st.floats(0.5, 3.0), speed=st.floats(-0.95, 0.95),
           n=st.sampled_from([64, 128, 256, 512, 1024]))
    def test_half_step_is_the_full_step(self, s, sigma, speed, n):
        # from a seed in the class, one half-layout step is the full step
        # (full_step), and the full step stays in the class: L has a real
        # symbol and G commutes with u(x) -> conj(u(-x))
        params = ProblemParams(s=s, sigma=sigma, lambda1=1.0,
                               lambda2=speed * limiting_speed(s, 1.0))
        grid = Grid(l=48.0, n=n)
        seed = initial_iterate(grid, params.A)
        alpha = SolverConfig().resolved_alpha(sigma)
        iteration = ProfileIteration(params, grid, alpha)
        z_h = iteration.iterate(seed.spectrum())
        assert np.isrealobj(z_h)
        nxt_f, res_f, m_f = full_step(iteration, seed.spectrum())
        nxt_h, res_h, m_h = iteration.step(z_h)
        u_f, u_h = np.fft.ifft(nxt_f), iteration.samples(nxt_h)
        assert np.linalg.norm(u_h - u_f) <= 1e-13 * np.linalg.norm(u_f)
        assert res_h == pytest.approx(res_f, rel=1e-13)
        assert m_h == pytest.approx(m_f, rel=1e-13)
        assert np.isrealobj(nxt_h)
        assert reflection_conjugate_defect(u_f) <= CLASS_RTOL


class TestSamples:
    @pytest.mark.parametrize("n", [16, 64, 1024, 4096])
    def test_half_layout_samples_are_the_inverse_transform(self, n):
        # for a real iterate z, the samples mirrored from the half-size
        # rfft(z) are ifft((-1)^k z), whether they are made afresh or taken
        # from the step that transformed z last
        rng = np.random.default_rng(n)
        iteration, _ = profile_iteration(1.0, Grid(l=32.0, n=n))
        roll = 1.0 - 2.0 * (np.arange(n) % 2)
        for _ in range(3):
            z = rng.standard_normal(n)
            want = np.fft.ifft(roll * z)
            fresh = iteration.samples(z)
            iteration.step(z)
            stepped = iteration.samples(z)
            for u in (fresh, stepped):
                assert u.dtype == np.complex128 and u.shape == (n,)
                assert np.linalg.norm(u - want) <= 1e-15 * np.linalg.norm(want)
            assert np.array_equal(fresh, stepped)
            assert reflection_conjugate_defect(stepped) == 0.0

    def test_samples_release_the_last_transform(self, fft_calls):
        # the step's transform serves the one iterate it was made of, once
        iteration, z = profile_iteration(1.0, Grid(l=32.0, n=256))
        nxt = iteration.step(z)[0]
        fft_calls[0] = 0
        iteration.samples(nxt)
        iteration.samples(z)
        assert fft_calls[0] == 2
        iteration.step(z)
        fft_calls[0] = 0
        iteration.samples(z)
        iteration.samples(z)
        assert fft_calls[0] == 1


class TestReflectionProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(s=st.floats(0.55, 1.0), sigma=st.floats(0.5, 3.0),
           speed=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
           n=st.sampled_from([64, 128, 256, 512, 1024]), l=st.sampled_from([8.0, 16.0, 48.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_step_at_minus_c_is_the_reflected_step(self, s, sigma, speed, n, l, seed):
        # T_{-c} = R T_c R for the reflection R: u(x) -> u(-x), which on the
        # full spectra, and on the rolled ones of the class, is the index
        # reflection k -> n - k.  u is a random envelope times sech(x/3),
        # outside the class: the reference full_step shows the identity
        # there, and the step on u projected onto the class, which full_step
        # takes to the same samples
        grid = Grid(l=l, n=n)
        rng = np.random.default_rng(seed)
        u = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.cosh(grid.x / 3.0)
        alpha = SolverConfig().resolved_alpha(sigma)
        c = speed * limiting_speed(s, 1.0)
        plus, minus = (ProfileIteration(ProblemParams(s=s, sigma=sigma, lambda1=1.0, lambda2=v),
                                        grid, alpha) for v in (c, -c))
        full = np.fft.fft(u)
        z = plus.iterate(full)
        for step_p, step_m, z in ((partial(full_step, plus), partial(full_step, minus), full),
                                  (plus.step, minus.step, z)):
            nxt_p, res_p, m_p = step_p(z)
            nxt_m, res_m, m_m = step_m(reflect_samples(z))
            assert np.linalg.norm(nxt_m - reflect_samples(nxt_p)) <= 1e-13 * np.linalg.norm(nxt_p)
            assert res_m == pytest.approx(res_p, rel=1e-13)
            assert m_m == pytest.approx(m_p, rel=1e-13)
        reference = np.fft.ifft(full_step(plus, np.fft.fft(plus.samples(z)))[0])
        assert np.linalg.norm(plus.samples(nxt_p) - reference) <= 1e-13 * np.linalg.norm(reference)


class TestNestedSolve:
    """On a grid that nests solve_scalar solves on (l, n/2) first, nesting
    again there, and starts the n grid from the prolonged coarse answer;
    solve_on_grid is the cold one-grid solve it falls back to."""

    def test_prolongation_is_exact_on_band_limited_fields(self):
        # a trigonometric polynomial below the coarse Nyquist mode, plus the
        # real cosine that mode carries, sampled on (l, m) and its spectrum
        # prolonged onto (l, 2m) and (l, 4m), is the spectrum of that
        # polynomial sampled there, rolled or not
        l, m = 8.0, 64
        rng = np.random.default_rng(11)
        k = np.arange(-m // 2 + 1, m // 2)
        a = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)

        def poly(grid):
            x = grid.x[:, None]
            waves = np.exp(1j * np.pi * k * x / l) @ a
            return waves + 0.7 * np.cos(np.pi * (m // 2) * (grid.x + l) / l)

        def rolled(spec):
            return (1.0 - 2.0 * (np.arange(spec.size) % 2)) * spec

        coarse = Grid(l, m)
        for n in (2 * m, 4 * m):
            fine = Grid(l, n)
            spec, exact = np.fft.fft(poly(coarse)), np.fft.fft(poly(fine))
            for z, want in ((spec, exact), (rolled(spec), rolled(exact))):
                out = prolong(z, coarse, fine)
                assert out.dtype == z.dtype and out.shape == (n,)
                assert np.linalg.norm(out - want) <= 1e-13 * np.linalg.norm(want)

    def test_prolongation_keeps_the_class(self):
        # u(x) = conj(u(-x)) on the coarse grid has a real rolled spectrum,
        # which pads to a real one: the rolled spectrum of the padded field,
        # so the fine solve starts from a real iterate
        coarse, fine = Grid(32.0, 256), Grid(32.0, 512)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(coarse.n) + 1j * rng.standard_normal(coarse.n)
        u = 0.5 * (u + np.conj(reflect_samples(u)))
        alpha = SolverConfig().resolved_alpha(1.0)
        below, above = (ProfileIteration(fig1_params(1.0), grid, alpha) for grid in (coarse, fine))
        for field in (ComplexField(coarse, u), initial_iterate(coarse, fig1_params(1.0).A)):
            assert reflection_conjugate_defect(field.samples) <= CLASS_RTOL
            z = below.iterate(field.spectrum())
            assert np.isrealobj(z)
            padded = prolong(z, coarse, fine)
            assert np.isrealobj(padded)
            full = prolong(field.spectrum(), coarse, fine)
            roll = 1.0 - 2.0 * (np.arange(fine.n) % 2)
            assert np.linalg.norm(padded - roll * full) <= 1e-13 * np.linalg.norm(full)
            assert reflection_conjugate_defect(above.samples(padded)) <= CLASS_RTOL
        for target in (coarse, fine, Grid(16.0, 1024)):
            with pytest.raises(ValueError, match="cannot prolong"):
                prolong(np.ones(fine.n), fine, target)

    @pytest.mark.parametrize("mw, fine_max", [(1, 9), (4, 4)])
    @pytest.mark.parametrize("theta", [None, "quadratic"], ids=["default", "quadratic"])
    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5])
    def test_fig1_points_agree_with_one_grid(self, grid64, c, theta, mw, fine_max):
        # every seed starts on the class, so both solves reach the class wave
        seed = None if theta is None else initial_iterate(grid64, theta)
        cfg = SolverConfig(mw=mw)
        nested = solve_scalar(fig1_params(c), grid64, cfg, seed=seed)
        cold = solve_on_grid(fig1_params(c), grid64, cfg, seed=seed)
        assert nested.converged and cold.converged
        assert nested.coarse_iterations > 0 and nested.iterations <= fine_max
        assert np.max(np.abs(nested.envelope.samples - cold.envelope.samples)) <= 1e-10
        assert nested.resolution_defect <= 1e-8

    def test_nested_and_cold_agree_from_a_moved_seed(self, grid64):
        # a coupled design problem from the quadratic seed: run off the
        # class, the nested and the cold solve ended on two translates of
        # the wave 1.8e-2 apart, with nothing in the report to tell; started
        # on the class, both end on the class wave
        params = ProblemParams(s=0.647, sigma=1.779, lambda1=1.0, lambda2=0.281, kind=Kind.COUPLED)
        seed, cfg = initial_iterate(grid64, "quadratic"), SolverConfig(mw=6)
        nested = solve_scalar(params, grid64, cfg, seed=seed)
        cold = solve_on_grid(params, grid64, cfg, seed=seed)
        assert nested.coarse_iterations > 0 and cold.coarse_iterations == 0
        assert_same_wave(nested, cold)

    def test_transform_length(self, grid64, fft_length):
        # the coarse steps transform half and a quarter as many points;
        # with the prolongations the nested solve costs 0.42 of the
        # one-grid one
        lengths = []
        for solve in (solve_on_grid, solve_scalar):
            fft_length[0] = 0
            assert solve(fig1_params(1.0), grid64, SolverConfig(mw=1)).converged
            lengths.append(fft_length[0])
        assert lengths[1] <= 0.7 * lengths[0]

    def test_resolution_defect(self, grid64):
        # n/2 = 2048 resolves the c = 1 wave on l = 64, whose defect reads
        # 3.5e-11; at s = 0.55 the tail decays as |x|^-2.1 and the n/2 = 1024
        # answer differs from the n = 2048 one by 2.3e-4
        resolved = solve_scalar(fig1_params(1.0), grid64)
        assert resolved.resolution_defect <= 1e-7
        p = ProblemParams(s=0.55, sigma=1.0, lambda1=1.0, lambda2=0.75)
        unresolved = solve_scalar(p, Grid(64.0, 2048))
        assert unresolved.converged and unresolved.resolution_defect >= 1e-5
        small = solve_scalar(fig1_params(1.0), Grid(32.0, 1024))
        assert small.coarse_iterations == 0 and np.isnan(small.resolution_defect)

    @pytest.mark.parametrize("max_iter, converged", [(60, True), (20, False)])
    def test_fallback_is_the_one_grid_solve(self, grid64, max_iter, converged):
        # the coarse solves on 1024 and 2048 each need more than
        # max_iter // 4 iterations and spend it all, so the n grid starts
        # cold from the seed: the one-grid solve, bit for bit, and an
        # unconverged one still reports iterations == max_iter
        cfg = SolverConfig(mw=1, max_iter=max_iter)
        nested = solve_scalar(fig1_params(1.0), grid64, cfg)
        cold = solve_on_grid(fig1_params(1.0), grid64, cfg)
        assert nested.converged == cold.converged == converged
        assert nested.iterations == cold.iterations == (42 if converged else max_iter)
        for name in ("residual_history", "m_history", "cycle_ends", "mpe_fallbacks", "meta"):
            assert getattr(nested, name) == getattr(cold, name)
        assert np.array_equal(nested.z, cold.z)
        assert np.array_equal(nested.envelope.samples, cold.envelope.samples)
        assert nested.coarse_iterations == 2 * (max_iter // 4)
        assert np.isnan(nested.resolution_defect)

    def test_seed_the_half_grid_cannot_see_falls_back(self):
        # zero on every other point, the seed is degenerate on (l, n/2): the
        # first step there raises on <G(z), z> = 0, and n starts cold from
        # it, as one grid does
        grid = Grid(64.0, 2048)
        samples = initial_iterate(grid, fig1_params(1.0).A).samples.copy()
        samples[::2] = 0.0
        seed = ComplexField(grid, samples)
        nested = solve_scalar(fig1_params(1.0), grid, seed=seed)
        cold = solve_on_grid(fig1_params(1.0), grid, seed=seed)
        assert nested.converged and nested.residual_history == cold.residual_history
        assert np.array_equal(nested.z, cold.z)
        assert nested.coarse_iterations == 0 and np.isnan(nested.resolution_defect)

    @pytest.mark.parametrize("n", [2050, 4098])
    def test_grid_whose_half_is_odd_does_not_nest(self, n):
        # (l, n/2) is no grid when n/2 is odd, so the solve runs on n alone
        grid = Grid(64.0, n)
        nested = solve_scalar(fig1_params(1.0), grid)
        cold = solve_on_grid(fig1_params(1.0), grid)
        assert nested.converged and nested.residual_history == cold.residual_history
        assert nested.m_history == cold.m_history and nested.iterations == cold.iterations
        assert np.array_equal(nested.z, cold.z)
        assert np.array_equal(nested.envelope.samples, cold.envelope.samples)
        assert nested.coarse_iterations == 0 and np.isnan(nested.resolution_defect)

    def test_grid_past_the_spacing_floor_does_not_nest(self):
        # (256, 1024) has the spacing 1/2 > NEST_MAX_H, on which the
        # quadratic seed aliases, so (256, 2048) solves on one grid
        grid = Grid(256.0, 2048)
        nested = solve_scalar(fig1_params(1.0), grid)
        cold = solve_on_grid(fig1_params(1.0), grid)
        assert nested.converged and nested.residual_history == cold.residual_history
        assert np.array_equal(nested.z, cold.z)
        assert np.array_equal(nested.envelope.samples, cold.envelope.samples)
        assert nested.coarse_iterations == 0 and np.isnan(nested.resolution_defect)

    @pytest.mark.parametrize("l, n, levels", [(64.0, 4096, [1024, 2048, 4096]),
                                              (256.0, 16384, [4096, 8192, 16384])],
                             ids=["l64-n4096", "l256-n16384"])
    def test_levels_nest_down_to_the_floor(self, steps_per_n, builds, l, n, levels):
        # every level nests again until its half grid would have fewer than
        # NEST_MIN_N // 2 points (l = 64: 512) or a spacing above NEST_MAX_H
        # (l = 256: 2048, h = 1/4); no step runs below the last level.  Each
        # level builds one iteration and solves, and no seed is checked or
        # tested for the class: the default seed starts the last level, and
        # the answers passed up are real rolled spectra, padded as they are
        grid = Grid(l, n)
        nested = solve_scalar(fig1_params(1.0), grid)
        assert sorted(steps_per_n) == levels
        assert builds == {"iterations": 3}
        cold = solve_on_grid(fig1_params(1.0), grid)
        assert nested.converged and cold.converged
        assert np.max(np.abs(nested.envelope.samples - cold.envelope.samples)) <= 1e-10

    @pytest.mark.parametrize("mw", [1, 3])
    def test_class_levels_below_n_extrapolate_at_the_coarse_width(self, grid64, driver_runs, mw):
        # a level below n runs at COARSE_MW whatever the requested mw; n runs
        # at the requested one.  The quadratic seed, moved onto the class,
        # runs every level as the default seed does, in the half layout
        coarse = petviashvili.COARSE_MW
        for seed in (None, initial_iterate(grid64, "quadratic")):
            driver_runs.clear()
            rep = solve_scalar(fig1_params(1.0), grid64, SolverConfig(mw=mw), seed=seed)
            assert rep.converged and rep.meta["mw"] == mw and coarse == 6
            assert [(n, layout, cfg.mw) for n, layout, cfg in driver_runs] == [
                (1024, "real", coarse), (2048, "real", coarse), (4096, "real", mw)]

    @pytest.mark.parametrize("l, n", [(64.0, 4096), (256.0, 65536)], ids=["3 levels", "5 levels"])
    def test_transform_budget_of_a_nested_solve(self, steps_per_n, fft_calls, l, n):
        # two transforms a step; besides them, the default seed, built on
        # the last level alone, is transformed once, and the padded start
        # on n once, at half size, for resolution_defect.  z is what the
        # last step on n made, and nothing below n makes samples, so the
        # count does not grow with the levels
        fft_calls[0] = 0
        rep = solve_scalar(fig1_params(1.0), Grid(l, n))
        assert rep.converged and len(steps_per_n) == (3 if n == 4096 else 5)
        assert fft_calls[0] == 2 * sum(steps_per_n.values()) + 2

    def test_transform_budget_of_a_passed_seed(self, grid64, steps_per_n, fft_calls):
        # the quadratic seed passed in is transformed once for its class
        # test, and moved onto the class; the moved seed is checked from its
        # samples, at two transforms and no step; then come the steps, one
        # transform of the moved seed sampled on 1024 and one of the padded
        # start on n, for resolution_defect.  A class seed takes no
        # transform for its move, its check reading the spectrum of its
        # class test.  Run off the class, from the seed itself, the same
        # solve took 2 steps + 4 = 94
        fft_calls[0] = 0
        rep = solve_scalar(fig1_params(1.0), grid64, seed=initial_iterate(grid64, "quadratic"))
        assert rep.converged and sorted(steps_per_n) == [1024, 2048, 4096]
        assert fft_calls[0] == 2 * sum(steps_per_n.values()) + 5 == 59

    def test_each_level_builds_its_symbol_once(self):
        # a (256, 65536) solve misses the symbol cache once on each of its
        # five levels, and the next solve at that s, at another speed,
        # builds none
        fractional_symbol.cache_clear()
        grid = Grid(256.0, 65536)
        assert solve_scalar(fig1_params(1.0), grid).converged
        assert fractional_symbol.cache_info()[:2] == (0, 5)
        assert solve_scalar(fig1_params(0.5), grid).converged
        assert fractional_symbol.cache_info()[:2] == (5, 5)

    def test_every_coarse_level_gets_a_share_of_the_requested_budget(self, driver_runs, grid64):
        # the share is of the requested max_iter at every level; a share of
        # the share (//16 on n/4) gives up on problems n/4 holds
        rep = solve_scalar(fig1_params(1.0), grid64, SolverConfig(max_iter=200))
        assert rep.converged
        floor = petviashvili.COARSE_TOL
        assert [(n, cfg.max_iter, cfg.tol) for n, _, cfg in driver_runs] == [(1024, 50, floor), (2048, 50, floor), (4096, 200, 1e-10)]

    def test_exact_seed_does_not_descend(self, steps_per_n, builds, fft_calls):
        # the answer on 16384, passed back as the seed, meets tol there:
        # the residual of its samples decides that, at two transforms and
        # no step, no level below it is solved, and the solve converges at
        # 0 iterations in one step, whose transform gives z; the check and
        # the solve share one iteration, and the check reads the spectrum of
        # the seed's one class test
        grid = Grid(256.0, 16384)
        exact = solve_scalar(fig1_params(1.0), grid).envelope
        steps_per_n.clear()
        builds.clear()
        fft_calls[0] = 0
        rep = solve_scalar(fig1_params(1.0), grid, seed=exact)
        assert rep.converged and rep.iterations == rep.coarse_iterations == 0
        assert steps_per_n == {16384: 1}
        assert fft_calls[0] == 2 + 2
        assert builds == {"iterations": 1, "class tests": 1}

    @pytest.mark.parametrize("params", [ProblemParams(s=0.55, sigma=1.0, lambda1=1.0, lambda2=0.75),
                                        fig1_params(1.0, sigma=3.0)], ids=["s055", "sigma3"])
    def test_converged_envelope_returns_at_once(self, grid64, steps_per_n, params):
        # n/2 holds neither wave to COARSE_TOL: levels below n that solved
        # again would iterate away from the sampled answer (9 + 61 and
        # 13 + 50 iterations), so the check on n returns it before any descent
        exact = solve_scalar(params, grid64).envelope
        steps_per_n.clear()
        rep = solve_scalar(params, grid64, seed=exact)
        assert rep.converged and rep.iterations == rep.coarse_iterations == 0
        assert set(steps_per_n) == {grid64.n}

    @pytest.mark.parametrize("l, n", [(64.0, 4096), (256.0, 16384)])
    def test_a_missed_check_changes_nothing(self, l, n):
        # the default seed passed in misses tol at its check, and the solve
        # then descends exactly as from seed=None; only the passed seed has
        # a class defect to report
        grid, params = Grid(l, n), fig1_params(1.0)
        passed = solve_scalar(params, grid, seed=initial_iterate(grid, params.A))
        default = solve_scalar(params, grid)
        assert passed.converged and passed.coarse_iterations > 0
        assert passed.seed_class_defect <= CLASS_RTOL and np.isnan(default.seed_class_defect)
        for name, value in vars(default).items():
            if name == "seed_class_defect":
                continue
            if name == "envelope":
                assert np.array_equal(passed.envelope.samples, value.samples)
            elif isinstance(value, np.ndarray):
                assert np.array_equal(getattr(passed, name), value)
            else:
                assert getattr(passed, name) == value, name

    @pytest.mark.filterwarnings("error")
    def test_a_check_that_diverges_is_a_miss(self, grid64):
        # 1e200 at one odd point overflows the check's step on n, a miss;
        # n/2 never samples that point, so the levels below solve a clean
        # seed and n polishes their answer.  One grid starts from that
        # point and diverges.  Neither the degenerate-seed test nor the
        # class test of the seed warns on the overflow, whose NaN defect
        # leaves the seed where it is
        params = fig1_params(1.0)
        samples = initial_iterate(grid64, params.A).samples.copy()
        samples[2049] = 1e200
        seed = ComplexField(grid64, samples)
        rep = solve_scalar(params, grid64, seed=seed)
        assert rep.converged and (rep.iterations, rep.coarse_iterations) == (4, 19)
        with pytest.raises(accel.DivergenceError):
            solve_on_grid(params, grid64, seed=seed)

    def test_five_levels_nest(self, steps_per_n, builds, monkeypatch):
        # (256, 65536) nests down to 4096, whose half grid has the spacing
        # 1/4 > NEST_MAX_H.  A run of k iterations and e extrapolants takes
        # k + e + 1 steps, and the default seed is never checked: 21 steps
        # on 4096 are its run of 18 iterations at width COARSE_MW, with 2
        # extrapolants, and 19 coarse iterations plus 2 extrapolants and 4
        # coarse runs are the 25 steps below n.  Each level builds one
        # iteration, and the default seed takes no class test
        extrapolants = Counter()
        drive = accel.accelerated_iterate

        def counted(iteration, z0, cfg):
            rec = drive(iteration, z0, cfg)
            extrapolants[iteration.grid.n] += len(rec.cycle_ends)
            return rec

        monkeypatch.setattr(accel, "accelerated_iterate", counted)
        rep = solve_scalar(fig1_params(1.0), Grid(256.0, 65536))
        assert rep.converged and rep.iterations == 5 and rep.coarse_iterations == 19
        assert steps_per_n == {4096: 21, 8192: 2, 16384: 1, 32768: 1, 65536: 6}
        assert extrapolants == {4096: 2, 8192: 0, 16384: 0, 32768: 0, 65536: 0}
        below = sum(steps_per_n.values()) - steps_per_n[65536]
        assert below == rep.coarse_iterations + sum(extrapolants.values()) + 4
        assert builds == {"iterations": 5}

    @pytest.mark.parametrize("theta", [None, "quadratic"], ids=["default", "quadratic"])
    def test_speed_sign_is_the_reflection(self, grid64, theta):
        # T_{-c} = R T_c R holds for the nested solve: sampling on n/2 and
        # the prolongation both commute with R, so the c = -1 solve from the
        # reflected seed is the reflected c = +1 solve
        seed = initial_iterate(grid64, fig1_params(1.0).A if theta is None else theta)
        plus = solve_scalar(fig1_params(1.0), grid64, seed=seed)
        minus = solve_scalar(fig1_params(-1.0), grid64,
                             seed=ComplexField(grid64, reflect_samples(seed.samples)))
        assert plus.converged and minus.converged
        assert (minus.coarse_iterations, minus.iterations) == (plus.coarse_iterations, plus.iterations)
        mirrored = reflect_samples(plus.z)
        assert np.linalg.norm(minus.z - mirrored) <= 1e-12 * np.linalg.norm(mirrored)
        assert minus.resolution_defect == pytest.approx(plus.resolution_defect, rel=1e-5)


class TestSolverConfig:
    def test_alpha_window(self):
        with pytest.raises(ValueError, match="stabilizing window"):
            SolverConfig(alpha=2.5).resolved_alpha(1.0)
        with pytest.raises(ValueError, match="stabilizing window"):
            SolverConfig(alpha=1.0).resolved_alpha(1.0)
        assert SolverConfig().resolved_alpha(1.0) == pytest.approx(1.5)
        assert SolverConfig().resolved_alpha(2.0) == pytest.approx(1.25)

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(tol=float("nan"))
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(mw=0)


class TestReportSerialization:
    def test_round_trip(self, tmp_path, report_c1):
        csv_path, prof_path = save_report(report_c1, tmp_path, "run")
        with open(csv_path) as fh:
            text = fh.read()
        assert "iter,residual,m_nu" in text
        rows = text.splitlines()[text.splitlines().index("iter,residual,m_nu") + 1:]
        assert [int(row.split(",")[0]) for row in rows] == report_c1.history_iterations
        assert "# lambda2 = 1.0" in text
        assert f"# coarse_iterations = {report_c1.coarse_iterations}" in text
        assert f"# resolution_defect = {report_c1.resolution_defect}" in text
        back, meta = load_field(prof_path)
        assert np.array_equal(back.samples, report_c1.envelope.samples)
        assert meta["kind"] == "linear_phase"
