import numpy as np
import pytest

from fnlswaves import accel
from fnlswaves.analysis import reflect_samples
from fnlswaves.params import Kind, ProblemParams, linear_phase_params, phase_slope
from fnlswaves.petviashvili import (
    ProfileIteration,
    SolverConfig,
    fixed_point_spectrum_probe,
    initial_iterate,
    save_report,
    solve_coupled,
    solve_scalar,
)
from fnlswaves.spectral import ComplexField, Grid, RealField, load_field


def fig1_params(lambda2, sigma=1.0):
    return ProblemParams(s=0.75, sigma=sigma, lambda1=1.0, lambda2=lambda2)


@pytest.fixture(scope="module")
def grid64():
    return Grid(l=64.0, n=4096)


@pytest.fixture(scope="module")
def report_c1(grid64):
    return solve_scalar(fig1_params(1.0), grid64)


class TestInitialIterate:
    def test_default_is_real_sech(self):
        g = Grid(l=8.0, n=64)
        f = initial_iterate(g)
        assert isinstance(f, RealField)
        assert np.allclose(f.samples, 1.0 / np.cosh(g.x))

    def test_linear_phase(self):
        g = Grid(l=8.0, n=64)
        A = 4.0 / 9.0
        f = initial_iterate(g, A)
        assert isinstance(f, ComplexField)
        assert np.allclose(f.v, np.cos(A * g.x) / np.cosh(g.x))
        assert np.allclose(f.w, np.sin(A * g.x) / np.cosh(g.x))

    def test_zero_phase_gives_real_pair(self):
        g = Grid(l=8.0, n=64)
        f = initial_iterate(g, 0.0)
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
        with pytest.raises(ValueError, match="degenerate seed"):
            solve_scalar(fig1_params(1.0), grid64, seed=RealField(grid64, np.zeros(grid64.n)))

    def test_real_seed_is_read_in_rho_frame(self, grid64, report_c1):
        # a RealField seed is modulated by e^{iAx}, so the plain sech seed
        # reproduces the default sech e^{iAx} solve bit for bit
        rep = solve_scalar(fig1_params(1.0), grid64, seed=initial_iterate(grid64))
        assert rep.iterations == report_c1.iterations == 42
        assert rep.residual_history == report_c1.residual_history
        assert rep.m_history == report_c1.m_history
        assert np.array_equal(rep.envelope.samples, report_c1.envelope.samples)

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
        from fnlswaves.spectral import momentum

        assert momentum(rep_neg.envelope) == pytest.approx(
            -momentum(rep_pos.envelope), rel=1e-8
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
        coupled = solve_coupled(fig1_params(lambda2), grid64, seed=seed)
        assert coupled.converged
        diff = np.max(np.abs(np.abs(coupled.envelope.samples) - scalar.profile.samples))
        assert diff < 1e-6

    def test_quadratic_seed_breaks_evenness(self, grid64):
        seed = initial_iterate(grid64, "quadratic")
        rep = solve_coupled(fig1_params(1.0), grid64, seed=seed)
        assert rep.converged
        mod = np.abs(rep.envelope.samples)
        mod = np.roll(mod, grid64.n // 2 - int(np.argmax(mod)))
        defect = np.linalg.norm(mod - np.roll(mod[::-1], 1)) / np.linalg.norm(mod)
        assert defect > 1e-2

    def test_unmodulated_seed_finds_same_orbit(self, grid64, report_c1):
        # a plain sech pair (no phase carrier) enters the basin elsewhere but
        # converges to the same wave modulo phase and translation
        seed = initial_iterate(grid64)
        rep = solve_coupled(fig1_params(1.0), grid64, seed=seed)
        assert rep.converged
        mod = np.abs(rep.envelope.samples)
        mod = np.roll(mod, grid64.n // 2 - int(np.argmax(mod)))
        assert np.max(np.abs(mod - report_c1.profile.samples)) < 1e-6


class TestSeedFrame:
    @pytest.mark.parametrize("solve, kind", [(solve_scalar, Kind.LINEAR_PHASE),
                                             (solve_coupled, Kind.COUPLED)],
                             ids=["scalar", "coupled"])
    def test_seed_is_read_in_the_caller_frame(self, grid64, solve, kind):
        # c = -1 is solved as given: the seed built for -1 is the default
        # seed, and T_{-c} = R T_c R keeps the c = +1 iteration count
        params = [ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=c, kind=kind)
                  for c in (1.0, -1.0)]
        plus = solve(params[0], grid64)
        default = solve(params[1], grid64)
        minus = solve(params[1], grid64, seed=initial_iterate(grid64, phase_slope(0.75, -1.0)))
        assert minus.iterations == plus.iterations == 42
        assert minus.residual_history == default.residual_history
        assert np.array_equal(minus.envelope.samples, default.envelope.samples)


class TestSpectrumProbe:
    def test_classical_map_eigenvalue(self, grid64):
        # alpha = 0 exposes the homogeneity eigenvalue 2 sigma + 1
        grid = Grid(l=64.0, n=1024)
        rep = solve_scalar(fig1_params(1.0), grid, SolverConfig(tol=1e-12, max_iter=600))
        est = fixed_point_spectrum_probe(fig1_params(1.0), grid, rep, alpha=0.0)
        assert est == pytest.approx(3.0, abs=1e-3)

    def test_optimal_alpha_contracts(self):
        grid = Grid(l=64.0, n=1024)
        rep = solve_scalar(fig1_params(1.0), grid, SolverConfig(tol=1e-12, max_iter=600))
        est = fixed_point_spectrum_probe(fig1_params(1.0), grid, rep, alpha=1.5)
        assert abs(est) < 1.0

    @pytest.mark.parametrize("alpha", [1.5, 0.0])
    def test_speed_sign_gives_same_estimate(self, alpha):
        # the probe must linearize at the c = -1 wave: at the c = +1 wave it
        # reads 2.46 against 0.565.  c = -1 runs its own float operations,
        # so the two agree to the probe's tol of 1e-8
        grid = Grid(l=32.0, n=1024)
        est = [fixed_point_spectrum_probe(p, grid, solve_scalar(p, grid), alpha)
               for p in (fig1_params(1.0), fig1_params(-1.0))]
        assert abs(est[0] - est[1]) <= 1e-8

    def test_matches_residual_contraction(self, grid64):
        rep = solve_scalar(fig1_params(1.0), grid64)
        tail = rep.residual_history[-6:]
        ratios = [b / a for a, b in zip(tail, tail[1:])]
        assert all(r < 1.0 for r in ratios)


def profile_iteration(lambda2, grid):
    lp = linear_phase_params(fig1_params(lambda2))
    alpha = SolverConfig().resolved_alpha(lp.sigma)
    return ProfileIteration(lp, grid, alpha, initial_iterate(grid, lp.A))


class TestFusedResidual:
    """step(z) reports the residual and m of z, so each base iteration costs
    one step (4 FFTs) and diagnostics (2 FFTs) is left for iterates that are
    never stepped from."""

    def test_step_reports_diagnostics_of_its_input(self, fft_calls):
        it = profile_iteration(1.0, Grid(l=32.0, n=1024))
        z = it.initial()
        for _ in range(5):
            before = fft_calls[0]
            nxt, res, m = it.step(z)
            assert fft_calls[0] - before == 4
            before = fft_calls[0]
            assert (res, m) == it.diagnostics(z)
            assert fft_calls[0] - before == 2
            z = nxt

    def test_vanishing_pairing(self):
        # <G(z), z> = 0: step cannot form m and raises, diagnostics reports NaN
        it = profile_iteration(1.0, Grid(l=32.0, n=1024))
        z = np.zeros_like(it.initial())
        with pytest.raises(accel.DivergenceError, match="<G\\(z\\), z> = 0"):
            it.step(z)
        res, m = it.diagnostics(z)
        assert res == 0.0 and np.isnan(m)

    @pytest.mark.parametrize("mw, iterations, ffts",
                             [(1, 42, 172), (3, 30, 140), (4, 22, 102), (6, 18, 82)])
    def test_fft_budget_per_solve(self, grid64, fft_calls, mw, iterations, ffts):
        # the diagnostics-per-iterate loop took 254/200/144/116; a negative
        # speed is solved directly at the same cost
        for c in (1.0, -1.0):
            fft_calls[0] = 0
            rep = solve_scalar(fig1_params(c), grid64, SolverConfig(mw=mw))
            assert rep.converged and rep.iterations == iterations
            assert fft_calls[0] == ffts

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.8])
    def test_speed_sign_is_the_reflection(self, c):
        # T_{-c} = R T_c R for the reflection R: u(x) -> u(-x), since
        # L_{-c}(xi) = L_c(-xi), G and the pairings commute with R, and the
        # Nyquist mode carries no drift; solving at -c needs no second frame
        grid = Grid(l=32.0, n=1024)
        rng = np.random.default_rng(7)
        z = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        plus, minus = profile_iteration(c, grid), profile_iteration(-c, grid)
        nxt_p, res_p, m_p = plus.step(z)
        nxt_m, res_m, m_m = minus.step(reflect_samples(z))
        assert np.linalg.norm(nxt_m - reflect_samples(nxt_p)) <= 1e-13 * np.linalg.norm(nxt_p)
        assert res_m == pytest.approx(res_p, rel=1e-13)
        assert m_m == pytest.approx(m_p, rel=1e-13)

    @pytest.mark.parametrize("mw", [1, 3])
    @pytest.mark.parametrize("max_iter", [500, 7])
    def test_history_replays_diagnostics(self, mw, max_iter):
        # every recorded entry is exactly diagnostics() of its iterate:
        # base iterates from plain steps, extrapolants from each cycle
        it = profile_iteration(1.0, Grid(l=32.0, n=1024))
        raw = accel.accelerated_iterate(it, SolverConfig(mw=mw, max_iter=max_iter))
        assert raw.converged == (max_iter == 500)
        history = list(zip(raw.residual_history, raw.m_history))
        z = it.initial()
        replay = [it.diagnostics(z)]
        while len(replay) < len(history):
            cycle = [z]
            for _ in range(mw):
                z = it.step(z)[0]
                cycle.append(z)
                replay.append(it.diagnostics(z))
                if len(replay) == len(history):
                    break
            else:
                if mw > 1:
                    z = accel.mpe_extrapolate(cycle)
                    replay.append(it.diagnostics(z))
                    assert len(replay) - 1 in raw.cycle_ends
        assert replay == history
        assert np.array_equal(raw.z, z)


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
        assert "# lambda2 = 1.0" in text
        back, meta = load_field(prof_path)
        assert np.array_equal(back.samples, report_c1.envelope.samples)
        assert meta["solver"] == "scalar"
