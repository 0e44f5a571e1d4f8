import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnlswaves import accel, petviashvili
from fnlswaves.params import Kind, ProblemParams, limiting_speed, phase_slope
from fnlswaves.petviashvili import (
    CLASS_GUARD,
    CLASS_RTOL,
    ProfileIteration,
    SolverConfig,
    align_to_class,
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
from fnlswaves.spectral import (ComplexField, Grid, RealField, invariants, load_field,
                                profile_operator)


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
    """Record (n, layout of the start, cfg) for each driver run while
    installed; the layout is "real" for the half one, else "complex"."""
    runs = []
    drive = accel.accelerated_iterate

    def recorded(iteration, z0, cfg, **hook):
        runs.append((iteration.grid.n, "real" if np.isrealobj(z0) else "complex", cfg))
        return drive(iteration, z0, cfg, **hook)

    monkeypatch.setattr(accel, "accelerated_iterate", recorded)
    return runs


@pytest.fixture
def builds(monkeypatch):
    """Count the ProfileIteration constructions and the layout tests of the
    solves run while installed."""
    counts = Counter()
    init, defect = ProfileIteration.__init__, petviashvili.reflection_conjugate_defect

    def counted_init(iteration, *args, **kwargs):
        counts["iterations"] += 1
        init(iteration, *args, **kwargs)

    def counted_defect(u):
        counts["layout tests"] += 1
        return defect(u)

    monkeypatch.setattr(ProfileIteration, "__init__", counted_init)
    monkeypatch.setattr(petviashvili, "reflection_conjugate_defect", counted_defect)
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

    def test_quadratic_seed_breaks_evenness(self, grid64):
        seed = initial_iterate(grid64, "quadratic")
        rep = solve_scalar(fig1_params(1.0), grid64, seed=seed)
        assert rep.converged
        mod = np.abs(rep.envelope.samples)
        mod = np.roll(mod, grid64.n // 2 - int(np.argmax(mod)))
        defect = np.linalg.norm(mod - np.roll(mod[::-1], 1)) / np.linalg.norm(mod)
        assert defect > 1e-2

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
        # so the two agree to the probe's tol of 1e-8
        grid = Grid(l=32.0, n=1024)
        est = [fixed_point_spectrum_probe(p, solve_scalar(p, grid), alpha)
               for p in (fig1_params(1.0), fig1_params(-1.0))]
        assert abs(est[0] - est[1]) <= 1e-8

    def test_matches_residual_contraction(self, grid64):
        rep = solve_scalar(fig1_params(1.0), grid64)
        tail = rep.residual_history[-6:]
        ratios = [b / a for a, b in zip(tail, tail[1:])]
        assert all(r < 1.0 for r in ratios)


def profile_iteration(lambda2, grid, half=False):
    """The iteration of the fig1 problem at speed lambda2, and the iterate
    of its default seed: the real one of the half layout, or its complex
    spectrum, the full layout's."""
    params = fig1_params(lambda2)
    alpha = SolverConfig().resolved_alpha(params.sigma)
    iteration = ProfileIteration(params, grid, alpha)
    seed = initial_iterate(grid, params.A)
    return iteration, iteration.iterate(seed) if half else seed.spectrum().copy()


class TestFusedResidual:
    """The iterate is a spectrum, and step(z) reports the residual and m of
    z by Parseval, so each iterate costs one step: 2 transforms, half-size
    in the half layout."""

    def test_step_reports_diagnostics_of_its_input(self, fft_calls, monkeypatch):
        # the oracle is the residual |ifft(L fft(u)) - |u|^{2 sigma} u| and
        # the pairings of m, all on the samples u of z
        for half in (True, False):
            it, z = profile_iteration(1.0, Grid(l=32.0, n=1024), half)
            assert np.isrealobj(z) == half and z.shape == (1024,)
            for _ in range(5):
                u = it.samples(z)
                lu = np.fft.ifft(it.symbol * np.fft.fft(u))
                g = np.abs(u) ** (2.0 * it.sigma) * u
                with monkeypatch.context() as mp:
                    if half:  # its transforms are the half-size ihfft and hfft
                        mp.setattr(np.fft, "fft", None)
                        mp.setattr(np.fft, "ifft", None)
                    before = fft_calls[0]
                    nxt, res, m = it.step(z)
                    assert fft_calls[0] - before == 2
                assert res == pytest.approx(np.linalg.norm(lu - g), rel=1e-13)
                assert m == pytest.approx(np.vdot(u, lu).real / np.vdot(u, g).real, rel=1e-13)
                z = nxt

    def test_vanishing_pairing(self):
        # <G(z), z> = 0: step cannot form m and raises
        for half in (True, False):
            it, z = profile_iteration(1.0, Grid(l=32.0, n=1024), half)
            z = np.zeros_like(z)
            with pytest.raises(accel.DivergenceError, match="<G\\(z\\), z> = 0"):
                it.step(z)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        # NaN and inf survive the transforms into the residual, which the
        # step checks before it forms m
        for half in (True, False):
            it, z = profile_iteration(1.0, Grid(l=32.0, n=1024), half)
            z[7] = bad
            with np.errstate(all="ignore"), pytest.raises(accel.DivergenceError, match="residual"):
                it.step(z)

    def test_non_finite_extrapolant_raises_at_its_step(self, monkeypatch):
        # the driver checks no iterate: a NaN extrapolant is caught by the
        # step taken from it, the step after the cycle's mw base steps
        inputs = []
        it, z0 = profile_iteration(1.0, Grid(l=32.0, n=1024), half=True)
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

    @pytest.mark.parametrize("mw, iterations, ffts",
                             [(1, 42, 88), (3, 30, 82), (4, 22, 58), (6, 18, 46)])
    def test_fft_budget_per_solve(self, grid64, fft_calls, mw, iterations, ffts):
        # the default seed takes the half layout: two half-size transforms per
        # step, one step per iterate, plus one fft of the seed and one ifft of
        # the result.  Iterating the samples took 172/140/102/82 full transforms,
        # and a negative speed is solved directly at the same cost
        for c in (1.0, -1.0):
            fft_calls[0] = 0
            rep = solve_on_grid(fig1_params(c), grid64, SolverConfig(mw=mw))
            assert rep.converged and rep.iterations == iterations
            assert fft_calls[0] == ffts

    @pytest.mark.parametrize("mw, iterations, ffts",
                             [(1, 42, 88), (3, 31, 86), (4, 24, 62), (6, 19, 48)])
    def test_fft_budget_per_solve_full_layout(self, grid64, fft_calls, mw, iterations, ffts):
        # the quadratic seed takes the full layout at the same two transforms
        # per step; iterating the samples took 172/148/108/86
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
        # On the full layout's spectra R is u_hat(xi) -> u_hat(-xi), the same
        # index reflection; a random z is outside the class the half layout
        # keeps
        grid = Grid(l=32.0, n=1024)
        rng = np.random.default_rng(7)
        z = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
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
        for half in (True, False):
            it, z = profile_iteration(1.0, Grid(l=32.0, n=1024), half)
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


# a seed solved in each layout: the default seed, and the same seed moved off
# x = 0 by 257 grid points, which takes it out of the class
LAYOUT_SHIFTS = pytest.mark.parametrize("shift", [0, 257], ids=["half", "full"])


class TestLayouts:
    """solve_on_grid iterates the real half spectrum when its seed satisfies
    u(x) = conj(u(-x)) to CLASS_RTOL, and the full complex spectrum
    otherwise; the report reads the same either way."""

    @pytest.mark.parametrize("c, seed, half", [
        (1.0, "default", True), (-1.0, "default", True), (1.0, "real sech", True),
        (1.0, "quadratic", False), (1.0, "random", False), (1.0, "sub-grid shift", False)])
    def test_seed_picks_the_layout(self, grid64, driver_runs, c, seed, half):
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
        solve_on_grid(params, grid64, SolverConfig(max_iter=2), seed=field)
        assert [layout for _, layout, _ in driver_runs] == ["real" if half else "complex"]

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

    @LAYOUT_SHIFTS
    def test_report_holds_the_samples(self, grid64, shift):
        # z is the uncentred last iterate as grid samples in either layout:
        # its peak sits where the seed's did, the envelope is z centred, and
        # the residual of z evaluated on the samples is the last one recorded
        params = fig1_params(1.0)
        seed = initial_iterate(grid64, params.A)
        rep = solve_on_grid(params, grid64, seed=ComplexField(grid64, np.roll(seed.samples, shift)))
        assert rep.converged and rep.z.dtype == np.complex128 and rep.z.shape == (grid64.n,)
        assert int(np.argmax(np.abs(rep.z))) == grid64.zero_index() + shift
        assert np.array_equal(rep.envelope.samples, np.roll(rep.z, -shift))
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

    @LAYOUT_SHIFTS
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
# which the full-layout run from the quadratic seed on (32, 1024) creeps
# along the orbit the lattice pins and, untested, ends at max_iter
STALLED = [(0.698, 2.564, -0.669, 1), (0.668, 2.895, 0.364, 4),
           (0.646, 2.254, 0.770, 1), (0.617, 2.363, 1.219, 3)]


def stalled_solve(s, sigma, c, mw):
    grid = Grid(32.0, 1024)
    params = ProblemParams(s=s, sigma=sigma, lambda1=1.0, lambda2=c, kind=Kind.COUPLED)
    return solve_scalar(params, grid, SolverConfig(mw=mw), seed=initial_iterate(grid, "quadratic"))


class TestClassAlignment:
    """align_to_class puts a translate of a class wave back on the class in
    closed form, and a full-layout run that stalls finishes in the half
    layout from its aligned iterate."""

    @pytest.mark.parametrize("shift, phi", [(-0.38, 0.3), (1.7, -1.2), (2.87, 0.9)])
    def test_recovers_a_known_translate_and_rotation(self, grid64, report_c1, shift, phi):
        wave = report_c1.envelope
        moved = ComplexField(grid64, np.exp(1j * phi) * subgrid_shift(wave, shift * grid64.h).samples)
        z, d, phase, defect = align_to_class(moved)
        assert abs(d - shift * grid64.h) <= 1e-12 and abs(phase - phi) <= 1e-12
        assert defect <= 1e-13
        rolled = (1.0 - 2.0 * (np.arange(grid64.n) % 2)) * wave.spectrum()
        assert np.linalg.norm(z - rolled.real) <= 1e-12 * np.linalg.norm(rolled)

    def test_class_wave_reads_no_shift(self, report_c1):
        z, d, phi, defect = align_to_class(report_c1.envelope)
        assert abs(d) <= 1e-14 and abs(phi) <= 1e-14 and defect <= 1e-14

    def test_two_humps_read_a_defect_above_the_guard(self, grid64):
        # no translate or rotation makes sech(x + 4) + sech(x - 4) / 2 even
        x = grid64.x
        field = ComplexField(grid64, 1.0 / np.cosh(x + 4.0) + 0.5 / np.cosh(x - 4.0))
        assert align_to_class(field)[3] > CLASS_GUARD

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+c", "-c"])
    @pytest.mark.parametrize("s, sigma, c, mw", STALLED)
    def test_stalled_run_finishes_in_the_half_layout(self, s, sigma, c, mw, sign):
        rep = stalled_solve(s, sigma, sign * c, mw)
        switch = rep.class_switch
        assert rep.converged and rep.iterations < 150
        assert switch.taken and switch.n == 1024 and switch.defect <= CLASS_GUARD
        # the aligned start is a row of its own, counted with the base
        # iteration before it, and the answer is on the class
        counts = rep.history_iterations
        assert counts[rep.restart_row] == counts[rep.restart_row - 1] == switch.iteration
        assert counts[-1] == rep.iterations
        assert reflection_conjugate_defect(rep.z) <= 1e-12

    def test_nested_solve_reports_the_switch_of_a_coarse_level(self, grid64):
        # design problem #45 to three decimals: its n = 1024 level stalls;
        # untested, it spends its whole budget of 125 there, and the 2048
        # level starts cold
        params = ProblemParams(s=0.818, sigma=1.944, lambda1=1.0, lambda2=0.133, kind=Kind.COUPLED)
        rep = solve_scalar(params, grid64, SolverConfig(mw=3), seed=initial_iterate(grid64, "quadratic"))
        assert rep.converged and rep.coarse_iterations < 100
        assert rep.class_switch.taken and rep.class_switch.n == 1024 and rep.restart_row is None
        assert rep.resolution_defect < 1e-10

    def test_levels_above_a_switch_start_in_the_class(self, grid64, driver_runs):
        # the n = 1024 level of design problem #45 switches in its one
        # driver run; its answer is in the class, so 2048 and 4096 start
        # from a real iterate and run in the half layout
        params = ProblemParams(s=0.818, sigma=1.944, lambda1=1.0, lambda2=0.133, kind=Kind.COUPLED)
        rep = solve_scalar(params, grid64, SolverConfig(mw=3), seed=initial_iterate(grid64, "quadratic"))
        assert rep.converged and rep.class_switch.n == 1024
        assert Counter((n, layout) for n, layout, _ in driver_runs) == {
            (1024, "complex"): 1, (2048, "real"): 1, (4096, "real"): 1}

    def test_speed_sign_mirrors_the_switch(self):
        # T_{-c} = R T_c R, and the quadratic seed is even: the -c run is
        # the mirrored +c run, so it stalls at the same row, shifted by -d
        plus, minus = stalled_solve(*STALLED[0]), stalled_solve(0.698, 2.564, 0.669, 1)
        assert (minus.iterations, minus.restart_row) == (plus.iterations, plus.restart_row)
        assert minus.residual_history == pytest.approx(plus.residual_history, rel=1e-6)
        assert minus.class_switch.iteration == plus.class_switch.iteration
        assert minus.class_switch.d == pytest.approx(-plus.class_switch.d, rel=1e-9)
        assert minus.class_switch.phi == pytest.approx(plus.class_switch.phi, rel=1e-9)

    def test_a_stall_beyond_the_guard_carries_on_as_before(self, monkeypatch):
        # with no defect within the guard the run carries on in the full
        # layout from where it stopped: the untested path, to max_iter
        monkeypatch.setattr(petviashvili, "CLASS_GUARD", 0.0)
        refused = stalled_solve(*STALLED[1])
        assert not refused.converged and refused.iterations == 500
        assert not refused.class_switch.taken and refused.restart_row is None
        monkeypatch.setattr(accel, "STALL_WINDOW", 10 ** 6)
        untested = stalled_solve(*STALLED[1])
        assert untested.class_switch is None and untested.restart_row is None
        assert refused.residual_history == untested.residual_history
        assert refused.m_history == untested.m_history and refused.cycle_ends == untested.cycle_ends
        assert refused.mpe_fallbacks == untested.mpe_fallbacks
        assert np.array_equal(refused.z, untested.z)

    def test_half_layout_runs_are_never_tested(self, monkeypatch, grid64, report_c1):
        # a window of 0 rows would stop any tested run at its first cycle
        monkeypatch.setattr(accel, "STALL_WINDOW", 0)
        rep = solve_scalar(fig1_params(1.0), grid64)
        assert rep.class_switch is None and rep.restart_row is None
        assert rep.residual_history == report_c1.residual_history
        assert np.array_equal(rep.z, report_c1.z)

    def test_switch_is_a_header_line(self, tmp_path, report_c1):
        rep = stalled_solve(*STALLED[0])
        with open(save_report(rep, tmp_path, "stalled")[0]) as fh:
            header = [line.rstrip("\n") for line in fh if line.startswith("#")]
        assert f"# class_switch = {rep.class_switch}" in header
        assert re.fullmatch(r"# class_switch = n=1024 iteration=\d+ d=\S+ phi=\S+ defect=\S+ finished=half",
                            header[-2])
        with open(save_report(report_c1, tmp_path, "c1")[0]) as fh:
            assert not [line for line in fh if line.startswith("# class_switch")]


class TestHalfLayoutProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(s=st.floats(0.6, 1.0), sigma=st.floats(0.5, 3.0), speed=st.floats(-0.95, 0.95),
           n=st.sampled_from([64, 128, 256, 512, 1024]))
    def test_half_step_is_the_full_step(self, s, sigma, speed, n):
        # from a seed in the class, one half-layout step is the full-layout
        # step, and the full step stays in the class: L has a real symbol and
        # G commutes with u(x) -> conj(u(-x))
        params = ProblemParams(s=s, sigma=sigma, lambda1=1.0,
                               lambda2=speed * limiting_speed(s, 1.0))
        grid = Grid(l=48.0, n=n)
        seed = initial_iterate(grid, params.A)
        alpha = SolverConfig().resolved_alpha(sigma)
        iteration = ProfileIteration(params, grid, alpha)
        z_h = iteration.iterate(seed)
        assert np.isrealobj(z_h)
        nxt_f, res_f, m_f = iteration.step(seed.spectrum().copy())
        nxt_h, res_h, m_h = iteration.step(z_h)
        u_f, u_h = iteration.samples(nxt_f), iteration.samples(nxt_h)
        assert np.linalg.norm(u_h - u_f) <= 1e-13 * np.linalg.norm(u_f)
        assert res_h == pytest.approx(res_f, rel=1e-13)
        assert m_h == pytest.approx(m_f, rel=1e-13)
        assert np.isrealobj(nxt_h)
        assert reflection_conjugate_defect(u_f) <= CLASS_RTOL


class TestReflectionProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(s=st.floats(0.55, 1.0), sigma=st.floats(0.5, 3.0),
           speed=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
           n=st.sampled_from([64, 128, 256, 512, 1024]), l=st.sampled_from([8.0, 16.0, 48.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_step_at_minus_c_is_the_reflected_step(self, s, sigma, speed, n, l, seed):
        # T_{-c} = R T_c R for the reflection R: u(x) -> u(-x), which on the
        # full layout's spectra is the same index reflection; u is a random
        # envelope times sech(x/3), outside the class
        grid = Grid(l=l, n=n)
        rng = np.random.default_rng(seed)
        u = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.cosh(grid.x / 3.0)
        z = np.fft.fft(u)
        alpha = SolverConfig().resolved_alpha(sigma)
        c = speed * limiting_speed(s, 1.0)
        plus, minus = (ProfileIteration(ProblemParams(s=s, sigma=sigma, lambda1=1.0, lambda2=v),
                                        grid, alpha) for v in (c, -c))
        nxt_p, res_p, m_p = plus.step(z)
        nxt_m, res_m, m_m = minus.step(reflect_samples(z))
        assert np.linalg.norm(nxt_m - reflect_samples(nxt_p)) <= 1e-13 * np.linalg.norm(nxt_p)
        assert res_m == pytest.approx(res_p, rel=1e-13)
        assert m_m == pytest.approx(m_p, rel=1e-13)


class TestNestedSolve:
    """On a grid that nests solve_scalar solves on (l, n/2) first, nesting
    again there, and starts the n grid from the prolonged coarse answer;
    solve_on_grid is the cold one-grid solve it falls back to."""

    def test_prolongation_is_exact_on_band_limited_fields(self):
        # a trigonometric polynomial below the coarse Nyquist mode, plus the
        # real cosine that mode carries, sampled on (l, m) and prolonged onto
        # (l, 2m) and (l, 4m), is that polynomial sampled there
        l, m = 8.0, 64
        rng = np.random.default_rng(11)
        k = np.arange(-m // 2 + 1, m // 2)
        a = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)

        def poly(grid):
            x = grid.x[:, None]
            waves = np.exp(1j * np.pi * k * x / l) @ a
            return waves + 0.7 * np.cos(np.pi * (m // 2) * (grid.x + l) / l)

        coarse = Grid(l, m)
        for n in (2 * m, 4 * m):
            fine = Grid(l, n)
            out = prolong(ComplexField(coarse, poly(coarse)), fine)
            exact = poly(fine)
            assert np.linalg.norm(out.samples - exact) <= 1e-13 * np.linalg.norm(exact)
            assert np.allclose(out.spectrum(), np.fft.fft(out.samples), rtol=0, atol=1e-11)

    def test_prolongation_keeps_the_class(self):
        # u(x) = conj(u(-x)) on the coarse grid stays so on the fine one, so
        # the fine solve of a class seed runs in the half layout
        coarse, fine = Grid(32.0, 256), Grid(32.0, 512)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(coarse.n) + 1j * rng.standard_normal(coarse.n)
        u = 0.5 * (u + np.conj(reflect_samples(u)))
        for field in (ComplexField(coarse, u), initial_iterate(coarse, fig1_params(1.0).A)):
            assert reflection_conjugate_defect(field.samples) <= CLASS_RTOL
            assert reflection_conjugate_defect(prolong(field, fine).samples) <= CLASS_RTOL
        for target in (coarse, fine, Grid(16.0, 1024)):
            with pytest.raises(ValueError, match="cannot prolong"):
                prolong(ComplexField(fine, np.ones(fine.n)), target)

    @pytest.mark.parametrize("mw, fine_max", [(1, 9), (4, 4)])
    @pytest.mark.parametrize("theta", [None, "quadratic"], ids=["default", "quadratic"])
    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5])
    def test_fig1_points_agree_with_one_grid(self, grid64, c, theta, mw, fine_max):
        seed = None if theta is None else initial_iterate(grid64, theta)
        cfg = SolverConfig(mw=mw)
        nested = solve_scalar(fig1_params(c), grid64, cfg, seed=seed)
        cold = solve_on_grid(fig1_params(c), grid64, cfg, seed=seed)
        assert nested.converged and cold.converged
        assert nested.coarse_iterations > 0 and nested.iterations <= fine_max
        assert np.max(np.abs(nested.envelope.samples - cold.envelope.samples)) <= 1e-10
        assert nested.resolution_defect <= 1e-8

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
        # 4.7e-11; at s = 0.55 the tail decays as |x|^-2.1 and the n/2 = 1024
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
        # level builds one iteration and solves, no seed is checked, and
        # each iterate made from a field tests its layout: the seed of the
        # last level, 1024, and the prolonged starts of 2048 and 4096
        grid = Grid(l, n)
        nested = solve_scalar(fig1_params(1.0), grid)
        assert sorted(steps_per_n) == levels
        assert builds == {"iterations": 3, "layout tests": 3}
        cold = solve_on_grid(fig1_params(1.0), grid)
        assert nested.converged and cold.converged
        assert np.max(np.abs(nested.envelope.samples - cold.envelope.samples)) <= 1e-10

    def test_every_coarse_level_gets_a_share_of_the_requested_budget(self, driver_runs, grid64):
        # the share is of the requested max_iter at every level; a share of
        # the share (//16 on n/4) gives up on problems n/4 holds
        rep = solve_scalar(fig1_params(1.0), grid64, SolverConfig(max_iter=200))
        assert rep.converged
        floor = petviashvili.COARSE_TOL
        assert [(n, cfg.max_iter, cfg.tol) for n, _, cfg in driver_runs] == [(1024, 50, floor), (2048, 50, floor), (4096, 200, 1e-10)]

    def test_exact_seed_does_not_descend(self, steps_per_n, builds):
        # the answer on 16384, passed back as the seed, meets tol there:
        # one step on 16384 decides that, no level below it is solved, and
        # the solve converges at 0 iterations in one more step; the check
        # and the solve each build one iteration and test one layout
        grid = Grid(256.0, 16384)
        exact = solve_scalar(fig1_params(1.0), grid).envelope
        steps_per_n.clear()
        builds.clear()
        rep = solve_scalar(fig1_params(1.0), grid, seed=exact)
        assert rep.converged and rep.iterations == rep.coarse_iterations == 0
        assert steps_per_n == {16384: 2}
        assert builds == {"iterations": 2, "layout tests": 2}

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
        # then descends exactly as from seed=None
        grid, params = Grid(l, n), fig1_params(1.0)
        passed = solve_scalar(params, grid, seed=initial_iterate(grid, params.A))
        default = solve_scalar(params, grid)
        assert passed.converged and passed.coarse_iterations > 0
        for name, value in vars(default).items():
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
        # layout test of the seed warns on the overflow
        params = fig1_params(1.0)
        samples = initial_iterate(grid64, params.A).samples.copy()
        samples[2049] = 1e200
        seed = ComplexField(grid64, samples)
        rep = solve_scalar(params, grid64, seed=seed)
        assert rep.converged and (rep.iterations, rep.coarse_iterations) == (4, 38)
        with pytest.raises(accel.DivergenceError):
            solve_on_grid(params, grid64, seed=seed)

    def test_five_levels_nest(self, steps_per_n, builds):
        # (256, 65536) nests down to 4096, whose half grid has the spacing
        # 1/4 > NEST_MAX_H.  A run of k iterations takes k + 1 steps, and
        # the default seed is never checked: 38 steps on 4096 are its run
        # of 37 iterations, and 39 coarse iterations plus 4 coarse runs are
        # the 43 steps below n.  Each level builds one iteration; the seed
        # of 4096 and the prolonged starts of the four levels above it each
        # test their layout
        rep = solve_scalar(fig1_params(1.0), Grid(256.0, 65536))
        assert rep.converged and rep.iterations == 5 and rep.coarse_iterations == 39
        assert steps_per_n == {4096: 38, 8192: 2, 16384: 1, 32768: 2, 65536: 6}
        assert sum(steps_per_n.values()) - steps_per_n[65536] == rep.coarse_iterations + 4
        assert builds == {"iterations": 5, "layout tests": 5}

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
