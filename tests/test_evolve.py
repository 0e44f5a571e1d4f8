import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fnlswaves import evolve
from fnlswaves.cli import main
from fnlswaves.evolve import EvolveConfig, StepError, run, step_midpoint
from fnlswaves.params import ProblemParams, limiting_speed
from fnlswaves.petviashvili import SolverConfig, initial_iterate, solve_scalar
from fnlswaves.spectral import ComplexField, Grid, load_field, save_field


def params34():
    return ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=1.0)


@pytest.fixture(scope="module")
def wave2048():
    """Converged envelope on the Fig 2 grid (spatial step 6.25e-2)."""
    grid = Grid(l=64.0, n=2048)
    rep = solve_scalar(params34(), grid, SolverConfig(tol=1e-12, max_iter=600))
    assert rep.converged
    return rep.envelope


EVOLVE_CONFIG = """
[run]
command = evolve
[problem]
s = 0.75
sigma = 1.0
lambda1 = 1.0
lambda2 = 1.0
[grid]
l = 16.0
n = 256
[evolve]
{evolve}
"""


class TestEvolveConfig:
    @pytest.mark.parametrize("key, value", [("nl_max", 0), ("nl_max", -3), ("snapshot_stride", -1),
                                            ("dt", float("nan")), ("nl_tol", float("inf")),
                                            ("t_end", -1.0), ("t_end", float("nan")),
                                            ("t_end", 0.004)])
    def test_bad_inner_settings_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            EvolveConfig(**{key: value})

    def test_edge_settings_accepted(self):
        cfg = EvolveConfig(nl_max=1, snapshot_stride=0)
        assert cfg.nl_max == 1 and cfg.snapshot_stride == 0

    def test_snapshots_closer_than_their_file_names_rejected(self, tmp_path):
        # save_evolution names a snapshot by t to 6 decimals: 1e-7 apart,
        # the 6 snapshots of this run would all be written to one file
        with pytest.raises(ValueError, match="snapshot_stride"):
            EvolveConfig(dt=1e-7, t_end=5e-7, snapshot_stride=1)
        assert EvolveConfig(dt=1e-7, t_end=5e-7, snapshot_stride=10).snapshot_stride == 10
        # 1e-6 apart, every snapshot gets a file of its own
        cfg = EvolveConfig(dt=1e-6, t_end=5e-6, snapshot_stride=1)
        report = run(initial_iterate(Grid(l=8.0, n=64)), params34(), cfg)
        assert len(report.snapshots) == 6
        assert len(set(evolve.save_evolution(report, tmp_path, "evolve"))) == 1 + 6

    def test_cli_refuses_snapshots_closer_than_their_file_names(self, tmp_path, capsys):
        path = tmp_path / "evolve.ini"
        path.write_text(EVOLVE_CONFIG.format(evolve="dt = 1e-7\nt_end = 5e-7\nsnapshot_stride = 1"))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "snapshot_stride" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("nl_max", 0), ("snapshot_stride", -1),
                                            ("t_end", 0.001), ("t_end", -1.0)])
    def test_cli_exits_2(self, tmp_path, capsys, key, value):
        settings = {"dt": 0.01, "t_end": 0.02, key: value}
        path = tmp_path / "evolve.ini"
        path.write_text(EVOLVE_CONFIG.format(
            evolve="\n".join(f"{k} = {v}" for k, v in settings.items())))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestStepMidpoint:
    def test_zero_stays_zero(self):
        g = Grid(l=8.0, n=64)
        u = ComplexField(g, np.zeros(g.n, dtype=complex))
        out = step_midpoint(u, 0.01, params34())
        assert np.all(out.samples == 0.0)

    def test_plane_wave_modulus_preserved(self):
        # single on-grid mode: the dynamics is a pure phase rotation
        g = Grid(l=8.0, n=64)
        k = g.xi[3]
        amp = 0.7
        u = ComplexField(g, amp * np.exp(1j * k * g.x))
        cfg = EvolveConfig(dt=0.02, nl_tol=1e-13, nl_max=100)
        out = u
        for _ in range(25):
            out = step_midpoint(out, 0.02, params34(), cfg)
        assert np.max(np.abs(np.abs(out.samples) - amp)) < 25 * 10 * 1e-13

    def test_time_reversibility(self, wave2048):
        cfg = EvolveConfig(dt=0.01, nl_tol=1e-13, nl_max=100)
        u = wave2048
        for _ in range(20):
            u = step_midpoint(u, 0.01, params34(), cfg)
        for _ in range(20):
            u = step_midpoint(u, -0.01, params34(), cfg)
        assert np.max(np.abs(u.samples - wave2048.samples)) < 1e-8

    def test_inner_stall_raises(self, wave2048):
        cfg = EvolveConfig(nl_tol=1e-14, nl_max=4)
        with pytest.raises(StepError, match="smaller dt"):
            step_midpoint(wave2048, 50.0, params34(), cfg)


class TestRun:
    def test_real_even_datum_keeps_zero_momentum(self):
        g = Grid(l=32.0, n=512)
        p = ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=0.0)
        u0 = ComplexField(g, (1.2 / np.cosh(g.x)).astype(complex))
        report = run(u0, p, EvolveConfig(dt=0.02, t_end=1.0))
        assert report.aborted is None
        assert np.max(np.abs(report.momentum)) < 1e-10

    def test_quadratic_invariants_drift_budget(self, wave2048):
        cfg = EvolveConfig(dt=0.01, t_end=2.0, nl_tol=1e-12)
        report = run(wave2048, params34(), cfg)
        steps = len(report.times) - 1
        budget = 100.0 * cfg.nl_tol * steps
        assert np.max(np.abs(report.mass - report.mass[0])) <= budget
        assert np.max(np.abs(report.momentum - report.momentum[0])) <= budget

    def test_travelling_wave_speed(self, wave2048):
        cfg = EvolveConfig(dt=0.01, t_end=2.0, nl_tol=1e-12)
        report = run(wave2048, params34(), cfg)
        assert report.peak_speed() == pytest.approx(1.0, rel=1e-2)

    def test_hamiltonian_preservation_fig2(self, wave2048):
        # desk-scale rerun of the energy-error experiment at dt = 1e-2
        cfg = EvolveConfig(dt=0.01, t_end=10.0, nl_tol=1e-13, nl_max=100)
        report = run(wave2048, params34(), cfg)
        drift = np.max(np.abs(report.hamiltonian - report.hamiltonian[0]))
        assert drift < 1e-6

    def test_partial_report_on_failure(self, wave2048):
        # force an inner stall partway: huge dt fails on the first step
        cfg = EvolveConfig(dt=80.0, t_end=160.0, nl_tol=1e-14, nl_max=3)
        report = run(wave2048, params34(), cfg)
        assert report.aborted is not None
        assert len(report.times) == 1

    def test_amplitude_positive(self, wave2048):
        cfg = EvolveConfig(dt=0.01, t_end=0.5)
        report = run(wave2048, params34(), cfg)
        assert np.all(report.amplitude > 0.0)

    def test_snapshots_recorded(self, wave2048):
        cfg = EvolveConfig(dt=0.01, t_end=0.2, snapshot_stride=10)
        report = run(wave2048, params34(), cfg)
        assert len(report.snapshots) == 3  # t = 0, 0.1, 0.2
        assert report.snapshots[1][0] == pytest.approx(0.1)


class TestOneSpectrumPerStep:
    """run() transforms u0 once: the invariants read the cached spectrum by
    Parseval, and each step hands its new state the spectrum of its last
    sweep."""

    def test_fft_budget_per_step(self, wave2048, fft_calls):
        u0 = ComplexField(wave2048.grid, wave2048.samples)  # nothing cached yet
        cfg = EvolveConfig(dt=0.01, t_end=0.2, nl_tol=1e-13)
        fft_calls[0] = 0
        report = run(u0, params34(), cfg)
        steps = len(report.times) - 1
        assert steps == 20 and len(report.sweeps) == steps
        assert np.all((report.sweeps >= 1) & (report.sweeps <= cfg.nl_max))
        # a forward and an inverse transform per sweep, and the spectrum of u0
        assert fft_calls[0] == 2 * int(report.sweeps.sum()) + 1

    def test_step_state_carries_its_spectrum(self, wave2048):
        out = step_midpoint(wave2048, 0.01, params34(), EvolveConfig(nl_tol=1e-13))
        spec = out.spectrum()
        assert not spec.flags.writeable
        fresh = np.fft.fft(out.samples)
        assert np.linalg.norm(spec - fresh) <= 1e-14 * np.linalg.norm(fresh)

    def test_run_equals_chained_steps(self):
        # run's first step starts from u0 as step_midpoint does; later steps
        # start from the predicted midpoint, so they agree to the inner
        # tolerance, not bit for bit
        g = Grid(l=16.0, n=256)
        u0 = ComplexField(g, 1.2 / np.cosh(g.x) * np.exp(0.5j * g.x))
        cfg = EvolveConfig(dt=0.01, t_end=0.2, snapshot_stride=1, nl_tol=1e-12)
        report = run(u0, params34(), cfg)
        assert len(report.snapshots) == 21
        assert report.snapshots[-1][0] == pytest.approx(0.2)
        u = ComplexField(g, u0.samples)
        for k, (_, state) in enumerate(report.snapshots[1:]):
            u = step_midpoint(u, cfg.dt, params34(), cfg)
            if k == 0:
                assert np.array_equal(state.samples, u.samples)
            assert np.max(np.abs(state.samples - u.samples)) <= 1e-13

    def test_no_sweeps_recorded_on_abort(self, wave2048):
        cfg = EvolveConfig(dt=80.0, t_end=160.0, nl_tol=1e-14, nl_max=3)
        report = run(wave2048, params34(), cfg)
        assert report.aborted is not None and len(report.sweeps) == 0


class TestPredictedStart:
    """run() starts each inner sweep from (u_k + P(t_{k+1})) / 2, P the
    polynomial through the last evolve.PREDICT_ORDER states."""

    def test_fig2_sweeps_per_step(self, wave2048):
        cfg = EvolveConfig(dt=0.01, t_end=2.0, nl_tol=1e-13)
        report = run(wave2048, params34(), cfg)
        assert report.aborted is None and len(report.sweeps) == 200
        assert report.sweeps[0] == 7  # the first step starts from u0
        assert report.sweeps.mean() <= 4.1

    def test_start_weights_extrapolate_polynomials(self):
        # P(t_{k+1}) is exact on polynomials of degree order - 1, so the
        # start is the midpoint of u_k and u_{k+1} on them
        for order in range(2, evolve.PREDICT_ORDER + 1):
            t = np.arange(order, dtype=float)  # t_{k-order+1} .. t_k
            u = (t - 0.3) ** (order - 1)
            start = np.dot(evolve._start_weights(order), u[::-1])
            assert start == pytest.approx(0.5 * (u[-1] + (order - 0.3) ** (order - 1)), rel=1e-12)

    def test_wild_start_reruns_from_u(self, wave2048, monkeypatch):
        # a start ten times u_k stalls; each step reruns from u_k within a
        # small nl_max and lands on the step_midpoint state
        def wild(predictor):
            return 10.0 * predictor.past[(predictor.stored - 1) % evolve.PREDICT_ORDER]

        monkeypatch.setattr(evolve._Predictor, "start", wild)
        cfg = EvolveConfig(dt=0.01, t_end=0.05, nl_tol=1e-12, nl_max=10, snapshot_stride=1)
        report = run(wave2048, params34(), cfg)
        assert report.aborted is None and len(report.snapshots) == 6
        u = wave2048
        symbols = evolve._step_symbols(u.grid, cfg.dt, params34().s)
        for (_, state), used in zip(report.snapshots[1:], report.sweeps):
            u, plain, dropped = evolve._step(u, *symbols, params34().sigma, cfg)  # step_midpoint's step
            assert np.array_equal(state.samples, u.samples)
            assert used > plain and not dropped

    def test_guard_drops_a_start_that_stops_contracting(self, wave2048):
        # on fig2, a start of 100 u_k stops contracting at its second sweep:
        # the guard gives up there and the step reruns from u_k, landing on
        # the step_midpoint state; a start of 10 u_k still contracts, and
        # converges from the start in 12 sweeps
        cfg = EvolveConfig(dt=0.01, nl_tol=1e-13)
        symbols = evolve._step_symbols(wave2048.grid, cfg.dt, params34().s)
        plain, plain_sweeps, _ = evolve._step(wave2048, *symbols, params34().sigma, cfg)
        assert plain_sweeps == 7
        state, used, dropped = evolve._step(wave2048, *symbols, params34().sigma, cfg,
                                            100.0 * wave2048.samples)
        assert dropped and used == plain_sweeps + 2
        assert np.array_equal(state.samples, step_midpoint(wave2048, cfg.dt, params34(), cfg).samples)
        _, used, dropped = evolve._step(wave2048, *symbols, params34().sigma, cfg,
                                        10.0 * wave2048.samples)
        assert not dropped and used == 12

    def test_dropped_start_restarts_the_ramp(self, wave2048, monkeypatch):
        # every prediction is wild and dropped; the step after a drop starts
        # from u_k, so no two steps in a row spend guard sweeps, and each
        # state is the step_midpoint state; row r of the ring weights reads
        # u_k from ring row r, so ten times the identity predicts 10 u_k
        monkeypatch.setattr(evolve, "_ring_weights", lambda order: 10.0 * np.eye(evolve.PREDICT_ORDER))
        cfg = EvolveConfig(dt=0.01, t_end=0.06, nl_tol=1e-12, nl_max=10, snapshot_stride=1)
        report = run(wave2048, params34(), cfg)
        assert report.aborted is None
        u = wave2048
        symbols = evolve._step_symbols(u.grid, cfg.dt, params34().s)
        extra = []
        for (_, state), used in zip(report.snapshots[1:], report.sweeps):
            u, plain, _ = evolve._step(u, *symbols, params34().sigma, cfg)
            assert np.array_equal(state.samples, u.samples)
            extra.append(used > plain)
        assert extra == [False, True] * 3

    def test_predictor_ramp(self):
        # order ramps 1, 2, 3, ..., and a dropped start sends it back to 1
        g = Grid(l=4.0, n=8)
        states = [np.full(g.n, float(j) ** 2, dtype=complex) for j in range(12)]
        pred = evolve._Predictor((g, 0.1, 0.75, 1.0), states[0])
        assert pred.start() is None
        for j in range(1, 10):
            pred.push(states[j], dropped=False)
        # order 8 is exact on t^2: the start is the midpoint of u_9 and u_10
        assert pred.start() == pytest.approx(np.full(g.n, 0.5 * (81.0 + 100.0)), rel=1e-12)
        pred.push(states[10], dropped=True)
        assert pred.start() is None
        pred.push(states[11], dropped=False)
        assert np.array_equal(pred.start(), 1.5 * states[11] - 0.5 * states[10])

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(s=st.floats(0.55, 1.0), sigma=st.floats(0.5, 3.0), speed=st.floats(-0.95, 0.95),
           dt=st.floats(0.005, 0.05))
    def test_run_completes_where_chained_steps_do(self, s, sigma, speed, dt):
        params = ProblemParams(s=s, sigma=sigma, lambda1=1.0,
                               lambda2=speed * limiting_speed(s, 1.0))
        grid = Grid(l=16.0, n=256)
        u0 = initial_iterate(grid, params.A)
        cfg = EvolveConfig(dt=dt, t_end=20 * dt)
        u = u0
        try:
            for _ in range(cfg.steps):
                u = step_midpoint(u, dt, params, cfg)
        except StepError:
            assume(False)
        report = run(u0, params, cfg)
        assert report.aborted is None and len(report.sweeps) == cfg.steps
        budget = 100.0 * cfg.nl_tol * cfg.steps
        assert np.max(np.abs(report.mass - report.mass[0])) <= budget


class TestContinuation:
    """A completed run leaves its predictor on its final state; a run from
    that state under the same (grid, dt, s, sigma) goes on as one run."""

    @staticmethod
    def cold(state: ComplexField) -> ComplexField:
        """The same samples and spectrum, and nothing carried."""
        return ComplexField.with_spectrum(state.grid, state.samples.copy(), state.spectrum().copy())

    @staticmethod
    def assert_same_run(a, b):
        assert np.array_equal(a.sweeps, b.sweeps)
        assert len(a.snapshots) == len(b.snapshots)
        for (ta, fa), (tb, fb) in zip(a.snapshots, b.snapshots):
            assert ta == tb and np.array_equal(fa.samples, fb.samples)
        for name in ("mass", "momentum", "hamiltonian", "amplitude", "peak_x"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_fig2_chained_equals_one_run(self, wave2048):
        one = run(wave2048, params34(), EvolveConfig(dt=0.01, t_end=2.0, nl_tol=1e-13,
                                                     snapshot_stride=50))
        cfg = EvolveConfig(dt=0.01, t_end=0.5, nl_tol=1e-13, snapshot_stride=50)
        u, sweeps = wave2048, []
        for k in range(1, 5):
            part = run(u, params34(), cfg)
            assert part.aborted is None
            u = part.snapshots[-1][1]
            assert np.array_equal(u.samples, one.snapshots[k][1].samples)
            sweeps.extend(part.sweeps)
        assert np.array_equal(sweeps, one.sweeps)
        assert sweeps[50] == 2  # no ramp at the start of a continued run

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(s=st.floats(0.55, 1.0), sigma=st.floats(0.5, 3.0), speed=st.floats(-0.95, 0.95),
           dt=st.floats(0.005, 0.05))
    def test_chained_equals_one_run(self, s, sigma, speed, dt):
        params = ProblemParams(s=s, sigma=sigma, lambda1=1.0,
                               lambda2=speed * limiting_speed(s, 1.0))
        u0 = initial_iterate(Grid(l=16.0, n=256), params.A)
        one = run(u0, params, EvolveConfig(dt=dt, t_end=21 * dt, snapshot_stride=7))
        assume(one.aborted is None)
        u, sweeps = u0, []
        for k in range(1, 4):
            part = run(u, params, EvolveConfig(dt=dt, t_end=7 * dt, snapshot_stride=7))
            assert part.aborted is None
            u = part.snapshots[-1][1]
            assert np.array_equal(u.samples, one.snapshots[k][1].samples)
            sweeps.extend(part.sweeps)
        assert np.array_equal(sweeps, one.sweeps)

    @pytest.fixture(scope="class")
    def continued(self, wave2048):
        cfg = EvolveConfig(dt=0.01, t_end=0.2, nl_tol=1e-13, snapshot_stride=20)
        return run(wave2048, params34(), cfg).snapshots[-1][1]

    def test_a_state_continues_the_same_way_twice(self, continued):
        # each run works on its own copy of the carried predictor
        cfg = EvolveConfig(dt=0.01, t_end=0.1, nl_tol=1e-13, snapshot_stride=5)
        first = run(continued, params34(), cfg)
        assert first.sweeps[0] <= 3
        self.assert_same_run(first, run(continued, params34(), cfg))

    @pytest.mark.parametrize("change", ["dt", "s", "sigma"])
    def test_other_steps_start_cold(self, continued, change):
        params, cfg = params34(), EvolveConfig(dt=0.01, t_end=0.1, nl_tol=1e-13, snapshot_stride=5)
        if change == "dt":
            cfg = EvolveConfig(dt=0.005, t_end=0.05, nl_tol=1e-13, snapshot_stride=5)
        else:
            params = ProblemParams(**{"s": 0.75, "sigma": 1.0, "lambda1": 1.0, "lambda2": 1.0,
                                      change: 0.8 if change == "s" else 1.1})
        report = run(continued, params, cfg)
        self.assert_same_run(report, run(self.cold(continued), params, cfg))
        assert report.sweeps[0] >= 7  # from u_k: 7 at dt 0.005 and at s 0.8, 8 at sigma 1.1

    def test_other_grid_starts_cold(self, continued):
        # the same samples read on another domain, the carried state kept
        moved = copy.copy(continued)
        object.__setattr__(moved, "grid", Grid(l=48.0, n=continued.grid.n))
        vars(moved).pop("_spectrum", None)
        cfg = EvolveConfig(dt=0.01, t_end=0.05, nl_tol=1e-13, snapshot_stride=5)
        self.assert_same_run(run(moved, params34(), cfg), run(self.cold(moved), params34(), cfg))

    def test_reloaded_state_starts_cold(self, continued, tmp_path):
        save_field(tmp_path / "u.dat", continued)
        loaded, _ = load_field(tmp_path / "u.dat")
        assert loaded == continued and continued == loaded
        cfg = EvolveConfig(dt=0.01, t_end=0.1, nl_tol=1e-13, snapshot_stride=10)
        report = run(loaded, params34(), cfg)
        assert report.sweeps[0] == 7
        assert run(continued, params34(), cfg).sweeps[0] <= 3

    def test_aborted_run_hands_on_nothing(self, wave2048, monkeypatch):
        step, calls = evolve._step, [0]

        def failing(*args):
            calls[0] += 1
            if calls[0] == 4:
                raise StepError("forced")
            return step(*args)

        cfg = EvolveConfig(dt=0.01, t_end=0.1, nl_tol=1e-13, snapshot_stride=1)
        monkeypatch.setattr(evolve, "_step", failing)
        last = run(wave2048, params34(), cfg).snapshots[-1][1]
        monkeypatch.setattr(evolve, "_step", step)
        self.assert_same_run(run(last, params34(), cfg), run(self.cold(last), params34(), cfg))


class TestBitForBit:
    """run computes the module docstring's scheme bit for bit: its in-place
    sweep, step, predictor and invariants equal a plain transcription with
    a fresh array for every expression."""

    @staticmethod
    def plain_sweep(rhs, w, kick, sigma, cfg, guarded=False):
        last = np.inf
        for j in range(cfg.nl_max):
            nl = (w.real ** 2 + w.imag ** 2) ** sigma * w
            w_hat = rhs + kick * np.fft.fft(nl)
            w_new = np.fft.ifft(w_hat)
            delta = np.linalg.norm(w_new - w)
            w = w_new
            if delta <= cfg.nl_tol:
                return w, w_hat, j + 1
            if guarded and not delta < last:
                return None, None, j + 1
            last = delta
        if guarded:
            return None, None, cfg.nl_max
        raise StepError("plain sweep stalled")

    @staticmethod
    def plain_invariants(g, u, spec, sym, sigma):
        dens = u.real ** 2 + u.imag ** 2
        power = spec.real ** 2 + spec.imag ** 2
        j = int(np.argmax(dens))
        y0, y1, y2 = np.abs(u[[(j - 1) % g.n, j, (j + 1) % g.n]])
        dd = y0 - 2.0 * y1 + y2
        delta = 0.5 * (y0 - y2) / dd if dd != 0.0 else 0.0
        momentum = 0.5 * g.h / g.n * float(np.sum(g.xi_odd * power))
        kinetic = 0.5 / g.n * float(np.sum(sym * power))
        potential = float(np.sum(dens ** (sigma + 1.0))) / (2.0 * sigma + 2.0)
        return (0.5 * g.h * float(np.sum(dens)), momentum, g.h * (kinetic - potential),
                y1 - 0.25 * (y0 - y2) * delta, g.x[j] + delta * g.h)

    def plain_march(self, u0, params, cfg, steps):
        """(states, spectra, invariants rows, sweeps) of ``steps`` steps from
        u0, each sweep started from the ramped predictor as run starts it."""
        g, order_max = u0.grid, evolve.PREDICT_ORDER
        sym = np.abs(g.xi) ** (2.0 * params.s)
        inv = 1.0 / (1.0 + 0.5j * cfg.dt * sym)
        kick = 0.5j * cfg.dt * inv
        u, u_hat = u0.samples, np.fft.fft(u0.samples)
        past = np.zeros((order_max, g.n), dtype=complex)
        past[0], stored, usable = u, 1, 1
        states, spectra, sweeps = [u], [u_hat], []
        rows = [self.plain_invariants(g, u, u_hat, sym, params.sigma)]
        for _ in range(steps):
            order = min(usable, order_max)
            start = None
            if order >= 2:
                weights = np.zeros(order_max)
                weights[(stored - 1 - np.arange(order)) % order_max] = evolve._start_weights(order)
                start = weights @ past
            rhs = u_hat * inv
            w, spent = None, 0
            if start is not None:
                with np.errstate(all="ignore"):
                    w, w_hat, spent = self.plain_sweep(rhs, start, kick, params.sigma, cfg, guarded=True)
            dropped = start is not None and w is None
            if w is None:
                w, w_hat, used = self.plain_sweep(rhs, u, kick, params.sigma, cfg)
                spent += used
            u, u_hat = 2.0 * w - u, 2.0 * w_hat - u_hat
            past[stored % order_max] = u
            stored += 1
            usable = 1 if dropped else usable + 1
            states.append(u)
            spectra.append(u_hat)
            sweeps.append(spent)
            rows.append(self.plain_invariants(g, u, u_hat, sym, params.sigma))
        return states, spectra, rows, sweeps

    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    def test_chained_runs_equal_the_plain_scheme(self, sigma):
        # two chained runs of 32 steps from a fresh state: the first ramps
        # the predictor order up, the second continues it at full order
        params = ProblemParams(s=0.75, sigma=sigma, lambda1=1.0, lambda2=1.0)
        g = Grid(l=16.0, n=256)
        u0 = ComplexField(g, 1.2 / np.cosh(g.x) * np.exp(0.5j * g.x))
        cfg = EvolveConfig(dt=0.01, t_end=0.32, nl_tol=1e-13, snapshot_stride=1)
        first = run(u0, params, cfg)
        kept = [(fld.samples.copy(), fld.spectrum().copy()) for _, fld in first.snapshots]
        second = run(first.snapshots[-1][1], params, cfg)
        assert first.aborted is None and second.aborted is None
        states, spectra, rows, sweeps = self.plain_march(u0, params, cfg, 2 * cfg.steps)
        snaps = first.snapshots + second.snapshots[1:]
        assert len(snaps) == len(states) == 65
        for (_, fld), samples, spec in zip(snaps, states, spectra):
            assert np.array_equal(fld.samples, samples) and np.array_equal(fld.spectrum(), spec)
        assert np.array_equal(np.r_[first.sweeps, second.sweeps], sweeps)
        got = [np.r_[getattr(first, name), getattr(second, name)[1:]]
               for name in ("mass", "momentum", "hamiltonian", "amplitude", "peak_x")]
        assert np.array_equal(np.column_stack(got), np.array(rows))
        # the second run wrote nothing the first one handed out
        for (_, fld), (samples, spec) in zip(first.snapshots, kept):
            assert not fld.samples.flags.writeable and not fld.spectrum().flags.writeable
            assert np.array_equal(fld.samples, samples) and np.array_equal(fld.spectrum(), spec)
