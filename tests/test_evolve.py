import numpy as np
import pytest

from fnlswaves.cli import main
from fnlswaves.evolve import EvolveConfig, StepError, run, step_midpoint
from fnlswaves.params import ProblemParams
from fnlswaves.petviashvili import SolverConfig, solve_scalar
from fnlswaves.spectral import ComplexField, Grid, hamiltonian, mass, momentum


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
    """run() transforms each state once: the invariants read the cached
    spectrum by Parseval, and the next step reuses it."""

    def test_fft_budget_per_step(self, wave2048, fft_calls):
        u0 = ComplexField(wave2048.grid, wave2048.samples)  # nothing cached yet
        cfg = EvolveConfig(dt=0.01, t_end=0.2, nl_tol=1e-13)
        fft_calls[0] = 0
        report = run(u0, params34(), cfg)
        steps = len(report.times) - 1
        assert steps == 20 and len(report.sweeps) == steps
        assert np.all((report.sweeps >= 1) & (report.sweeps <= cfg.nl_max))
        # a forward and an inverse transform per sweep, one spectrum per state
        assert fft_calls[0] == 2 * int(report.sweeps.sum()) + steps + 1

    def test_run_equals_chained_steps(self):
        g = Grid(l=16.0, n=256)
        u0 = ComplexField(g, 1.2 / np.cosh(g.x) * np.exp(0.5j * g.x))
        cfg = EvolveConfig(dt=0.01, t_end=0.2, snapshot_stride=20, nl_tol=1e-12)
        report = run(u0, params34(), cfg)
        u = ComplexField(g, u0.samples)
        for _ in range(20):
            u = step_midpoint(u, cfg.dt, params34(), cfg)
        assert report.snapshots[-1][0] == pytest.approx(0.2)
        assert np.array_equal(report.snapshots[-1][1].samples, u.samples)

    def test_no_sweeps_recorded_on_abort(self, wave2048):
        cfg = EvolveConfig(dt=80.0, t_end=160.0, nl_tol=1e-14, nl_max=3)
        report = run(wave2048, params34(), cfg)
        assert report.aborted is not None and len(report.sweeps) == 0
