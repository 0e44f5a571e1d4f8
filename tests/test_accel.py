import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnlswaves import accel
from fnlswaves.accel import accelerated_iterate, mpe_coefficients, mpe_extrapolate
from fnlswaves.params import ProblemParams
from fnlswaves.petviashvili import SolverConfig, solve_scalar
from fnlswaves.spectral import Grid


class LinearIteration:
    """z -> M z + b test harness with the fixed point known exactly; z0 is
    the start a test hands the driver."""

    def __init__(self, M, b, z0):
        self.M, self.b, self.z0 = M, b, z0
        self.fixed_point = np.linalg.solve(np.eye(len(b)) - M, b)

    def step(self, z):
        nxt = self.M @ z + self.b
        return nxt, float(np.linalg.norm(nxt - z)), 1.0


class Recorder:
    """Forwards to an iteration and records the name of every attribute
    the driver reads from it."""

    def __init__(self, iteration):
        self.iteration, self.calls = iteration, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.iteration, name)


class Drift(LinearIteration):
    """z -> z + d: every cycle is an arithmetic progression, so each
    extrapolation is degenerate."""

    def __init__(self):
        self.M, self.b, self.z0 = np.eye(2), np.ones(2), np.zeros(2)


class Pinned(LinearIteration):
    """z -> diag(1, 0.1) z + (1e-6, 1) from 0: the unit eigenvalue drifts
    the first entry by 1e-6 a step for ever, so the residual of z_k is
    sqrt(1e-12 + 0.01^k) and never falls below 1e-6."""

    def __init__(self):
        self.M, self.b, self.z0 = np.diag([1.0, 0.1]), np.array([1e-6, 1.0]), np.zeros(2)


def assert_same_record(rec, other):
    """Every field of two AccelResults equal, the last iterate bit for bit."""
    a, b = dict(vars(rec)), dict(vars(other))
    assert np.array_equal(a.pop("z"), b.pop("z")) and a == b


@st.composite
def contractions(draw):
    """z -> M z + b, real or complex, with M normal and its spectral radius
    at most 0.9, so |z - z*| <= 10 |M z + b - z|."""
    dim = draw(st.integers(2, 12))
    is_complex = draw(st.booleans())
    radius = draw(st.floats(0.0, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def vector():
        v = rng.standard_normal(dim)
        return v + 1j * rng.standard_normal(dim) if is_complex else v

    if is_complex:
        eigs = radius * np.sqrt(rng.random(dim)) * np.exp(2j * np.pi * rng.random(dim))
    else:
        eigs = radius * rng.uniform(-1.0, 1.0, dim)
    q = np.linalg.qr(np.stack([vector() for _ in range(dim)]))[0]
    return LinearIteration(q @ np.diag(eigs) @ q.conj().T, vector(), vector())


class TestWindow:
    """One cycle's iterates z0..z_{kappa+1} feed a kappa-step extrapolation."""

    def test_requires_kappa_plus_two(self):
        # kappa + 2 iterates give kappa + 1 weights on z0..z_kappa
        rng = np.random.default_rng(3)
        for kappa in range(4):
            seq = list(rng.standard_normal((kappa + 2, 6)))
            gamma = mpe_coefficients(np.diff(np.asarray(seq).T, axis=1))
            assert gamma.shape == (kappa + 1,)
            assert np.allclose(mpe_extrapolate(seq), gamma @ np.asarray(seq[:-1]))

    def test_extrapolate_before_full_raises(self):
        with pytest.raises(ValueError, match="at least two iterates, got 1"):
            mpe_extrapolate([np.zeros(3)])

    def test_negative_kappa(self):
        with pytest.raises(ValueError, match="got 0"):
            mpe_extrapolate([])


class TestExtrapolation:
    def test_kappa_zero_returns_first_iterate(self):
        z0, z1 = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        out = mpe_extrapolate([z0, z1])
        assert np.array_equal(out, z0)

    def test_gamma_weights_sum_to_one(self):
        rng = np.random.default_rng(11)
        diffs = rng.standard_normal((10, 4))
        gamma = mpe_coefficients(diffs)
        assert gamma.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_exact_on_linear_sequences(self, kappa):
        # diagonal M with minimal polynomial degree == kappa
        rng = np.random.default_rng(kappa)
        eigs = np.concatenate(
            [np.linspace(0.2, 0.8, kappa), np.full(5 - kappa, 0.2)]
        )
        M = np.diag(eigs)
        b = rng.standard_normal(5)
        it = LinearIteration(M, b, rng.standard_normal(5))
        seq = [it.z0]
        for _ in range(kappa + 1):
            seq.append(it.step(seq[-1])[0])
        out = mpe_extrapolate(seq)
        assert np.linalg.norm(out - it.fixed_point) < 1e-10

    def test_degenerate_sum_signals_fallback(self):
        # arithmetic progression: equal difference vectors, sum(c) = 0
        z = np.array([0.0, 1.0])
        d = np.array([1.0, 1.0])
        assert mpe_extrapolate([z, z + d, z + 2 * d]) is None


class TestComplexIterates:
    """A complex iterate is paired as the real vector of its (re, im) parts."""

    def test_matches_block_packed_real_cycle(self):
        rng = np.random.default_rng(4)
        n, kappa = 16, 3
        basis = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        eigs = rng.uniform(0.3, 0.9, n) * np.exp(2j * np.pi * rng.random(n))
        M = basis @ np.diag(eigs) @ basis.conj().T  # contracting, complex
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cycle = [rng.standard_normal(n) + 1j * rng.standard_normal(n)]
        for _ in range(kappa + 1):
            cycle.append(M @ cycle[-1] + b)
        packed = mpe_extrapolate([np.concatenate([z.real, z.imag]) for z in cycle])
        expected = packed[:n] + 1j * packed[n:]
        got = mpe_extrapolate(cycle)
        assert np.iscomplexobj(got)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_reads_the_cycle_without_a_packed_copy(self):
        # stacking the cycle and its differences take 2x its bytes; a
        # packed real copy of the stack would take a third
        rng = np.random.default_rng(6)
        cycle = [rng.standard_normal(65536) + 1j * rng.standard_normal(65536) for _ in range(8)]
        nbytes = sum(z.nbytes for z in cycle)
        tracemalloc.start()
        try:
            mpe_extrapolate(cycle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * nbytes


class TestAcceleratedIterate:
    def test_mw1_matches_manual_trajectory(self):
        rng = np.random.default_rng(2)
        M = np.diag([0.9, 0.5, 0.1])
        it = LinearIteration(M, rng.standard_normal(3), rng.standard_normal(3))
        cfg = SolverConfig(alpha=None, tol=1e-9, max_iter=300, mw=1)
        res = accelerated_iterate(it, it.z0, cfg)
        z = it.z0
        for _ in range(res.iterations):
            z = it.step(z)[0]
        assert np.array_equal(res.z, z)
        assert res.converged

    def test_mw1_never_extrapolates(self, monkeypatch):
        def refuse(iterates):
            raise AssertionError("mw=1 must not extrapolate")

        monkeypatch.setattr(accel, "mpe_extrapolate", refuse)
        it = LinearIteration(np.diag([0.5, 0.2]), np.ones(2), np.zeros(2))
        res = accelerated_iterate(it, it.z0, SolverConfig(tol=1e-12, max_iter=100, mw=1))
        assert res.converged and res.cycle_ends == [] and res.mpe_fallbacks == 0

    def test_fallback_keeps_base_iterate(self):
        # each extrapolation is degenerate and the loop goes on from the
        # plain iterate; the fourth cycle ends at max_iter before
        # extrapolating
        it = Drift()
        res = accelerated_iterate(it, it.z0, SolverConfig(tol=1e-12, max_iter=12, mw=3))
        assert not res.converged and res.iterations == 12
        assert res.mpe_fallbacks == 3 and res.cycle_ends == []
        assert np.array_equal(res.z, np.full(2, 12.0))
        # no extrapolant row, so every row is one base iteration on
        assert res.history_iterations == list(range(13))

    def test_one_step_per_recorded_iterate(self):
        # the driver takes its start and steps every iterate once: after a
        # degenerate extrapolation it goes on from the step it already took
        drift = Drift()
        it = Recorder(drift)
        res = accelerated_iterate(it, drift.z0, SolverConfig(tol=1e-12, max_iter=12, mw=3))
        assert res.mpe_fallbacks == 3 and len(res.residual_history) == 13
        assert it.calls == ["step"] * len(res.residual_history)
        assert np.array_equal(drift.z0, np.zeros(2))  # the start is read, never written

    def test_restart_reaches_linear_fixed_point_fast(self):
        rng = np.random.default_rng(5)
        M = np.diag([0.95, 0.8, 0.6, 0.3, 0.1])
        it = LinearIteration(M, rng.standard_normal(5), rng.standard_normal(5))
        cfg = SolverConfig(alpha=None, tol=1e-11, max_iter=500, mw=6)
        res = accelerated_iterate(it, it.z0, cfg)
        # window spans the full minimal polynomial: one cycle suffices
        assert res.converged and res.iterations <= 12
        assert np.linalg.norm(res.z - it.fixed_point) < 1e-9


class TestContractionProperty:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(iteration=contractions(), mw=st.integers(1, 6))
    def test_driver_reaches_the_fixed_point(self, iteration, mw):
        tol = 1e-10
        it = Recorder(iteration)
        res = accelerated_iterate(it, iteration.z0, SolverConfig(tol=tol, max_iter=1000, mw=mw))
        assert res.converged
        assert np.linalg.norm(res.z - iteration.fixed_point) <= 10 * tol * (1 + 1e-6)
        assert it.calls == ["step"] * len(res.residual_history)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(iteration=contractions(), mw=st.integers(1, 6))
    def test_stall_test_never_stops_a_contraction(self, iteration, mw):
        # a base step shrinks the residual of a normal contraction at least
        # 0.9-fold, and an extrapolant's is at most that of its cycle's
        # last-but-one base iterate, so every STALL_WINDOW rows hold a drop:
        # the hook is never called, and the tested run is the untested one,
        # bit for bit
        cfg = SolverConfig(tol=1e-10, max_iter=1000, mw=mw)
        calls = []
        untested = accelerated_iterate(iteration, iteration.z0, cfg)
        tested = accelerated_iterate(iteration, iteration.z0, cfg,
                                     on_stall=lambda z, iterations: calls.append(iterations))
        assert tested.converged and calls == [] and tested.restart_row is None
        assert_same_record(tested, untested)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(iteration=contractions(), mw=st.integers(1, 6))
    def test_extrapolation_keeps_the_fixed_point(self, iteration, mw):
        # MPE weights sum to one, so a cycle at the fixed point stays there
        fixed_point = iteration.fixed_point
        assert np.array_equal(mpe_extrapolate([fixed_point] * (mw + 1)), fixed_point)


class TestStallStop:
    def test_unit_eigenvalue_stops_one_window_after_its_last_drop(self):
        # sqrt(1e-12 + 0.01^k): rows 1..6 each fall below half of the row
        # before (row 6 reads 1.41e-6 against 1.00e-5), no later row falls
        # below 0.71e-6, so the hook is called STALL_WINDOW rows after row
        # 6, once, with that row's iterate; returning None, it leaves the
        # run on the path it would have taken untested, to max_iter
        cfg = SolverConfig(tol=1e-10, max_iter=500, mw=1)
        untested = accelerated_iterate(Pinned(), np.zeros(2), cfg)
        calls = []

        def hook(z, iterations):
            calls.append((z.copy(), iterations))

        it = Recorder(Pinned())
        rec = accelerated_iterate(it, np.zeros(2), cfg, on_stall=hook)
        assert len(calls) == 1
        z, iterations = calls[0]
        assert iterations == 6 + accel.STALL_WINDOW
        assert np.array_equal(z, accelerated_iterate(Pinned(), np.zeros(2), SolverConfig(
            tol=1e-10, max_iter=iterations)).z)
        assert it.calls == ["step"] * len(rec.residual_history)
        assert not rec.converged and rec.iterations == 500 and rec.restart_row is None
        assert_same_record(rec, untested)

    def test_untested_run_is_not_stopped(self):
        rec = accelerated_iterate(Pinned(), np.zeros(2), SolverConfig(tol=1e-10, max_iter=100))
        assert rec.restart_row is None and rec.iterations == 100

    def test_hook_start_is_a_row_of_its_own(self):
        # the hook restarts the run from 0 where it stalls: the start is
        # stepped as a row of its own, counted with the base iteration
        # before it, and the run goes on from it, untested, within the same
        # budget
        cfg = SolverConfig(tol=1e-10, max_iter=100, mw=1)
        it = Recorder(Pinned())
        rec = accelerated_iterate(it, np.zeros(2), cfg, on_stall=lambda z, iterations: np.zeros(2))
        stall = 6 + accel.STALL_WINDOW
        whole = accelerated_iterate(Pinned(), np.zeros(2), cfg)
        tail = accelerated_iterate(Pinned(), np.zeros(2), SolverConfig(tol=1e-10, max_iter=100 - stall))
        assert rec.restart_row == stall + 1 and rec.iterations == 100 and not rec.converged
        assert rec.residual_history == whole.residual_history[:stall + 1] + tail.residual_history
        assert rec.m_history == whole.m_history[:stall + 1] + tail.m_history
        assert rec.history_iterations == list(range(stall + 1)) + list(range(stall, 101))
        assert np.array_equal(rec.z, tail.z)
        assert it.calls == ["step"] * len(rec.residual_history)


@pytest.fixture(scope="module")
def fig1_setting():
    params = ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=1.0)
    return params, Grid(l=64.0, n=4096)


class TestOnProfileSolve:
    def test_mpe_reduces_iterations(self, fig1_setting):
        params, grid = fig1_setting
        rep1 = solve_scalar(params, grid, SolverConfig(mw=1))
        rep3 = solve_scalar(params, grid, SolverConfig(mw=3))
        assert rep1.converged and rep3.converged
        assert rep3.iterations < rep1.iterations

    def test_same_fixed_point(self, fig1_setting):
        params, grid = fig1_setting
        rep1 = solve_scalar(params, grid, SolverConfig(mw=1))
        rep4 = solve_scalar(params, grid, SolverConfig(mw=4))
        diff = np.max(np.abs(rep1.profile.samples - rep4.profile.samples))
        assert diff < 1e-8

    def test_history_iterations_repeat_at_extrapolants(self, fig1_setting):
        params, grid = fig1_setting
        rep = solve_scalar(params, grid, SolverConfig(mw=3))
        counts = rep.history_iterations
        assert rep.cycle_ends and len(counts) == len(rep.residual_history)
        repeats = [i for i in range(1, len(counts)) if counts[i] == counts[i - 1]]
        assert repeats == rep.cycle_ends
        assert np.all(np.diff(counts) >= 0) and counts[-1] == rep.iterations

    def test_iteration_counts_saturate_at_residual_floor(self, fig1_setting):
        # at a tolerance near the discrete residual floor the accelerated
        # widths converge in nearly equal iteration counts (no relevant
        # improvement from larger windows, as observed at the figure's
        # plotted depths)
        params, grid = fig1_setting
        its = {}
        for mw in (4, 6):
            rep = solve_scalar(params, grid, SolverConfig(mw=mw, tol=1e-11, max_iter=200))
            assert rep.converged
            its[mw] = rep.iterations
        assert abs(its[4] - its[6]) <= 6

    def test_cycle_ends_recorded(self, fig1_setting):
        params, grid = fig1_setting
        rep = solve_scalar(params, grid, SolverConfig(mw=3))
        assert rep.cycle_ends, "restarted cycles should be recorded"
        assert all(0 < idx < len(rep.residual_history) for idx in rep.cycle_ends)
