"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion NN PASS/FAIL` line (run pytest with -s to
see them live) and then asserts, so the suite fails loudly when a
criterion does.  Shared expensive artifacts (the speed suite profiles and
the validation evolution) are computed once per session.
"""

import time

import numpy as np
import pytest

from fnlswaves.analysis import decay_slope, phase_plane, speed_amplitude_scan
from fnlswaves.evolve import EvolveConfig, run as evolve_run
from fnlswaves.params import ProblemParams, limiting_speed, linear_phase_params, phase_slope
from fnlswaves.petviashvili import (
    SolverConfig,
    initial_iterate,
    reflection_conjugate_defect,
    solve_scalar,
)
from fnlswaves.spectral import ComplexField, Grid, RealField, apply_multiplier, m_symbol


def params34(lambda2, sigma=1.0, s=0.75):
    return ProblemParams(s=s, sigma=sigma, lambda1=1.0, lambda2=lambda2)


def report_line(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="module")
def grid64():
    return Grid(l=64.0, n=4096)


@pytest.fixture(scope="module")
def fig1_reports(grid64):
    return {c: solve_scalar(params34(c), grid64) for c in (0.5, 1.0, 1.5)}


@pytest.fixture(scope="module")
def validation_evolution():
    grid = Grid(l=64.0, n=2048)  # spatial step h = 6.25e-2
    rep = solve_scalar(params34(1.0), grid, SolverConfig(tol=1e-12, max_iter=600))
    assert rep.converged
    cfg = EvolveConfig(dt=0.01, t_end=10.0, nl_tol=1e-13, nl_max=100)
    return evolve_run(rep.envelope, params34(1.0), cfg)


def test_criterion_01_classical_limit():
    grid = Grid(l=32.0, n=1024)
    t0 = time.perf_counter()
    rep = solve_scalar(ProblemParams(s=1.0, sigma=1.0, lambda1=1.0, lambda2=0.0), grid)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(rep.profile.samples - np.sqrt(2.0) / np.cosh(grid.x))))
    ok = rep.converged and err < 1e-8 and elapsed < 5.0
    assert report_line(
        1, ok, f"classical soliton: max error {err:.2e} (< 1e-8), {elapsed:.2f} s (< 5 s)"
    )


def test_criterion_02_limiting_speed():
    c = limiting_speed(0.75, 1.0)
    ok = abs(c - 1.8899) <= 5e-4
    assert report_line(2, ok, f"limiting speed c(1) = {c:.6f} (1.8899 ± 5e-4)")


def test_criterion_03_convergence_suite(fig1_reports):
    details = []
    ok = True
    for c, rep in sorted(fig1_reports.items()):
        good = (
            rep.converged
            and rep.final_residual <= 1e-10
            and rep.iterations <= 500
            and abs(rep.m_history[-1] - 1.0) <= 1e-8
        )
        ok = ok and good
        details.append(
            f"c={c}: {rep.iterations} its, residual {rep.final_residual:.1e}, "
            f"|m-1| {abs(rep.m_history[-1] - 1.0):.1e}"
        )
    assert report_line(3, ok, "; ".join(details))


def test_criterion_04_mpe_effect(grid64):
    its = {}
    for mw in (1, 3, 4, 6):
        rep = solve_scalar(params34(1.0), grid64, SolverConfig(mw=mw))
        assert rep.converged
        its[mw] = rep.iterations
    improvement = (its[4] - its[6]) / its[4]
    clause1 = its[3] < its[1]
    clause2 = improvement < 0.10
    ok = clause1 and clause2
    assert report_line(
        4,
        ok,
        f"iterations mw1={its[1]} mw3={its[3]} mw4={its[4]} mw6={its[6]}; "
        f"mw3<mw1: {clause1}; mw6-over-mw4 improvement {improvement:.1%} (< 10%)",
    ), (
        "restarted MPE with the textbook extrapolant sum_j gamma_j x_j (accel.py) "
        "keeps gaining from mw=4 to mw=6 and levels off only from mw=7; restart "
        "granularity does not explain it, since a sliding window still gains "
        "15.8%. Only the shifted extrapolant sum_j gamma_j x_{j+1} saturates, "
        "and PAPER.md does not say which form or iteration count the paper "
        "used; counts and verdict in DECISIONS.md"
    )


def test_criterion_05_decay_exponent(fig1_reports):
    details = []
    ok = True
    for c, rep in sorted(fig1_reports.items()):
        fit = decay_slope(rep.profile, window=(10.0, 50.0))
        good = abs(fit.slope - (-2.5)) <= 0.15
        ok = ok and good
        details.append(f"c={c}: slope {fit.slope:.3f}")
    assert report_line(5, ok, "; ".join(details) + " (target -2.5 ± 0.15)"), (
        "the fit models the periodic images sum_k |x + 2lk|^{-p} because they "
        "bias a straight log-log line flat (an exact periodized |x|^{-2.5} "
        "fits -2.29 on this grid and window), so a miss here means the "
        "computed tail itself departs from |x|^{-(2s+1)}; see DECISIONS.md"
    )


def test_criterion_06_subfamily_consistency(grid64, fig1_reports):
    details = []
    ok = True
    for c, rep in sorted(fig1_reports.items()):
        seed = initial_iterate(grid64, phase_slope(0.75, c))
        coupled = solve_scalar(params34(c), grid64, seed=seed)
        diff = float(np.max(np.abs(np.abs(coupled.envelope.samples) - rep.profile.samples)))
        good = coupled.converged and diff <= 1e-6
        ok = ok and good
        details.append(f"c={c}: modulus diff {diff:.1e}")
    assert report_line(6, ok, "; ".join(details) + " (<= 1e-6)")


def test_criterion_07_evenness_dichotomy(grid64, fig1_reports):
    defects = {c: reflection_conjugate_defect(rep.profile.samples)
               for c, rep in fig1_reports.items()}
    quad = solve_scalar(params34(1.0), grid64, seed=initial_iterate(grid64, "quadratic"))
    quad_defect = reflection_conjugate_defect(quad.profile.samples)
    ok = all(d < 1e-6 for d in defects.values()) and quad_defect > 1e-2
    assert report_line(
        7,
        ok,
        "linear-phase defects "
        + ", ".join(f"{d:.1e}" for _, d in sorted(defects.items()))
        + f" (< 1e-6); theta=x^2 defect {quad_defect:.2e} (> 1e-2)",
    )


def test_criterion_08_evolution_validation(validation_evolution):
    evo = validation_evolution
    mass_drift = float(np.max(np.abs(evo.mass - evo.mass[0])))
    amp_err = np.abs(evo.amplitude - evo.amplitude[0])
    slope = float(np.polyfit(evo.times, amp_err, 1)[0])
    speed = evo.peak_speed()
    ok = (
        evo.aborted is None
        and mass_drift <= 1e-9
        and abs(slope) < 1e-4
        and abs(speed - 1.0) <= 0.01
    )
    assert report_line(
        8,
        ok,
        f"I1 drift {mass_drift:.1e} (<= 1e-9); amplitude error max {amp_err.max():.1e}, "
        f"trend {slope:.1e}/t (|.| < 1e-4); peak speed {speed:.4f} (1 ± 1%)",
    )


def test_criterion_09_speed_amplitude_monotonicity(grid64):
    speeds = [0.25 * k for k in range(1, 8)]
    result = speed_amplitude_scan(params34(0.25), speeds, grid64)
    ok = result.all_converged and result.amplitudes_increase_with_gap()
    amps = ", ".join(f"{r.amplitude:.3f}" for r in result.rows)
    assert report_line(9, ok, f"amplitudes over speeds 0.25..1.75: {amps} (strictly increasing with gap)")


def dft_multiplier_oracle(grid, symbol_values, samples):
    """O(n^2) direct DFT summation, independent of the fft library path."""
    x, xi, n = grid.x, grid.xi, grid.n
    coeffs = np.array([np.sum(samples * np.exp(-1j * k * x)) for k in xi])
    out = np.array(
        [np.sum(symbol_values * coeffs * np.exp(1j * xi * xj)) / n for xj in x]
    )
    return out.real if np.isrealobj(samples) else out


def test_criterion_10_operator_oracle():
    worst = 0.0
    for n in (16, 64, 256):
        grid = Grid(l=8.0, n=n)
        rng = np.random.default_rng(n)
        lp = linear_phase_params(params34(1.0))
        op = m_symbol(lp, grid)
        for samples in (
            rng.standard_normal(n),
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
        ):
            f = RealField(grid, samples) if np.isrealobj(samples) else ComplexField(grid, samples)
            fast = apply_multiplier(op, f).samples
            slow = dft_multiplier_oracle(grid, op.values, samples)
            worst = max(worst, float(np.linalg.norm(fast - slow) / max(1.0, np.linalg.norm(slow))))
    ok = worst <= 1e-12
    assert report_line(10, ok, f"fft path vs direct summation: worst relative error {worst:.2e} (<= 1e-12)")


def test_criterion_11_tail_oscillations(grid64, fig1_reports):
    near_limit = solve_scalar(params34(1.75), grid64)
    osc_fast = phase_plane(near_limit.profile).tail_oscillations
    osc_slow = phase_plane(fig1_reports[0.5].profile).tail_oscillations
    ok = osc_fast >= 1 and osc_slow == 0
    assert report_line(
        11, ok, f"tail oscillations: c=1.75 -> {osc_fast} (>= 1); c=0.5 -> {osc_slow} (= 0)"
    )
