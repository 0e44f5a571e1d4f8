import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fnlswaves import __version__
from fnlswaves.params import ProblemParams
from fnlswaves.petviashvili import initial_iterate
from fnlswaves.spectral import (
    ComplexField,
    Grid,
    MultiplierOp,
    RealField,
    apply_multiplier,
    fractional_symbol,
    invariants,
    load_field,
    m_symbol,
    mass,
    profile_operator,
    save_field,
    write_csv,
)
from fnlswaves.spectral import _BLOCK_ROWS


def fig1_params(lambda2=1.0, s=0.75):
    return ProblemParams(s=s, sigma=1.0, lambda1=1.0, lambda2=lambda2)


def integer_mode_grid(n=64):
    """Grid on (-pi, pi): the wavenumbers are the integers -n/2 .. n/2-1."""
    return Grid(l=np.pi, n=n)


def mode(grid, xi):
    """Index of the grid mode closest to the wavenumber xi."""
    return int(np.argmin(np.abs(grid.xi - xi)))


def dft_multiplier_oracle(grid, symbol_values, samples):
    """O(n^2) direct DFT summation, independent of the fft path.

    out_j = (1/n) sum_k sym(xi_k) sum_m f_m exp(i xi_k (x_j - x_m)),
    with the output re-projected onto real samples for real input,
    mirroring the operator's convention on real fields.
    """
    x, xi = grid.x, grid.xi
    n = grid.n
    out = np.zeros(n, dtype=complex)
    coeffs = np.array([np.sum(samples * np.exp(-1j * k * x)) for k in xi])
    for j in range(n):
        out[j] = np.sum(symbol_values * coeffs * np.exp(1j * xi * x[j])) / n
    if np.isrealobj(samples):
        return out.real
    return out


class TestGrid:
    def test_geometry(self):
        g = Grid(l=10.0, n=64)
        assert g.h * g.n == 2.0 * g.l
        assert g.x[0] == -10.0
        assert g.x[g.zero_index()] == 0.0
        xi = np.sort(g.xi)
        assert xi[0] == pytest.approx(-np.pi * (g.n // 2) / g.l)

    def test_wavenumbers_symmetric_but_nyquist(self):
        g = Grid(l=5.0, n=32)
        xi = g.xi
        nyq = g.n // 2
        others = np.delete(xi, [0, nyq])
        assert set(np.round(others, 12)) == set(np.round(-others, 12))
        assert xi[nyq] == pytest.approx(-np.pi * (g.n // 2) / g.l)

    def test_coordinate_arrays_are_cached_read_only(self):
        g = Grid(l=5.0, n=32)
        for name in ("x", "xi", "xi_odd"):
            arr = getattr(g, name)
            assert getattr(g, name) is arr
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        assert g.xi_odd[g.n // 2] == 0.0
        assert g.xi[g.n // 2] != 0.0

    def test_equal_grids_share_their_arrays(self):
        # a nested solve builds a new Grid for each level, and the levels of
        # the next solve on the same (l, n) build no coordinate array
        first, again = Grid(l=5.0, n=32), Grid(l=5.0, n=32)
        for name in ("x", "xi", "xi_odd"):
            assert getattr(again, name) is getattr(first, name)
        assert Grid(l=5.0, n=64).xi is not first.xi

    def test_cache_leaves_equality_and_hash_alone(self):
        cold, warm = Grid(l=5.0, n=32), Grid(l=5.0, n=32)
        _ = (warm.x, warm.xi, warm.xi_odd)
        assert cold == warm and hash(cold) == hash(warm)
        assert {warm: 1}[cold] == 1
        assert repr(warm) == "Grid(l=5.0, n=32)"
        assert warm != Grid(l=5.0, n=64)
        with pytest.raises(AttributeError):
            warm.n = 64

    @pytest.mark.parametrize("n", [7, 9, 4, 2])
    def test_bad_n(self, n):
        with pytest.raises(ValueError):
            Grid(l=1.0, n=n)

    @pytest.mark.parametrize("l", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_l(self, l):
        with pytest.raises(ValueError, match="l must be positive and finite"):
            Grid(l=l, n=64)


class TestFields:
    def test_round_trip(self):
        g = Grid(l=8.0, n=128)
        rng = np.random.default_rng(0)
        f = RealField(g, rng.standard_normal(g.n))
        back = np.fft.ifft(f.spectrum()).real
        assert np.linalg.norm(back - f.samples) <= 1e-12 * np.linalg.norm(f.samples)

    def test_real_spectrum_conjugate_symmetric(self):
        g = Grid(l=8.0, n=64)
        rng = np.random.default_rng(1)
        spec = RealField(g, rng.standard_normal(g.n)).spectrum()
        paired = spec[(-np.arange(g.n)) % g.n]
        assert np.allclose(spec, np.conj(paired), atol=1e-10)

    def test_immutability(self):
        g = Grid(l=2.0, n=16)
        f = RealField(g, np.ones(16))
        with pytest.raises(ValueError):
            f.samples[0] = 3.0

    def test_plancherel(self):
        g = Grid(l=4.0, n=256)
        rng = np.random.default_rng(2)
        f = ComplexField(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        assert np.linalg.norm(f.samples) == pytest.approx(
            np.linalg.norm(f.spectrum()) / np.sqrt(g.n), rel=1e-12
        )

    @pytest.mark.parametrize("cls", [RealField, ComplexField], ids=lambda cls: cls.__name__)
    def test_spectrum_cached_read_only(self, cls):
        g = Grid(l=4.0, n=128)
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        f = cls(g, samples if cls is ComplexField else samples.real)
        spec = f.spectrum()
        assert spec is f.spectrum()
        assert not spec.flags.writeable
        assert np.array_equal(spec, np.fft.fft(f.samples))

    def test_equality_compares_samples(self):
        g = Grid(l=8.0, n=8)
        seed = initial_iterate(g)
        assert seed == initial_iterate(g)
        assert seed != ComplexField(g, 2.0 * seed.samples)
        assert seed != ComplexField(Grid(l=4.0, n=8), seed.samples)
        assert RealField(g, np.ones(8)) == RealField(g, np.ones(8))
        assert RealField(g, np.ones(8)) != ComplexField(g, np.ones(8))

    def test_equality_never_reads_the_spectrum(self):
        g = Grid(l=8.0, n=16)
        a, b = ComplexField(g, np.arange(16.0)), ComplexField(g, np.arange(16.0))
        a.spectrum()
        assert a == b and b == a
        assert "_spectrum" not in vars(b)

    def test_with_spectrum_owns_its_samples(self):
        g = Grid(l=4.0, n=64)
        rng = np.random.default_rng(6)
        samples = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        values = samples.copy()
        spec = np.fft.fft(samples)
        f = ComplexField.with_spectrum(g, samples, spec)
        assert f.samples is samples and f.spectrum() is spec
        assert not f.samples.flags.writeable and not spec.flags.writeable
        with pytest.raises(ValueError):
            f.samples[0] = 0.0
        assert f == ComplexField(g, values)

    def test_with_spectrum_checks_its_samples(self):
        g = Grid(l=4.0, n=16)
        for bad in (np.ones(16), np.ones(8, dtype=complex)):
            with pytest.raises(ValueError, match="16 complex samples"):
                ComplexField.with_spectrum(g, bad, np.ones(16, dtype=complex))

    def test_fields_are_unhashable(self):
        g = Grid(l=8.0, n=8)
        for f in (RealField(g, np.ones(8)), ComplexField(g, np.ones(8))):
            with pytest.raises(TypeError):
                hash(f)


class TestFractionalSymbol:
    def test_built_once_per_grid_and_s(self):
        g = Grid(l=8.0, n=64)
        sym = fractional_symbol(g, 0.75)
        assert sym is fractional_symbol(Grid(l=8.0, n=64), 0.75)
        assert not sym.flags.writeable
        assert np.array_equal(sym, np.abs(g.xi) ** 1.5)

    def test_operator_reads_it(self):
        p, g = fig1_params(), Grid(l=8.0, n=64)
        expected = np.abs(g.xi) ** (2.0 * p.s) + p.lambda1 - p.lambda2 * g.xi_odd
        symbol = profile_operator(p, g)
        assert np.array_equal(symbol, expected)
        assert not symbol.flags.writeable


class TestApplyMultiplier:
    def test_constant_field_annihilated(self):
        # m(0) = 0 annihilates constants; L(0) = lambda1 only rescales them
        g = Grid(l=4.0, n=64)
        p = fig1_params()
        const = RealField(g, np.full(g.n, 2.5))
        out = apply_multiplier(m_symbol(p, g), const)
        assert np.max(np.abs(out.samples)) < 1e-13
        out = apply_multiplier(MultiplierOp(g, profile_operator(p, g)), const)
        assert np.max(np.abs(out.samples - p.lambda1 * 2.5)) < 1e-13

    def test_fourier_eigenfunction(self):
        g = Grid(l=4.0, n=64)
        p = fig1_params()
        op = MultiplierOp(g, profile_operator(p, g))
        k = g.xi[5]
        f = ComplexField(g, np.exp(1j * k * g.x))
        out = apply_multiplier(op, f)
        expected = abs(k) ** (2 * p.s) + p.lambda1 - p.lambda2 * k
        assert np.allclose(out.samples, expected * f.samples, atol=1e-11)

    def test_sech_against_direct_summation(self):
        g = Grid(l=16.0, n=256)
        op = MultiplierOp(g, profile_operator(fig1_params(), g))
        f = RealField(g, 1.0 / np.cosh(g.x))
        fast = apply_multiplier(op, f).samples
        slow = dft_multiplier_oracle(g, op.values, f.samples)
        assert np.linalg.norm(fast - slow) <= 1e-12 * max(1.0, np.linalg.norm(slow))

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_random_fields_against_oracle(self, n):
        g = Grid(l=8.0, n=n)
        rng = np.random.default_rng(n)
        p = fig1_params()
        fr = RealField(g, rng.standard_normal(n))
        fc = ComplexField(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for op in (m_symbol(p, g), MultiplierOp(g, profile_operator(p, g))):
            for f in (fr, fc):
                fast = apply_multiplier(op, f).samples
                slow = dft_multiplier_oracle(g, op.values, f.samples)
                assert np.linalg.norm(fast - slow) <= 1e-12 * max(1.0, np.linalg.norm(slow))

    def test_linearity(self):
        g = Grid(l=8.0, n=128)
        p = ProblemParams(s=0.6, sigma=1.0, lambda1=1.0, lambda2=0.5)
        op = MultiplierOp(g, profile_operator(p, g))
        rng = np.random.default_rng(5)
        f = rng.standard_normal(g.n)
        h = rng.standard_normal(g.n)
        a, b = 1.7, -0.4
        lhs = apply_multiplier(op, RealField(g, a * f + b * h)).samples
        rhs = a * apply_multiplier(op, RealField(g, f)).samples + b * apply_multiplier(
            op, RealField(g, h)
        ).samples
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)

    def test_grid_mismatch(self):
        g = Grid(l=4.0, n=64)
        op = MultiplierOp(g, profile_operator(fig1_params(), g))
        f = RealField(Grid(l=4.0, n=128), np.zeros(128))
        with pytest.raises(ValueError, match="grid mismatch"):
            apply_multiplier(op, f)


class TestMSymbol:
    """m evaluated on grid modes that hit the wavenumbers of interest."""

    def test_zero_at_origin(self):
        op = m_symbol(fig1_params(), Grid(l=8.0, n=64))
        assert op.values[0] == pytest.approx(0.0, abs=1e-15)

    def test_classical_reduces_to_xi_squared(self):
        p = fig1_params(s=1.0)
        g = Grid(l=8.0, n=64)
        op = m_symbol(p, g)
        paired = np.arange(g.n) != g.n // 2  # the drift is zeroed at Nyquist
        assert np.allclose(op.values[paired], g.xi[paired] ** 2, atol=1e-12)

    def test_value_at_one(self):
        g = integer_mode_grid()
        op = m_symbol(fig1_params(), g)
        expected = abs(1.0 + 4.0 / 9.0) ** 1.5 - 1.0 - (4.0 / 9.0) ** 1.5
        assert op.values[mode(g, 1.0)] == pytest.approx(expected, rel=1e-14)

    def test_stationary_at_origin(self):
        p = fig1_params()
        for eps in (1e-2, 1e-3, 1e-4):
            g = Grid(l=np.pi / eps, n=64)  # first modes at xi = +-eps
            op = m_symbol(p, g)
            diff = (op.values[1] - op.values[-1]) / (2 * eps)
            assert abs(diff) < 10.0 * eps  # m'(0) = 0, odd part is O(eps^3)

    def test_positive_shifted_on_grid(self):
        for lam2 in (0.5, 1.0, 1.5, 1.8):
            p = fig1_params(lam2)
            op = m_symbol(p, Grid(l=64.0, n=1024))
            assert np.all(op.values + p.a > 0.0)


class TestQSymbol:
    """The coupled 2x2 operator Q is diagonal in u = v + i w: its
    eigenvalues at xi are L(xi) and L(-xi), checked on profile_operator."""

    @staticmethod
    def eigenvalue_pair(p, g):
        vals = profile_operator(p, g)
        mirrored = vals[(-np.arange(g.n)) % g.n]  # L(-xi) off the Nyquist mode
        return np.minimum(vals, mirrored), np.maximum(vals, mirrored)

    def test_eigenvalues_at_origin(self):
        g = Grid(l=8.0, n=64)
        lo, hi = self.eigenvalue_pair(fig1_params(), g)
        assert lo[0] == pytest.approx(1.0) and hi[0] == pytest.approx(1.0)

    def test_zero_speed_diagonal(self):
        g = Grid(l=8.0, n=64)
        p = fig1_params(0.0)
        vals = profile_operator(p, g)
        assert np.array_equal(vals, np.abs(g.xi) ** (2 * p.s) + p.lambda1)
        lo, hi = self.eigenvalue_pair(p, g)
        assert np.allclose(lo, hi)

    def test_example_at_xi_one(self):
        g = integer_mode_grid()
        vals = profile_operator(fig1_params(), g)
        assert vals[mode(g, 1.0)] == pytest.approx(1.0, rel=1e-12)
        assert vals[mode(g, -1.0)] == pytest.approx(3.0, rel=1e-12)

    def test_hermitian_everywhere(self):
        # a real symbol is a self-adjoint operator: <L f, h> = <f, L h>
        g = Grid(l=8.0, n=64)
        op = MultiplierOp(g, profile_operator(fig1_params(1.3), g))
        assert np.isrealobj(op.values)
        rng = np.random.default_rng(4)
        f, h = (ComplexField(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
                for _ in range(2))
        lhs = np.vdot(apply_multiplier(op, f).samples, h.samples)
        rhs = np.vdot(f.samples, apply_multiplier(op, h).samples)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_positive_definite_inside_window(self):
        # L > 0 on every grid mode, up to a speed just below the limit
        for lam2 in (0.5, 1.0, 1.5, 1.85, 1.889):
            lo, _ = self.eigenvalue_pair(fig1_params(lam2), Grid(l=64.0, n=2048))
            assert np.all(lo > 0.0)

    def test_eigenvalue_bounds(self):
        # alpha0 + alpha1 |xi|^2s < lambda_pm < 2 lambda1 + 2 |xi|^2s
        p = fig1_params(1.5)
        g = Grid(l=32.0, n=1024)
        lo, hi = self.eigenvalue_pair(p, g)
        xi2s = np.abs(g.xi) ** (2 * p.s)
        upper = 2.0 * p.lambda1 + 2.0 * xi2s
        assert np.all(hi < upper)
        alpha1 = 0.5 * float(np.min(lo / (p.lambda1 + xi2s)))
        assert alpha1 > 0.0
        lower = alpha1 * p.lambda1 + alpha1 * xi2s
        assert np.all(lower < lo)

    def test_pair_application_real(self):
        # a hand-built Q acting on (v, w) equals L acting on v + i w
        p = fig1_params()
        g = Grid(l=8.0, n=64)
        rng = np.random.default_rng(9)
        v, w = rng.standard_normal(g.n), rng.standard_normal(g.n)
        diag = p.lambda1 + np.abs(g.xi) ** (2 * p.s)
        off = -1j * p.lambda2 * g.xi_odd
        sv, sw = np.fft.fft(v), np.fft.fft(w)
        qv = np.fft.ifft(diag * sv + off * sw).real
        qw = np.fft.ifft(np.conj(off) * sv + diag * sw).real
        out = apply_multiplier(MultiplierOp(g, profile_operator(p, g)), ComplexField(g, v + 1j * w))
        assert np.allclose(out.samples, qv + 1j * qw, atol=1e-12)


def physical_momentum(u):
    """(h/2) sum (v w_x - w v_x) with spectral derivatives in x, the
    physical-space form the Parseval sum replaces."""
    g = u.grid

    def dx(a):
        return np.fft.ifft(1j * g.xi_odd * np.fft.fft(a)).real

    return 0.5 * g.h * float(np.sum(u.v * dx(u.w) - u.w * dx(u.v)))


def physical_hamiltonian(u, s, sigma):
    """h sum (|D|^s v)^2/2 + (|D|^s w)^2/2 - |u|^{2 sigma + 2}/(2 sigma + 2)."""
    g = u.grid
    sym = np.abs(g.xi) ** s
    dv = np.fft.ifft(sym * np.fft.fft(u.v)).real
    dw = np.fft.ifft(sym * np.fft.fft(u.w)).real
    dens = 0.5 * (dv ** 2 + dw ** 2) - (u.v ** 2 + u.w ** 2) ** (sigma + 1.0) / (2.0 * sigma + 2.0)
    return g.h * float(np.sum(dens))


class TestInvariants:
    @pytest.mark.parametrize("s", [0.6, 0.75, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parseval_matches_physical_random(self, seed, s):
        # random complex samples plus a strong Nyquist mode (-1)^j
        g = Grid(l=16.0, n=256)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        u = ComplexField(g, z + (0.8 - 0.3j) * (-1.0) ** np.arange(g.n))
        _, i2, h = invariants(u, s=s, sigma=1.0)[:3]
        assert i2 == pytest.approx(physical_momentum(u), rel=1e-13)
        assert h == pytest.approx(physical_hamiltonian(u, s, 1.0), rel=1e-13)

    @pytest.mark.parametrize("s", [0.6, 0.75, 1.0])
    def test_parseval_matches_physical_modulated_sech(self, s):
        g = Grid(l=16.0, n=256)
        u = ComplexField(g, (1.0 / np.cosh(g.x)) * np.exp(0.7j * g.x))
        _, i2, h = invariants(u, s=s, sigma=1.0)[:3]
        assert i2 == pytest.approx(physical_momentum(u), rel=1e-13)
        assert h == pytest.approx(physical_hamiltonian(u, s, 1.0), rel=1e-13)

    def test_real_field_has_zero_momentum(self):
        g = Grid(l=16.0, n=256)
        u = ComplexField(g, (1.0 / np.cosh(g.x)).astype(complex))
        i2 = invariants(u, s=0.75, sigma=1.0).momentum
        assert abs(i2) < 1e-13

    def test_modulated_sech(self):
        g = Grid(l=32.0, n=1024)
        A = 0.7
        u = ComplexField(g, (1.0 / np.cosh(g.x)) * np.exp(1j * A * g.x))
        i1, i2 = invariants(u, s=0.75, sigma=1.0)[:2]
        assert i1 == pytest.approx(1.0, abs=1e-10)
        assert i2 == pytest.approx(A, abs=1e-10)

    def test_zero_field(self):
        g = Grid(l=4.0, n=32)
        u = ComplexField(g, np.zeros(32, dtype=complex))
        rec = invariants(u, s=0.75, sigma=1.0)
        assert rec[:3] == (0.0, 0.0, 0.0) and rec.amplitude == 0.0

    def test_classical_hamiltonian_value(self):
        # H(sech) at s=1, sigma=1: int(sech'^2)/2 - int(sech^4)/4 = 1/3 - 1/3
        g = Grid(l=32.0, n=1024)
        u = ComplexField(g, (1.0 / np.cosh(g.x)).astype(complex))
        h = invariants(u, s=1.0, sigma=1.0).hamiltonian
        assert h == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("s, sigma", [(0.6, 1.0), (0.75, 2.0), (1.0, 0.5)])
    def test_one_pass_agrees_with_the_wrappers(self, s, sigma):
        # the mass against its one-line reader, the momentum and the
        # Hamiltonian against their physical-space forms
        g = Grid(l=16.0, n=256)
        rng = np.random.default_rng(5)
        u = ComplexField(g, (1.0 / np.cosh(g.x)) * np.exp(0.7j * g.x)
                         + 1e-3 * (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)))
        rec = invariants(u, s=s, sigma=sigma)
        assert rec.mass == pytest.approx(mass(u), rel=1e-14)
        assert rec.momentum == pytest.approx(physical_momentum(u), rel=1e-13)
        assert rec.hamiltonian == pytest.approx(physical_hamiltonian(u, s, sigma), rel=1e-13)

    def test_peak_interpolates_the_modulus_maximum(self):
        # |u| = sech(x - x0) with x0 between grid points: the parabola
        # through the three samples around the grid maximum finds x0 to O(h^3)
        g = Grid(l=16.0, n=1024)
        x0 = 1.3 * g.h + 0.37
        u = ComplexField(g, np.exp(0.4j * g.x) / np.cosh(g.x - x0))
        rec = invariants(u, s=0.75, sigma=1.0)
        assert rec.peak_x == pytest.approx(x0, abs=g.h ** 2)
        assert rec.amplitude == pytest.approx(1.0, abs=g.h ** 2)
        assert rec.amplitude >= np.max(np.abs(u.samples))


# --------------------------------------------------------------------------
# Reference implementations of the file layer, one value and one line at a
# time: the csv-module table writer, the line-by-line snapshot writer and the
# line-by-line snapshot reader.  The bulk writers must write their bytes, and
# the bulk reader must accept, return and reject as the line reader does.
# --------------------------------------------------------------------------

def oracle_write_csv(path, meta: dict, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# fnlswaves {__version__}\n")
        for k, v in meta.items():
            fh.write(f"# {k} = {v}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["%.17e" % v if isinstance(v, float) else v for v in row])


def oracle_save_field(path, f, metadata: dict | None = None) -> None:
    is_complex = isinstance(f, ComplexField)
    lines = ["# fnlswaves-field 1"]
    header = {"field_type": "complex" if is_complex else "real",
              "l": repr(f.grid.l), "n": f.grid.n}
    if metadata:
        header.update(metadata)
    for k, v in header.items():
        lines.append(f"# {k} = {v}")
    if is_complex:
        for z in f.samples:
            lines.append("%.17e %.17e" % (z.real, z.imag))
    else:
        for v in f.samples:
            lines.append("%.17e" % v)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def oracle_load_field(path):
    meta: dict[str, str] = {}
    rows = []
    try:
        with open(path) as fh:
            first = fh.readline().strip()
            if not first.startswith("# fnlswaves-field"):
                raise ValueError("not a field snapshot")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, val = line[1:].partition("=")
                    meta[key.strip()] = val.strip()
                else:
                    rows.append([float(tok) for tok in line.split()])
        missing = [k for k in ("field_type", "l", "n") if k not in meta]
        if missing:
            raise ValueError(f"snapshot header lacks {', '.join(missing)}")
        columns = {"real": 1, "complex": 2}.get(meta["field_type"])
        if columns is None:
            raise ValueError(f"unknown field_type {meta['field_type']!r}")
        if not rows:
            raise ValueError("snapshot has no sample rows")
        data = np.asarray(rows)
        if data.ndim != 2 or data.shape[1] < columns:
            raise ValueError(f"{meta['field_type']} snapshot needs {columns} columns per row")
        if not np.all(np.isfinite(data[:, :columns])):
            raise ValueError("snapshot has a non-finite sample")
        grid = Grid(l=float(meta["l"]), n=int(meta["n"]))
        if columns == 2:
            fld = ComplexField(grid, data[:, 0] + 1j * data[:, 1])
        else:
            fld = RealField(grid, data[:, 0])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    return fld, meta


# Floats whose text is easy to get wrong: signed zero, nan, infinities, the
# smallest subnormal and the largest finite double.
SPECIAL_FLOATS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308)
# Row counts around the writers' block size.
ROW_COUNTS = (0, 1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1, 4096)


def drawn_floats(rng, n: int) -> np.ndarray:
    """n doubles over the whole exponent range, a quarter of them special."""
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n)
    special = rng.random(n) < 0.25
    vals[special] = rng.choice(SPECIAL_FLOATS, int(special.sum()))
    return vals


def drawn_column(kind: str, rng, n: int):
    """A column of one kind, as a caller might hold it."""
    if kind in ("int", "np.int64"):
        ints = rng.integers(-2 ** 63, 2 ** 63 - 1, n)
        return ints.tolist() if kind == "int" else list(ints)
    if kind == "bool":
        return (rng.random(n) < 0.5).tolist()
    vals = drawn_floats(rng, n)
    return {"float": vals.tolist(), "np.float64": list(vals), "array": vals}[kind]


header_values = st.one_of(st.floats(), st.integers(), st.booleans(),
                          st.text(alphabet="ab =#,\"\tλ", max_size=6))


class TestSnapshots:
    def test_complex_round_trip(self, tmp_path):
        g = Grid(l=8.0, n=64)
        rng = np.random.default_rng(4)
        f = ComplexField(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        path = tmp_path / "field.dat"
        save_field(path, f, metadata={"s": 0.75, "sigma": 1.0})
        back, meta = load_field(path)
        assert isinstance(back, ComplexField)
        assert back.grid == g
        assert np.array_equal(back.samples, f.samples)
        assert meta["s"] == "0.75"

    def test_real_round_trip(self, tmp_path):
        g = Grid(l=8.0, n=64)
        f = RealField(g, 1.0 / np.cosh(g.x))
        path = tmp_path / "field.dat"
        save_field(path, f)
        back, _ = load_field(path)
        assert isinstance(back, RealField)
        assert np.array_equal(back.samples, f.samples)

    @st.composite
    def _snapshot_text(draw):
        # header keys dropped, repeated or given wild values, and rows whose
        # count and tokens vary; sane values come often enough that many
        # texts load, and a wild token then sits in a loadable snapshot
        first = draw(st.sampled_from(["# fnlswaves-field 1"] * 6 + ["# fnlswaves-field",
                                                                   "fnlswaves-field 1"]))
        header = {
            "field_type": ["real", "complex"] * 3 + ["vector", ""],
            "l": ["8.0"] * 6 + ["0", "-8.0", "nan", "inf", "1e400", "x"],
            "n": ["8"] * 6 + ["7", "0", "-8", "8.0", "x"],
            "s": ["0.75", "", "= 1"],
        }
        lines = [first]
        for key, values in header.items():
            for _ in range(draw(st.sampled_from([1, 1, 1, 1, 0, 2]))):
                lines.append(f"# {key} = {draw(st.sampled_from(values))}")
        token = st.sampled_from(["1.0", "-2.5e-03", "0", "1e-300", "1e308", "nan", "-nan",
                                 "inf", "-inf", "1e400", "NaN", "x", "1,0"])
        finite = st.sampled_from(["1.0", "-2.5e-03", "0"])
        count = draw(st.sampled_from([8] * 6 + [0, 7, 9]))
        width = draw(st.sampled_from([1, 2, 2, 3]))
        wild = draw(st.sets(st.integers(0, max(count - 1, 0)), max_size=2))
        for i in range(count):
            tokens = st.lists(token if i in wild else finite, min_size=width, max_size=width)
            lines.append(" ".join(draw(tokens)))
        if draw(st.booleans()):
            lines.insert(draw(st.integers(1, len(lines))), "")
        return "\n".join(lines) + "\n"

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_snapshot_text())
    def test_generated_snapshot_loads_finite_or_fails_with_value_error(self, tmp_path, text):
        # ... and exactly as the line-by-line reader does
        path = tmp_path / "gen.dat"
        path.unlink(missing_ok=True)  # a new file: some filesystems flush one rewritten in place
        path.write_text(text)
        try:
            expected = oracle_load_field(path)
        except ValueError as err:
            expected = err
        try:
            fld, meta = load_field(path)
        except ValueError as err:
            assert str(err).startswith(f"{path}: ")
            assert isinstance(expected, ValueError), f"the line reader loads it: {err}"
            return
        assert not isinstance(expected, ValueError), f"the line reader rejects it: {expected}"
        assert (fld, meta) == expected
        assert isinstance(fld.grid, Grid) and fld.samples.shape == (fld.grid.n,)
        assert np.all(np.isfinite(fld.samples))

    @pytest.mark.parametrize("body", [
        "1.0 2.0\n" * 7 + "1.0 2.0 3.0\n",  # rows of unequal length
        "1.0 2.0\n" * 7 + "1.0\n",
        "1.0 2.0 nan\n" * 8,  # a non-finite token past the sample columns
        "1.0 2.0\r\n" * 8,
        "1.0 2.0\r" * 8,
        "1.0 2.0\n" * 4 + "# s = 0.5\n" + "-0.0 -0.0\n" * 4,  # a header line among the rows
        "1_0 2.0\n" * 8,
        "1.0 2.0\x0b\n" * 8,
        "1.0\x1c2.0\n" * 8,
    ])
    def test_edge_texts_load_as_the_line_reader_loads_them(self, tmp_path, body):
        path = tmp_path / "edge.dat"
        path.write_bytes(("# fnlswaves-field 1\n# field_type = complex\n# l = 8.0\n# n = 8\n"
                          + body).encode())
        try:
            expected = oracle_load_field(path)
        except ValueError:
            with pytest.raises(ValueError, match=f"^{path}: "):
                load_field(path)
            return
        assert load_field(path) == expected

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(complex_=st.booleans(), l=st.floats(1e-6, 1e6), n=st.integers(4, 40).map(lambda k: 2 * k),
           data=st.data())
    def test_snapshot_round_trip_is_bit_exact(self, tmp_path, complex_, l, n, data):
        grid = Grid(l=l, n=n)
        values = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                             min_size=2 * n, max_size=2 * n)))
        f = ComplexField(grid, values.view(complex)) if complex_ else RealField(grid, values[:n])
        path = tmp_path / "f.dat"
        save_field(path, f)
        back, meta = load_field(path)
        assert back == f
        assert np.array_equal(back.samples.view(np.uint64), f.samples.view(np.uint64))  # -0.0 too
        assert meta == {"field_type": "complex" if complex_ else "real", "l": repr(l), "n": str(n)}

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(complex_=st.booleans(), l=st.floats(1e-3, 1e3),
           n=st.sampled_from([8, _BLOCK_ROWS - 2, _BLOCK_ROWS, _BLOCK_ROWS + 2, 4096]),
           metadata=st.dictionaries(st.text(alphabet="abst_λ", min_size=1, max_size=4),
                                    header_values.filter(lambda v: str(v) == str(v).strip()),
                                    max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_writer_bytes_match_the_line_writer(self, tmp_path, complex_, l, n, metadata, seed):
        rng = np.random.default_rng(seed)
        vals = drawn_floats(rng, 2 * n)
        grid = Grid(l=l, n=n)
        f = ComplexField(grid, vals.view(complex)) if complex_ else RealField(grid, vals[:n])
        save_field(tmp_path / "new.dat", f, metadata=metadata)
        oracle_save_field(tmp_path / "ref.dat", f, metadata=metadata)
        assert (tmp_path / "new.dat").read_bytes() == (tmp_path / "ref.dat").read_bytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(metadata=st.dictionaries(st.text(alphabet="ab= \tλ", max_size=4),
                                    st.one_of(header_values, st.text(alphabet="a= \t", max_size=4)),
                                    max_size=3))
    def test_metadata_reads_back_as_written_or_is_refused(self, tmp_path, metadata):
        # the reader splits a header line at its first "=" and strips both
        # sides, so a key holding "=", or a key or value with whitespace
        # around it, would read back as another entry: it is refused, and
        # every other entry reads back as its str
        path = tmp_path / "f.dat"
        path.unlink(missing_ok=True)
        lossy = any("=" in k or k != k.strip() or str(v) != str(v).strip() for k, v in metadata.items())
        try:
            save_field(path, RealField(Grid(l=8.0, n=8), np.ones(8)), metadata=metadata)
        except ValueError:
            assert lossy and not path.exists()
            return
        assert not lossy
        _, meta = load_field(path)
        assert meta == {"field_type": "real", "l": "8.0", "n": "8",
                        **{k: str(v) for k, v in metadata.items()}}

    @pytest.mark.parametrize("metadata", [{"l": 2.0}, {"n": 16}, {" field_type ": "real"},
                                          {"s": "\n1.0 2.0"}, {"s": "0.75\r"}, {"a\nb": 1}])
    def test_metadata_that_would_corrupt_the_header_raises(self, tmp_path, metadata):
        # a redefined l or n would load on another grid, and a line break
        # would add a line of its own: a sample row, say
        path = tmp_path / "f.dat"
        with pytest.raises(ValueError):
            save_field(path, RealField(Grid(l=8.0, n=8), np.ones(8)), metadata=metadata)
        assert not path.exists()

    def test_reject_foreign_file(self, tmp_path):
        path = tmp_path / "junk.dat"
        path.write_text("not a snapshot\n")
        with pytest.raises(ValueError, match="not a field snapshot"):
            load_field(path)


class TestCsvTables:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kinds=st.lists(st.sampled_from(["float", "np.float64", "array", "int", "np.int64", "bool"]),
                          min_size=1, max_size=4),
           rows=st.sampled_from(ROW_COUNTS), seed=st.integers(0, 2 ** 32 - 1),
           meta=st.dictionaries(st.text(alphabet="abs_λ", min_size=1, max_size=4),
                                header_values, max_size=3),
           data=st.data())
    def test_bytes_match_the_csv_module_writer(self, tmp_path, kinds, rows, seed, meta, data):
        names = data.draw(st.lists(st.text(alphabet="xyz_ 0λ", min_size=1, max_size=4),
                                   min_size=len(kinds), max_size=len(kinds), unique=True))
        rng = np.random.default_rng(seed)
        columns = [drawn_column(kind, rng, rows) for kind in kinds]
        write_csv(tmp_path / "new.csv", meta, dict(zip(names, columns)))
        oracle_write_csv(tmp_path / "ref.csv", meta, names, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("meta, table", [
        ({"note": "a\n1.0,2.0"}, {"x": [1.0]}),  # would inject a record
        ({"a\rb": 1}, {"x": [1.0]}),
        ({}, {"x,y": [1.0]}),  # names the csv module would quote
        ({}, {'x"': [1.0]}),
        ({}, {"": [1.0]}),
        ({}, {"x": [1.0], "y": [1.0, 2.0]}),  # columns of unequal length
        ({}, {"x": ["a"]}),  # neither floats, ints nor bools
        ({}, {"x": [[1.0, 2.0]]}),
    ])
    def test_a_table_the_layout_cannot_hold_raises(self, tmp_path, meta, table):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_csv(path, meta, table)
        assert not path.exists()
