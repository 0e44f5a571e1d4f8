"""Periodic grid, Fourier multiplier operators, and discrete invariants.

Everything lives on the uniform collocation grid x_j = -l + j*h of the
interval (-l, l) with h = 2l/n, and spectra are plain DFT coefficients in
numpy's fft ordering, wavenumbers xi_k = pi*k/l for k = -n/2 .. n/2-1.

Operators are scalar Fourier multipliers.  The coupled (v, w) profile
system is diagonal in u = v + i w, so its 2x2 operator reduces to the one
real symbol L(xi) = |xi|^{2s} + lambda1 - lambda2*xi, which
``profile_operator`` returns as a frozen array on the grid modes.  Two
conventions keep real data real:

* applying a multiplier to a RealField drops the roundoff/odd-part
  imaginary remainder of the inverse transform, which is exactly the
  Hermitian (even-symbol) projection of the operator;
* symbols built from odd terms (the -lambda2*xi drift, first derivatives)
  zero the unpaired Nyquist mode k = -n/2.

Fields are immutable values: RealField and ComplexField share one base
that casts, checks and freezes the samples and compares by value.  A
field transforms itself at most once: ``spectrum()`` is cached on the
field, and a ComplexField built ``with_spectrum`` is handed the one its
maker already formed.  ``invariants`` computes the mass, momentum,
Hamiltonian and peak of a state in one pass; the momentum and the
dispersive part of the Hamiltonian are sums over that spectrum by
Parseval, and an evolution step builds its new state with the spectrum
of its last sweep, so recording a state's invariants and stepping from
it transform nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import __version__
from .params import ProblemParams


@dataclass(frozen=True)
class Grid:
    """Collocation grid on (-l, l) with an even number of points."""

    l: float = 64.0
    n: int = 4096

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")
        if not 0.0 < self.h < np.inf:  # l > 0 finite, and 2l/n neither overflows nor underflows
            raise ValueError(f"l must be positive and finite, and so must 2l/n; got l={self.l}")

    @property
    def h(self) -> float:
        return 2.0 * self.l / self.n

    # The coordinate arrays are built once per (l, n) by _axes and shared
    # read-only by every grid of that (l, n); cached_property stores them
    # outside the dataclass fields, so equality and hashing still see only
    # (l, n).
    @cached_property
    def x(self) -> np.ndarray:
        return _axes(self.l, self.n).x

    @cached_property
    def xi(self) -> np.ndarray:
        """Wavenumbers pi*k/l in fft order; single unpaired mode at -n/2."""
        return _axes(self.l, self.n).xi

    @cached_property
    def xi_odd(self) -> np.ndarray:
        """Wavenumbers with the Nyquist entry zeroed, for odd symbols."""
        return _axes(self.l, self.n).xi_odd

    def zero_index(self) -> int:
        """Index of the grid point x = 0."""
        return self.n // 2


class _Axes:
    """The coordinate arrays of the grid (l, n), each built on first use."""

    def __init__(self, l: float, n: int):
        self.h = 2.0 * l / n
        self.l, self.n = l, n

    @cached_property
    def x(self) -> np.ndarray:
        return _freeze(-self.l + self.h * np.arange(self.n))

    @cached_property
    def xi(self) -> np.ndarray:
        return _freeze(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h))

    @cached_property
    def xi_odd(self) -> np.ndarray:
        xi = self.xi.copy()
        xi[self.n // 2] = 0.0
        return _freeze(xi)


# maxsize: as fractional_symbol's, which holds every level of a nested
# solve; a solve builds a new Grid for each level below the requested one,
# and those share the arrays of the last solve on the same (l, n)
@lru_cache(maxsize=8)
def _axes(l: float, n: int) -> _Axes:
    return _Axes(l, n)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class _Field:
    """Samples on a grid, cast to the class's ``_dtype``, checked and frozen.

    Two fields are equal when their type, grid and samples are (the
    dataclass ``__eq__`` would compare arrays and raise); equality never
    reads a cached spectrum.  Fields are unhashable, as arrays are.
    """

    grid: Grid
    samples: np.ndarray
    _dtype = float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=self._dtype)
        if arr.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got {arr.shape}")
        object.__setattr__(self, "samples", _freeze(arr))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.samples, other.samples)

    __hash__ = None

    def spectrum(self) -> np.ndarray:
        """DFT of the samples, computed once per field and shared read-only."""
        return self._spectrum

    # Like Grid.x: the field is immutable, so the cached transform cannot go
    # stale.  It lives outside the dataclass fields, and equality compares
    # the samples only.
    @cached_property
    def _spectrum(self) -> np.ndarray:
        spec = np.fft.fft(self.samples)
        spec.flags.writeable = False
        return spec


@dataclass(frozen=True, eq=False)
class RealField(_Field):
    """Real samples on a grid."""


@dataclass(frozen=True, eq=False)
class ComplexField(_Field):
    """Complex samples u = v + i w on a grid."""

    _dtype = complex

    @classmethod
    def with_spectrum(cls, grid: Grid, samples: np.ndarray, spectrum: np.ndarray) -> ComplexField:
        """A field whose ``spectrum()`` is ``spectrum``, which the caller
        computed alongside the samples: their DFT to roundoff, not bit for
        bit.

        The field takes ownership of both complex arrays: it freezes them
        in place and copies neither, so the caller must not write to them
        through another reference afterwards.  The field equals
        ``ComplexField(grid, samples)``.
        """
        fld = cls._adopt(grid, samples)
        spectrum.flags.writeable = False
        fld.__dict__["_spectrum"] = spectrum
        return fld

    @classmethod
    def _adopt(cls, grid: Grid, samples: np.ndarray) -> ComplexField:
        """A field that takes ownership of the complex array ``samples``:
        it freezes them in place and does not copy them, so the caller must
        not write to them through another reference afterwards."""
        if samples.dtype != complex or samples.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} complex samples, got {samples.dtype} {samples.shape}")
        fld = cls.__new__(cls)
        samples.flags.writeable = False
        object.__setattr__(fld, "grid", grid)
        object.__setattr__(fld, "samples", samples)
        return fld

    @property
    def v(self) -> np.ndarray:
        return self.samples.real

    @property
    def w(self) -> np.ndarray:
        return self.samples.imag

    def modulus(self) -> RealField:
        return RealField(self.grid, np.abs(self.samples))


Field = RealField | ComplexField


# bench/run.py's reference pass builds one with m_symbol (ROADMAP direction 13)
@dataclass(frozen=True)
class MultiplierOp:
    """Fourier multiplier bound to a grid: ``values`` holds the real symbol
    on the grid modes with the Nyquist rules already applied."""

    grid: Grid
    values: np.ndarray


# maxsize: a nested profile solve builds one operator on each of its levels,
# and a grid of up to 2^17 points has at most 8 (petviashvili._nests)
@lru_cache(maxsize=8)
def fractional_symbol(grid: Grid, s: float) -> np.ndarray:
    """|xi|^{2s} on the grid modes, the symbol of (-d_xx)^s, built once per
    (grid, s) and shared read-only.  The cache serves an evolution, whose
    step and the invariants of every state read one entry, and the profile
    solves at one s: a solve reads each of its levels once, in that level's
    ProfileIteration, and the cache holds every level, so the next solve at
    that s, at another speed say, builds none."""
    sym = np.abs(grid.xi) ** (2.0 * s)
    sym.flags.writeable = False
    return sym


def profile_operator(params: ProblemParams, grid: Grid) -> np.ndarray:
    """Symbol |xi|^{2s} + lambda1 - lambda2*xi of the profile operator L on
    the grid modes, as a frozen array.

    L acts on u = v + i w exactly as the coupled 2x2 operator
    Q = [[lambda1 + |xi|^{2s}, -i lambda2 xi], [i lambda2 xi, lambda1 + |xi|^{2s}]]
    acts on (v, w); the eigenvalues of Q(xi) are L(xi) and L(-xi).  L is
    positive on every mode inside the speed window.  The drift is odd, so
    it is zeroed at the Nyquist mode.
    """
    values = fractional_symbol(grid, params.s) + params.lambda1
    values -= params.lambda2 * grid.xi_odd
    values.flags.writeable = False
    return values


# bench/run.py builds its timed multiplier with this (ROADMAP direction 13)
def m_symbol(params: ProblemParams, grid: Grid) -> MultiplierOp:
    """Profile operator symbol m(xi) = |xi+A|^{2s} - lambda2*xi - |A|^{2s}.

    m(0) = 0 and, with A from the phase-slope relation, m'(0) = 0 and the
    symbol is convex for s > 1/2, so m + a > 0 inside the speed window.
    The odd drift term is dropped at the Nyquist mode.
    """
    s, A, lam2 = params.s, params.A, params.lambda2
    a2s = abs(A) ** (2.0 * s)
    vals = np.abs(grid.xi + A) ** (2.0 * s) - lam2 * grid.xi_odd - a2s
    return MultiplierOp(grid, _freeze(vals))


# bench/run.py times this apply (ROADMAP direction 13)
def apply_multiplier(op: MultiplierOp, f):
    """Apply a multiplier: spectrum(out) = values * spectrum(in), per mode.

    The output of a RealField input is re-projected onto real samples
    (Hermitian part of the symbol); a ComplexField comes back complex.
    """
    if op.grid != f.grid:
        raise ValueError(f"grid mismatch: {op.grid} vs {f.grid}")
    out = np.fft.ifft(op.values * f.spectrum())
    if isinstance(f, RealField):
        return RealField(f.grid, out.real)
    return ComplexField(f.grid, out)


def vector_norm(x: np.ndarray) -> float:
    """np.linalg.norm of a complex vector, bit for bit, without its
    per-call checks."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def derivative_samples(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Spectral first derivative; Nyquist zeroed to keep real data real."""
    out = np.fft.ifft(1j * grid.xi_odd * np.fft.fft(samples))
    return out.real if np.isrealobj(samples) else out


class Invariants(NamedTuple):
    """Discrete invariants of one state and its interpolated modulus peak."""

    mass: float
    momentum: float
    hamiltonian: float
    amplitude: float
    peak_x: float


def invariants(u: ComplexField, s: float, sigma: float) -> Invariants:
    """Discrete mass, momentum and Hamiltonian of u = v + i w, and the peak
    of |u|, from one pass over |u|^2 and one over |u_hat|^2.

    Equal-weight quadrature (trapezoidal on the periodic grid, which is
    spectrally accurate).  The quadratic terms are summed by Parseval,
    h * sum |f|^2 = (h/n) * sum |f_hat|^2, over the field's cached spectrum,
    so the invariants cost no transform beyond ``u.spectrum()``; only the
    mass, the potential sum |u|^{2 sigma + 2} and the peak stay in physical
    space.  The momentum (h/2) sum (v w_x - w v_x) is (h/2n) sum xi
    |u_hat|^2 with the Nyquist mode dropped, as in the spectral derivative,
    so u = sech(x) e^{iAx} carries momentum +A; the Hamiltonian is
    (h/2) sum |(-d_xx)^{s/2} u|^2 by Parseval, minus the potential sum.
    """
    g = u.grid
    spec = u.spectrum()
    # |u|^2, |u_hat|^2 and a row for the products, each formed in place;
    # np.add.reduce is np.sum without its wrapper, bit for bit
    dens, power, work = np.empty((3, g.n))
    np.square(u.v, out=dens)
    dens += np.square(u.w, out=work)
    np.square(spec.real, out=power)
    power += np.square(spec.imag, out=work)
    peak_x, amplitude = _peak(u, dens)
    momentum = 0.5 * g.h / g.n * float(np.add.reduce(np.multiply(g.xi_odd, power, out=work)))
    kinetic = 0.5 / g.n * float(np.add.reduce(np.multiply(fractional_symbol(g, s), power, out=work)))
    total = float(np.add.reduce(dens))
    dens **= sigma + 1.0
    potential = float(np.add.reduce(dens)) / (2.0 * sigma + 2.0)
    return Invariants(0.5 * g.h * total, momentum, g.h * (kinetic - potential), amplitude, peak_x)


# bench/workloads.py reads this through evolve.mass (ROADMAP direction 13)
def mass(u: ComplexField) -> float:
    return 0.5 * u.grid.h * float(np.sum(u.v ** 2 + u.w ** 2))


def _peak(u: ComplexField, dens: np.ndarray):
    """(x, |u|) at the quadratic interpolation of the modulus maximum
    around the grid point where |u|^2 peaks."""
    g = u.grid
    j = int(dens.argmax())
    y0, y1, y2 = np.abs(u.samples[[(j - 1) % g.n, j, (j + 1) % g.n]])
    dd = y0 - 2.0 * y1 + y2
    delta = 0.5 * (y0 - y2) / dd if dd != 0.0 else 0.0
    return g.x[j] + delta * g.h, y1 - 0.25 * (y0 - y2) * delta


# --------------------------------------------------------------------------
# Output files.  Layouts (documented in the README, stable):
# CSV tables: "# fnlswaves <version>", "# key = value" header lines, then
#   rows ending in "\r\n": the column names joined by ",", then the records,
#   floats as "%.17e" and ints and bools as str.
# Field snapshots:
#   line 1          : "# fnlswaves-field <version>"
#   header lines    : "# key = value"  (field_type, l and n, then the
#                     caller's metadata dict verbatim; it may not redefine
#                     them, a key holds no "=", and no key or value starts
#                     or ends with whitespace)
#   sample lines    : one per grid point, "%.17e" columns; one column for
#                     real fields, two (re, im) for complex fields.
# %.17e round-trips float64 exactly, so parse(serialize(f)) == f.  No header
# key or value may hold a line break, which would add a line of its own.
# --------------------------------------------------------------------------

SNAPSHOT_VERSION = 1
_SNAPSHOT_KEYS = ("field_type", "l", "n")
# Rows formatted by one % over a flat tuple.  The %.17e conversions are the
# cost; a block this long amortizes the loop around them, and only one
# block's values and text are held at a time.
_BLOCK_ROWS = 512
# A column's record format, by numpy dtype kind.
_FORMATS = {"f": "%.17e", "i": "%s", "u": "%s", "b": "%s"}


def _header_lines(meta: dict) -> list:
    """The "# key = value" lines of ``meta``; a line break in one raises."""
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    for line in lines:
        if "\n" in line or "\r" in line:
            raise ValueError(f"header line {line!r} holds a line break")
    return lines


def _write_records(fh, row: str, columns: list) -> None:
    """Write ``row`` formatted with each row of the equal-length ``columns``."""
    for start in range(0, len(columns[0]) if columns else 0, _BLOCK_ROWS):
        block = [c[start:start + _BLOCK_ROWS].tolist() for c in columns]
        fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def write_csv(path, meta: dict, table: dict) -> None:
    """Write one table in the CSV layout above.  ``table`` maps each column
    name to its values: a sequence or 1-D array of one kind, floats, ints or
    bools, as long as every other column."""
    lines = [f"# fnlswaves {__version__}", *_header_lines(meta)]
    columns = [np.asarray(values) for values in table.values()]
    for name, col in zip(table, columns):
        if not name or any(ch in name for ch in ',"\r\n'):
            raise ValueError(f"column name {name!r} is empty or needs quoting")
        if col.ndim != 1 or col.dtype.kind not in _FORMATS or len(col) != len(columns[0]):
            raise ValueError(f"column {name!r} is not {len(columns[0])} floats, ints or bools")
    row = ",".join(_FORMATS[col.dtype.kind] for col in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n" + ",".join(table) + "\r\n")
        _write_records(fh, row, columns)


def save_field(path, f: Field, metadata: dict | None = None) -> None:
    """Write ``f`` in the snapshot layout above, its header echoing
    ``metadata``, which must read back as written: load_field splits a
    line at its first "=" and strips both sides."""
    metadata = metadata or {}
    refused = [k for k, v in metadata.items() if str(k) in _SNAPSHOT_KEYS or "=" in str(k)
               or any(str(x) != str(x).strip() for x in (k, v))]
    if refused:
        raise ValueError(f"snapshot metadata {refused} would redefine field_type, l or n, "
                         "or not read back as written")
    is_complex = isinstance(f, ComplexField)
    header = {"field_type": "complex" if is_complex else "real",
              "l": repr(f.grid.l), "n": f.grid.n, **metadata}
    lines = [f"# fnlswaves-field {SNAPSHOT_VERSION}", *_header_lines(header)]
    columns = [f.samples.real, f.samples.imag] if is_complex else [f.samples]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        _write_records(fh, " ".join(["%.17e"] * len(columns)) + "\n", columns)


def load_field(path):
    """Read a snapshot back; returns (field, metadata dict).  A malformed
    snapshot, a non-finite sample included, raises ValueError naming it."""
    try:
        with open(path) as fh:
            if not fh.readline().strip().startswith("# fnlswaves-field"):
                raise ValueError("not a field snapshot")
            lines = [line for line in map(str.strip, fh.read().split("\n")) if line]
        entries = [line[1:].partition("=") for line in lines if line[0] == "#"]
        meta = {key.strip(): val.strip() for key, _, val in entries}
        rows = [line.split() for line in lines if line[0] != "#"]
        values = np.array(list(map(float, chain.from_iterable(rows))))
        missing = [k for k in _SNAPSHOT_KEYS if k not in meta]
        if missing:
            raise ValueError(f"snapshot header lacks {', '.join(missing)}")
        kind = {"real": (1, RealField), "complex": (2, ComplexField)}.get(meta["field_type"])
        if kind is None:
            raise ValueError(f"unknown field_type {meta['field_type']!r}")
        columns, cls = kind
        if not rows:
            raise ValueError("snapshot has no sample rows")
        if len(set(map(len, rows))) > 1:
            raise ValueError("snapshot rows differ in length")
        data = values.reshape(len(rows), -1)
        if data.shape[1] < columns:
            raise ValueError(f"{meta['field_type']} snapshot needs {columns} columns per row")
        if not np.all(np.isfinite(data[:, :columns])):
            raise ValueError("snapshot has a non-finite sample")
        grid = Grid(l=float(meta["l"]), n=int(meta["n"]))
        # a (re, im) row viewed as one complex sample keeps every bit, -0.0 too
        fld = cls(grid, np.ascontiguousarray(data[:, :columns]).view(cls._dtype)[:, 0])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    return fld, meta
