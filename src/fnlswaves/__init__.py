"""Solitary-wave workbench for the 1D fractional nonlinear Schrödinger
equation: Petviashvili profile solver with minimal polynomial extrapolation,
implicit-midpoint time evolution, and tail/symmetry diagnostics."""

__version__ = "0.1.0"

from .params import (
    Kind,
    ParameterError,
    ProblemParams,
    limiting_speed,
    phase_slope,
    spectral_shift,
)
from .spectral import (
    ComplexField,
    Grid,
    RealField,
    invariants,
    load_field,
    profile_operator,
    save_field,
)
from .petviashvili import (
    SolveReport,
    SolverConfig,
    fixed_point_spectrum_probe,
    initial_iterate,
    reflection_conjugate_defect,
    solve_on_grid,
    solve_scalar,
)
from .accel import mpe_extrapolate
from .evolve import EvolveConfig, EvolutionReport, run, step_midpoint
from .analysis import (
    DecayFit,
    ScanResult,
    decay_slope,
    phase_plane,
    speed_amplitude_scan,
)
