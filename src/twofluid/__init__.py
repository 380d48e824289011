"""Numerical laboratory for a viscous-capillary compressible two-fluid model."""

from .closure import (
    ClosureState,
    ConvergenceError,
    FluidParams,
    LinearCoefficients,
    closure_state,
    linear_coefficients,
    linearized_density_perturbation,
    nonlinear_coefficients,
    pressure_and_sound_speed,
    solve_rho_plus,
)

__version__ = "0.1.0"

__all__ = [
    "ClosureState",
    "ConvergenceError",
    "FluidParams",
    "LinearCoefficients",
    "closure_state",
    "linear_coefficients",
    "linearized_density_perturbation",
    "nonlinear_coefficients",
    "pressure_and_sound_speed",
    "solve_rho_plus",
    "__version__",
]
