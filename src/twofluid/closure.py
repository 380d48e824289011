"""Algebraic closure of the two-fluid model.

Both phases share a single pressure, which ties the phase densities to the
fraction densities ``R+ = alpha+ rho+`` and ``R- = alpha- rho-``.  This
module solves that constraint, evaluates the derived quantities (volume
fractions, sound speeds, the mixed coefficient ``C^2``) and provides every
coefficient function appearing in the reformulated perturbation system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels

R_MIN = 1e-8  # fraction densities below this are treated as vacuum and rejected


class ConvergenceError(RuntimeError):
    """Root solve failed to converge within the iteration budget."""


def check_domain(table, of):
    """Raise ValueError naming each (field, test, domain) row of ``table`` that ``of`` fails."""
    bad = [f"{key} must be {domain}, got {getattr(of, key)!r}"
           for key, ok, domain in table if not ok(of)]
    if bad:
        raise ValueError("; ".join(bad))


@dataclass(frozen=True)
class FluidParams:
    """Physical constants of the model; the complete configuration.

    ``mu``/``lam`` are shear/bulk viscosities, ``sigma`` capillary
    coefficients, ``gamma`` pressure-law exponents and ``rbar`` the
    background fraction densities of the two phases.
    """

    mu_plus: float = 1.0
    mu_minus: float = 1.0
    lambda_plus: float = 0.0
    lambda_minus: float = 0.0
    sigma_plus: float = 1.0
    sigma_minus: float = 1.0
    gamma_plus: float = 2.0
    gamma_minus: float = 2.0
    rbar_plus: float = 1.0
    rbar_minus: float = 1.0

    def __post_init__(self):
        check_domain(PARAMS_DOMAIN, self)


# (field, test, domain) for each FluidParams field; a test takes the whole set,
# so the viscosity pairing is a row too.  The CLI checks configs against it.
PARAMS_DOMAIN = (
    ("mu_plus", lambda p: p.mu_plus > 0, "> 0"),
    ("mu_minus", lambda p: p.mu_minus > 0, "> 0"),
    ("lambda_plus", lambda p: 2 * p.mu_plus + 3 * p.lambda_plus >= 0,
     "such that 2*mu_plus + 3*lambda_plus >= 0"),
    ("lambda_minus", lambda p: 2 * p.mu_minus + 3 * p.lambda_minus >= 0,
     "such that 2*mu_minus + 3*lambda_minus >= 0"),
    ("sigma_plus", lambda p: p.sigma_plus > 0, "> 0"),
    ("sigma_minus", lambda p: p.sigma_minus > 0, "> 0"),
    ("gamma_plus", lambda p: p.gamma_plus >= 1, ">= 1"),
    ("gamma_minus", lambda p: p.gamma_minus >= 1, ">= 1"),
    ("rbar_plus", lambda p: p.rbar_plus > 0, "> 0"),
    ("rbar_minus", lambda p: p.rbar_minus > 0, "> 0"),
)


@dataclass(frozen=True)
class ClosureState:
    """Everything the pressure-equilibrium constraint determines at (R+, R-)."""

    R_plus: float
    R_minus: float
    rho_plus: float
    rho_minus: float
    alpha_plus: float
    alpha_minus: float
    s2_plus: float
    s2_minus: float
    c2: float


@dataclass(frozen=True)
class LinearCoefficients:
    """Constant coefficients of the linearized system at the background state."""

    beta1: float
    beta2: float
    beta3: float
    beta4: float
    beta_plus: float
    beta_minus: float
    nu1_plus: float
    nu1_minus: float
    nu2_plus: float
    nu2_minus: float
    nu_plus: float
    nu_minus: float
    rhobar_plus: float
    rhobar_minus: float
    sigma_plus: float
    sigma_minus: float


@dataclass(frozen=True)
class NonlinearCoefficients:
    """Pointwise coefficient functions of the perturbation system's nonlinearity."""

    g_plus: np.ndarray | float
    g_minus: np.ndarray | float
    gbar_plus: np.ndarray | float
    gbar_minus: np.ndarray | float
    h_plus: np.ndarray | float
    h_minus: np.ndarray | float
    k_plus: np.ndarray | float
    k_minus: np.ndarray | float
    l_plus: np.ndarray | float
    l_minus: np.ndarray | float


def pressure_and_sound_speed(rho, gamma):
    """Pressure ``rho**gamma`` and squared sound speed ``gamma*rho**(gamma-1)``."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("density must be positive")
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    return rho**gamma, gamma * rho ** (gamma - 1.0)


def _check_fraction_densities(R_plus, R_minus):
    if np.any(np.asarray(R_plus) < R_MIN) or np.any(np.asarray(R_minus) < R_MIN):
        raise ValueError(f"fraction densities below {R_MIN} (vacuum regime) rejected")


def solve_rho_plus(R_plus, R_minus, params: FluidParams, x0=None):
    """Phase density ``rho+`` solving pressure equilibrium at given (R+, R-).

    Accepts scalars (giving an ``np.float64``) or arrays.  Newton with the
    analytic slope ``s+^2 + s-^2 R- R+ / (rho+ - R+)^2``, safeguarded by
    bisection on a bracket where the residual changes sign.
    """
    _check_fraction_densities(R_plus, R_minus)
    Rp = np.asarray(R_plus, dtype=float)
    Rm = np.broadcast_to(np.asarray(R_minus, dtype=float), Rp.shape)
    out = kernels.solve_rho_plus_batch(Rp, Rm, params.gamma_plus, params.gamma_minus, x0=x0)
    if np.any(np.isnan(out)):
        raise ConvergenceError("pressure-equilibrium root solve did not converge")
    return out[()]


def closure_state(R_plus, R_minus, params: FluidParams, x0=None) -> ClosureState:
    """Full closure at (R+, R-): densities, fractions, sound speeds, C^2.

    Solves for the pressure-equilibrium root ``rho+`` once (warm-started from
    ``x0`` when given, with the vacuum check) and derives the rest from it.
    The root lies above ``R+``, so both densities are positive.
    """
    rho_p = solve_rho_plus(R_plus, R_minus, params, x0=x0)
    Rp = np.asarray(R_plus, dtype=float)[()]  # np.float64 for scalars, as rho_p
    Rm = np.asarray(R_minus, dtype=float)[()]
    rho_m = Rm * rho_p / (rho_p - Rp)
    a_p = Rp / rho_p
    a_m = 1.0 - a_p
    s2p = params.gamma_plus * rho_p ** (params.gamma_plus - 1.0)
    s2m = params.gamma_minus * rho_m ** (params.gamma_minus - 1.0)
    c2 = s2p * s2m / (a_m * rho_p * s2p + a_p * rho_m * s2m)
    return ClosureState(Rp, Rm, rho_p, rho_m, a_p, a_m, s2p, s2m, c2)


@lru_cache(maxsize=64)
def equilibrium_state(params: FluidParams) -> ClosureState:
    """Closure at the background fraction densities (cached)."""
    return closure_state(params.rbar_plus, params.rbar_minus, params)


@lru_cache(maxsize=64)
def linear_coefficients(params: FluidParams) -> LinearCoefficients:
    """Coefficients of the linearized system, from the background closure."""
    eq = equilibrium_state(params)
    c2 = eq.c2
    rb_p, rb_m = eq.rho_plus, eq.rho_minus
    beta1 = c2 * rb_m / rb_p
    beta2 = c2
    beta3 = c2
    beta4 = c2 * rb_p / rb_m
    nu1p = params.mu_plus / rb_p
    nu1m = params.mu_minus / rb_m
    nu2p = (params.mu_plus + params.lambda_plus) / rb_p
    nu2m = (params.mu_minus + params.lambda_minus) / rb_m
    return LinearCoefficients(
        beta1=beta1, beta2=beta2, beta3=beta3, beta4=beta4,
        beta_plus=np.sqrt(beta1 / beta2), beta_minus=np.sqrt(beta4 / beta3),
        nu1_plus=nu1p, nu1_minus=nu1m, nu2_plus=nu2p, nu2_minus=nu2m,
        nu_plus=nu1p + nu2p, nu_minus=nu1m + nu2m,
        rhobar_plus=rb_p, rhobar_minus=rb_m,
        sigma_plus=params.sigma_plus, sigma_minus=params.sigma_minus,
    )


def combination(n_plus, n_minus, co: LinearCoefficients):
    """The combination variable ``beta+ n+ + beta- n-`` of fields, spectra or mode values."""
    return co.beta_plus * n_plus + co.beta_minus * n_minus


def nonlinear_coefficients(closure: ClosureState, params: FluidParams) -> NonlinearCoefficients:
    """The ten coefficient functions at perturbations ``n± = R± - rbar±``.

    Evaluated from the closure at the perturbed fraction densities
    (:func:`closure_state`) rather than from stored expansions.
    """
    Rp, Rm = closure.R_plus, closure.R_minus
    eq = equilibrium_state(params)
    g_p = closure.c2 * closure.rho_minus / closure.rho_plus - eq.c2 * eq.rho_minus / eq.rho_plus
    g_m = closure.c2 * closure.rho_plus / closure.rho_minus - eq.c2 * eq.rho_plus / eq.rho_minus
    gbar = closure.c2 - eq.c2
    h_p = closure.c2 * closure.alpha_minus / (Rp * closure.s2_minus)
    h_m = -closure.c2 / (closure.rho_minus * closure.s2_minus)
    k_p = -closure.c2 / (Rp * closure.s2_plus * closure.rho_plus)
    k_m = -closure.alpha_plus * closure.c2 / (Rm * closure.s2_plus)
    l_p = 1.0 / closure.rho_plus - 1.0 / eq.rho_plus
    l_m = 1.0 / closure.rho_minus - 1.0 / eq.rho_minus
    return NonlinearCoefficients(g_plus=g_p, g_minus=g_m, gbar_plus=gbar,
                                 gbar_minus=gbar, h_plus=h_p, h_minus=h_m,
                                 k_plus=k_p, k_minus=k_m, l_plus=l_p, l_minus=l_m)


def linearized_density_perturbation(n_plus, n_minus, params: FluidParams):
    """First-order phase-density deviations driven by the combination variable.

    Returns ``(C^2 sqrt(rhobar+ rhobar-) / s_pm^2) * (beta+ n+ + beta- n-)``
    for each phase; both are exact multiples of the same combination.
    The inputs may be real fields or complex spectra.
    """
    eq = equilibrium_state(params)
    co = linear_coefficients(params)
    combo = combination(np.asarray(n_plus), np.asarray(n_minus), co)
    factor = eq.c2 * np.sqrt(eq.rho_plus * eq.rho_minus)
    return factor / eq.s2_plus * combo, factor / eq.s2_minus * combo
