"""Whole-space linear decay laboratory.

Evolves radially symmetric spectral data exactly, mode by mode, evaluates
Sobolev norms by radial quadrature and fits power-law decay exponents.
Working with the whole space in frequency variables is deliberate: algebraic
decay in time comes from the continuum of small frequencies, which a
periodic box cuts off at its lowest nonzero mode.

Norms use the radial Plancherel form

    ||grad^k f||^2 = 4 pi * int_0^inf r^(2k+2) |fhat(r)|^2 dr

so everything is determined by the four radial profiles and the per-mode
semigroup.  The quadrature grid is oscillation aware: the acoustic factor
exp(i omega r t) must stay resolved up to the largest fit time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .closure import FluidParams, check_domain, linear_coefficients, linearized_density_perturbation
from .spectral import (
    BatchDecomposition,
    decompose_batch,
    heat_factor,
    smooth_step_down,
    spectral_constants,
)

VARIABLES = ("n+", "n-", "phi+", "phi-", "combo", "drho+", "drho-", "heat+", "heat-")
_CHECK_TOL = 1e-8  # relative tolerance of ModeEvolution's quadrature check


class AccuracyError(RuntimeError):
    """Quadrature failed to converge to the requested tolerance."""


# ---------------------------------------------------------------------------
# radial quadrature


def _gauss_panels(lo, hi, order):
    """Gauss-Legendre nodes and weights on panels [lo_i, hi_i], panel by panel."""
    x, w = np.polynomial.legendre.leggauss(order)
    lo = lo[:, None]
    hi = hi[:, None]
    nodes = 0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * np.broadcast_to(w, nodes.shape)
    return nodes.ravel(), weights.ravel()


@dataclass(frozen=True)
class RadialQuadrature:
    """Composite Gauss-Legendre rule on [0, r_max]."""

    edges: np.ndarray
    order: int
    nodes: np.ndarray = field(compare=False, default=None)
    weights: np.ndarray = field(compare=False, default=None)

    @classmethod
    def from_edges(cls, edges, order):
        edges = np.asarray(edges, dtype=float)
        nodes, weights = _gauss_panels(edges[:-1], edges[1:], order)
        return cls(edges=edges, order=order, nodes=nodes, weights=weights)

    @classmethod
    def oscillation_aware(cls, r_max, t_max, omega, nubar, order=24):
        """Geometric segments, each split so the phase omega*r*t stays resolved.

        A segment [a, b] only matters while exp(-nubar a^2 t) is above the
        square of the norm tolerance; panels are sized for at most two
        acoustic periods over that window.
        """
        seg = [float(r_max)]
        while seg[-1] > 1e-7 * r_max:
            seg.append(seg[-1] / 2.0)
        seg.append(0.0)
        seg = seg[::-1]
        edges = [0.0]
        for a, b in zip(seg[:-1], seg[1:]):
            t_seg = t_max if a == 0.0 else min(t_max, 41.0 / (nubar * a * a))
            phase = omega * (b - a) * t_seg
            n_pan = max(1, int(np.ceil(phase / (4.0 * np.pi))))
            edges.extend(np.linspace(a, b, n_pan + 1)[1:])
        return cls.from_edges(np.asarray(edges), order)

    def refined(self):
        """Same rule with every panel split in two (convergence checks)."""
        e = self.edges
        mid = 0.5 * (e[:-1] + e[1:])
        edges = np.sort(np.concatenate([e, mid]))
        return RadialQuadrature.from_edges(edges, self.order)

    def split(self, panels):
        """Nodes and weights of the panel-doubled rule on ``panels`` only.

        Panel ``panels[i]`` owns the ``2 * order`` entries starting at
        ``2 * order * i``; they are the nodes :meth:`refined` puts there.
        """
        lo, hi = self.edges[panels], self.edges[panels + 1]
        mid = 0.5 * (lo + hi)
        return _gauss_panels(np.stack([lo, mid], axis=1).ravel(),
                             np.stack([mid, hi], axis=1).ravel(), self.order)

    def integrate(self, values):
        return float(np.sum(self.weights * values))


def _find_r_max(profile: Callable) -> float:
    r_max = 1.0
    for _ in range(40):
        vals = np.abs(profile(np.linspace(0.75 * r_max, r_max, 16)))
        if np.max(vals) < 1e-16:
            return r_max
        r_max *= 2.0
    raise AccuracyError("profile does not decay below 1e-16 within a reasonable radius")


def radial_norm(profile: Callable, k: int, r_max: float | None = None,
                tol: float = 1e-8) -> float:
    """Sobolev seminorm of order ``k`` of a radially symmetric spectrum.

    ``profile`` maps radii to spectral values; ``k = -1`` gives the
    norm weighted by the inverse frequency magnitude.  Converged by panel
    doubling (at most 12 times) to relative tolerance ``tol``.
    """
    if k < -1:
        raise ValueError("derivative order must be >= -1")
    if r_max is None:
        r_max = _find_r_max(profile)
    edges = np.linspace(0.0, r_max, 9)
    quad = RadialQuadrature.from_edges(edges, 16)

    def value(q):
        integrand = q.nodes ** (2 * k + 2) * np.abs(profile(q.nodes)) ** 2
        return 4.0 * np.pi * q.integrate(integrand)

    prev = value(quad)
    for _ in range(12):
        quad = quad.refined()
        cur = value(quad)
        if abs(cur - prev) <= tol * max(abs(cur), 1e-300):
            return float(np.sqrt(cur))
        prev = cur
    raise AccuracyError("radial quadrature did not converge")


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class RadialProfileData:
    """Four radial spectra (n+, phi+, n-, phi-) plus construction metadata.

    ``profile_fns`` are callables r -> value, resampled onto whatever
    quadrature the evolution uses.
    """

    profile_fns: tuple
    c0: float = 0.0
    s_exp: float = 0.0
    theta: float = 0.0

    def sampled(self, nodes):
        out = np.zeros((len(nodes), 4))
        for c, fn in enumerate(self.profile_fns):
            out[:, c] = fn(np.asarray(nodes))
        return out


def _gaussian(amp, width):
    return lambda r: amp * np.exp(-((np.asarray(r) / width) ** 2) / 2.0)


# Relative shape of the generic data.  The density channels are seeded
# lightly and the velocity channels with opposite signs: that loads the
# slowly decaying direction of the mode system with O(1) weight, so the
# optimal density rate is visible from the start of the fit window instead
# of emerging from under the faster-decaying parts only at very late times.
_GENERIC_AMPS = (0.05, 1.0, 0.05, -0.9)
_GENERIC_WIDTHS = (1.05, 0.95, 0.90, 1.10)

DATA_SIZE_ORDERS = 5  # surrogate sums seminorms of order 0..ell+1 with ell = 3


def _data_size_surrogate(fns, r_max) -> float:
    total = 0.0
    probe = np.linspace(0.0, r_max, 512)
    for fn in fns:
        vals = np.abs(fn(probe))
        if vals.max() == 0.0:
            continue
        total += vals.max()  # stand-in for the L1 bound on the spectrum
        for j in range(DATA_SIZE_ORDERS):
            total += radial_norm(fn, j, r_max=r_max)
    return total


# (field, test, domain) for each data maker's arguments; a test takes them by
# name.  The CLI checks configs against the lower-bound rows.
GENERIC_DATA_DOMAIN = (("K0", lambda a: a.K0 >= 0, ">= 0"),)
LOWER_BOUND_DATA_DOMAIN = (
    ("K0", lambda a: 0 < a.K0 < 1, "in (0, 1)"),
    ("theta", lambda a: a.theta < 2, "< 2"),
    ("s_exp", lambda a: a.s_exp > 0, "> 0"),
    ("eta", lambda a: a.eta > 0, "> 0"),
)


def make_generic_data(K0: float) -> RadialProfileData:
    """Gaussian data in all four channels, scaled to overall size ``K0``."""
    check_domain(GENERIC_DATA_DOMAIN, SimpleNamespace(K0=K0))
    r_max = 12.0
    base = tuple(_gaussian(a, w) for a, w in zip(_GENERIC_AMPS, _GENERIC_WIDTHS))
    if K0 == 0.0:
        fns = tuple(_gaussian(0.0, w) for w in _GENERIC_WIDTHS)
        scale = 0.0
    else:
        size = _data_size_surrogate(base, r_max)
        scale = K0 / size
        fns = tuple(_gaussian(a * scale, w) for a, w in zip(_GENERIC_AMPS, _GENERIC_WIDTHS))
    return RadialProfileData(profile_fns=fns)


def make_lower_bound_data(K0: float, theta: float, s_exp: float, eta: float) -> RadialProfileData:
    """Slow-channel data: only the minus-phase velocity spectrum is nonzero.

    ``phi-hat(r) = (c0 - r^s) * chi(r)`` with ``c0 = K0^theta`` and a smooth
    cutoff supported in [0, eta].
    """
    check_domain(LOWER_BOUND_DATA_DOMAIN, SimpleNamespace(K0=K0, theta=theta, s_exp=s_exp, eta=eta))
    c0 = K0**theta

    def zero(r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def phi_minus(r):
        r = np.asarray(r, dtype=float)
        return (c0 - r**s_exp) * smooth_step_down(2.0 * r / eta - 1.0)

    return RadialProfileData(profile_fns=(zero, zero, zero, phi_minus),
                             c0=c0, s_exp=s_exp, theta=theta)


# ---------------------------------------------------------------------------
# evolution and norm series


@dataclass(frozen=True)
class NormSeries:
    times: np.ndarray
    values: np.ndarray
    k: int
    variable: str

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("norm values must be nonnegative")


class ModeEvolution:
    """Exact evolution of radial data under one parameter set, on radii up to 12.

    Builds the per-node semigroup decomposition once; every variable and
    derivative order reuses it.  :meth:`norms` projects the data once,
    ``Q[n, i] = P[n, i] @ U0[n]``, through the adjugate, never building the
    projector matrices.  Each sample time costs only the real sum ``U(t) =
    sum_i w_i(t) Q_i`` (one exponential per conjugate pair), and the squared
    moduli of every variable meet the node weights ``4 pi w r^(2k+2)`` of
    every order in one matrix product.  One time at a time keeps the
    working set at a few node arrays.

    The quadrature check doubles the panels at the last time and the
    highest order, to relative tolerance ``_CHECK_TOL``, but only on the panels
    that hold more than ``_CHECK_TOL**2`` of some variable's squared norm.  The
    others keep their coarse contribution: together they hold at most
    ``n_panels * _CHECK_TOL**2`` of it, far below what the check resolves.
    """

    def __init__(self, params: FluidParams, t_max: float = 1.2e4, order: int = 24):
        self.params = params
        self.coeffs = linear_coefficients(params)
        R, lt3, lt4, acoustic, nubar = spectral_constants(self.coeffs)
        omega = np.sqrt(self.coeffs.beta1 + self.coeffs.beta4)
        self.quad = RadialQuadrature.oscillation_aware(
            12.0, t_max, omega, max(nubar, 1e-3), order=order)
        self.decomp: BatchDecomposition = decompose_batch(self.quad.nodes, self.coeffs)

    def _variable_values(self, U, U0, nodes, t):
        co = self.coeffs
        drho_p, drho_m = linearized_density_perturbation(U[:, 0], U[:, 2], self.params)
        return {
            "n+": U[:, 0], "n-": U[:, 2], "phi+": U[:, 1], "phi-": U[:, 3],
            "combo": co.beta_plus * U[:, 0] + co.beta_minus * U[:, 2],
            "drho+": drho_p,
            "drho-": drho_m,
            "heat+": U0[:, 1] * heat_factor(nodes, co.nu1_plus, t),
            "heat-": U0[:, 3] * heat_factor(nodes, co.nu1_minus, t),
        }

    def _squared_moduli(self, U, U0, nodes, t, variables):
        """``|value|^2`` per variable and node, shape (len(variables), n)."""
        vals = self._variable_values(U, U0, nodes, t)
        return np.stack([np.abs(vals[v]) ** 2 for v in variables])

    def norms(self, data: RadialProfileData, times, ks, variables=VARIABLES,
              verify: bool = True):
        """Norm tables {variable: {k: array over times}} by exact evolution."""
        for v in variables:
            if v not in VARIABLES:
                raise ValueError(f"unknown variable {v!r}; expected one of {VARIABLES}")
        times = np.asarray(times, dtype=float)
        if np.any(times < 0):
            raise ValueError("times must be >= 0")
        ks = tuple(ks)
        nodes = self.quad.nodes
        U0 = data.sampled(nodes)
        evolve = self.decomp.evolution(U0)
        W = _node_weights(nodes, self.quad.weights, ks)
        sq = np.empty((len(times), len(variables), len(ks)))
        for it, t in enumerate(times):
            a2 = self._squared_moduli(evolve(t), U0, nodes, t, variables)
            sq[it] = a2 @ W
        out = {v: {k: np.sqrt(sq[:, iv, ik]) for ik, k in enumerate(ks)}
               for iv, v in enumerate(variables)}
        if verify:
            self._verify(data, times[-1], max(ks), out, a2)
        return out

    def _verify(self, data, t_last, k_max, out, a2_last):
        """Panel-doubling check of the quadrature at the most demanding time."""
        fine = np.sqrt(self._refined_squares(data, t_last, k_max, tuple(out), a2_last))
        for (v, table), f in zip(out.items(), fine):
            coarse = table[k_max][-1]
            if abs(f - coarse) > _CHECK_TOL * max(f, 1e-300) + 1e-300:
                raise AccuracyError(
                    f"quadrature not converged for {v} at t={t_last:g}: "
                    f"{float(coarse)!r} vs refined {float(f)!r}")

    def _refined_squares(self, data, t, k, variables, a2):
        """Squared order-``k`` norms at ``t`` under the panel-doubled rule.

        ``a2`` holds the coarse squared moduli at ``t``.  Only live panels
        (above ``_CHECK_TOL**2`` of some variable's total) are refined.
        """
        quad = self.quad
        coarse = (a2 * _node_weights(quad.nodes, quad.weights, (k,))[:, 0]).reshape(
            len(variables), -1, quad.order).sum(axis=2)
        live = (coarse > _CHECK_TOL**2 * coarse.sum(axis=1, keepdims=True)).any(axis=0)
        total = coarse[:, ~live].sum(axis=1)
        if live.any():
            nodes, weights = quad.split(np.nonzero(live)[0])
            U0 = data.sampled(nodes)
            U = decompose_batch(nodes, self.coeffs).apply(t, U0)
            total += (self._squared_moduli(U, U0, nodes, t, variables)
                      @ _node_weights(nodes, weights, (k,))[:, 0])
        return total


def _node_weights(nodes, weights, ks):
    """Columns ``4 pi w r^(2k+2)``: squared order-k norm = moduli @ column."""
    return np.stack([4.0 * np.pi * weights * nodes ** (2 * k + 2) for k in ks], axis=1)


# ---------------------------------------------------------------------------
# fitting and band checks

MIN_FIT_SAMPLES = 8  # fewest samples a fit window may hold


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    amplitude: float
    residual: float


def fit_power_law(series: NormSeries, window: tuple | None = None) -> DecayFit:
    """Least squares of log(norm) against log(1 + t) inside ``window``."""
    t = series.times
    y = series.values
    if window is None:
        window = (float(t[0]), float(t[-1]))
    mask = (t >= window[0]) & (t <= window[1])
    if mask.sum() < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples inside the fit window")
    if np.any(y[mask] <= 0):
        raise ValueError("norm values must be positive inside the fit window")
    x = np.log1p(t[mask])
    z = np.log(y[mask])
    slope, intercept = np.polyfit(x, z, 1)
    resid = float(np.abs(z - (slope * x + intercept)).max())
    return DecayFit(exponent=float(slope), amplitude=float(np.exp(intercept)), residual=resid)


def expected_exponent(variable: str, k: int) -> float:
    """Predicted decay power for each tracked variable at order ``k``."""
    if variable in ("n+", "n-"):
        return -(0.25 + k / 2.0)
    return -(0.75 + k / 2.0)


def band_ratio(series: NormSeries, power: float) -> float:
    """max/min of norm * (1+t)^power; near 1 means the rate is sharp both ways."""
    scaled = series.values * (1.0 + series.times) ** power
    if np.any(scaled <= 0):
        raise ValueError("series must be positive for a band check")
    return float(scaled.max() / scaled.min())
