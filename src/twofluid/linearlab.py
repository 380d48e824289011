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

import functools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import threads
from .closure import (FluidParams, check_domain, combination, linear_coefficients,
                      linearized_density_perturbation)
from .spectral import (
    decompose_batch,
    heat_factor,
    smooth_step_down,
    spectral_constants,
)

VARIABLES = ("n+", "n-", "phi+", "phi-", "combo", "drho+", "drho-", "heat+", "heat-")
_CHECK_TOL = 1e-8  # relative tolerance of ModeEvolution's quadrature check
_ORDER = 24  # Gauss-Legendre nodes per panel of ModeEvolution's quadrature


class AccuracyError(RuntimeError):
    """Quadrature failed to converge to the requested tolerance."""


# ---------------------------------------------------------------------------
# radial quadrature


@functools.cache
def _gauss_rule(order):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only (callers share them)."""
    rule = np.polynomial.legendre.leggauss(order)
    threads.freeze(*rule)
    return rule


class RadialQuadrature:
    """Composite Gauss-Legendre rule: its panels [lo_i, hi_i], ``order`` nodes each.

    Panel ``i`` owns the ``nodes`` and ``weights`` from ``order * i``.  All four
    arrays are read-only, so a rule may be shared.
    """

    def __init__(self, lo, hi, order):
        x, w = _gauss_rule(order)
        self.lo, self.hi, self.order = np.array(lo, dtype=float), np.array(hi, dtype=float), order
        half = 0.5 * (self.hi - self.lo)[:, None]
        self.nodes = (half * x + 0.5 * (self.hi + self.lo)[:, None]).ravel()
        self.weights = (half * w).ravel()
        threads.freeze(self.lo, self.hi, self.nodes, self.weights)

    @classmethod
    def from_edges(cls, edges, order):
        return cls(edges[:-1], edges[1:], order)

    @classmethod
    def oscillation_aware(cls, r_max, t_max, omega, nubar):
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
        return cls.from_edges(edges, _ORDER)

    def refined(self, panels=slice(None)):
        """The rule on ``panels`` (all by default), each split at its midpoint, in panel order.

        A subset's nodes and weights are bitwise those the full refinement puts there.
        """
        lo, hi = self.lo[panels], self.hi[panels]
        mid = 0.5 * (lo + hi)
        return RadialQuadrature(np.stack([lo, mid], axis=1).ravel(),
                                np.stack([mid, hi], axis=1).ravel(), self.order)

    def integrate(self, values):
        return float(np.sum(self.weights * values))


def radial_norm(profile: Callable, k: int, r_max: float) -> float:
    """Sobolev seminorm of order ``k`` of a radially symmetric spectrum on [0, r_max].

    ``profile`` maps radii to spectral values; ``k = -1`` gives the
    norm weighted by the inverse frequency magnitude.  Converged by
    :meth:`RadialQuadrature.refined` (at most 12 times) to relative tolerance 1e-8.
    """
    if k < -1:
        raise ValueError("derivative order must be >= -1")
    quad = RadialQuadrature.from_edges(np.linspace(0.0, r_max, 9), 16)

    def value(q):
        integrand = q.nodes ** (2 * k + 2) * np.abs(profile(q.nodes)) ** 2
        return 4.0 * np.pi * q.integrate(integrand)

    prev = value(quad)
    for _ in range(12):
        quad = quad.refined()
        cur = value(quad)
        if abs(cur - prev) <= 1e-8 * max(abs(cur), 1e-300):
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
        total += np.abs(fn(probe)).max()  # stand-in for the L1 bound on the spectrum
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
    base = tuple(_gaussian(a, w) for a, w in zip(_GENERIC_AMPS, _GENERIC_WIDTHS))
    scale = K0 / _data_size_surrogate(base, 12.0)
    return RadialProfileData(profile_fns=tuple(
        _gaussian(a * scale, w) for a, w in zip(_GENERIC_AMPS, _GENERIC_WIDTHS)))


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


@functools.lru_cache(maxsize=1)
def _evolution_basis(params: FluidParams, t_max: float):
    """The oscillation-aware quadrature on radii up to 12, its decomposition and a check slot.

    Built once per ``(params, t_max)`` and read-only, as the rule and
    ``decompose_batch`` return their arrays: every evolution of one parameter
    set shares it, and since a row's decomposition does not depend on its
    batch, every norm keeps its bits.  Only the latest key's basis is kept;
    another key replaces it.  The slot, a one-item list, holds the quadrature
    check's last refinement.
    """
    coeffs = linear_coefficients(params)
    nubar = spectral_constants(coeffs)[4]
    omega = np.sqrt(coeffs.beta1 + coeffs.beta4)
    quad = RadialQuadrature.oscillation_aware(12.0, t_max, omega, max(nubar, 1e-3))
    return quad, decompose_batch(quad.nodes, coeffs), [None]


class ModeEvolution:
    """Exact evolution of radial data under one parameter set, on radii up to 12.

    The quadrature and its per-node semigroup decomposition are one read-only
    basis per ``(params, t_max)``, shared by every evolution of that key while
    it is the latest one built in the process.  That pays when one process
    checks a parameter set twice in a row, as ``linear-decay`` and
    ``lower-bound`` do; a single campaign builds it once either way.
    :meth:`norms` projects the data once onto each node's two root clusters
    (:class:`~twofluid.spectral.BatchDecomposition`), never building the
    projector matrices.  Each sample time costs only a real weighted sum of
    those terms (one exponential per cluster), and the squared moduli of every
    variable meet the node weights ``4 pi w r^(2k+2)`` of every order in one
    matrix product.
    Each time fills its own row of the table, so the times run on the
    package's thread pool (:mod:`twofluid.threads`), one task each; each keeps
    its working set at a few node arrays.

    :meth:`norms` always checks its quadrature: it doubles the panels at the
    latest time, the most demanding, and the highest order, to relative
    tolerance ``_CHECK_TOL``, but only on the panels that hold more than
    ``_CHECK_TOL**2`` of some variable's squared norm.  The others keep their
    coarse contribution: together they hold at most ``n_panels *
    _CHECK_TOL**2`` of it, far below what the check resolves.  The live panels
    are refined by ``quad.refined(live)``, bitwise the panels the full
    refinement puts there, and the basis keeps the last live set's rule and
    decomposition.
    """

    def __init__(self, params: FluidParams, t_max: float = 1.2e4):
        self.params = params
        self.coeffs = linear_coefficients(params)
        self.quad, self.decomp, self._refined = _evolution_basis(params, t_max)

    def _variable_values(self, U, U0, nodes, t):
        co = self.coeffs
        drho_p, drho_m = linearized_density_perturbation(U[:, 0], U[:, 2], self.params)
        return {
            "n+": U[:, 0], "n-": U[:, 2], "phi+": U[:, 1], "phi-": U[:, 3],
            "combo": combination(U[:, 0], U[:, 2], co),
            "drho+": drho_p,
            "drho-": drho_m,
            "heat+": U0[:, 1] * heat_factor(nodes**2, co.nu1_plus, t),
            "heat-": U0[:, 3] * heat_factor(nodes**2, co.nu1_minus, t),
        }

    def _squared_moduli(self, U, U0, nodes, t, variables):
        """``|value|^2`` per variable and node, shape (len(variables), n)."""
        vals = self._variable_values(U, U0, nodes, t)
        a = np.abs(np.stack([vals[v] for v in variables]))
        return np.multiply(a, a, out=a)

    def norms(self, data: RadialProfileData, times, ks, variables=VARIABLES):
        """Norm tables {variable: {k: array over times}} by exact evolution."""
        for v in variables:
            if v not in VARIABLES:
                raise ValueError(f"unknown variable {v!r}; expected one of {VARIABLES}")
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            raise ValueError("times must hold at least one sample time")
        if np.any(times < 0):
            raise ValueError("times must be >= 0")
        ks = tuple(ks)
        if not ks:
            raise ValueError("ks must hold at least one derivative order")
        nodes = self.quad.nodes
        U0 = data.sampled(nodes)
        evolve = self.decomp.evolution(U0)
        W = _node_weights(nodes, self.quad.weights, ks)
        sq = np.empty((len(times), len(variables), len(ks)))
        latest = int(np.argmax(times))  # the time the quadrature check runs at
        last = []  # its squared moduli, for the check

        def sample(it):
            a2 = self._squared_moduli(evolve(times[it]), U0, nodes, times[it], variables)
            sq[it] = a2 @ W
            if it == latest:
                last.append(a2)

        threads.each(sample, len(times), threads.CPUS)
        out = {v: {k: np.sqrt(sq[:, iv, ik]) for ik, k in enumerate(ks)}
               for iv, v in enumerate(variables)}
        t_last, k_max = times[latest], max(ks)
        fine = np.sqrt(self._refined_squares(data, t_last, k_max, tuple(out), last[0]))
        for (v, table), f in zip(out.items(), fine):
            coarse = table[k_max][latest]
            if abs(f - coarse) > _CHECK_TOL * max(f, 1e-300) + 1e-300:
                raise AccuracyError(
                    f"quadrature not converged for {v} at t={t_last:g}: "
                    f"{float(coarse)!r} vs refined {float(f)!r}")
        return out

    def _refined_squares(self, data, t, k, variables, a2):
        """Squared order-``k`` norms at ``t`` under the panel-doubled rule.

        ``a2`` holds the coarse squared moduli at ``t``.  Only live panels
        (above ``_CHECK_TOL**2`` of some variable's total) are refined, by
        ``quad.refined(live)``; the others keep their coarse sums.
        """
        quad = self.quad
        coarse = (a2 * _node_weights(quad.nodes, quad.weights, (k,))[:, 0]).reshape(
            len(variables), -1, quad.order).sum(axis=2)
        live = (coarse > _CHECK_TOL**2 * coarse.sum(axis=1, keepdims=True)).any(axis=0)
        total = coarse[:, ~live].sum(axis=1)
        if live.any():
            slot = self._refined[0]  # an equal live set reuses it, another replaces it
            if slot is None or not np.array_equal(slot[0], live):
                fine = quad.refined(live)
                threads.freeze(live)
                slot = self._refined[0] = (live, fine, decompose_batch(fine.nodes, self.coeffs))
            _, fine, decomp = slot
            U0 = data.sampled(fine.nodes)
            U = decomp.apply(t, U0)
            total += (self._squared_moduli(U, U0, fine.nodes, t, variables)
                      @ _node_weights(fine.nodes, fine.weights, (k,))[:, 0])
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
