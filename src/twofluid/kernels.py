"""Batched Newton/bisection kernels for the pressure-equilibrium root.

The nonlinear right-hand side solves the closure at every grid point once
per stage, warm-started from the previous stage's root.  Two
implementations with identical semantics are provided: a numba ``@njit``
build (default) and a pure-numpy masked iteration.  Set
``TWOFLUID_NO_NUMBA=1`` to force the numpy path; ``benchmarks/bench_closure.py``
compares the two.

The root ``rho+`` of ``phi(x) = x**gp - (Rm*x/(x - Rp))**gm`` is bracketed by
``(Rp*(1+1e-12), Rp + Rm + 10*max(Rp, Rm))``; ``phi`` is strictly increasing
in ``x`` on that interval, so bisection is always a safe fallback for Newton.
For strongly mismatched exponents the nominal upper end may not yet have a
positive ``phi``; the bracket is then widened geometrically.
"""

from __future__ import annotations

import os

import numpy as np

TOL_PHI = 1e-12
MAX_ITER = 100

_want_numba = os.environ.get("TWOFLUID_NO_NUMBA", "0") != "1"
if _want_numba:
    try:
        import numba
        from numba import njit, prange

        HAVE_NUMBA = True
        _threads = os.environ.get("TWOFLUID_THREADS")
        if _threads:
            numba.set_num_threads(max(1, min(int(_threads), numba.config.NUMBA_NUM_THREADS)))
    except ImportError:  # pragma: no cover
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False

if not HAVE_NUMBA:
    def prange(n):  # noqa: ANN001 - numba-free stand-in
        return range(n)


def _rho_plus_newton_py(Rp, Rm, gp, gm, x0, out):
    n = Rp.shape[0]
    for i in prange(n):
        rp = Rp[i]
        rm = Rm[i]
        lo = rp * (1.0 + 1e-12)
        hi = rp + rm + 10.0 * max(rp, rm)
        # widen until phi(hi) > 0 (phi is increasing and -> +inf)
        ok = False
        for _ in range(64):
            rhom = rm * hi / (hi - rp)
            if hi**gp - rhom**gm > 0.0:
                ok = True
                break
            hi = rp + 2.0 * (hi - rp)
        if not ok:
            out[i] = np.nan
            continue
        x = x0[i]
        if not (lo < x < hi):
            x = min(max(rp + rm, lo * 1.000001), 0.5 * (lo + hi))
        converged = False
        for _ in range(MAX_ITER):
            rhom = rm * x / (x - rp)
            Pp = x**gp
            Pm = rhom**gm
            phi = Pp - Pm
            if abs(phi) <= TOL_PHI * max(1.0, Pp):
                converged = True
                break
            if phi > 0.0:
                hi = x
            else:
                lo = x
            dphi = gp * Pp / x + gm * (Pm / rhom) * rm * rp / (x - rp) ** 2
            xn = x - phi / dphi
            if not (lo < xn < hi):
                xn = 0.5 * (lo + hi)
            x = xn
        out[i] = x if converged else np.nan
    return out


if HAVE_NUMBA:
    _rho_plus_newton_nb = njit(cache=True, parallel=True)(_rho_plus_newton_py)


def _rho_plus_newton_np(Rp, Rm, gp, gm, x0):
    """Pure-numpy variant: masked synchronous iteration over the batch."""
    lo = Rp * (1.0 + 1e-12)
    hi = Rp + Rm + 10.0 * np.maximum(Rp, Rm)
    for _ in range(64):
        rhom = Rm * hi / (hi - Rp)
        bad = hi**gp - rhom**gm <= 0.0
        if not bad.any():
            break
        hi = np.where(bad, Rp + 2.0 * (hi - Rp), hi)
    x = np.where((x0 > lo) & (x0 < hi), x0, np.minimum(np.maximum(Rp + Rm, lo * 1.000001), 0.5 * (lo + hi)))
    active = np.ones(x.shape, dtype=bool)
    for _ in range(MAX_ITER):
        rhom = Rm * x / (x - Rp)
        Pp = x**gp
        Pm = rhom**gm
        phi = Pp - Pm
        done = np.abs(phi) <= TOL_PHI * np.maximum(1.0, Pp)
        active &= ~done
        if not active.any():
            break
        hi = np.where(active & (phi > 0.0), x, hi)
        lo = np.where(active & (phi <= 0.0), x, lo)
        dphi = gp * Pp / x + gm * (Pm / rhom) * Rm * Rp / (x - Rp) ** 2
        xn = x - phi / dphi
        bisect = (xn <= lo) | (xn >= hi)
        xn = np.where(bisect, 0.5 * (lo + hi), xn)
        x = np.where(active, xn, x)
    x = np.where(active, np.nan, x)
    return x


def solve_rho_plus_batch(Rp, Rm, gamma_plus, gamma_minus, x0=None):
    """Root of the common-pressure constraint for arrays of (R+, R-).

    Returns an array shaped like the inputs; NaN marks unconverged entries
    (the caller decides whether to raise).  ``x0`` warm-starts Newton.
    """
    shape = np.shape(Rp)
    Rpf = np.ascontiguousarray(Rp, dtype=np.float64).ravel()
    Rmf = np.ascontiguousarray(Rm, dtype=np.float64).ravel()
    if x0 is None:
        x0f = Rpf + Rmf
    else:
        x0f = np.ascontiguousarray(x0, dtype=np.float64).ravel()
    if HAVE_NUMBA:
        out = np.empty_like(Rpf)
        _rho_plus_newton_nb(Rpf, Rmf, float(gamma_plus), float(gamma_minus), x0f, out)
    else:
        out = _rho_plus_newton_np(Rpf, Rmf, float(gamma_plus), float(gamma_minus), x0f)
    return out.reshape(shape)
