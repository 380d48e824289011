"""Batched Newton/bisection kernel for the pressure-equilibrium root.

The nonlinear right-hand side solves the closure at every grid point once
per stage, warm-started from the previous stage's density ratio
``rho+ / (R+ + R-)``.  The kernel is a masked synchronous numpy iteration
over the whole batch.

The root ``rho+`` of ``phi(x) = x**gp - (Rm*x/(x - Rp))**gm`` is bracketed by
``(Rp*(1+1e-12), Rp + Rm + 10*max(Rp, Rm))``; ``phi`` is strictly increasing
in ``x`` on that interval, so bisection is always a safe fallback for Newton.
A root with ``alpha-`` below ~1e-12 lies under that lower end; the points
Newton leaves unconverged are therefore bisected from the double after ``Rp``.
For strongly mismatched exponents the nominal upper end may not yet have a
positive ``phi``; the bracket is then widened geometrically.
"""

from __future__ import annotations

import numpy as np

TOL_PHI = 1e-12
MAX_ITER = 100
_ULPS = 4.0 * np.finfo(np.float64).eps


def solve_rho_plus_batch(Rp, Rm, gamma_plus, gamma_minus, x0=None):
    """Root of the common-pressure constraint for arrays of (R+, R-).

    Returns an array shaped like the inputs; NaN marks unconverged entries
    (the caller decides whether to raise).  ``x0`` warm-starts Newton.
    """
    Rp = np.asarray(Rp, dtype=np.float64)
    shape = Rp.shape
    Rp = Rp.ravel()
    Rm = np.asarray(Rm, dtype=np.float64).ravel()
    gp, gm = float(gamma_plus), float(gamma_minus)
    x = Rp + Rm if x0 is None else np.array(x0, dtype=np.float64).ravel()
    lo = Rp * (1.0 + 1e-12)
    hi = Rp + Rm + 10.0 * np.maximum(Rp, Rm)
    phi = None
    if ((x > lo) & (x < hi)).all():
        # a start inside the nominal bracket that meets the tolerance is the
        # root the iteration returns, whatever the widened bracket
        rhom, Pp, Pm, phi = _residual(x, Rp, Rm, gp, gm)
        if (np.abs(phi) <= TOL_PHI * np.maximum(1.0, Pp)).all():
            return x.reshape(shape)
    # widen until phi(hi) > 0 (phi is increasing and -> +inf)
    for _ in range(64):
        bad = hi**gp - (Rm * hi / (hi - Rp)) ** gm <= 0.0
        if not bad.any():
            break
        hi = np.where(bad, Rp + 2.0 * (hi - Rp), hi)
    if phi is None:  # a start outside the bracket moves into it
        x = np.where((x > lo) & (x < hi), x,
                     np.minimum(np.maximum(Rp + Rm, lo * 1.000001), 0.5 * (lo + hi)))
        rhom, Pp, Pm, phi = _residual(x, Rp, Rm, gp, gm)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(MAX_ITER):
        active &= ~(np.abs(phi) <= TOL_PHI * np.maximum(1.0, Pp))
        if not active.any():
            break
        dx = phi / (gp * Pp / x + gm * (Pm / rhom) * Rm * Rp / (x - Rp) ** 2)
        # A Newton step within a few ulps of x also ends the iteration: with
        # alpha+ near 1, rounding in x - Rp keeps phi above TOL_PHI forever.
        active &= ~(np.abs(dx) <= _ULPS * x)
        if not active.any():
            break
        hi = np.where(active & (phi > 0.0), x, hi)
        lo = np.where(active & (phi <= 0.0), x, lo)
        xn = x - dx
        bisect = (xn <= lo) | (xn >= hi)
        xn = np.where(bisect, 0.5 * (lo + hi), xn)
        x = np.where(active, xn, x)
        rhom, Pp, Pm, phi = _residual(x, Rp, Rm, gp, gm)
    else:
        x[active] = _bisect(Rp[active], Rm[active], gp, gm, hi[active])
    return x.reshape(shape)


def _residual(x, Rp, Rm, gp, gm):
    """``rho-``, the two pressures and ``phi`` at ``x``."""
    rhom = Rm * x / (x - Rp)
    Pp = x**gp
    Pm = rhom**gm
    return rhom, Pp, Pm, Pp - Pm


def _bisect(Rp, Rm, gp, gm, hi):
    """Root on ``(next double after Rp, hi)`` within an ulp, by bisection.

    The lower end is the first double with a finite ``rho-``; a root without a
    double of its own above ``Rp`` (``alpha-`` below an ulp) gives a point
    within two ulps of ``Rp``.  NaN where ``MAX_ITER`` halvings leave the
    bracket wider than adjacent doubles.
    """
    lo = np.nextafter(Rp, np.inf)
    for _ in range(MAX_ITER):
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi)
        if done.all():
            break
        up = mid**gp > (Rm * mid / (mid - Rp)) ** gm
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return np.where(done, hi, np.nan)
