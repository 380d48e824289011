"""Per-frequency analysis of the linearized compressible subsystem.

After the Hodge split, the compressible unknowns ``(n+, phi+, n-, phi-)``, with
``phi± = i khat . u±`` at frequency ``xi`` (``khat = xi/|xi|``, so
``dn±/dt = -|xi| phi±``), evolve mode-by-mode under a 4x4 Green matrix
``A1(|xi|)``.  This module builds ``A1``, computes its quartic spectrum (the
characteristic quartic factored into two real quadratics by Ferrari's
resolvent and Newton on the factors, after Strobach 2010, then one guarded
Newton step on ``det(lambda I - A1)``), assembles the semigroup ``exp(t A1)``
from two clusters of two roots (:class:`BatchDecomposition`), and provides the
smooth cutoff profile used to build band-limited data.

Functions of the frequency take whole arrays of magnitudes; one mode is an
array of length one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from . import threads
from .closure import LinearCoefficients

# Gap, relative to the largest root, below which a cluster's roots are
# confluent: the per-root report P_G/2 ± (A - mu) P_G/(r1 - r2) carries ~1/gap
# cancellation, so it switches well before sqrt(eps).  A root of the other
# cluster that close raises.  The evolution holds at any gap.
EPS_CONFLUENT = 2e-6

# Smallest frequency the quartic solve is accurate at: the depressed quartic's
# s3^2 * s3^2 and the resolvent's q * q are O(xi^8), and below this they leave
# the normal floats (subnormal, then zero), so the small roots lose their digits.
XI_FLOOR = sys.float_info.min ** 0.125

_I4 = np.eye(4)
# Slots of the two clusters, by the partner of slot 0: cluster 0, then cluster 1.
_SLOTS = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]], dtype=np.int8)
# Batches of more rows than this are projected on the package's thread pool,
# in contiguous chunks of at most this many rows; smaller ones run inline.
# Measured with the four linear-lab campaigns (11,328 nodes) on a 2-vCPU
# x86-64 host, 2,048-row chunks ran as fast as 3,072 and 4,096 and raised
# peak RSS by 1.9 MB, against 4.5 and 5.7 MB: the pool threads' malloc arenas
# keep a chunk's temporaries.  Decompositions stay whole: their ~130 numpy
# calls on a few thousand rows each are too short to overlap under the GIL
# (two threads on two 4,096-row batches took 1.1-1.2x the serial time), and
# chunked on the pool they made the campaigns ~6% slower.
_CHUNK_ROWS = 2048


class UnsupportedDegeneracyError(ValueError):
    """Three eigenvalues in one cluster: no split into two separated pairs."""


def smooth_step_down(x):
    """C-infinity transition from 1 (x <= 0) to 0 (x >= 1)."""
    x = np.asarray(x, dtype=float)
    y = np.clip(x, 0.0, 1.0)

    def bump(z):
        out = np.zeros_like(z)
        pos = z > 0
        out[pos] = np.exp(-1.0 / z[pos])
        return out

    a = bump(1.0 - y)
    return a / (a + bump(y))


def spectral_constants(coeffs: LinearCoefficients):
    """Pair discriminant R, the two diffusive slopes, and the damping floor.

    The damping floor ``nubar`` is the minimum of the acoustic decay rate
    and the slower diffusive rate; its definition depends on whether R is
    real or imaginary (at R = 0 the two coincide).
    """
    b1, b4 = coeffs.beta1, coeffs.beta4
    S = b1 + b4
    X = b1 * coeffs.nu_minus + b4 * coeffs.nu_plus
    Y = b1 * coeffs.sigma_minus + b4 * coeffs.sigma_plus
    R = np.sqrt(complex(X * X - 4.0 * S * Y))
    lt3 = (-X + R) / (2.0 * S)
    lt4 = (-X - R) / (2.0 * S)
    acoustic = (b1 * coeffs.nu_plus + b4 * coeffs.nu_minus) / (2.0 * S)
    if abs(R.imag) > 0:
        nubar = min(acoustic, X / (2.0 * S))
    else:
        nubar = min(acoustic, -lt3.real)
    return R, lt3, lt4, acoustic, nubar


def batch_green(xis, coeffs: LinearCoefficients):
    """Green matrix ``A1`` per frequency, shape ``xis.shape + (4, 4)``; zero at xi = 0."""
    xis = np.asarray(xis, dtype=float)
    A = np.zeros(xis.shape + (4, 4))
    x3 = xis**3
    x2 = xis**2
    A[..., 0, 1] = -xis
    A[..., 1, 0] = coeffs.beta1 * xis + coeffs.sigma_plus * x3
    A[..., 1, 1] = -coeffs.nu_plus * x2
    A[..., 1, 2] = coeffs.beta2 * xis
    A[..., 2, 3] = -xis
    A[..., 3, 0] = coeffs.beta3 * xis
    A[..., 3, 2] = coeffs.beta4 * xis + coeffs.sigma_minus * x3
    A[..., 3, 3] = -coeffs.nu_minus * x2
    return A


def batch_char_coeffs(xis, coeffs: LinearCoefficients):
    """Coefficients (c3, c2, c1, c0) of ``l^4 + c3 l^3 + c2 l^2 + c1 l + c0`` per frequency."""
    xis = np.asarray(xis, dtype=float)
    a2 = xis * xis
    b1, b4 = coeffs.beta1, coeffs.beta4
    np_, nm_ = coeffs.nu_plus, coeffs.nu_minus
    sp, sm = coeffs.sigma_plus, coeffs.sigma_minus
    c3 = (np_ + nm_) * a2
    c2 = (b1 + b4) * a2 + (sp + sm + np_ * nm_) * a2 * a2
    c1 = (b1 * nm_ + b4 * np_) * a2 * a2 + (np_ * sm + nm_ * sp) * a2**3
    c0 = (b1 * sm + b4 * sp) * a2**3 + sp * sm * a2**4
    return c3, c2, c1, c0


def _resolvent_root(p, q, r):
    """Largest real root of Ferrari's resolvent ``m^3 + p m^2 + (p^2/4 - r) m - q^2/8``.

    Closed form (Cardano with one real root, else the trigonometric form),
    then two Newton steps, which restore the relative accuracy of a root far
    below ``|p|`` (small frequencies).  Clipped at 0: the cubic is
    ``-q^2/8 <= 0`` at ``m = 0``, so its largest root is not negative.
    """
    C, D = p * p / 4.0 - r, -q * q / 8.0
    # depressed in u = m + p/3; powers as products (libm pow has slow paths)
    P = C - p * p / 3.0
    Q = ((2.0 / 27.0) * p * p - C / 3.0) * p + D
    P3, Q2 = P / 3.0, Q / 2.0
    disc = Q2 * Q2 + P3 * P3 * P3
    w = np.cbrt(-Q2 - np.copysign(np.sqrt(np.abs(disc)), Q))  # larger Cardano term
    one = w - P3 / w
    rt = np.sqrt(np.maximum(-P3, 0.0))
    three = 2.0 * rt * np.cos(np.arccos(np.clip(-Q2 / (rt * rt * rt), -1.0, 1.0)) / 3.0)
    m = np.where(disc > 0, one, three) - p / 3.0
    for _ in range(2):
        slope = (3.0 * m + 2.0 * p) * m + C
        m = np.where(slope != 0, m - (((m + p) * m + C) * m + D) / slope, m)
    return np.maximum(m, 0.0)


def _quadratic_roots(c, d):
    """Roots of ``l^2 + c l + d``: an exact conjugate pair, or two real roots, stably."""
    disc = c * c - 4.0 * d
    sq = np.sqrt(np.abs(disc))
    big = -0.5 * (c + np.copysign(sq, c))
    pair = disc < 0
    z = np.empty(c.shape + (2,), dtype=complex)
    z.real[..., 0] = np.where(pair, -0.5 * c, big)
    z.real[..., 1] = np.where(pair, -0.5 * c, np.where(big != 0, d / big, 0.0))
    z.imag[..., 0] = np.where(pair, 0.5 * sq, 0.0)
    z.imag[..., 1] = -z.imag[..., 0]
    return z


def _quartic_roots(c3, c2, c1, c0):
    """Roots of ``l^4 + c3 l^3 + c2 l^2 + c1 l + c0`` per row, from two real quadratics.

    Returns the roots ``(n, 4)`` and a per-row ``converged`` flag.  The
    quartic is factored as ``(l^2 + a l + b)(l^2 + c l + d)``, after
    Strobach, "The fast quartic solver", J. Comput. Appl. Math. 234 (2010):

    - start: Ferrari's depressed quartic ``y^4 + p y^2 + q y + r`` (``l = y -
      c3/4``) splits as ``(y^2 + s y + t)(y^2 - s y + v)`` with ``s^2 = 2m``
      (``m`` the resolvent root) and ``t, v`` the roots of ``z^2 - (p + 2m) z
      + r``, ``t - v = -q/s``.  Taking ``t, v`` from that quadratic, with
      ``q`` only choosing which is which, stays finite on biquadratic rows
      (``m = q = 0``: all four roots share one real part, as on the
      symmetric parameters), where ``q/s`` is 0/0.
    - refinement: three Newton steps on the factor with the smaller constant
      term ``(c, d)``, the diffusive one at small frequencies (``d ~ xi^4``
      against ``b ~ xi^2``), with ``a = c3 - c`` and ``b = c2 - d - a c``
      eliminated, so the tiny roots keep their relative accuracy; the 2x2
      Jacobian is solved in closed form.
    - roots: each factor by the stable quadratic formula, so complex roots
      come as exact conjugate pairs.

    A row converged when the residuals ``c1 - (a d + b c)`` and ``c0 - b d``
    are within 4 times their evaluation noise (the rounding of ``a``, ``b``
    and of the products; converged rows measure at most 0.6 of it).  Rows
    whose coefficients are all zero (xi = 0) give four zero roots.
    """
    c3, c2, c1, c0 = (np.atleast_1d(np.asarray(c, dtype=float)) for c in (c3, c2, c1, c0))
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        s3 = c3 / 4.0
        s3sq = s3 * s3
        p = c2 - 6.0 * s3sq
        q = c1 - 2.0 * c2 * s3 + 8.0 * s3sq * s3
        r = c0 - c1 * s3 + c2 * s3sq - 3.0 * s3sq * s3sq
        m = _resolvent_root(p, q, r)
        s = np.sqrt(2.0 * m)
        h = p / 2.0 + m
        big = h + np.copysign(np.sqrt(np.maximum(h * h - r, 0.0)), h)
        other = np.where(big != 0, r / big, 0.0)
        t, v = np.minimum(big, other), np.maximum(big, other)
        t, v = np.where(q >= 0, t, v), np.where(q >= 0, v, t)
        d1, d2 = s3sq + s * s3 + t, s3sq - s * s3 + v
        first = np.abs(d1) < np.abs(d2)
        c = np.where(first, 2.0 * s3 + s, 2.0 * s3 - s)
        d = np.where(first, d1, d2)
        for _ in range(3):
            a = c3 - c
            b = c2 - d - a * c
            f1, f2 = c1 - (a * d + b * c), c0 - b * d
            j11, j12, j21, j22 = b - d + (c - a) * c, a - c, (c - a) * d, b - d
            det = j11 * j22 - j12 * j21
            c = c + (f1 * j22 - j12 * f2) / det
            d = d + (j11 * f2 - j21 * f1) / det
        a = c3 - c
        b = c2 - d - a * c
        err_a = eps * (np.abs(c3) + np.abs(c))
        err_b = eps * (np.abs(c2) + np.abs(d) + 2.0 * np.abs(a * c)) + np.abs(c) * err_a
        noise1 = (eps * (np.abs(c1) + np.abs(a * d) + np.abs(b * c))
                  + np.abs(d) * err_a + np.abs(c) * err_b)
        noise2 = eps * (np.abs(c0) + np.abs(b * d)) + np.abs(d) * err_b
        converged = (np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d)
                     & (np.abs(c1 - (a * d + b * c)) <= 4.0 * noise1)
                     & (np.abs(c0 - b * d) <= 4.0 * noise2))
        lam = np.concatenate([_quadratic_roots(a, b), _quadratic_roots(c, d)], axis=-1)
    zero = (c3 == 0) & (c2 == 0) & (c1 == 0) & (c0 == 0)
    lam[zero] = 0.0
    return lam, converged | zero


def _polish_roots(lam, c3, c2, c1, c0):
    """Two guarded Newton steps refining eigenvalues on the quartic.

    Used on the rows :func:`_quartic_roots` did not converge on, after a
    real eigensolve.  That eigensolve is well conditioned near clustered
    pairs but its absolute error scales with the matrix norm, which drowns
    the tiny diffusive eigenvalues at small frequencies.  Newton on the
    quartic fixes those (its coefficients scale out), and is skipped
    whenever the polynomial value is at the level of its own evaluation
    noise.
    """
    c3e, c2e, c1e, c0e = (np.atleast_1d(c)[:, None] for c in (c3, c2, c1, c0))
    for _ in range(2):
        p = (((lam + c3e) * lam + c2e) * lam + c1e) * lam + c0e
        noise = np.finfo(float).eps * (
            np.abs(lam) ** 4 + np.abs(c3e * lam**3) + np.abs(c2e * lam**2)
            + np.abs(c1e * lam) + np.abs(c0e))
        dp = ((4.0 * lam + 3.0 * c3e) * lam + 2.0 * c2e) * lam + c1e
        ok = (np.abs(p) > 4.0 * noise) & (np.abs(dp) > 0)
        lam = np.where(ok, lam - p / np.where(ok, dp, 1.0), lam)
    return lam


def batch_eigenvalues(xis, coeffs: LinearCoefficients):
    """Eigenvalues of the Green matrix for an array of frequencies."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    return _eigenvalues(batch_green(xis, coeffs), batch_char_coeffs(xis, coeffs))


def _polish_on_green(lam, A):
    """One guarded Newton step of roots ``lam`` (n, k) on ``det(l I - A)`` of Green matrices.

    With ``A``'s pattern the determinant is ``D1 D2 - A01 A23 A12 A30``, where
    ``D1 = l^2 - A11 l - A01 A10`` and ``D2 = l^2 - A33 l - A23 A32`` are the
    two phases' blocks.  Where the phases are alike (the symmetric
    parameters at large xi) the two complex pairs come within a relative
    2.7e-4 of each other: the quartic's roots then move by eps/2.7e-4 under
    the rounding of its coefficients, while the eigenvalues of ``A`` stay
    well conditioned, and the projectors, built from ``A``, want the latter.
    The step is skipped wherever the determinant is within its own
    evaluation noise, which covers the small frequencies, where the
    cancelling block products leave the quartic the better conditioned.
    """
    u1, u2 = -A[:, 1, 1, None], -A[:, 3, 3, None]
    w1, w2 = -(A[:, 0, 1] * A[:, 1, 0])[:, None], -(A[:, 2, 3] * A[:, 3, 2])[:, None]
    kappa = (A[:, 0, 1] * A[:, 2, 3] * A[:, 1, 2] * A[:, 3, 0])[:, None]
    D1, D2 = (lam + u1) * lam + w1, (lam + u2) * lam + w2
    det = D1 * D2 - kappa
    r = np.abs(lam)
    noise = np.finfo(float).eps * (np.abs(D2) * ((r + np.abs(u1)) * r + np.abs(w1))
                                   + np.abs(D1) * ((r + np.abs(u2)) * r + np.abs(w2))
                                   + np.abs(kappa))
    slope = (2.0 * lam + u1) * D2 + D1 * (2.0 * lam + u2)
    ok = (np.abs(det) > 4.0 * noise) & (slope != 0)
    return np.where(ok, lam - det / np.where(ok, slope, 1.0), lam)


def _eigenvalues(A, char):
    """Eigenvalues of the Green matrices ``A``, from the roots of their quartics ``char``.

    The factored roots take one guarded Newton step on ``det(l I - A)``.
    Rows the factorisation did not converge on fall back to a real
    eigensolve of ``A`` polished on the quartic.  Either way complex roots
    are exact conjugate pairs: by construction on factored rows, and on the
    others because the eigensolve is real and the polish's arithmetic is
    conjugation-symmetric.
    """
    lam, converged = _quartic_roots(*char)
    g = ~converged
    lam[g] = 0.0  # finite placeholders until the fallback below
    # columns (0, 1) and (2, 3) are the two factors' roots: step the first of
    # each, then the second where the factor's roots are real; a complex
    # second root is the conjugate of the first
    real = lam.imag[:, 1::2] == 0
    lam[:, ::2] = _polish_on_green(lam[:, ::2], A)
    rows = real.any(axis=1)
    lam[rows, 1::2] = _polish_on_green(lam[rows, 1::2], A[rows])
    lam[:, 1::2] = np.where(real, lam[:, 1::2], lam[:, ::2].conj())
    if g.any():
        lam[g] = _polish_roots(np.linalg.eigvals(A[g]).astype(complex), *(c[g] for c in char))
    return lam


def _order_roots_distinct(lam):
    """Acoustic pair first (by descending Im), then the remaining pair by Re.

    Returns (ordered roots, fallback flag).  Rows sort by descending |Im|, Im,
    then Re, so each pair leads with its +Im root, and two real roots go by
    descending Re.  Fallback rows, whose 2nd and 3rd largest |Im| agree to
    1e-9 of the largest magnitude (as when all roots are real), sort by
    descending magnitude, then Re, then Im.
    """
    by_im = np.take_along_axis(lam, np.lexsort((-lam.real, -lam.imag, -np.abs(lam.imag)),
                                               axis=-1), axis=-1)
    by_mag = np.take_along_axis(lam, np.lexsort((-lam.imag, -lam.real, -np.abs(lam)),
                                                axis=-1), axis=-1)
    a_im = np.abs(by_im.imag)
    scale = np.abs(lam).max(axis=1)
    fallback = (a_im[:, 1] - a_im[:, 2]) <= 1e-9 * np.maximum(scale, 1e-300)
    return np.where(fallback[:, None], by_mag, by_im), fallback


def _split(lam):
    """Each row's best split {0, j} | rest of its roots: ``j``, its smaller and its cross gap.

    Of the splits a real matrix allows (both pairs closed under conjugation,
    or each the other's conjugate), the one with the smallest ratio of its
    largest gap within a pair to its smallest gap between them, ties to the
    lower j.
    """
    splits = []
    for j in (1, 2, 3):
        g, h = lam[:, _SLOTS[j, :2]], lam[:, _SLOTS[j, 2:]]
        closed = [(p[:, 0] == p[:, 1].conj()) | (p.imag == 0).all(axis=1) for p in (g, h)]
        ok = (closed[0] & closed[1] | (h == g.conj()).all(axis=1)
              | (h[:, ::-1] == g.conj()).all(axis=1))
        within = np.abs([g[:, 0] - g[:, 1], h[:, 0] - h[:, 1]])
        between = np.abs(g[:, :, None] - h[:, None, :]).min(axis=(1, 2))
        ok &= between > 0
        splits.append([np.where(ok, within.max(axis=0) / np.where(ok, between, 1.0), np.inf),
                       within.min(axis=0), between])
    ratio, within, between = np.array(splits).transpose(1, 0, 2)
    k, rows = ratio.argmin(axis=0), np.arange(len(lam))
    return k + 1, within[k, rows], between[k, rows]


def _pairs(lam, partner):
    """Each cluster's roots ``r1, r2`` and the other's ``s1, s2``, (2, n) each, and ``mirrored``.

    A row is mirrored when its clusters are not each closed under
    conjugation, so that each is the other's conjugate.
    """
    R = np.take_along_axis(lam, _SLOTS[partner], axis=1).T.reshape(2, 2, -1)
    r1, r2 = R[:, 0], R[:, 1]
    closed = (r1 == r2.conj()) | (r1.imag == 0) & (r2.imag == 0)
    return r1, r2, r1[::-1], r2[::-1], ~closed.all(axis=0)


def _project(A, lam, partner, U, Q):
    """Cluster terms of data ``U`` (4, m, n) of rows with roots ``lam`` into ``Q``, nodes last.

    With ``v = q_H(A) U``, ``w = (A - mu) v`` and the line's value ``m`` at
    ``mu`` and slope ``d``: ``P_G U = m v + d w``, and ``(A - mu) P_G U = m w +
    d delta^2 v`` as ``(A - mu)^2 = delta^2`` on G's invariant subspace.  The
    constants are real unless the row is mirrored; at xi = 0 cluster 0 is the
    identity and cluster 1 empty.
    """
    r1, r2, s1, s2, mirrored = _pairs(lam, partner)
    zero = (lam == 0).all(axis=1)
    f1, f2 = (r1 - s1) * (r1 - s2), (r2 - s1) * (r2 - s2)
    f = np.where(zero, 1.0, f1 * f2)
    coef = np.stack([0.5 * (r1 + r2), s1 + s2, s1 * s2, 0.5 * (f1 + f2) / f,
                     (s1 + s2 - r1 - r2) / f, 0.25 * (r1 - r2) ** 2])
    coef = np.where(mirrored, coef, coef.real)
    coef[:, :, zero] = 0.0
    coef[2:4, 0, zero] = 1.0
    At = np.ascontiguousarray(A.transpose(1, 2, 0))

    def mv(X):  # A X per node
        Y = At[:, 0, None] * X[0]
        for j in (1, 2, 3):
            Y += At[:, j, None] * X[j]
        return Y

    K1 = mv(U)
    K2 = mv(K1)
    for g, (mu, sigma, pi, m, d, d2) in enumerate(coef.transpose(1, 0, 2)):
        v = K2 - sigma * K1 + pi * U
        w = mv(v) - mu * v
        Q[g] = m * v + d * w, m * w + d * d2 * v


def _cluster_weights(c, t: float):
    """Weights (2, n) at ``t`` of clusters ``c``: of ``P U`` (real part) and ``N U`` (imaginary).

    These are ``e^(mu t) cosh(delta t)`` and ``e^(mu t) t sinhc(delta t)``,
    ``N = (A - mu) P``.  A conjugate pair ``mu ± i omega`` takes ``e^(mu t)
    (cos, sin)(omega t)``, one exponential, its ``N U`` scaled by ``1/omega``
    (``n_scale``).  Any other cluster, from its root ``r`` of larger real
    part and ``gap``, the other root minus ``r``, takes ``e^(r t) (1 + g/2)``
    and ``e^(r t) g / gap`` with ``g = expm1(gap t)`` (``t e^(r t)`` at gap
    0): neither overflows nor cancels.  A mirrored row's cluster 1 takes
    the imaginary parts of its cluster 0's.
    """
    W = np.exp(c.lead * t)
    E, g = W[c.slot, c.row], np.expm1(c.gap * t)
    cosh, sinhc = E * (1.0 + 0.5 * g), E * np.where(c.z, t, g * c.inv_gap)
    W[c.slot, c.row] = cosh.real + 1j * sinhc.real
    W[1, c.row[c.conjugate]] = (cosh.imag + 1j * sinhc.imag)[c.conjugate]
    return W


@dataclass
class BatchDecomposition:
    """Semigroup ``exp(t A1)`` per frequency from two clusters of two roots.

    Each row's roots split into the two best separated pairs (at small xi the
    acoustic pair ``~ ±i omega xi`` and the diffusive pair ``~ xi^2``): cluster
    0 holds slots 0 and ``partner``, cluster 1 the other two.  After Davies &
    Higham (2003), for G = {r1, r2} against H = {s1, s2}: ``P_G = u(A) q_H(A)``,
    ``q_H(l) = (l - s1)(l - s2)`` and ``u`` the line through ``1/q_H`` at r1 and
    r2, of slope ``-(r1 + r2 - s1 - s2) / (q_H(r1) q_H(r2))``; and ``exp(t A) P_G
    = e^(mu t) [cosh(delta t) P_G + t sinhc(delta t) (A - mu) P_G]``, ``mu`` and
    ``delta`` the pair's mean and half-gap.  Neither divides by ``r1 - r2``.
    ``projectors`` reports the same matrices per root.
    """

    xis: np.ndarray
    eigenvalues: np.ndarray   # (n, 4)
    confluent: np.ndarray     # (n,) bool
    fallback: np.ndarray      # (n,) bool
    partner: np.ndarray       # (n,) int: the slot clustered with slot 0
    green: np.ndarray         # (n, 4, 4) real Green matrices
    char: tuple               # quartic coefficients (c3, c2, c1, c0), each (n,)

    @cached_property
    def _clusters(self):
        """Per-cluster constants of the weights and of the per-root report, read-only."""
        r1, r2, _, _, mirrored = _pairs(self.eigenvalues, self.partner)
        first = (r1.real > r2.real) | (r1.real == r2.real) & (r1.imag >= r2.imag)
        lead, gap = np.where(first, r1, r2), np.where(first, r2 - r1, r1 - r2)
        osc = (lead.imag > 0) & (r1 == r2.conj())  # a conjugate pair
        general = ~osc
        general[1, mirrored] = False  # cluster 0's conjugate
        slot, row = np.nonzero(general)
        gap = gap[general]
        out = SimpleNamespace(
            slots=_SLOTS[self.partner], mirrored=np.nonzero(mirrored)[0],
            tight=np.abs(r1 - r2) <= EPS_CONFLUENT * np.abs(self.eigenvalues).max(axis=1),
            mu=0.5 * (r1 + r2), lead=np.where(general | osc, lead, 0.0), slot=slot, row=row,
            n_scale=1.0 / np.where(osc, lead.imag, 1.0), conjugate=mirrored[row], gap=gap,
            inv_gap=1.0 / np.where(gap == 0, 1.0, gap), z=gap == 0)
        threads.freeze(*vars(out).values())
        return out

    def project(self, U):
        """``(P_g U, (A - mu_g) P_g U)`` per cluster g, (2, 2, 4, m, n) complex, of U (4, m, n).

        Large batches go in row chunks on the package's thread pool, each into its rows.
        """
        n = U.shape[-1]
        Q = np.empty((2, 2) + U.shape, dtype=complex)
        count = -(-n // _CHUNK_ROWS) if threads.CPUS > 1 else 1
        threads.slices(lambda s: _project(self.green[s], self.eigenvalues[s], self.partner[s],
                                          U[..., s], Q[..., s]), n, count, threads.CPUS)
        return Q

    def evolution(self, U0):
        """``t -> exp(t A1) U0`` for mode data ``U0`` (n, 4) or (n, 4, m), projected once.

        Real data evolve in real arithmetic (complex data as two real parts); a
        mirrored row's terms are twice the real, then minus twice the imaginary
        parts of its cluster 0's.
        """
        if np.iscomplexobj(U0):
            re, im = self.evolution(np.real(U0)), self.evolution(np.imag(U0))
            return lambda t: re(t) + 1j * im(t)
        U0 = np.asarray(U0, dtype=float)
        Q = self.project((U0 if U0.ndim == 3 else U0[..., None]).transpose(1, 2, 0))
        m = self._clusters.mirrored
        Q[:, ..., m] = 2.0 * Q[0][..., m], 2.0j * Q[0][..., m]
        V = Q.reshape((4,) + Q.shape[2:]).real.copy()
        c = self._clusters
        V[1::2] *= c.n_scale[:, None, None]

        def at(t: float):  # refers to ``c``, not to self, so ``_identity`` makes no cycle
            W = _cluster_weights(c, t)
            U = W[0].real * V[0]
            for w, v in zip((W[0].imag, W[1].real, W[1].imag), V[1:]):
                U += w * v
            return U.transpose(2, 0, 1).reshape(U0.shape)

        return at

    def apply(self, t: float, U0):
        """Evolve mode vectors: shape (n, 4) -> (n, 4), real for real data."""
        return self.evolution(U0)(t)

    @cached_property
    def _identity(self):
        return self.evolution(np.broadcast_to(_I4, (len(self.xis), 4, 4)))

    def semigroup(self, t: float):
        """``exp(t A1)`` for every mode, shape (n, 4, 4), real; the identity is projected once."""
        return self._identity(t)

    @cached_property
    def projectors(self):
        """Per-root report (n, 4, 4, 4) of the cluster projections; lazy, read-only.

        A cluster in slots (i, j) reports ``P_G/2 ± (A - mu) P_G / (l_i - l_j)``,
        its roots' projectors, or, if ``tight`` (roots within ``EPS_CONFLUENT``,
        as on confluent rows and at xi = 0), ``P_G`` and ``(A - mu) P_G``.
        """
        n, c = len(self.xis), self._clusters
        Q = self.project(np.broadcast_to(_I4[:, :, None], (4, 4, n))).transpose(0, 1, 4, 2, 3)
        P = np.empty((n, 4, 4, 4), dtype=complex)
        rows = np.arange(n)
        for g, (PG, N) in enumerate(Q):
            i, j, tight = c.slots[:, 2 * g], c.slots[:, 2 * g + 1], c.tight[g][:, None, None]
            gap = np.where(c.tight[g], 1.0, self.eigenvalues[rows, i] - self.eigenvalues[rows, j])
            P[rows, i] = np.where(tight, PG, 0.5 * PG + N / gap[:, None, None])
            P[rows, j] = np.where(tight, N, 0.5 * PG - N / gap[:, None, None])
        threads.freeze(P)  # a decomposition may be shared (the lab caches its bases)
        return P


def decompose_batch(xis, coeffs: LinearCoefficients) -> BatchDecomposition:
    """Eigenvalues and their two clusters per frequency.

    Each row takes one branch, which only orders and labels it: zero (xi = 0);
    distinct (acoustic pair first, by descending Im, then the other pair by
    descending Re, ties by descending Im); distinct-fallback (``fallback``: no
    pair stands out by |Im|, as when all roots are real; by descending
    magnitude, then Re, then Im); or confluent (ordered as distinct, with a
    cluster's roots within ``EPS_CONFLUENT`` times the largest magnitude).
    Three roots that close raise :class:`UnsupportedDegeneracyError`.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    A = batch_green(xis, coeffs)
    char = batch_char_coeffs(xis, coeffs)
    lam, fallback = _order_roots_distinct(_eigenvalues(A, char))
    partner, within, between = _split(lam)
    eps = EPS_CONFLUENT * np.abs(lam).max(axis=1)
    apart = (eps == 0) | (between > eps)
    if not apart.all():
        raise UnsupportedDegeneracyError(
            f"three eigenvalues in one cluster at xi={xis[np.argmin(apart)]:.6g}")
    conf = (eps > 0) & (within <= eps)
    return BatchDecomposition(xis=xis, eigenvalues=lam, confluent=conf,
                              fallback=fallback & (eps > 0) & ~conf, partner=partner,
                              green=A, char=char)


def projector_residuals(batch: BatchDecomposition):
    """Worst scaled residual of the projector algebra per mode.

    Every row checks resolution of identity, idempotence and mutual
    annihilation of its projections, and spectral reconstruction
    ``A = sum_i l_i P_i``.  A tight cluster's ``(P_G, N)``, ``N = (A - mu)
    P_G``, weighs ``mu`` and 1 there; its ``N`` checks ``N @ N = 0`` and is left
    out of the identity and of the pairs.  Idempotence and annihilation are
    scaled by the projector magnitudes (they grow near confluence),
    reconstruction by the matrix magnitude.
    """
    P, A, c = batch.projectors, batch.green, batch._clusters
    nil = np.zeros((len(P), 4), dtype=bool)
    weight = batch.eigenvalues.copy()
    for g in range(2):
        rows = np.nonzero(c.tight[g])[0]
        i, j = c.slots[rows, 2 * g], c.slots[rows, 2 * g + 1]
        nil[rows, j] = True
        weight[rows, i], weight[rows, j] = c.mu[g, rows], 1.0
    proj = np.where(nil, 0.0, 1.0)  # 1 on projections, 0 on the nilpotent
    pmax = np.abs(P).max(axis=(2, 3))
    res = np.abs((proj[:, :, None, None] * P).sum(axis=1) - _I4).max(axis=(1, 2))
    rec = np.abs(np.einsum("ni,nijk->njk", weight, P) - A).max(axis=(1, 2))
    res = np.maximum(res, rec / (1.0 + np.abs(A).max(axis=(1, 2))))
    for i in range(4):
        idem = (np.abs(P[:, i] @ P[:, i] - proj[:, i, None, None] * P[:, i]).max(axis=(1, 2))
                / (1.0 + pmax[:, i] ** 2))
        res = np.maximum(res, idem)
        for j in range(4):
            if j != i:
                ann = (np.abs(P[:, i] @ P[:, j]).max(axis=(1, 2))
                       / ((1.0 + pmax[:, i]) * (1.0 + pmax[:, j])))
                res = np.maximum(res, np.where(nil[:, i] | nil[:, j], 0.0, ann))
    return res


def eigenvalues_exact(xis, coeffs: LinearCoefficients):
    """Quartic eigenvalues per frequency, (n, 4), ordered as :func:`decompose_batch` orders them."""
    return _order_roots_distinct(batch_eigenvalues(xis, coeffs))[0]


def eigenvalues_asymptotic(xi, coeffs: LinearCoefficients):
    """Leading small-frequency expansions of the four eigenvalues."""
    R, lt3, lt4, acoustic, _ = spectral_constants(coeffs)
    xi = np.asarray(xi, dtype=float)
    S = coeffs.beta1 + coeffs.beta4
    osc = 1j * np.sqrt(S) * xi
    lam = np.empty(xi.shape + (4,), dtype=complex)
    lam[..., 0] = -acoustic * xi**2 + osc
    lam[..., 1] = -acoustic * xi**2 - osc
    lam[..., 2] = lt3 * xi**2
    lam[..., 3] = lt4 * xi**2
    return lam


# Degree-13 Pade coefficients b_0..b_13 and the largest ||2^-s A||_1 for which
# that approximant is accurate to double precision (Al-Mohy & Higham, SIAM J.
# Matrix Anal. Appl. 31:970-989, 2009).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _pade13_expm(A):
    """``exp(A)`` for a stack of square matrices ``(n, m, m)``, one squaring count each.

    Scaling and squaring with the degree-13 Pade approximant, after Al-Mohy &
    Higham's Algorithm 5.1 (the one behind scipy.linalg.expm).  The scaling
    comes from ``max(||A^8||^(1/8), ||A^10||^(1/10))``, which is at most
    ``||A||`` and can be far smaller for non-normal matrices, so fewer
    squarings amplify the rounding; ``||A||`` caps it, because a power that
    overflowed reads as inf or nan.  Three parts of Algorithm 5.1 are left
    out, so the squaring count can differ from scipy's:

    - the lower degrees 3 to 9 for small norms (degree 13 is accurate there too);
    - ``min`` with ``max(||A^6||^(1/6), ||A^8||^(1/8))``, which can only
      lower the count, so leaving it out errs towards more squarings;
    - the extra squarings ``ell(2^-s A, 13)`` added when a bound on
      ``|A|^27`` says the scaled matrix is still too large for the
      approximant.  Without them a strongly non-normal matrix can get fewer
      squarings than scipy gives it.

    The Green matrices need s <= 15, and on them the oracle stays within 1e-10
    of scipy over the acceptance sweep and within 1e-12 of a 40-digit expm at
    xi = 93.3 and 100 (``tests/test_spectral.py``).
    """
    b = _PADE13
    I = np.eye(A.shape[-1])
    A2 = A @ A
    A8 = (A2 @ A2) @ (A2 @ A2)
    norms = np.abs(np.stack((A, A8, A8 @ A2))).sum(axis=-2).max(axis=-1)  # 1-norms
    eta = np.fmin(norms[0], np.fmax(norms[1] ** (1 / 8), norms[2] ** (1 / 10)))
    s = np.ceil(np.log2(np.maximum(eta / _THETA13, 1.0))).astype(int)
    A = np.ldexp(A, -s[:, None, None])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
             + b[1] * I)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    E = np.linalg.solve(V - U, V + U)
    for k in set(s[s > 0].tolist()):
        rows = s == k
        R = E[rows]
        for _ in range(k):
            R = R @ R
        E[rows] = R
    return E


def matrix_exp_oracle(M, t: float):
    """Independent check: ``exp(t M)`` by scaling and squaring (degree-13 Pade).

    ``M`` is one square matrix or a stack ``(..., m, m)``; a stack gives the
    same bits as one call per matrix.  Diagonal matrices exponentiate
    entrywise: squaring cannot keep a small entry next to a huge one.
    """
    M = np.asarray(M)
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    m = M.shape[-1]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        A = (t * M).reshape((-1, m, m))
        full = A[:, ~np.eye(m, dtype=bool)].any(axis=1)
        if not np.isfinite(A).all():
            E = A  # t M itself overflowed
        elif full.all():
            E = _pade13_expm(A)
        else:
            E = np.exp(np.diagonal(A, axis1=1, axis2=2))[..., None] * np.eye(m)
            if full.any():
                E[full] = _pade13_expm(A[full])
    if not np.isfinite(E).all():
        raise OverflowError("matrix exponential overflowed; ||tM|| too extreme")
    return E.reshape(M.shape)


def heat_factor(xi2, nu1: float, t: float):
    """Decay of the incompressible (heat) channels, exp(-nu1 xi2 t); ``xi2`` is xi^2."""
    return np.exp(-nu1 * np.asarray(xi2, dtype=float) * t)


@lru_cache(maxsize=64)
def choose_eta(coeffs: LinearCoefficients) -> float:
    """Largest cutoff radius up to 1 where the eigenvalue asymptotics hold to 10%.

    Cached per coefficient set: a lab's campaigns on one parameter set share it.
    """
    from itertools import permutations

    xis = np.geomspace(1e-4, 1.0, 160)
    ex = batch_eigenvalues(xis, coeffs)
    ay = eigenvalues_asymptotic(xis, coeffs)
    # match exact to asymptotic roots by minimum total distance (the two
    # branches can have equal real parts, so sorting is not reliable)
    perms = np.array(list(permutations(range(4))))
    cost = np.abs(ex[:, perms] - ay[:, None, :]).sum(axis=2)
    best = cost.argmin(axis=1)
    matched = ex[np.arange(len(xis))[:, None], perms[best]]
    rel = np.abs(matched - ay) / np.maximum(np.abs(matched), 1e-300)
    ok = (rel < 0.1).all(axis=1)
    bad = np.nonzero(~ok)[0]
    if bad.size == 0:
        return 1.0
    if bad[0] == 0:
        return float(xis[0])
    return float(xis[bad[0] - 1])
