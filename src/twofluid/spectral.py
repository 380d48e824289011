"""Per-frequency analysis of the linearized compressible subsystem.

After the Hodge split, the compressible unknowns ``(n+, phi+, n-, phi-)``, with
``phi± = i khat . u±`` at frequency ``xi`` (``khat = xi/|xi|``, so
``dn±/dt = -|xi| phi±``), evolve mode-by-mode under a 4x4 Green matrix
``A1(|xi|)``.  This module builds ``A1``, computes its quartic spectrum (the
characteristic quartic factored into two real quadratics by Ferrari's
resolvent and Newton on the factors, after Strobach 2010, then one guarded
Newton step on ``det(lambda I - A1)``), assembles the semigroup ``exp(t A1)``
from spectral projectors, and provides the smooth cutoff profile used to build
band-limited data.  Every row projects data through the adjugate of
``lambda I - A1`` at each simple root (Cayley-Hamilton); on a near-double
diffusive pair ``mu`` the pair's projection is the rest, ``I - P1 - P2``, and
``A1 - mu`` on it is the nilpotent part of a ``t*exp(mu*t)`` term.  The
projector matrices, the projection of the identity, are built on demand;
evolving real data takes one exponential per conjugate pair.

Functions of the frequency take whole arrays of magnitudes; one mode is an
array of length one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import threads
from .closure import LinearCoefficients

# Relative gap below which the diffusive pair is treated as confluent.  At
# the window edge the distinct-branch projectors carry ~1/gap cancellation
# through their denominators prod_{j != i} (lambda_i - lambda_j), so the
# switch must happen well before the gap reaches sqrt(eps).
EPS_CONFLUENT = 2e-6

# Smallest frequency the quartic solve is accurate at: the depressed quartic's
# s3^2 * s3^2 and the resolvent's q * q are O(xi^8), and below this they leave
# the normal floats (subnormal, then zero), so the small roots lose their digits.
XI_FLOOR = sys.float_info.min ** 0.125

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_I4 = np.eye(4)
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
    """Eigenvalue collision outside the lone diffusive-pair case."""


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


def _weights(lam, nilpotent, t: float):
    """``exp(lam t)``, times ``t`` where ``nilpotent`` (the confluent t*exp(mu t) term)."""
    w = np.exp(lam * t)
    return np.where(nilpotent, t, 1.0) * w if nilpotent.any() else w


@dataclass
class BatchDecomposition:
    """Semigroup decompositions ``exp(t A1) = sum_i w_i(t) P_i`` per frequency.

    :attr:`projectors` is built on first read; :meth:`project` and
    :meth:`evolution` apply them to data without it.  On ``confluent`` rows the
    fourth term is nilpotent, weighted by ``t``.  ``fallback`` rows were
    ordered by magnitude.
    """

    xis: np.ndarray
    eigenvalues: np.ndarray   # (n, 4); confluent rows hold (l1, l2, mu, mu)
    confluent: np.ndarray     # (n,) bool
    fallback: np.ndarray      # (n,) bool
    green: np.ndarray         # (n, 4, 4) real Green matrices
    char: tuple               # quartic coefficients (c3, c2, c1, c0), each (n,)

    def _adjugate(self, rows):
        """The ``rows``' roots, ``(B2, B1, B0)`` and ``prod_{j != i} (l_i - l_j)``.

        At a simple root adj(l_i I - A) = prod_{j != i} (l_i - l_j) P_i, and
        matching powers of l in adj(l I - A) (l I - A) = p(l) I (p the quartic)
        gives adj(l I - A) = l^3 I + l^2 B2 + l B1 + B0 with real B2 = A + c3 I,
        B1 = A B2 + c2 I, B0 = A B1 + c1 I (-B0 A = c0 I is Cayley-Hamilton):
        two real stacked matmuls, then one Horner pass per root.  Products zero by
        construction (a confluent row's double root, xi = 0) are 1 instead.
        """
        A, ld = self.green[rows], self.eigenvalues[rows]
        c3, c2, c1 = (c[rows, None, None] for c in self.char[:3])
        B2 = A + c3 * _I4
        B1 = A @ B2 + c2 * _I4
        # products written out: np.prod rounds a one-row batch differently, and
        # a row must not depend on the batch (or chunk) it is in
        gaps = [[ld[:, i] - ld[:, j] for j in range(4) if j != i] for i in range(4)]
        one = (self.xis[rows] == 0) | self.confluent[rows] & (np.arange(4)[:, None] >= 2)
        den = [np.where(o, 1.0, a * b * c) for o, (a, b, c) in zip(one, gaps)]
        return ld, (B2, B1, A @ B1 + c1 * _I4), den

    @cached_property
    def projectors(self):
        """Spectral projectors (n, 4, 4, 4), the projection of the identity; lazy, read-only."""
        n = len(self.xis)
        P = np.stack([self.project(np.broadcast_to(e, (n, 4))) for e in _I4], axis=-1)
        threads.freeze(P)  # a decomposition may be shared (the lab caches its bases)
        return P

    def weights(self, t: float):
        return _weights(self.eigenvalues, self.confluent[:, None] & (np.arange(4) == 3), t)

    def semigroup(self, t: float):
        """``exp(t A1)`` for every mode, shape (n, 4, 4)."""
        return np.einsum("ni,nijk->njk", self.weights(t), self.projectors)

    def project(self, U0):
        """``Q[n, i] = P_i U0[n]``, shape (n, 4, 4) complex, without the projector array.

        Large batches go in row chunks on the package's thread pool.
        """
        U0 = np.asarray(U0)
        rows = len(U0)
        count = -(-rows // _CHUNK_ROWS) if threads.CPUS > 1 else 1
        parts = threads.slices(lambda s: self._project(s, U0[s]), rows, count, threads.CPUS)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _project(self, rows, U0):
        """:meth:`project` of the mode vectors ``U0`` of the slice ``rows``.

        Confluent rows' pair columns: ``Q2 = U0 - Q0 - Q1`` and ``Q3 = (A - mu) Q2``.
        """
        ld, Bs, den = self._adjugate(rows)
        V2, V1, V0 = (np.einsum("mij,mj->im", B, U0) for B in Bs)  # nodes last: long loops
        Q = np.empty(U0.shape[:1] + (4, 4), dtype=complex)
        for i, li in enumerate(ld.T):
            Q[:, i] = ((((li * U0.T + V2) * li + V1) * li + V0) / den[i]).T
        zero, conf = self.xis[rows] == 0, self.confluent[rows]
        Q[zero, 0] = U0[zero]
        Q[conf, 2] = U0[conf] - Q[conf, 0] - Q[conf, 1]
        Q[conf, 3] = (np.einsum("mij,mj->mi", self.green[rows][conf], Q[conf, 2])
                      - ld[conf, 2, None] * Q[conf, 2])
        return Q

    def evolution(self, U0):
        """``t -> exp(t A1) U0`` for mode vectors ``U0`` (n, 4), projected once.

        Data evolve in real arithmetic (complex data as two real parts): an
        exact, non-real conjugate pair of roots (l0, l1) or (l2, l3) folds into
        ``2 Re(w Q)`` of its first root, one complex exponential per pair.  At
        xi = 0 all roots are 0 and nothing folds.
        """
        if np.iscomplexobj(U0):
            re, im = self.evolution(np.real(U0)), self.evolution(np.imag(U0))
            return lambda t: re(t) + 1j * im(t)
        lam = self.eigenvalues
        fold = (lam[:, 1::2] == lam[:, ::2].conj()) & (lam[:, ::2].imag != 0)
        scale = np.stack([1.0 + fold, 1.0 - fold], axis=2).reshape(-1, 4)  # 2, 0 if folded
        Q = scale[..., None] * self.project(U0)
        keep = scale != 0
        dense = keep.all(axis=0)  # one block of the columns every row keeps, one per other
        extra = np.nonzero(keep.any(axis=0) & ~dense)[0]
        blocks = [(slice(None), dense)] + [(keep[:, i], np.arange(4) == i) for i in extra]
        arrays = (lam, self.confluent[:, None] & (np.arange(4) == 3), Q.real, Q.imag)
        terms = [(rows, *(a[rows][:, cols] for a in arrays)) for rows, cols in blocks]

        def at(t: float):
            U = np.zeros(np.shape(U0))
            for rows, l, nil, qr, qi in terms:
                w = _weights(l, nil, t)
                U[rows] += np.einsum("ni,nij->nj", w.real, qr) - np.einsum("ni,nij->nj", w.imag, qi)
            return U

        return at

    def apply(self, t: float, U0):
        """Evolve mode vectors: shape (n, 4) -> (n, 4), real for real data."""
        return self.evolution(U0)(t)


def decompose_batch(xis, coeffs: LinearCoefficients) -> BatchDecomposition:
    """Eigenvalues and semigroup decomposition of ``A1`` per frequency.

    Each row takes one branch: zero (xi = 0: four zero roots); confluent (two
    roots within ``EPS_CONFLUENT`` times the largest magnitude: the row holds
    ``(l1, l2, mu, mu)``, the other two roots by descending Im and then the
    pair's midpoint twice; a second collision raises
    :class:`UnsupportedDegeneracyError`); distinct (acoustic pair first, by
    descending Im, then the other pair by descending Re, ties by descending
    Im); or distinct-fallback (``fallback``: no pair stands out by |Im|, as
    when all four roots are real; by descending magnitude, then Re, then Im).
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    n = xis.shape[0]
    A = batch_green(xis, coeffs)
    char = batch_char_coeffs(xis, coeffs)
    lam = _eigenvalues(A, char)
    scale = np.abs(lam).max(axis=1)

    d = np.stack([np.abs(lam[:, i] - lam[:, j]) for i, j in _PAIRS], axis=1)
    imin = d.argmin(axis=1)
    dmin = d[np.arange(n), imin]
    zero = scale == 0.0
    conf = (~zero) & (dmin <= EPS_CONFLUENT * scale)

    lam_o = np.zeros((n, 4), dtype=complex)
    fallback = np.zeros(n, dtype=bool)
    dist = ~(zero | conf)
    lam_o[dist], fallback[dist] = _order_roots_distinct(lam[dist])
    for r in np.nonzero(conf)[0]:
        l1, l2 = (lam[r, k] for k in range(4) if k not in _PAIRS[imin[r]])
        if l1.imag < l2.imag:
            l1, l2 = l2, l1
        if abs(l1 - l2) <= EPS_CONFLUENT * scale[r]:
            raise UnsupportedDegeneracyError(
                f"more than one eigenvalue collision at xi={xis[r]:.6g}")
        mu = -(char[0][r] + l1 + l2) / 2.0  # pair midpoint via the trace (stable)
        if min(abs(l1 - mu), abs(l2 - mu)) <= EPS_CONFLUENT * scale[r]:
            raise UnsupportedDegeneracyError(
                f"acoustic/diffusive eigenvalue collision at xi={xis[r]:.6g}")
        lam_o[r] = (l1, l2, mu, mu)

    return BatchDecomposition(xis=xis, eigenvalues=lam_o, confluent=conf, fallback=fallback,
                              green=A, char=char)


def projector_residuals(batch: BatchDecomposition):
    """Worst scaled residual of the projector algebra per mode.

    Every row checks resolution of identity, idempotence and mutual
    annihilation of its projections, and spectral reconstruction
    ``A = sum_i l_i P_i``.  A confluent row's fourth slot is the nilpotent
    ``(A - mu) P3``: it checks ``P4 @ P4 = 0``, weighs 1 in the reconstruction
    and is left out of the identity and of the pairs.  Idempotence and
    annihilation are scaled by the projector magnitudes (they grow near
    confluence), reconstruction by the matrix magnitude.
    """
    P = batch.projectors
    A = batch.green
    nil = batch.confluent[:, None] & (np.arange(4) == 3)
    proj = np.where(nil, 0.0, 1.0)  # 1 on projections, 0 on the nilpotent
    pmax = np.abs(P).max(axis=(2, 3))
    res = np.abs((proj[:, :, None, None] * P).sum(axis=1) - _I4).max(axis=(1, 2))
    recon = np.einsum("ni,nijk->njk", np.where(nil, 1.0, batch.eigenvalues), P)
    rec = np.abs(recon - A).max(axis=(1, 2)) / (1.0 + np.abs(A).max(axis=(1, 2)))
    res = np.maximum(res, rec)
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
    """Ordered quartic eigenvalues per frequency, shape (n, 4); zeros at xi = 0.

    Ordered as :func:`decompose_batch` orders its distinct and
    distinct-fallback rows, on every row, near-confluent ones included.
    """
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
