"""Pseudo-spectral integrator for the nonlinear two-fluid system.

Periodic box, Fourier collocation, 2/3-rule dealiasing.  Time stepping is
Strang splitting: the stiff linear part (pressure coupling, viscosity and
the third-order capillary term) advances exactly per mode through the
semigroup decomposition, and the nonlinear terms advance with explicit RK2.

A state is one stack of spectra, rows n+, n-, u+ and u- (dim rows each),
as are its tendencies and checkpoints; the solver reads them on a phase axis
(``FieldState.phases``) and writes each term once for both phases.  Spectra
hold the 2/3 band only (``Grid.band_shape``; 30% of the rfft modes in 3D):
everything outside it is zero, so the solver's one spectral layout leaves it
out.  The one forward and one inverse transform move between that layout and
physical space, transform only the Fourier lines that cross the band and give
scipy.fft's bits on it.  The fields stay spectral through a step: the linear
half-steps are per-mode multiplies, the tendencies are band spectra, and
physical arrays are made only where products and the guards need them.  A run
costs the FFTs of the nonlinear stages plus a one-off build of the semigroup on
:mod:`twofluid.spectral`'s ``(n+, phi+, n-, phi-)``, ``phi = i khat . u_hat``,
decomposed once per distinct |k|^2 on the band (1,095 of 40,678 modes at 64^3).

On grids of at least ``_PARALLEL_POINTS`` points a step runs on the
package's thread pool (:mod:`twofluid.threads`, one thread per CPU the process
may use): the transforms of the physical twin and of the gradients, the
closure and the linear half-steps in slabs of the first axis, and the
tendencies one phase per task.  The threads split independent work and never
change its arithmetic, so the results are bitwise the same whatever the
number of CPUs.  Smaller grids run inline.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import threads
from .closure import (FluidParams, check_domain, closure_state, combination,
                      linear_coefficients, nonlinear_coefficients)
from .spectral import decompose_batch, heat_factor

CHECKPOINT_MAGIC = b"TF2F"
CHECKPOINT_VERSION = 1
# magic, version, dim, n, box length, params digest, time; then the fields
_CHECKPOINT_HEADER = struct.Struct("<4sIIId16sd")


class BlowUpError(ValueError):
    """State outside the admissible small-perturbation regime.

    Raised for initial data that violates positivity and for a step that
    produces NaN or ``|n±| > rbar±/2``; ``state`` is the offending state.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


def _cut(n: int) -> int:
    """Highest wave-index modulus the 2/3 rule keeps on an axis of ``n`` points."""
    return n // 3


def _keep_band(a, axis: int):
    """The band rows 0..cut and n-cut..n-1 of ``a`` along its fft ``axis`` of n points."""
    n, pre = a.shape[axis], (slice(None),) * (axis % a.ndim)
    head, tail = a[pre + (slice(_cut(n) + 1),)], a[pre + (slice(n - _cut(n), n),)]
    return np.concatenate([head, tail], axis=axis)


def _spread_band(spec, axis: int, n: int):
    """The band rows of ``spec`` along ``axis`` put back among ``n`` rows, zeros between."""
    axis %= spec.ndim
    cut, pre = _cut(n), (slice(None),) * axis
    gap = np.zeros(spec.shape[:axis] + (n - 2 * cut - 1,) + spec.shape[axis + 1:], dtype=complex)
    head, tail = spec[pre + (slice(cut + 1),)], spec[pre + (slice(cut + 1, None),)]
    return np.concatenate([head, gap, tail], axis=axis)


# (field, test, domain) for each Grid field; the CLI checks configs against it
GRID_DOMAIN = (
    ("dim", lambda g: g.dim in (1, 2, 3), "1, 2 or 3"),
    ("n", lambda g: g.n >= 4 and (g.n & (g.n - 1)) == 0, "a power of two >= 4"),
    ("length", lambda g: g.length > 0, "> 0"),
)


@dataclass(frozen=True)
class Grid:
    """Periodic uniform grid with its spectral bookkeeping."""

    dim: int
    n: int
    length: float

    def __post_init__(self):
        check_domain(GRID_DOMAIN, self)

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def spectral_shape(self):
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

    @property
    def dx(self):
        return self.length / self.n

    @property
    def volume(self):
        return self.length**self.dim

    def axes(self):
        return [np.arange(self.n) * self.dx for _ in range(self.dim)]

    def _per_axis(self, full, half):
        """Broadcastable per-axis arrays, rfft layout on the last axis."""
        out = []
        for d in range(self.dim):
            v = half if d == self.dim - 1 else full
            shape = [1] * self.dim
            shape[d] = v.size
            out.append(v.reshape(shape))
        return out

    def k_axes(self):
        """Wavenumber along each axis, rfft layout on the last one."""
        return self._per_axis(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx),
                              2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx))

    def index_axes(self):
        """Integer wave index along each axis, rfft layout on the last one."""
        return self._per_axis(np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64),
                              np.arange(self.n // 2 + 1, dtype=np.int64))

    @property
    def band_shape(self):
        """Shape of a spectrum on the 2/3 band, the solver's spectral layout."""
        cut = _cut(self.n)
        return (2 * cut + 1,) * (self.dim - 1) + (cut + 1,)

    def band(self, a):
        """The 2/3 band of ``a``, whose last ``dim`` axes are in the rfft layout.

        Axes of length 1 broadcast and are kept as they are.
        """
        for axis in range(-self.dim, -1):
            if a.shape[axis] > 1:
                a = _keep_band(a, axis)
        return a[..., :_cut(self.n) + 1]


class _Waves(NamedTuple):
    ks: np.ndarray    # k_d, shape (dim,) + band shape
    khat: np.ndarray  # k_d / |k| (0 at k = 0), shape (dim,) + band shape
    k2: np.ndarray    # |k|^2, band shape
    l2w: np.ndarray   # Parseval weights of the band


@functools.lru_cache(maxsize=8)
def _waves(grid: Grid) -> _Waves:
    """Spectral symbols of a grid on its band, built once per grid."""
    ks = np.stack(np.broadcast_arrays(*(grid.band(k) for k in grid.k_axes())))
    k2 = sum(k**2 for k in ks)
    kmag = np.sqrt(k2)
    inv = np.where(kmag > 0, 1.0 / np.where(kmag > 0, kmag, 1.0), 0.0)
    l2w = np.full(grid.band_shape, 2.0)
    l2w[..., 0] = 1.0  # the band stops below the Nyquist column, the other unpaired one
    waves = _Waves(ks=ks, khat=ks * inv, k2=k2,
                   l2w=l2w * grid.volume / float(np.prod(grid.shape)) ** 2)
    threads.freeze(*waves)
    return waves


# Spectra live on the 2/3 band only (``Grid.band_shape``): with cut = n//3,
# each fft axis holds the indices 0..cut and n-cut..n-1 in that order, the
# rfft axis 0..cut.  The transforms run numpy.fft's 1-D line transforms
# (pocketfft, as scipy.fft) in scipy's axis order, forward the last axis first,
# then the others first to last, inverse the reverse, and only on the Fourier
# lines that cross the band: the forward keeps the band rows after each pass,
# the inverse spreads them among zeros before each.  Every band value is
# therefore scipy's bits, and a campaign never imports scipy.  Leading axes
# beyond the field's are rows, each transformed by its own line transforms,
# so a stack of rows in one call gives each row's bits.
def _rfft(f, dim=None):
    """Band spectrum of the real array ``f`` over its last ``dim`` axes (all by default)."""
    n = f.shape[-1]
    spec = np.fft.rfft(f)[..., :_cut(n) + 1]
    for axis in range(-(f.ndim if dim is None else dim), -1):
        np.fft.fft(spec, axis=axis, out=spec)
        spec = _keep_band(spec, axis)
    return spec


def _irfft(spec, shape, out=None):
    """Real field of ``shape`` whose band spectrum is ``spec``, per leading row."""
    n = shape[-1]
    for axis in range(-len(shape), -1):
        full = _spread_band(spec, axis, n)
        spec = np.fft.ifft(full, axis=axis, out=full)
    return np.fft.irfft(spec, n, out=out)  # pads the columns above the band with zeros


# Grids with fewer points run inline.  Measured with the band-limited
# transforms on a 2-vCPU x86-64 host (warm steps in process, and cold simulate
# campaigns), a step on the pool took 0.56-0.58 of the inline time at 2**18
# points (2D 512^2, 3D 64^3), 0.67-0.84 at 2**15-2**16 (3D 32^3, 2D 256^2) and
# 0.93-1.01 at 2**14 (2D 128^2), where the hand-offs weigh as much as the
# second core gains.
_PARALLEL_POINTS = 2**15
# Transform rows go through numpy.fft in blocks of at most this many points,
# one call per block and axis pass: on small grids that saves numpy's per-call
# cost (a 1D n = 1024 step makes 17 transform calls, not one per row, 32).
# A row of more points is its own block, so large grids keep one row per call
# and per pool task, and their temporaries stay one row deep.
_BLOCK_POINTS = 2**15


@functools.lru_cache(maxsize=16)
def _blocks(count: int, shape: tuple) -> tuple:
    """Slices that cut ``range(count)`` rows of ``shape`` into blocks (see ``_BLOCK_POINTS``)."""
    rows = max(1, _BLOCK_POINTS // math.prod(shape))
    return tuple(slice(first, min(first + rows, count)) for first in range(0, count, rows))


def workers(grid: Grid) -> int:
    """Threads the solver shares a step of ``grid`` among; 1 means inline."""
    return threads.CPUS if grid.n**grid.dim >= _PARALLEL_POINTS else 1


def _join(parts, axis: int = 0):
    """Slab results as one array; a lone part is returned as is, uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _irfft_rows(spectrum, count: int, shape, size: int):
    """Stack of the inverse transforms of the rows ``r < count``.

    ``spectrum(s)`` gives the stacked spectra of the rows in the slice ``s``.
    Rows go in blocks (:func:`_blocks`), each block builds its own spectra, so
    no stack of all of them is ever held; the blocks run on ``size`` threads
    (see :func:`threads.each`).
    """
    out = np.empty((count,) + shape)
    blocks = _blocks(count, shape)

    def block(b):
        _irfft(spectrum(blocks[b]), shape, out=out[blocks[b]])

    threads.each(block, len(blocks), size)
    return out


def _rfft_rows(grid: Grid, physical):
    """Stack of the band spectra of the rows of ``physical``, a block at a time."""
    spectra = np.empty((len(physical),) + grid.band_shape, dtype=complex)
    for s in _blocks(len(physical), grid.shape):
        spectra[s] = _rfft(physical[s], dim=grid.dim)
    return spectra


class FieldState:
    """Perturbation fields on a grid, held as one stack of spectra on the 2/3 band.

    ``spectra`` has shape ``(2 + 2 dim,) + grid.band_shape``, rows n+, n-, u+
    (dim rows) and u- (dim rows); ``physical`` is its twin in physical space.
    The class owns that row order: :meth:`phases` reads an array in it on a
    phase axis, :meth:`split` per field, and the field properties are views
    of ``physical``.

    Only the band is held (``Grid.band``); every mode outside it is zero.  A
    state never changes: every array it holds is read-only and ``time`` is
    fixed at construction.  The constructor copies physical arrays, keeps
    them as ``physical`` and transforms them once onto the band; states from
    ``from_spectra`` make their physical twin once, on first read.
    ``rho_ratio`` is ``rho+ / (R+ + R-)`` at the closure root of the nonlinear
    stage that produced the state (the next step warm-starts from it), or None.
    """

    def __init__(self, grid: Grid, n_plus, n_minus, u_plus, u_minus, time: float = 0.0):
        physical = np.concatenate([np.asarray(n_plus)[None], np.asarray(n_minus)[None],
                                   u_plus, u_minus]).astype(float, copy=False)
        self._hold(grid, _rfft_rows(grid, physical), time)
        threads.freeze(physical)
        self.physical = physical

    @classmethod
    def from_spectra(cls, grid: Grid, spectra: np.ndarray, time: float):
        """State held by its stacked band spectra (rows as in ``split``).

        Raises ``ValueError`` unless ``spectra`` has shape
        ``(2 + 2 dim,) + grid.band_shape``.
        """
        expected = (2 + 2 * grid.dim,) + grid.band_shape
        if np.shape(spectra) != expected:
            raise ValueError(f"spectra must have shape {expected} (rows n+, n-, u+, u- on "
                             f"the 2/3 band), got {np.shape(spectra)}")
        state = cls.__new__(cls)
        state._hold(grid, spectra, time)
        return state

    def _hold(self, grid, spectra, time):
        self.grid = grid
        self.time = time
        self.rho_ratio = None
        threads.freeze(spectra)
        self.spectra = spectra

    @staticmethod
    def phases(stack):
        """Views ``(n, u)`` of an array stacked in the state's row order.

        ``n[p]`` and ``u[p, i]`` are the rows of phase ``p``, 0 for + and 1 for -.
        """
        dim = (len(stack) - 2) // 2
        return stack[:2], stack[2:].reshape((2, dim) + stack.shape[1:])

    @staticmethod
    def split(stack):
        """Views ``(n+, n-, u+, u-)`` of an array stacked in the state's row order."""
        n, u = FieldState.phases(stack)
        return n[0], n[1], u[0], u[1]

    @functools.cached_property
    def physical(self):
        """The fields in physical space, stacked like ``spectra``; read-only."""
        physical = _irfft_rows(self.spectra.__getitem__, len(self.spectra), self.grid.shape,
                               workers(self.grid))
        threads.freeze(physical)
        return physical

    n_plus = property(lambda self: self.split(self.physical)[0],
                      doc="Fraction-density perturbation of the + phase.")
    n_minus = property(lambda self: self.split(self.physical)[1],
                       doc="Fraction-density perturbation of the - phase.")
    u_plus = property(lambda self: self.split(self.physical)[2],
                      doc="Velocity of the + phase, shape (dim,) + grid shape.")
    u_minus = property(lambda self: self.split(self.physical)[3],
                       doc="Velocity of the - phase, shape (dim,) + grid shape.")

    def check_positivity(self, params: FluidParams):
        """Reject ``n± <= -rbar±``: the fraction densities must stay positive."""
        low = self.phases(self.physical)[0].reshape(2, -1).min(axis=1)
        for tag, n_min, rbar in zip("+-", low, (params.rbar_plus, params.rbar_minus)):
            if n_min <= -rbar:
                raise BlowUpError(f"perturbation violates positivity of R{tag}: "
                                  f"min n{tag} = {n_min:g} <= -rbar{tag} = {-rbar:g}",
                                  state=self)


INIT_KINDS = ("zero", "mode", "gaussian", "random")


@dataclass(frozen=True)
class InitSpec:
    """Initial-condition recipe: equilibrium, one mode, a bump, or random band."""

    kind: str = "zero"           # one of INIT_KINDS
    amplitude: float = 0.0
    mode: tuple = (1,)           # wave index per axis (kind="mode")
    width: float = 0.5           # fraction of the box (kind="gaussian")
    band: tuple = (1, 4)         # wave-index band (kind="random")
    seed: int = 0


@dataclass(frozen=True)
class EnergyReport:
    e0: float
    d0: float
    mass_plus: float
    mass_minus: float


def params_digest(params: FluidParams) -> bytes:
    """Stable 16-byte digest of the physical configuration."""
    payload = ",".join(
        f"{name}={getattr(params, name)!r}"
        for name in sorted(params.__dataclass_fields__))
    return hashlib.sha256(payload.encode()).digest()[:16]


# ---------------------------------------------------------------------------
# initial conditions


def init_state(grid: Grid, spec: InitSpec, params: FluidParams | None = None) -> FieldState:
    """Initial fields, truncated to the 2/3 band.

    Raises :class:`BlowUpError` when ``n± <= -rbar±`` anywhere; ``params``
    supplies the background (default :class:`FluidParams`).  ``kind="random"``
    draws from ``default_rng(seed)`` one band of complex normals per field in
    the order n+, n-, then (u+[d], u-[d]) for each axis d, drops the modes
    above the 2/3 band (index n//3) and scales each field to
    ``max |f| = amplitude``.
    """
    if spec.kind not in INIT_KINDS:
        raise ValueError(f"unknown init kind {spec.kind!r}")
    shape = grid.shape
    physical = np.zeros((2 + 2 * grid.dim,) + shape)
    n, u = FieldState.phases(physical)
    if spec.kind == "zero" or spec.amplitude == 0.0:
        pass
    elif spec.kind == "mode":
        axes = grid.axes()
        mesh = np.meshgrid(*axes, indexing="ij")
        phase = sum(2.0 * np.pi * m / grid.length * x
                    for m, x in zip(spec.mode, mesh))
        n[0] = spec.amplitude * np.cos(phase)
    elif spec.kind == "gaussian":
        axes = grid.axes()
        mesh = np.meshgrid(*axes, indexing="ij")
        r2 = sum((x - grid.length / 2.0) ** 2 for x in mesh)
        w = spec.width * grid.length
        n[0] = spec.amplitude * np.exp(-r2 / (2.0 * w * w))
        n[0] -= n[0].mean()  # keep zero mean so the background stays rbar
    else:  # random
        rng = np.random.default_rng(spec.seed)
        kidx = np.zeros(grid.spectral_shape)
        for m in grid.index_axes():
            kidx = np.maximum(kidx, np.abs(m))
        # the draw covers the rfft layout in ravel order, which the band keeps
        drawn = (kidx >= spec.band[0]) & (kidx <= spec.band[1])
        count, kept, at = drawn.sum(), (kidx <= _cut(grid.n))[drawn], grid.band(drawn)

        def rand_field():
            spec_arr = np.zeros(grid.band_shape, dtype=complex)
            spec_arr[at] = (rng.normal(size=count) + 1j * rng.normal(size=count))[kept]
            f = _irfft(spec_arr, shape)
            m = np.abs(f).max()
            return f * (spec.amplitude / m) if m > 0 else f

        n[0], n[1] = rand_field(), rand_field()
        for d in range(grid.dim):
            u[0, d], u[1, d] = rand_field(), rand_field()
    # keep every field inside the 2/3 band so products never alias back
    state = FieldState.from_spectra(grid, _rfft_rows(grid, physical), 0.0)
    state.check_positivity(params if params is not None else FluidParams())
    return state


# ---------------------------------------------------------------------------
# Hodge split on the grid


def _hodge(u_hat, khat):
    """``(phi, rem)``: spectral's ``phi = i khat . u_hat`` and ``rem = u_hat + i khat phi``."""
    phi = 1j * sum(kh * c for kh, c in zip(khat, u_hat))
    return phi, u_hat + 1j * khat * phi


# ---------------------------------------------------------------------------
# exact linear propagation


@functools.lru_cache(maxsize=8)
def _linear_propagator(grid: Grid, params: FluidParams, dt: float):
    """Per-mode semigroup on ``(n+, phi+, n-, phi-)`` and the heat factors.

    The semigroup depends on |k| only, so it is decomposed once per distinct
    |k|^2 of the band and scattered to the modes that have it.  Returns
    ``(S, heat)``: ``S`` with shape ``(4, 4) + grid.band_shape``, ``heat``
    the factors ``exp(-nu1± |k|^2 dt)`` on the phase axis, shape
    ``(2,) + grid.band_shape``; built once per ``(grid, params, dt)`` and
    read-only.
    """
    co = linear_coefficients(params)
    k2 = _waves(grid).k2
    distinct, inverse = np.unique(k2.ravel(), return_inverse=True)
    S = decompose_batch(np.sqrt(distinct), co).semigroup(dt).real[inverse]
    S = np.ascontiguousarray(np.moveaxis(S, 0, -1)).reshape((4, 4) + grid.band_shape)
    heat = np.stack([heat_factor(k2, nu, dt) for nu in (co.nu1_plus, co.nu1_minus)])
    threads.freeze(S, heat)
    return S, heat


def linear_propagator_step(state: FieldState, dt: float, params: FluidParams) -> FieldState:
    """Advance the linearized system exactly by ``dt`` (per-mode semigroup).

    A per-mode multiply on the spectra, in slabs of the first spectral axis
    on :func:`workers` threads; the result keeps its spectra and transforms
    to physical space only when its fields are read.
    """
    grid = state.grid
    S, heat = _linear_propagator(grid, params, dt)
    khat = _waves(grid).khat

    def slab(s):
        n, u = FieldState.phases(state.spectra[:, s])
        kh = khat[:, s]
        phi, rem = _hodge(u.swapaxes(0, 1), kh[:, None])  # both phases: axes (dim, phase)
        new = np.einsum("ij...,j...->i...", S[:, :, s],  # rows n+, phi+, n-, phi-
                        np.stack([n, phi], axis=1).reshape((4,) + n.shape[1:]))
        out = np.empty_like(state.spectra[:, s])
        new_n, new_u = FieldState.phases(out)
        new_n[...] = new[0::2]
        np.multiply(-1j * kh, new[1::2, None], out=new_u)
        rem *= heat[:, s]
        new_u += rem.swapaxes(0, 1)
        return out

    size = workers(grid)
    out = _join(threads.slices(slab, grid.band_shape[0], size, size), axis=1)
    return FieldState.from_spectra(grid, out, state.time + dt)


# ---------------------------------------------------------------------------
# nonlinear tendencies


def nonlinear_rhs(state: FieldState, params: FluidParams, rho_ratio=None):
    """Tendencies of the reformulated system, dealiased, in the state's rows.

    Derivatives are spectral, products pointwise; every assembled tendency
    is transformed once, onto the 2/3 band.  Returns ``(F, rho_ratio)``: ``F``
    is stacked like ``state.spectra`` and holds the band spectra of the
    tendencies of n+, n-, u+ and u-; one function of the phase index builds
    each phase's rows from the phase axis of the fields and their gradients.
    The pointwise closure is solved once.  ``rho_ratio`` is ``rho+ / (R+ + R-)``
    at its root: a given one warm-starts the solve at ``rho_ratio * (R+ + R-)``,
    and the one returned is this state's.  The ratio moves less than the root
    from stage to stage, and at ``gamma+ = gamma-``, where the root is
    ``R+ + R-``, it is exactly 1.  The gradient rows, the closure's slabs and
    the two phases run on :func:`workers` threads; each does the same
    arithmetic whatever the count, so the results are bitwise the same.
    """
    grid = state.grid
    shape, dim = grid.shape, grid.dim
    size = workers(grid)
    w = _waves(grid)
    spec = state.spectra
    n, u = FieldState.phases(state.physical)
    # grad[r, j] is d_j of row r, built a block of transforms at a time so that
    # no (rows x dim) stack of complex derivatives is held on large grids
    rows = np.arange(len(spec) * dim)
    grad = _irfft_rows(lambda s: 1j * w.ks[rows[s] % dim] * spec[rows[s] // dim],
                       rows.size, shape, size)
    # dn[p, j] = d_j n_p and Du[p, i, j] = d_j u_p,i
    dn, Du = FieldState.phases(grad.reshape((len(spec), dim) + shape))

    # the closure and its coefficients, pointwise, in slabs of the first axis
    def closure_slab(s):
        R_p, R_m = n[0][s] + params.rbar_plus, n[1][s] + params.rbar_minus
        total = R_p + R_m
        closure = closure_state(R_p, R_m, params,
                                x0=None if rho_ratio is None else rho_ratio[s] * total)
        nc = nonlinear_coefficients(closure, params)
        return (closure.rho_plus / total, nc.g_plus, nc.gbar_plus, nc.gbar_minus, nc.g_minus,
                nc.h_plus, nc.h_minus, nc.k_plus, nc.k_minus, nc.l_plus, nc.l_minus)

    ratio, *coeffs = (_join(part) for part in
                      zip(*threads.slices(closure_slab, grid.n, size, size)))
    # per phase p: g[p][q] multiplies dn_q in the pressure term
    g, h, k, l = (coeffs[0:2], coeffs[2:4]), coeffs[4:6], coeffs[6:8], coeffs[8:10]
    mu, lam = (params.mu_plus, params.mu_minus), (params.lambda_plus, params.lambda_minus)
    F = np.empty_like(spec)
    Fn, Fu = FieldState.phases(F)
    u_hat = FieldState.phases(spec)[1]

    def phase(p):
        # one phase, assembled row by row into F; its transforms run inline
        div = np.einsum("ii...->...", Du[p])
        # continuity by the product rule: -div(n u) = -(u . grad n + n div u)
        flux_div = np.einsum("i...,i...->...", u[p], dn[p])
        flux_div += n[p] * div
        np.negative(_rfft(flux_div), out=Fn[p])
        del flux_div
        # momentum, with the viscous term mu Lap u + (mu + lam) grad div u;
        # a = h dn+ + k dn- feeds both the shear cross term and the bulk term
        k_dot_u = sum(kd * c for kd, c in zip(w.ks, u_hat[p]))
        a = h[p] * dn[0] + k[p] * dn[1]
        b = mu[p] * a - u[p]
        div *= lam[p]
        for i in range(dim):
            f = _irfft(-(mu[p] * w.k2 * u_hat[p, i] + (mu[p] + lam[p]) * w.ks[i] * k_dot_u),
                       shape)
            f *= l[p]
            f -= g[p][0] * dn[0, i] + g[p][1] * dn[1, i]
            f += div * a[i]
            f += np.einsum("j...,j...->...", b, Du[p, i])
            f += mu[p] * np.einsum("j...,j...->...", a, Du[p, :, i])
            Fu[p, i] = _rfft(f)

    threads.each(phase, 2, size)
    return F, ratio


def step(state: FieldState, dt: float, params: FluidParams,
         c_cfl: float = 0.5) -> FieldState:
    """One Strang step: half linear, RK2 nonlinear, half linear.

    The fields stay spectral between the half steps.  The first stage's
    closure solve warm-starts from ``state.rho_ratio`` (cold when None), the
    second from the first's; the returned state carries the second stage's
    ratio as its ``rho_ratio`` (see :func:`nonlinear_rhs`).
    """
    grid = state.grid
    umax = np.abs(FieldState.phases(state.physical)[1]).max()
    if umax > 0 and dt > c_cfl * grid.dx / umax:
        raise ValueError(f"dt={dt:g} violates the advective bound "
                         f"{c_cfl * grid.dx / umax:g}")
    s = linear_propagator_step(state, 0.5 * dt, params)
    F, ratio = nonlinear_rhs(s, params, rho_ratio=state.rho_ratio)
    base, t = s.spectra, s.time
    del s  # frees its physical twin before the second stage makes one
    G, ratio = nonlinear_rhs(FieldState.from_spectra(grid, base + dt * F, t), params,
                             rho_ratio=ratio)
    s = FieldState.from_spectra(grid, base + 0.5 * dt * (F + G), t)
    s = linear_propagator_step(s, 0.5 * dt, params)
    s.rho_ratio = ratio
    n_max = np.abs(FieldState.phases(s.physical)[0]).reshape(2, -1).max(axis=1)
    if (not np.isfinite(s.physical).all()
            or (n_max > 0.5 * np.array([params.rbar_plus, params.rbar_minus])).any()):
        raise BlowUpError(f"solution left the small-data regime at t={s.time:g}", state=s)
    return s


# ---------------------------------------------------------------------------
# diagnostics


def gradient_l2sq(grid: Grid, spec, order=1):
    """Box integral of ``|grad^order f|^2`` from the band spectrum (Parseval).

    ``spec`` has the grid's band shape, or is a stack of band spectra (a
    vector field), whose integrals add.  The sums run over the band only.
    For a sequence of orders the result is a list, one integral per order,
    and ``|spec|^2`` is formed once.
    """
    w = _waves(grid)
    power = np.abs(spec) ** 2
    sums = [float(np.sum(w.l2w * w.k2**int(k) * power)) for k in np.atleast_1d(order)]
    return sums if np.ndim(order) else sums[0]


def energy_report(state: FieldState, params: FluidParams) -> EnergyReport:
    """Natural energy, dissipation and phase masses, evaluated spectrally."""
    grid = state.grid
    co = linear_coefficients(params)
    n_p, n_m, u_p, u_m = FieldState.split(state.spectra)
    ks = _waves(grid).ks
    e0 = 0.5 * (
        gradient_l2sq(grid, combination(n_p, n_m, co), 0)
        + co.sigma_plus / co.beta2 * gradient_l2sq(grid, n_p)
        + co.sigma_minus / co.beta3 * gradient_l2sq(grid, n_m)
        + gradient_l2sq(grid, u_p, 0) / co.beta2
        + gradient_l2sq(grid, u_m, 0) / co.beta3
    )
    div_p = sum(1j * k * c for k, c in zip(ks, u_p))
    div_m = sum(1j * k * c for k, c in zip(ks, u_m))
    d0 = (
        (co.nu1_plus * gradient_l2sq(grid, u_p) + co.nu2_plus * gradient_l2sq(grid, div_p, 0))
        / co.beta2
        + (co.nu1_minus * gradient_l2sq(grid, u_m)
           + co.nu2_minus * gradient_l2sq(grid, div_m, 0)) / co.beta3
    )
    return EnergyReport(
        e0=e0, d0=d0,
        mass_plus=float(state.n_plus.mean() * grid.volume),
        mass_minus=float(state.n_minus.mean() * grid.volume),
    )


def weighted_sup_functionals(times, norms: dict, ell: int = 3):
    """Running time-weighted suprema from sampled norm histories.

    ``norms[(variable, j)]`` holds ``||grad^j variable||_L2`` over ``times``
    for variables combo, u+, u-, n+, n-.  Returns ``(E_k arrays for k =
    0..ell, E_0 array)``; each array is nondecreasing.
    """
    times = np.asarray(times, dtype=float)

    def sobolev(variable, k_lo, k_hi):
        acc = np.zeros_like(times)
        for j in range(k_lo, k_hi + 1):
            acc += np.asarray(norms[(variable, j)]) ** 2
        return np.sqrt(acc)

    e_k = {}
    for k in range(ell + 1):
        inner = (sobolev("combo", k, ell) + sobolev("u+", k, ell)
                 + sobolev("u-", k, ell)
                 + sobolev("n+", k + 1, ell + 1) + sobolev("n-", k + 1, ell + 1))
        weighted = (1.0 + times) ** (0.75 + k / 2.0) * inner
        e_k[k] = np.maximum.accumulate(weighted)
    l2 = np.asarray(norms[("n+", 0)]) + np.asarray(norms[("n-", 0)])
    e_0 = np.maximum.accumulate((1.0 + times) ** 0.25 * l2)
    return e_k, e_0


# ---------------------------------------------------------------------------
# checkpoints


def write_checkpoint(state: FieldState, params: FluidParams, path):
    """Header, then the stacked physical fields as '<f8', rows n+, n-, u+, u-."""
    grid = state.grid
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, grid.dim,
                                         grid.n, grid.length, params_digest(params),
                                         state.time))
        fh.write(np.ascontiguousarray(state.physical, dtype="<f8").data)


def read_checkpoint(path, params: FluidParams | None = None) -> FieldState:
    """State stored by :func:`write_checkpoint`; ``ValueError`` on a malformed file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    head = _CHECKPOINT_HEADER.size
    if len(buf) < head:
        raise ValueError(f"truncated checkpoint header: expected at least {head} bytes, "
                         f"got {len(buf)}")
    magic, version, dim, n, length, digest, time = _CHECKPOINT_HEADER.unpack_from(buf)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError("not a twofluid checkpoint")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if params is not None and digest != params_digest(params):
        raise ValueError("checkpoint was written with different physical parameters")
    grid = Grid(dim=dim, n=n, length=length)
    nfields = 2 + 2 * dim
    expected = head + 8 * nfields * n**dim
    if len(buf) != expected:
        raise ValueError(f"checkpoint size mismatch: expected {expected} bytes for a "
                         f"{dim}D n={n} state, got {len(buf)}")
    fields = np.frombuffer(buf, dtype="<f8", offset=head).reshape((nfields,) + grid.shape)
    return FieldState(grid, *FieldState.split(fields), time=time)
