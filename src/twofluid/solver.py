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
package's threads (:mod:`twofluid.threads`: the caller plus CPUS - 1 pool
threads, one per CPU the process may use), which get rows and slabs, never
phases: the tendencies are built one phase at a time, its transforms by rows
and its pointwise work, like the closure, in slabs of the first axis, and a
linear half-step goes in one slab per thread.  The threads split independent
work and never change its arithmetic, so the results are bitwise the same
whatever the number of CPUs.
Smaller grids, and every grid on one CPU, run inline; there too the
tendencies' pointwise work on more than ``_BLOCK_POINTS`` points goes in
slabs, so its temporaries stay slab-sized, while a half-step is one slab.
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
from .closure import (FluidParams, check_domain, closure_at_root, combination,
                      equilibrium_state, linear_coefficients, phase_coefficients,
                      solve_rho_plus)
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
    iks: np.ndarray   # i k_d, the spectral d_d, shape (dim,) + band shape
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
    waves = _Waves(ks=ks, iks=1j * ks, khat=ks * inv, k2=k2,
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


# Grids with fewer points run inline.  Measured on a 2-vCPU x86-64 host (warm
# steps in process, and cold simulate campaigns), a step on the pool took
# 0.56-0.58 of the inline time at 2**18 points (2D 512^2, 3D 64^3), 0.67-0.84
# at 2**15-2**16 (3D 32^3, 2D 256^2) and 0.93-1.01 at 2**14 (2D 128^2), where
# the hand-offs weigh as much as the second core gains.  With the phases one at
# a time and their rows and slabs on the pool, warm 3D steps took 0.55-0.67 of
# the inline time at 64^3 and 0.76-1.04 at 32^3.
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


@functools.lru_cache(maxsize=4)
def _row_tables(dim: int) -> tuple:
    """``q, j, at``: gradient row r is d_j[r] of row q[r]; at[p]: phase p's u rows, n row."""
    q, j = np.divmod(np.arange((2 + dim) * dim), dim)
    n_rows, u_rows = FieldState.phases(np.arange(2 + 2 * dim))
    at = np.concatenate([u_rows, n_rows[:, None]], axis=1)
    threads.freeze(q, j, at)
    return q, j, at


def workers(grid: Grid) -> int:
    """Threads the solver shares a step of ``grid`` among; 1 means inline."""
    return threads.CPUS if grid.n**grid.dim >= _PARALLEL_POINTS else 1


def _irfft_rows(spectrum, count: int, shape, size: int, out=None):
    """Stack of the inverse transforms of the rows ``r < count``, into ``out`` if given.

    ``spectrum(s)`` gives the stacked spectra of the rows in the slice ``s``.
    Rows go in blocks (:func:`_blocks`), each block builds its own spectra, so
    no stack of all of them is ever held; the blocks run on ``size`` threads
    (see :func:`threads.each`).
    """
    out = np.empty((count,) + shape) if out is None else out
    blocks = _blocks(count, shape)

    def block(b):
        _irfft(spectrum(blocks[b]), shape, out=out[blocks[b]])

    threads.each(block, len(blocks), size)
    return out


def _rfft_rows(grid: Grid, physical, size: int = 1, out=None, at=None):
    """Band spectra of the rows of ``physical``, row ``r`` into ``out[at[r]]`` (by
    default a new stack), a block at a time on ``size`` threads."""
    count = len(physical)
    if out is None:
        out, at = np.empty((count,) + grid.band_shape, dtype=complex), range(count)
    blocks = _blocks(count, grid.shape)

    def block(b):
        out[at[blocks[b]]] = _rfft(physical[blocks[b]], dim=grid.dim)

    threads.each(block, len(blocks), size)
    return out


class FieldState:
    """Perturbation fields on a grid, held as one stack of spectra on the 2/3 band.

    ``spectra`` has shape ``(2 + 2 dim,) + grid.band_shape``, rows n+, n-, u+
    (dim rows) and u- (dim rows); ``physical`` is its twin in physical space.
    The class owns that row order: :meth:`phases` reads an array in it on a
    phase axis, :meth:`split` per field, and the field properties are views
    of ``physical``.

    The band is the state's data (``Grid.band``; every mode outside it is
    zero), and the twin is a cache of it.  A state never changes: every array
    it holds is read-only and ``time`` is fixed at construction.  The
    constructor copies physical arrays, transforms them once onto the band
    and keeps them as the twin; states from ``from_spectra`` make their twin
    on first read.  :func:`step` releases the twin of the state it advances,
    whatever made it, once the CFL bound is read; a later read is the
    inverse transform of the spectra.
    ``rho_ratio`` is ``rho+ / (R+ + R-)`` at the closure root of the nonlinear
    stage that produced the state (the next step warm-starts from it), or None.
    """

    def __init__(self, grid: Grid, n_plus, n_minus, u_plus, u_minus, time: float = 0.0):
        physical = np.concatenate([np.asarray(n_plus)[None], np.asarray(n_minus)[None],
                                   u_plus, u_minus]).astype(float, copy=False)
        self._hold(grid, _rfft_rows(grid, physical, workers(grid)), time)
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

    def _release_twin(self):
        """Forget the physical twin; the next read makes it from the spectra."""
        self.__dict__.pop("physical", None)

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
        band = np.zeros((len(physical),) + grid.band_shape, dtype=complex)
        n_band, u_band = FieldState.phases(band)
        for f in (*n_band, *(u_band[p, d] for d in range(grid.dim) for p in (0, 1))):
            f[at] = (rng.normal(size=count) + 1j * rng.normal(size=count))[kept]
        _irfft_rows(band.__getitem__, len(band), shape, workers(grid), out=physical)
        for f in physical:
            m = np.abs(f).max()
            if m > 0:
                f *= spec.amplitude / m
    # keep every field inside the 2/3 band so products never alias back
    state = FieldState.from_spectra(grid, _rfft_rows(grid, physical, workers(grid)), 0.0)
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
    S = decompose_batch(np.sqrt(distinct), co).semigroup(dt)[inverse]
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
        new_n, new_u = FieldState.phases(out[:, s])
        new_n[...] = new[0::2]
        np.multiply(-1j * kh, new[1::2, None], out=new_u)
        rem *= heat[:, s]
        new_u += rem.swapaxes(0, 1)

    size, out = workers(grid), np.empty_like(state.spectra)
    threads.slices(slab, grid.band_shape[0], size, size)
    return FieldState.from_spectra(grid, out, state.time + dt)


# ---------------------------------------------------------------------------
# nonlinear tendencies


def nonlinear_rhs(state: FieldState, params: FluidParams, rho_ratio=None):
    """Tendencies of the reformulated system, dealiased, in the state's rows.

    Derivatives are spectral, products pointwise; every assembled tendency
    is transformed once, onto the 2/3 band.  Returns ``(F, rho_ratio)``: ``F``
    is stacked like ``state.spectra`` and holds the band spectra of the
    tendencies of n+, n-, u+ and u-; one pass per phase index builds that
    phase's rows from the phase axis of the fields and their gradients.  The
    continuity tendencies are divergences, so their mean modes are set to
    exactly 0: no step moves a phase's mass.  The pointwise closure is solved
    once, and the call keeps only its root ``rho+``, one grid row: each
    phase's pass derives its own five coefficients from it slab by slab
    (``closure.closure_at_root`` and ``closure.phase_coefficients``), so no
    coefficient outlives its slab.  ``rho_ratio`` is ``rho+ / (R+ + R-)`` at
    the root: a given one warm-starts the solve at ``rho_ratio * (R+ + R-)``,
    and the one returned is this state's.  The ratio moves less than the root
    from stage to stage, and at ``gamma+ = gamma-``, where the root is
    ``R+ + R-``, it is exactly 1.  The phases run one after the other, each
    with its transform rows and pointwise slabs on :func:`workers` threads,
    which do the same arithmetic whatever their count: the bits are the same.
    """
    grid = state.grid
    shape, dim = grid.shape, grid.dim
    size = workers(grid)
    w = _waves(grid)
    q, j, at = _row_tables(dim)
    n, u = FieldState.phases(state.physical)
    u_hat = FieldState.phases(state.spectra)[1]
    eq = equilibrium_state(params)
    # pointwise work goes in slabs of the first axis, of at most _BLOCK_POINTS
    # points and, on the pool, two per thread.  The closure pass keeps only the
    # root rho+, from which each phase's pass derives its own coefficients slab
    # by slab.  The outputs and the root are made first.
    slabs = max(1 if size == 1 else 2 * size, math.prod(shape) // _BLOCK_POINTS)
    F, ratio, root = np.empty_like(state.spectra), np.empty(shape), np.empty(shape)

    def closure_slab(s):
        R_p, R_m = n[0][s] + params.rbar_plus, n[1][s] + params.rbar_minus
        total = R_p + R_m
        rho_p = solve_rho_plus(R_p, R_m, params,
                               x0=None if rho_ratio is None else rho_ratio[s] * total)
        root[s] = rho_p
        np.divide(rho_p, total, out=ratio[s])
        return s

    parts = threads.slices(closure_slab, grid.n, slabs, size)
    mu, lam = (params.mu_plus, params.mu_minus), (params.lambda_plus, params.lambda_minus)
    # dn[q, j] = d_j n_q, read by both phases, then one phase's rows at a time:
    # Du[i, j] = d_j u_p,i and T, the tendencies of u_p (the viscous rows) and n_p
    rows = np.empty((2 * dim + dim * dim + dim + 1,) + shape)
    dn = rows[:2 * dim].reshape((2, dim) + shape)
    Du = rows[2 * dim:2 * dim + dim * dim].reshape((dim, dim) + shape)
    T = rows[2 * dim + dim * dim:]
    sources = (state.spectra[:2 + dim], u_hat[1])  # n+, n- and u+; u-

    for p in range(2):  # a phase's arrays die before the next one's are made
        src, grads = sources[p], len(sources[p]) * dim
        k_dot_u = sum(kd * c for kd, c in zip(w.ks, u_hat[p]))
        visc = -(mu[p] * w.k2 * u_hat[p] + (mu[p] + lam[p]) * w.ks * k_dot_u)

        def spectrum(s):  # d_j src[q] at row q dim + j, then the viscous rows
            if s.start >= grads:
                return visc[s.start - grads:s.stop - grads]
            if s.stop > grads:
                return np.concatenate([spectrum(slice(s.start, grads)), visc[:s.stop - grads]])
            if s.stop - s.start == 1:  # views of the one row's wavenumber and spectrum
                return w.iks[j[s.start]:j[s.start] + 1] * src[q[s.start]:q[s.start] + 1]
            return w.iks[j[s]] * src[q[s]]

        _irfft_rows(spectrum, grads + dim, shape, size, out=rows[2 * dim * p:-1])
        del k_dot_u, visc, spectrum  # before the slabs

        def slab(part):
            s = parts[part]
            # the factors of dn+ and dn- in the pressure term, h, k, l
            g_0, g_1, h, k, l = phase_coefficients(
                closure_at_root(n[0][s] + params.rbar_plus, n[1][s] + params.rbar_minus,
                                root[s], params), p, eq)
            D, dns, us = Du[:, :, s], dn[:, :, s], u[p][:, s]
            div = np.einsum("ii...->...", D)
            # continuity by the product rule: -div(n u) = -(u . grad n + n div u)
            flux_div = np.einsum("i...,i...->...", us, dns[p], out=T[dim, s])
            flux_div += n[p][s] * div
            # momentum, with the viscous term mu Lap u + (mu + lam) grad div u;
            # a = h dn+ + k dn- feeds both the shear cross term and the bulk term
            a = h * dns[0] + k * dns[1]
            b = mu[p] * a - us
            div *= lam[p]
            for i in range(dim):
                f = T[i, s]
                f *= l
                f -= g_0 * dns[0, i] + g_1 * dns[1, i]
                f += div * a[i]
                f += np.einsum("j...,j...->...", b, D[i])
                f += mu[p] * np.einsum("j...,j...->...", a, D[:, i])

        threads.each(slab, len(parts), size)
        _rfft_rows(grid, T, size, out=F, at=at[p])
        np.negative(F[at[p, dim]], out=F[at[p, dim]])
    F[(slice(2),) + (0,) * dim] = 0.0  # the continuity rows' mean modes
    return F, ratio


def step(state: FieldState, dt: float, params: FluidParams,
         c_cfl: float = 0.5) -> FieldState:
    """One Strang step: half linear, RK2 nonlinear, half linear.

    The fields stay spectral between the half steps, and the incoming state's
    physical twin is released once the CFL bound is read (see
    :class:`FieldState`).  The first stage's
    closure solve warm-starts from ``state.rho_ratio`` (cold when None), the
    second from the first's; the returned state carries the second stage's
    ratio as its ``rho_ratio`` (see :func:`nonlinear_rhs`).
    """
    grid = state.grid
    umax = np.abs(FieldState.phases(state.physical)[1]).max()
    if umax > 0 and dt > c_cfl * grid.dx / umax:
        raise ValueError(f"dt={dt:g} violates the advective bound "
                         f"{c_cfl * grid.dx / umax:g}")
    state._release_twin()  # else the caller's reference holds it through both stages
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
    """Natural energy, dissipation and phase masses, evaluated spectrally.

    A phase's mass is its band's mean mode times the cell volume, which
    :func:`step` keeps fixed (see :func:`nonlinear_rhs`).
    """
    grid = state.grid
    co = linear_coefficients(params)
    n_p, n_m, u_p, u_m = FieldState.split(state.spectra)
    iks = _waves(grid).iks
    (u0_p, u1_p), (u0_m, u1_m) = (gradient_l2sq(grid, u, order=(0, 1)) for u in (u_p, u_m))
    e0 = 0.5 * (
        gradient_l2sq(grid, combination(n_p, n_m, co), 0)
        + co.sigma_plus / co.beta2 * gradient_l2sq(grid, n_p)
        + co.sigma_minus / co.beta3 * gradient_l2sq(grid, n_m)
        + u0_p / co.beta2 + u0_m / co.beta3
    )
    div_p = sum(ik * c for ik, c in zip(iks, u_p))
    div_m = sum(ik * c for ik, c in zip(iks, u_m))
    d0 = (
        (co.nu1_plus * u1_p + co.nu2_plus * gradient_l2sq(grid, div_p, 0)) / co.beta2
        + (co.nu1_minus * u1_m + co.nu2_minus * gradient_l2sq(grid, div_m, 0)) / co.beta3
    )
    mass = state.spectra[(slice(2),) + (0,) * grid.dim].real * grid.volume / grid.n**grid.dim
    return EnergyReport(e0=e0, d0=d0, mass_plus=float(mass[0]), mass_minus=float(mass[1]))


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
