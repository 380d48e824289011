"""Pseudo-spectral integrator for the nonlinear two-fluid system.

Periodic box, Fourier collocation, 2/3-rule dealiasing.  Time stepping is
Strang splitting: the stiff linear part (pressure coupling, viscosity and
the third-order capillary term) advances exactly per mode through the
semigroup decomposition, and the nonlinear terms advance with explicit RK2.

The fields stay spectral through a step: the linear half-steps are per-mode
multiplies, the tendencies are assembled as masked spectra, and physical
arrays are produced only where products and the guards need them.  The
cost of a run is the FFTs of the nonlinear stages plus a one-off
propagator build, which decomposes the 4x4 semigroup once per distinct
integer wave-index norm (a few thousand on a 64^3 grid) rather than once
per mode.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closure import (
    FluidParams,
    closure_from_root,
    linear_coefficients,
    nonlinear_coefficients,
    solve_rho_plus,
)
from .spectral import decompose_batch

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


@dataclass(frozen=True)
class Grid:
    """Periodic uniform grid with its spectral bookkeeping."""

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two >= 4")
        if self.length <= 0:
            raise ValueError("box length must be positive")

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

    def k_mag(self):
        k2 = sum(k**2 for k in self.k_axes())
        return np.sqrt(k2)

    def dealias_mask(self):
        cut = self.n // 3
        mask = np.ones(self.spectral_shape, dtype=bool)
        for m in self.index_axes():
            mask &= np.abs(m) <= cut
        return mask


class _Waves(NamedTuple):
    ks: list          # k_d, broadcastable
    ik: list          # i k_d, broadcastable
    khat: list        # k_d / |k| (0 at k = 0), spectral shape
    k2: np.ndarray    # |k|^2, spectral shape
    mask: np.ndarray  # 2/3-rule mask as 0.0 / 1.0, spectral shape
    l2w: np.ndarray   # Parseval weights of the rfft layout


@functools.lru_cache(maxsize=8)
def _waves(grid: Grid) -> _Waves:
    """Spectral symbols of a grid, built once per grid."""
    ks = grid.k_axes()
    kmag = grid.k_mag()
    inv = np.where(kmag > 0, 1.0 / np.where(kmag > 0, kmag, 1.0), 0.0)
    l2w = np.full(grid.spectral_shape, 2.0)
    l2w[..., 0] = 1.0
    l2w[..., grid.n // 2] = 1.0
    waves = _Waves(ks=ks, ik=[1j * k for k in ks], khat=[k * inv for k in ks],
                   k2=sum(k**2 for k in ks), mask=grid.dealias_mask().astype(float),
                   l2w=l2w * grid.volume / float(np.prod(grid.shape)) ** 2)
    _freeze(*waves.ks, *waves.ik, *waves.khat, waves.k2, waves.mask, waves.l2w)
    return waves


def _freeze(*arrays):
    """Make arrays read-only: whoever shares them cannot change them."""
    for arr in arrays:
        arr.flags.writeable = False


# scipy.fft is imported on first use: its import costs ~0.1 s, which the
# tasks that never run the solver should not pay.
def _rfft(f):
    import scipy.fft
    return scipy.fft.rfftn(f)


def _irfft(spec, shape):
    import scipy.fft
    return scipy.fft.irfftn(spec, s=shape)


def _field(key, doc):
    return property(lambda self: self._physical()[key], doc=doc)


def _per_field(fn, fields: dict) -> dict:
    """``fn`` applied to each density and to each velocity component."""
    return {key: fn(arr) if key[0] == "n" else np.stack([fn(c) for c in arr])
            for key, arr in fields.items()}


class FieldState:
    """Perturbation fields on a grid, held as their rfft spectra.

    A state never changes: every array it holds is read-only and ``time``
    is fixed at construction.  The constructor takes physical arrays; it
    copies them and transforms them once.  The solver builds states with
    ``from_spectra``: they produce their physical arrays once, on first
    access.  ``rho_plus`` is the closure root of the nonlinear stage that
    produced the state, from which the next step warm-starts, or None.
    """

    def __init__(self, grid: Grid, n_plus, n_minus, u_plus, u_minus, time: float = 0.0):
        phys = {"n+": n_plus, "n-": n_minus, "u+": u_plus, "u-": u_minus}
        phys = {key: np.array(arr, dtype=float) for key, arr in phys.items()}
        _freeze(*phys.values())
        self._hold(grid, _per_field(_rfft, phys), time)
        self._phys = phys

    @classmethod
    def from_spectra(cls, grid: Grid, spectra: dict, time: float):
        """State held by its spectra ``{"n+", "n-", "u+", "u-"}`` (rfft layout)."""
        state = cls.__new__(cls)
        state._hold(grid, spectra, time)
        return state

    def _hold(self, grid, spectra, time):
        self.grid = grid
        self.time = time
        self.rho_plus = None
        self._phys = None
        self._spec = dict(spectra)
        _freeze(*self._spec.values())

    n_plus = _field("n+", "Fraction-density perturbation of the + phase.")
    n_minus = _field("n-", "Fraction-density perturbation of the - phase.")
    u_plus = _field("u+", "Velocity of the + phase, shape (dim,) + grid shape.")
    u_minus = _field("u-", "Velocity of the - phase, shape (dim,) + grid shape.")

    def _physical(self):
        if self._phys is None:
            shape = self.grid.shape
            self._phys = _per_field(lambda c: _irfft(c, shape), self._spec)
            _freeze(*self._phys.values())
        return self._phys

    def spectra(self):
        """Spectrum of every field (rfft layout, Hermitian by reality), read-only."""
        return dict(self._spec)

    def check_positivity(self, params: FluidParams):
        """Reject ``n± <= -rbar±``: the fraction densities must stay positive."""
        for tag, n, rbar in (("+", self.n_plus, params.rbar_plus),
                             ("-", self.n_minus, params.rbar_minus)):
            if np.min(n) <= -rbar:
                raise BlowUpError(f"perturbation violates positivity of R{tag}: "
                                  f"min n{tag} = {np.min(n):g} <= -rbar{tag} = {-rbar:g}",
                                  state=self)


@dataclass(frozen=True)
class InitSpec:
    """Initial-condition recipe: equilibrium, one mode, a bump, or random band."""

    kind: str = "zero"           # zero | mode | gaussian | random
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
    supplies the background (default :class:`FluidParams`).
    """
    shape = grid.shape
    n_p = np.zeros(shape)
    n_m = np.zeros(shape)
    u_p = np.zeros((grid.dim,) + shape)
    u_m = np.zeros((grid.dim,) + shape)
    if spec.kind == "zero" or spec.amplitude == 0.0:
        pass
    elif spec.kind == "mode":
        axes = grid.axes()
        mesh = np.meshgrid(*axes, indexing="ij")
        phase = sum(2.0 * np.pi * m / grid.length * x
                    for m, x in zip(spec.mode, mesh))
        n_p[...] = spec.amplitude * np.cos(phase)
    elif spec.kind == "gaussian":
        axes = grid.axes()
        mesh = np.meshgrid(*axes, indexing="ij")
        r2 = sum((x - grid.length / 2.0) ** 2 for x in mesh)
        w = spec.width * grid.length
        n_p[...] = spec.amplitude * np.exp(-r2 / (2.0 * w * w))
        n_p -= n_p.mean()  # keep zero mean so the background stays rbar
    elif spec.kind == "random":
        rng = np.random.default_rng(spec.seed)
        kidx = np.zeros(grid.spectral_shape)
        for m in grid.index_axes():
            kidx = np.maximum(kidx, np.abs(m))
        band = (kidx >= spec.band[0]) & (kidx <= spec.band[1])

        def rand_field():
            spec_arr = np.zeros(grid.spectral_shape, dtype=complex)
            vals = rng.normal(size=band.sum()) + 1j * rng.normal(size=band.sum())
            spec_arr[band] = vals
            f = _irfft(spec_arr, shape)
            m = np.abs(f).max()
            return f * (spec.amplitude / m) if m > 0 else f

        n_p[...] = rand_field()
        n_m[...] = rand_field()
        for d in range(grid.dim):
            u_p[d] = rand_field()
            u_m[d] = rand_field()
    else:
        raise ValueError(f"unknown init kind {spec.kind!r}")
    # keep every field inside the 2/3 band so products never alias back
    mask = _waves(grid).mask
    fields = _per_field(lambda f: _irfft(mask * _rfft(f), shape),
                        {"n+": n_p, "n-": n_m, "u+": u_p, "u-": u_m})
    state = FieldState(grid, *fields.values(), time=0.0)
    state.check_positivity(params if params is not None else FluidParams())
    return state


# ---------------------------------------------------------------------------
# Hodge split on the grid


def hodge_split_grid(u_spec: np.ndarray, grid: Grid):
    """Split a spectral velocity into compressible scalar and solenoidal rest.

    Returns ``(phi_hat, remainder_hat)`` with ``phi_hat = -i (k . u_hat)/|k|``
    (zero at k = 0) and ``remainder_hat = u_hat - i k phi_hat / |k|``, which
    is divergence free.
    """
    khat = _waves(grid).khat
    phi = -1j * sum(kh * u_spec[d] for d, kh in enumerate(khat))
    remainder = np.stack([u_spec[d] - 1j * kh * phi for d, kh in enumerate(khat)])
    return phi, remainder


# ---------------------------------------------------------------------------
# exact linear propagation

# (n+, phi+, n-, phi-) = D (n+, w+, n-, w-) with w = i (k . u)/|k|, the
# scalar of the 4x4 block; D S D carries the semigroup over to phi.
_PHI_SIGN = np.array([1.0, -1.0, 1.0, -1.0])


@functools.lru_cache(maxsize=8)
def _linear_propagator(grid: Grid, params: FluidParams, dt: float):
    """Per-mode semigroup on ``(n+, phi+, n-, phi-)`` and the heat factors.

    The semigroup depends on |k| only, so it is decomposed once per distinct
    integer wave-index norm ``m^2`` and scattered back to every mode.
    Returns ``S`` with shape ``(4, 4) + spectral_shape``, built once per
    ``(grid, params, dt)`` and read-only.
    """
    co = linear_coefficients(params)
    m2 = sum(m**2 for m in grid.index_axes()).ravel()
    _, first, inverse = np.unique(m2, return_index=True, return_inverse=True)
    dec = decompose_batch(grid.k_mag().ravel()[first], co)
    S_unique = dec.semigroup(dt).real * np.multiply.outer(_PHI_SIGN, _PHI_SIGN)
    S = np.ascontiguousarray(np.moveaxis(S_unique[inverse], 0, -1))
    S = S.reshape((4, 4) + grid.spectral_shape)
    k2 = _waves(grid).k2
    heat_p = np.exp(-co.nu1_plus * k2 * dt)
    heat_m = np.exp(-co.nu1_minus * k2 * dt)
    _freeze(S, heat_p, heat_m)
    return S, heat_p, heat_m


def linear_propagator_step(state: FieldState, dt: float, params: FluidParams) -> FieldState:
    """Advance the linearized system exactly by ``dt`` (per-mode semigroup).

    A per-mode multiply on the spectra; the result keeps its spectra and
    transforms to physical space only when its fields are read.
    """
    grid = state.grid
    S, heat_p, heat_m = _linear_propagator(grid, params, dt)
    khat = _waves(grid).khat
    sp = state.spectra()
    phi_p, rem_p = hodge_split_grid(sp["u+"], grid)
    phi_m, rem_m = hodge_split_grid(sp["u-"], grid)
    V = (sp["n+"], phi_p, sp["n-"], phi_m)
    new = [sum(S[i, j] * V[j] for j in range(4)) for i in range(4)]
    return FieldState.from_spectra(grid, {
        "n+": new[0],
        "n-": new[2],
        "u+": np.stack([1j * kh * new[1] for kh in khat]) + heat_p * rem_p,
        "u-": np.stack([1j * kh * new[3] for kh in khat]) + heat_m * rem_m,
    }, state.time + dt)


# ---------------------------------------------------------------------------
# nonlinear tendencies


def _viscous(u_hat, mu: float, lam: float, grid: Grid):
    """``mu Δu + (mu+lam) ∇div u`` in physical space, one transform per component."""
    w = _waves(grid)
    k_dot_u = sum(k * c for k, c in zip(w.ks, u_hat))
    return [_irfft(-(mu * w.k2 * u_hat[i] + (mu + lam) * w.ks[i] * k_dot_u), grid.shape)
            for i in range(grid.dim)]


def nonlinear_rhs(state: FieldState, params: FluidParams, rho_guess=None):
    """Tendencies (F1, F2, F3, F4) of the reformulated system, dealiased.

    Derivatives are spectral, products pointwise; every assembled tendency
    passes once through the 2/3 mask.  Returns ``(F1, F2, F3, F4, rho_plus)``
    with the tendencies as masked rfft spectra.  The pointwise closure is
    solved once; ``rho_guess`` warm-starts it and ``rho_plus`` is its root
    at this state.
    """
    grid = state.grid
    shape = grid.shape
    dim = grid.dim
    w = _waves(grid)
    sp = state.spectra()
    n_p, n_m, u_p, u_m = state.n_plus, state.n_minus, state.u_plus, state.u_minus

    dn_p = [_irfft(ik * sp["n+"], shape) for ik in w.ik]
    dn_m = [_irfft(ik * sp["n-"], shape) for ik in w.ik]
    du_p = [[_irfft(ik * sp["u+"][i], shape) for ik in w.ik] for i in range(dim)]
    du_m = [[_irfft(ik * sp["u-"][i], shape) for ik in w.ik] for i in range(dim)]
    visc_p = _viscous(sp["u+"], params.mu_plus, params.lambda_plus, grid)
    visc_m = _viscous(sp["u-"], params.mu_minus, params.lambda_minus, grid)

    Rp = n_p + params.rbar_plus
    Rm = n_m + params.rbar_minus
    rho_p = solve_rho_plus(Rp, Rm, params, x0=rho_guess)
    nc = nonlinear_coefficients(n_p, n_m, params,
                                state=closure_from_root(Rp, Rm, rho_p, params))

    # continuity: F = -div(n u)
    F1 = -w.mask * sum(ik * _rfft(n_p * u_p[d]) for d, ik in enumerate(w.ik))
    F3 = -w.mask * sum(ik * _rfft(n_m * u_m[d]) for d, ik in enumerate(w.ik))

    def momentum(u, du, g_own, g_other, dn_own, dn_other, h, k, l, mu, lam, visc):
        # a = h dn+ + k dn- feeds both the shear cross term and the bulk term
        a = [h * dn_p[j] + k * dn_m[j] for j in range(dim)]
        lam_div = lam * sum(du[d][d] for d in range(dim))
        out = []
        for i in range(dim):
            f = l * visc[i]
            f -= g_own * dn_own[i]
            f -= g_other * dn_other[i]
            f += lam_div * a[i]
            for j in range(dim):
                f -= u[j] * du[i][j]
                f += mu * a[j] * (du[i][j] + du[j][i])
            out.append(w.mask * _rfft(f))
        return np.stack(out)

    F2 = momentum(u_p, du_p, nc.g_plus, nc.gbar_plus, dn_p, dn_m, nc.h_plus, nc.k_plus,
                  nc.l_plus, params.mu_plus, params.lambda_plus, visc_p)
    F4 = momentum(u_m, du_m, nc.g_minus, nc.gbar_minus, dn_m, dn_p, nc.h_minus, nc.k_minus,
                  nc.l_minus, params.mu_minus, params.lambda_minus, visc_m)
    return F1, F2, F3, F4, rho_p


def _advance(base: dict, h: float, *tendencies):
    """Spectra ``base + h * sum(tendencies)``; tendencies are (F1, F2, F3, F4)."""
    return {key: base[key] + h * sum(t[i] for t in tendencies)
            for i, key in enumerate(("n+", "u+", "n-", "u-"))}


def step(state: FieldState, dt: float, params: FluidParams,
         c_cfl: float = 0.5) -> FieldState:
    """One Strang step: half linear, RK2 nonlinear, half linear.

    The fields stay spectral between the half steps.  The first stage's
    closure solve warm-starts from ``state.rho_plus`` (cold when None); the
    returned state carries the second stage's root as its ``rho_plus``.
    """
    grid = state.grid
    umax = max(np.abs(state.u_plus).max(), np.abs(state.u_minus).max())
    if umax > 0 and dt > c_cfl * grid.dx / umax:
        raise ValueError(f"dt={dt:g} violates the advective bound "
                         f"{c_cfl * grid.dx / umax:g}")
    s = linear_propagator_step(state, 0.5 * dt, params)
    base = s.spectra()
    F = nonlinear_rhs(s, params, rho_guess=state.rho_plus)
    mid = FieldState.from_spectra(grid, _advance(base, dt, F), s.time)
    G = nonlinear_rhs(mid, params, rho_guess=F[4])
    s = FieldState.from_spectra(grid, _advance(base, 0.5 * dt, F, G), s.time)
    s = linear_propagator_step(s, 0.5 * dt, params)
    s.rho_plus = G[4]
    bad = not (np.isfinite(s.n_plus).all() and np.isfinite(s.n_minus).all()
               and np.isfinite(s.u_plus).all() and np.isfinite(s.u_minus).all())
    if (bad or np.abs(s.n_plus).max() > 0.5 * params.rbar_plus
            or np.abs(s.n_minus).max() > 0.5 * params.rbar_minus):
        raise BlowUpError(f"solution left the small-data regime at t={s.time:g}", state=s)
    return s


# ---------------------------------------------------------------------------
# diagnostics


def gradient_l2sq(grid: Grid, spec, order: int = 1):
    """Box integral of ``|grad^order f|^2`` from the rfft spectrum (Parseval)."""
    w = _waves(grid)
    return float(np.sum(w.l2w * w.k2**order * np.abs(spec) ** 2))


def energy_report(state: FieldState, params: FluidParams) -> EnergyReport:
    """Natural energy, dissipation and phase masses, evaluated spectrally."""
    grid = state.grid
    co = linear_coefficients(params)
    sp = state.spectra()
    ks = _waves(grid).ks
    combo = co.beta_plus * sp["n+"] + co.beta_minus * sp["n-"]
    e0 = 0.5 * (
        gradient_l2sq(grid, combo, 0)
        + co.sigma_plus / co.beta2 * gradient_l2sq(grid, sp["n+"])
        + co.sigma_minus / co.beta3 * gradient_l2sq(grid, sp["n-"])
        + sum(gradient_l2sq(grid, sp["u+"][d], 0) for d in range(grid.dim)) / co.beta2
        + sum(gradient_l2sq(grid, sp["u-"][d], 0) for d in range(grid.dim)) / co.beta3
    )
    div_p = sum(1j * ks[d] * sp["u+"][d] for d in range(grid.dim))
    div_m = sum(1j * ks[d] * sp["u-"][d] for d in range(grid.dim))
    d0 = (
        (co.nu1_plus * sum(gradient_l2sq(grid, sp["u+"][d]) for d in range(grid.dim))
         + co.nu2_plus * gradient_l2sq(grid, div_p, 0)) / co.beta2
        + (co.nu1_minus * sum(gradient_l2sq(grid, sp["u-"][d]) for d in range(grid.dim))
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
    grid = state.grid
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, grid.dim,
                                         grid.n, grid.length, params_digest(params),
                                         state.time))
        for arr in (state.n_plus, state.n_minus, *state.u_plus, *state.u_minus):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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
    return FieldState(grid, fields[0], fields[1], fields[2:2 + dim], fields[2 + dim:],
                      time=time)
