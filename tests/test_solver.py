import re
import sys

import numpy as np
import pytest

from twofluid.closure import (
    FluidParams,
    closure_state,
    linear_coefficients,
    nonlinear_coefficients,
)
from twofluid.solver import (
    BlowUpError,
    FieldState,
    Grid,
    InitSpec,
    energy_report,
    init_state,
    linear_propagator_step,
    nonlinear_rhs,
    gradient_l2sq,
    read_checkpoint,
    step,
    weighted_sup_functionals,
    write_checkpoint,
    _hodge,
    _waves,
)

SYM = FluidParams()


def dealias_mask(grid):
    """True on the 2/3 band of the full rfft layout: every wave index at most n // 3."""
    mask = np.ones(grid.spectral_shape, dtype=bool)
    for m in grid.index_axes():
        mask &= np.abs(m) <= grid.n // 3
    return mask


def unband(grid, spec):
    """The band spectra ``spec`` in the full rfft layout, zeros off the band."""
    lead = spec.shape[:spec.ndim - grid.dim]
    full = np.zeros(lead + grid.spectral_shape, dtype=spec.dtype)
    full[..., dealias_mask(grid)] = spec.reshape(lead + (-1,))
    return full


def physical_rhs(state, params, **kwargs):
    """``nonlinear_rhs`` in physical space: the tendencies of n+, n-, u+, u- and the ratio."""
    F, ratio = nonlinear_rhs(state, params, **kwargs)
    F = np.fft.irfftn(unband(state.grid, F), s=state.grid.shape, axes=range(-state.grid.dim, 0))
    return (*FieldState.split(F), ratio)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dim=4, n=64, length=1.0)
    with pytest.raises(ValueError):
        Grid(dim=1, n=48, length=1.0)
    with pytest.raises(ValueError):
        Grid(dim=1, n=64, length=-1.0)


def test_init_zero_and_mode():
    grid = Grid(dim=1, n=64, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="zero"))
    assert np.all(st.n_plus == 0) and np.all(st.u_minus == 0)
    st = init_state(grid, InitSpec(kind="mode", amplitude=0.01, mode=(2,)))
    assert abs(np.abs(st.n_plus).max() - 0.01) <= 1e-14


def test_init_random_deterministic():
    grid = Grid(dim=2, n=32, length=2 * np.pi)
    a = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=42))
    b = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=42))
    assert np.array_equal(a.n_plus, b.n_plus)
    assert np.array_equal(a.u_minus, b.u_minus)
    c = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=43))
    assert not np.array_equal(a.n_plus, c.n_plus)



@pytest.mark.parametrize("dim, n, band", [(2, 16, (1, 3)), (3, 16, (1, 3)), (2, 8, (1, 4))],
                         ids=["2", "3", "2-above-the-band"])
def test_init_random_pins_the_draw_order(dim, n, band):
    # rebuild the documented draw on the full rfft layout: one band of complex
    # normals per field in the order n+, n-, then (u+[d], u-[d]) for each axis
    # d; the modes above n/3 dropped; each field scaled to max |f| = amplitude.
    # On the 8-point grid the draw reaches above n/3 = 2: those values are
    # drawn and dropped
    import scipy.fft

    grid = Grid(dim=dim, n=n, length=2 * np.pi)
    spec = InitSpec(kind="random", amplitude=1e-3, seed=23, band=band)
    rng = np.random.default_rng(spec.seed)
    kidx = np.zeros(grid.spectral_shape)
    for m in grid.index_axes():
        kidx = np.maximum(kidx, np.abs(m))
    drawn = (kidx >= spec.band[0]) & (kidx <= spec.band[1])

    def draw():
        hat = np.zeros(grid.spectral_shape, dtype=complex)
        hat[drawn] = rng.normal(size=drawn.sum()) + 1j * rng.normal(size=drawn.sum())
        f = scipy.fft.irfftn(hat * dealias_mask(grid), s=grid.shape)
        return f * (spec.amplitude / np.abs(f).max())

    n_p, n_m = draw(), draw()
    u = [(draw(), draw()) for _ in range(dim)]
    rows = [n_p, n_m] + [up for up, _ in u] + [um for _, um in u]
    expect = np.stack([grid.band(scipy.fft.rfftn(f)) for f in rows])
    got = init_state(grid, spec).spectra
    assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max()


def test_init_random_drops_modes_above_the_band():
    # band (1, 4) reaches above n/3 = 2 on an 8-point grid: those modes are
    # dropped before each field is scaled, so max |f| is the amplitude
    grid = Grid(dim=2, n=8, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=5, band=(1, 4)))
    assert st.spectra.shape == (6,) + grid.band_shape
    for f in st.physical:
        # off the band the transform holds only the rounding of its sums, < 1e-15 sum |f|
        assert np.abs(np.fft.rfftn(f)[~dealias_mask(grid)]).max() <= 1e-15 * np.abs(f).sum()
        assert np.abs(f).max() == pytest.approx(1e-3, rel=1e-12)


def test_init_positivity_guard():
    grid = Grid(dim=1, n=64, length=2 * np.pi)
    with pytest.raises(ValueError):
        init_state(grid, InitSpec(kind="mode", amplitude=1.2, mode=(1,)))


def test_hodge_split_gradient_and_solenoidal():
    grid = Grid(dim=2, n=32, length=2 * np.pi)
    ks = _waves(grid).ks
    rng = np.random.default_rng(0)
    psi = rng.normal(size=grid.shape)
    psi_hat = grid.band(np.fft.rfftn(psi))
    grad = np.stack([1j * ks[d] * psi_hat for d in range(2)])
    phi, rem = _hodge(grad, _waves(grid).khat)
    assert np.abs(rem).max() <= 1e-12 * max(1.0, np.abs(grad).max())
    # phi = i khat . u_hat, the spectral module's unknown: -|k| psi_hat for u = grad psi
    kmag = np.sqrt(_waves(grid).k2)
    assert np.abs(phi + kmag * psi_hat).max() <= 1e-12 * np.abs(grad).max()
    # solenoidal single mode: u = (cos(y), 0)
    x = grid.axes()
    X, Y = np.meshgrid(*x, indexing="ij")
    u = np.stack([np.cos(Y), np.zeros(grid.shape)])
    u_hat = np.stack([grid.band(np.fft.rfftn(c)) for c in u])
    phi, rem = _hodge(u_hat, _waves(grid).khat)
    assert np.abs(phi).max() <= 1e-12 * np.abs(u_hat).max()


def test_hodge_split_divergence_free_remainder():
    grid = Grid(dim=3, n=16, length=2 * np.pi)
    rng = np.random.default_rng(1)
    u = rng.normal(size=(3,) + grid.shape)
    u_hat = np.stack([grid.band(np.fft.rfftn(c)) for c in u])
    phi, rem = _hodge(u_hat, _waves(grid).khat)
    ks = _waves(grid).ks
    div = sum(1j * ks[d] * rem[d] for d in range(3))
    assert np.abs(div).max() <= 1e-12 * np.abs(u_hat).max()
    kmag = np.sqrt(_waves(grid).k2)
    inv = np.where(kmag > 0, 1 / np.where(kmag > 0, kmag, 1), 0)
    # phi = i khat . u_hat, and u_hat = -i khat phi + rem
    assert np.abs(phi - 1j * sum(ks[d] * u_hat[d] for d in range(3)) * inv).max() \
        <= 1e-12 * np.abs(u_hat).max()
    back = np.stack([-1j * ks[d] * phi * inv for d in range(3)]) + rem
    assert np.abs(back - u_hat).max() <= 1e-11 * np.abs(u_hat).max()


def test_nonlinear_rhs_zero_and_constant():
    grid = Grid(dim=1, n=64, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="zero"))
    F1, F3, F2, F4, _ = physical_rhs(st, SYM)
    for F in (F1, F2, F3, F4):
        assert np.abs(F).max() == 0.0
    # constant n+ perturbation, everything else zero: every term carries a
    # derivative of the constant or a factor of u
    st = FieldState(grid, np.full(grid.shape, 0.05), np.zeros(grid.shape),
                    np.zeros((1,) + grid.shape), np.zeros((1,) + grid.shape))
    F1, F3, F2, F4, _ = physical_rhs(st, SYM)
    assert np.abs(F1).max() <= 1e-15
    assert np.abs(F2).max() <= 1e-15
    assert np.abs(F3).max() <= 1e-15
    assert np.abs(F4).max() <= 1e-15


def fd_derivative(f, axis, dx):
    """8th-order centered first derivative with periodic wrap."""
    c = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])
    out = np.zeros_like(f)
    for off, w in zip(range(-4, 5), c):
        if w != 0.0:
            out += w * np.roll(f, -off, axis=axis)
    return out / dx


@pytest.mark.parametrize("dim, n", [(2, 128), (3, 32)], ids=["2d", "3d"])
def test_nonlinear_rhs_matches_finite_differences(dim, n):
    params = FluidParams(mu_plus=0.8, mu_minus=1.3, lambda_plus=0.4, lambda_minus=0.1,
                         sigma_plus=0.9, sigma_minus=1.2, gamma_plus=1.6, gamma_minus=2.2)
    grid = Grid(dim=dim, n=n, length=2 * np.pi)
    a = 0.01
    if dim == 2:
        X, Y = np.meshgrid(*grid.axes(), indexing="ij")
        fields = (a * np.cos(2 * X + Y), a * np.sin(X - Y),
                  np.stack([a * np.sin(X + 2 * Y), a * np.cos(X)]),
                  np.stack([a * np.cos(Y), a * np.sin(2 * X)]))
    else:
        # unit wave indices on every axis keep the products resolved at n = 32
        X, Y, Z = np.meshgrid(*grid.axes(), indexing="ij")
        fields = (a * np.cos(X + Y - Z), a * np.sin(X - Y + Z),
                  np.stack([a * np.sin(Y + Z), a * np.cos(X - Z), a * np.sin(X + Y)]),
                  np.stack([a * np.cos(Y - Z), a * np.sin(X + Z), a * np.cos(X - Y)]))
    st = FieldState(grid, *fields)
    F1, F3, F2, F4, _ = physical_rhs(st, params)

    dx = grid.dx
    nc = nonlinear_coefficients(closure_state(st.n_plus + params.rbar_plus,
                                              st.n_minus + params.rbar_minus, params), params)
    dims = range(dim)
    dn_p = [fd_derivative(st.n_plus, d, dx) for d in dims]
    dn_m = [fd_derivative(st.n_minus, d, dx) for d in dims]
    du_p = [[fd_derivative(st.u_plus[i], j, dx) for j in dims] for i in dims]
    du_m = [[fd_derivative(st.u_minus[i], j, dx) for j in dims] for i in dims]
    div_p = sum(du_p[d][d] for d in dims)
    div_m = sum(du_m[d][d] for d in dims)
    lap_u_p = [sum(fd_derivative(fd_derivative(st.u_plus[i], j, dx), j, dx) for j in dims)
               for i in dims]
    lap_u_m = [sum(fd_derivative(fd_derivative(st.u_minus[i], j, dx), j, dx) for j in dims)
               for i in dims]
    grad_div_p = [fd_derivative(div_p, i, dx) for i in dims]
    grad_div_m = [fd_derivative(div_m, i, dx) for i in dims]

    ref1 = -sum(fd_derivative(st.n_plus * st.u_plus[d], d, dx) for d in dims)
    ref3 = -sum(fd_derivative(st.n_minus * st.u_minus[d], d, dx) for d in dims)
    scale = max(np.abs(F1).max(), np.abs(F2).max(), np.abs(F4).max())
    assert np.abs(F1 - ref1).max() <= 1e-6 * scale
    assert np.abs(F3 - ref3).max() <= 1e-6 * scale

    mu_p, la_p = params.mu_plus, params.lambda_plus
    mu_m, la_m = params.mu_minus, params.lambda_minus
    for i in dims:
        conv = sum(st.u_plus[j] * du_p[i][j] for j in dims)
        cross = sum(nc.h_plus * dn_p[j] * (du_p[i][j] + du_p[j][i])
                    + nc.k_plus * dn_m[j] * (du_p[i][j] + du_p[j][i]) for j in dims)
        ref = (-nc.g_plus * dn_p[i] - nc.gbar_plus * dn_m[i] - conv
               + mu_p * cross
               + la_p * (nc.h_plus * dn_p[i] + nc.k_plus * dn_m[i]) * div_p
               + mu_p * nc.l_plus * lap_u_p[i]
               + (mu_p + la_p) * nc.l_plus * grad_div_p[i])
        assert np.abs(F2[i] - ref).max() <= 1e-6 * scale
        conv = sum(st.u_minus[j] * du_m[i][j] for j in dims)
        cross = sum(nc.h_minus * dn_p[j] * (du_m[i][j] + du_m[j][i])
                    + nc.k_minus * dn_m[j] * (du_m[i][j] + du_m[j][i]) for j in dims)
        ref = (-nc.g_minus * dn_m[i] - nc.gbar_minus * dn_p[i] - conv
               + mu_m * cross
               + la_m * (nc.h_minus * dn_p[i] + nc.k_minus * dn_m[i]) * div_m
               + mu_m * nc.l_minus * lap_u_m[i]
               + (mu_m + la_m) * nc.l_minus * grad_div_m[i])
        assert np.abs(F4[i] - ref).max() <= 1e-6 * scale


def test_linear_propagator_identity_and_composition():
    grid = Grid(dim=1, n=128, length=2 * np.pi * 4)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=5))
    same = linear_propagator_step(st, 0.0, SYM)
    assert np.abs(same.n_plus - st.n_plus).max() <= 1e-13
    two = linear_propagator_step(linear_propagator_step(st, 0.25, SYM), 0.25, SYM)
    one = linear_propagator_step(st, 0.5, SYM)
    scale = np.abs(st.n_plus).max()
    assert np.abs(two.n_plus - one.n_plus).max() <= 1e-12 * scale
    assert np.abs(two.u_minus - one.u_minus).max() <= 1e-12 * scale


def test_linear_propagator_matches_evolve_mode():
    from twofluid.spectral import decompose_batch

    grid = Grid(dim=1, n=64, length=2 * np.pi)
    a = 1e-4
    st = init_state(grid, InitSpec(kind="mode", amplitude=a, mode=(3,)))
    t = 0.8
    out = linear_propagator_step(st, t, SYM)
    co = linear_coefficients(SYM)
    xi = 3 * 2 * np.pi / grid.length
    d = decompose_batch([xi], co)
    # the cos mode splits into +-k; track the +k spectral coefficient
    n_hat = np.fft.rfftn(st.n_plus)[3]
    V = d.apply(t, np.array([[n_hat, 0.0, 0.0, 0.0]], dtype=complex))[0]
    got = np.fft.rfftn(out.n_plus)[3]
    assert abs(got - V[0]) <= 1e-10 * abs(n_hat)
    got_u = np.fft.rfftn(out.u_plus[0])[3]
    # u_hat = -i k/|k| * w = -i * w for the +k mode in 1-D
    assert abs(got_u - (-1j) * V[1]) <= 1e-10 * abs(n_hat)


def test_step_linear_limit_matches_semigroup():
    # desk-scale box: weak damping keeps the fields near their initial size,
    # so the relative comparison probes the nonlinear contamination itself
    grid = Grid(dim=1, n=128, length=2 * np.pi * 32)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-6, seed=11, band=(1, 4)))
    t_end, dt = 10.0, 0.05
    cur = st
    for _ in range(int(round(t_end / dt))):
        cur = step(cur, dt, SYM)
    ref = linear_propagator_step(st, t_end, SYM)
    scale = max(np.abs(ref.n_plus).max(), np.abs(ref.n_minus).max(),
                np.abs(ref.u_plus).max(), np.abs(ref.u_minus).max())
    err = max(np.abs(cur.n_plus - ref.n_plus).max(),
              np.abs(cur.n_minus - ref.n_minus).max(),
              np.abs(cur.u_plus - ref.u_plus).max(),
              np.abs(cur.u_minus - ref.u_minus).max())
    assert err <= 1e-6 * scale


def test_step_temporal_self_convergence():
    grid = Grid(dim=1, n=128, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=0.02, seed=3, band=(1, 3)))
    t_end = 0.5

    def run(dt):
        cur = st
        for _ in range(int(round(t_end / dt))):
            cur = step(cur, dt, SYM)
        return cur

    ref = run(t_end / 256)
    errs = []
    for dt in (t_end / 16, t_end / 32, t_end / 64):
        sol = run(dt)
        errs.append(np.abs(sol.n_plus - ref.n_plus).max()
                    + np.abs(sol.u_plus - ref.u_plus).max())
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 1.9


def test_step_spatial_spectral_convergence():
    # short horizon so the under-resolved modes have not been damped away
    params = SYM
    t_end, dt = 0.05, 1e-3

    def run(n):
        grid = Grid(dim=1, n=n, length=2 * np.pi)
        st = init_state(grid, InitSpec(kind="gaussian", amplitude=0.02,
                                       width=0.2 / (2 * np.pi)))
        cur = st
        for _ in range(int(round(t_end / dt))):
            cur = step(cur, dt, params)
        return cur

    fine = run(256)
    errs = {}
    for n in (32, 64):
        sol = run(n)
        sub = 256 // n
        errs[n] = np.abs(sol.n_plus - fine.n_plus[::sub]).max()
    assert errs[32] / max(errs[64], 1e-300) >= 1e3


def test_step_mass_conservation_and_reality():
    grid = Grid(dim=2, n=64, length=2 * np.pi * 2)
    st = init_state(grid, InitSpec(kind="random", amplitude=5e-3, seed=9))
    m0p = st.n_plus.mean() * grid.volume
    m0m = st.n_minus.mean() * grid.volume
    cur = st
    for _ in range(20):
        cur = step(cur, 0.02, SYM)
    assert abs(cur.n_plus.mean() * grid.volume - m0p) <= 1e-8
    assert abs(cur.n_minus.mean() * grid.volume - m0m) <= 1e-8
    assert cur.n_plus.dtype == np.float64  # irfftn output: real by construction
    n_plus_hat = FieldState.split(cur.spectra)[0]
    assert np.abs(n_plus_hat[0, 0].imag) <= 1e-12


def test_step_cfl_guard():
    grid = Grid(dim=1, n=64, length=2 * np.pi)
    zero = np.zeros(grid.shape)
    st = FieldState(grid, zero, zero, np.full((1,) + grid.shape, 0.5), zero[None])
    with pytest.raises(ValueError):
        step(st, 1.0, SYM)


def test_step_blowup_detection():
    grid = Grid(dim=1, n=64, length=2 * np.pi)
    st = FieldState(grid, np.full(grid.shape, 0.6), np.zeros(grid.shape),
                    np.zeros((1,) + grid.shape), np.zeros((1,) + grid.shape))
    with pytest.raises(BlowUpError):
        step(st, 1e-3, SYM)


def test_energy_report_equilibrium_and_single_mode():
    grid = Grid(dim=2, n=32, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="zero"))
    rep = energy_report(st, SYM)
    assert rep.e0 == 0.0 and rep.d0 == 0.0
    # unit-amplitude solenoidal mode in u+: D0 = nu1+ |k|^2 V / (2 beta2)
    x = grid.axes()
    X, Y = np.meshgrid(*x, indexing="ij")
    u_plus = np.stack([np.zeros(grid.shape), np.cos(X)])  # div-free, |k| = 1
    st = FieldState(grid, st.n_plus, st.n_minus, u_plus, st.u_minus)
    rep = energy_report(st, SYM)
    co = linear_coefficients(SYM)
    expect = co.nu1_plus * 1.0 * grid.volume / (2 * co.beta2)
    assert rep.d0 == pytest.approx(expect, rel=1e-12)
    assert rep.e0 == pytest.approx(grid.volume / (2 * co.beta2) / 2, rel=1e-12)


def test_energy_identity_linear_regime():
    grid = Grid(dim=1, n=128, length=2 * np.pi * 2)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-4, seed=21))
    t, h = 2.0, 1e-3
    mid = linear_propagator_step(st, t, SYM)
    plus = linear_propagator_step(mid, h, SYM)
    minus = linear_propagator_step(st, t - h, SYM)
    e_plus = energy_report(plus, SYM).e0
    e_minus = energy_report(minus, SYM).e0
    rep = energy_report(mid, SYM)
    dEdt = (e_plus - e_minus) / (2 * h)
    assert abs(dEdt + rep.d0) <= 1e-5 * max(rep.e0, rep.d0)


def test_energy_nonincreasing_nonlinear():
    grid = Grid(dim=1, n=128, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=0.01, seed=17, band=(1, 3)))
    dt = 0.01
    e_prev = energy_report(st, SYM).e0
    e_init = e_prev
    cur = st
    for _ in range(100):
        cur = step(cur, dt, SYM)
        e = energy_report(cur, SYM).e0
        assert e <= e_prev + 1e-6 * e_init * dt
        e_prev = e


def test_weighted_sup_functionals():
    times = np.linspace(0.0, 50.0, 100)
    zero = {(v, j): np.zeros_like(times)
            for v in ("combo", "u+", "u-", "n+", "n-") for j in range(5)}
    e_k, e_0 = weighted_sup_functionals(times, zero, ell=3)
    assert all(np.all(e_k[k] == 0) for k in e_k) and np.all(e_0 == 0)

    hist = dict(zero)
    hist[("combo", 0)] = (1 + times) ** -0.75
    e_k, e_0 = weighted_sup_functionals(times, hist, ell=3)
    assert np.allclose(e_k[0], 1.0, rtol=1e-12)

    rng = np.random.default_rng(2)
    noisy = {key: np.abs(rng.normal(size=times.size)) for key in zero}
    e_k, e_0 = weighted_sup_functionals(times, noisy, ell=3)
    for arr in list(e_k.values()) + [e_0]:
        assert np.all(np.diff(arr) >= 0)


def test_step_3d_smoke():
    grid = Grid(dim=3, n=16, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-5, seed=12, band=(1, 2)))
    m0 = st.n_minus.mean() * grid.volume
    cur = st
    for _ in range(5):
        cur = step(cur, 0.02, SYM)
    assert np.isfinite(cur.n_plus).all()
    assert abs(cur.n_minus.mean() * grid.volume - m0) <= 1e-9
    # exact linear propagation and the split-step solver stay close
    ref = linear_propagator_step(st, 0.1, SYM)
    scale = np.abs(ref.n_plus).max()
    assert np.abs(cur.n_plus - ref.n_plus).max() <= 1e-4 * scale


def test_general_background_pipeline():
    # everything must hold away from the unit background fraction densities
    params = FluidParams(rbar_plus=1.4, rbar_minus=0.7, gamma_plus=1.6,
                         gamma_minus=2.2, sigma_plus=0.8, sigma_minus=1.2)
    grid = Grid(dim=1, n=128, length=2 * np.pi * 8)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-6, seed=2, band=(1, 4)))
    cur = st
    for _ in range(40):
        cur = step(cur, 0.05, params)
    ref = linear_propagator_step(st, 2.0, params)
    scale = np.abs(ref.n_plus).max()
    assert np.abs(cur.n_plus - ref.n_plus).max() <= 1e-6 * scale
    # energy identity with the shifted background
    h = 1e-3
    mid = linear_propagator_step(st, 1.0, params)
    e_p = energy_report(linear_propagator_step(mid, h, params), params).e0
    e_m = energy_report(linear_propagator_step(st, 1.0 - h, params), params).e0
    rep = energy_report(mid, params)
    assert abs((e_p - e_m) / (2 * h) + rep.d0) <= 1e-5 * max(rep.e0, rep.d0)


def test_checkpoint_roundtrip(tmp_path):
    grid = Grid(dim=2, n=32, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=4))
    st = FieldState(grid, st.n_plus, st.n_minus, st.u_plus, st.u_minus, time=1.75)
    path = tmp_path / "state.tfck"
    write_checkpoint(st, SYM, path)
    back = read_checkpoint(path, SYM)
    assert back.time == st.time
    assert np.array_equal(back.n_plus, st.n_plus)
    assert np.array_equal(back.u_minus, st.u_minus)
    with pytest.raises(ValueError):
        read_checkpoint(path, FluidParams(mu_plus=2.0))


@pytest.mark.parametrize("edit, expected, actual", [
    (lambda b: b + bytes(8), "560", 568),       # trailing bytes
    (lambda b: b[:20], "at least 48", 20),      # cut inside the header
    (lambda b: b[:-100], "560", 460),           # cut inside the body
], ids=["trailing-bytes", "truncated-header", "truncated-body"])
def test_checkpoint_rejects_malformed_file(tmp_path, edit, expected, actual):
    # 1-D n=16: a 48-byte header and four fields of 16 doubles
    grid = Grid(dim=1, n=16, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=4))
    path = tmp_path / "state.tfck"
    write_checkpoint(st, SYM, path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=rf"expected {expected} bytes.*got {actual}$"):
        read_checkpoint(path, SYM)


def test_parseval_helper():
    grid = Grid(dim=1, n=64, length=2 * np.pi)
    x = grid.axes()[0]
    f_hat = grid.band(np.fft.rfftn(np.cos(3 * x)))
    assert gradient_l2sq(grid, f_hat, 0) == pytest.approx(grid.volume / 2, rel=1e-12)
    assert gradient_l2sq(grid, f_hat, 2) == pytest.approx(3**4 * grid.volume / 2, rel=1e-12)


def test_parseval_orders_are_bitwise_the_single_order_sums():
    # a sequence of orders forms |spec|^2 once; each integral keeps the
    # operation order of l2w * k2**k * |spec|^2
    grid = Grid(dim=2, n=16, length=3.0)
    u = grid.band(np.fft.rfftn(np.random.default_rng(2).standard_normal((2,) + grid.shape),
                               axes=(1, 2)))
    w = _waves(grid)
    expect = [float(np.sum(w.l2w * w.k2**k * np.abs(u) ** 2)) for k in range(5)]
    assert gradient_l2sq(grid, u, range(5)) == expect
    assert [gradient_l2sq(grid, u, k) for k in range(5)] == expect


def test_closure_cache_speedup_consistency():
    # warm-started rhs must agree with cold evaluation
    grid = Grid(dim=1, n=256, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=0.05, seed=8))
    F1a, _, F2a, _, ratio = physical_rhs(st, SYM)
    F1b, _, F2b, _, _ = physical_rhs(st, SYM, rho_ratio=ratio)
    assert np.allclose(F1a, F1b, rtol=1e-12, atol=1e-16)
    assert np.allclose(F2a, F2b, rtol=1e-9, atol=1e-14)


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_propagator_dedup_matches_full_decomposition(dim, n):
    from twofluid.solver import _linear_propagator
    from twofluid.spectral import decompose_batch

    grid = Grid(dim=dim, n=n, length=2 * np.pi * 4)
    dt = 0.3
    S, heat = _linear_propagator(grid, SYM, dt)
    co = linear_coefficients(SYM)
    kmag = np.sqrt(_waves(grid).k2)
    full = decompose_batch(kmag.ravel(), co).semigroup(dt).real
    full = np.moveaxis(full, 0, -1).reshape((4, 4) + grid.band_shape)
    assert np.abs(S - full).max() <= 1e-14
    assert heat.shape == (2,) + grid.band_shape
    for row, nu1 in zip(heat, (co.nu1_plus, co.nu1_minus)):
        assert np.abs(row - np.exp(-nu1 * kmag ** 2 * dt)).max() <= 1e-14


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_propagator_is_one_decomposition_per_distinct_band_k2(monkeypatch, dim, n):
    # the semigroup is decomposed once per distinct |k|^2 of the band, at its
    # square root, and every mode with that |k|^2 gets those bits
    from twofluid import solver
    from twofluid.spectral import decompose_batch

    grid = Grid(dim=dim, n=n, length=2 * np.pi * 4)
    params = FluidParams(mu_plus=0.8, mu_minus=1.3, lambda_plus=0.4, lambda_minus=0.1,
                         gamma_plus=1.6, gamma_minus=2.2, rbar_plus=1.4, rbar_minus=0.7)
    dt = 0.3
    co = linear_coefficients(params)
    k2 = grid.band(sum(k**2 for k in grid.k_axes()))
    distinct = np.unique(k2)
    S_distinct = decompose_batch(np.sqrt(distinct), co).semigroup(dt).real
    expected = np.empty((4, 4) + grid.band_shape)
    for value, S_value in zip(distinct, S_distinct):
        expected[:, :, k2 == value] = S_value[..., None]
    rows = []
    monkeypatch.setattr(solver, "decompose_batch",
                        lambda xis, c: rows.append(len(xis)) or decompose_batch(xis, c))
    solver._linear_propagator.cache_clear()
    S, heat = solver._linear_propagator(grid, params, dt)
    solver._linear_propagator.cache_clear()
    assert rows == [len(distinct)]
    assert (len(distinct) == k2.size) == (dim == 1)  # every 1D |k|^2 is its own
    assert S.shape == (4, 4) + grid.band_shape
    assert np.array_equal(S, expected) and S.tobytes() == expected.tobytes()
    assert heat.shape == (2,) + grid.band_shape
    assert np.array_equal(heat[0], np.exp(-co.nu1_plus * k2 * dt))
    assert np.array_equal(heat[1], np.exp(-co.nu1_minus * k2 * dt))


@pytest.mark.parametrize("shape", [(1024,), (256, 256), (16, 16, 16), (64, 64, 64),
                                   (4, 4), (4, 4, 4)])
def test_transforms_match_scipy_bitwise(shape):
    # the solver transforms with numpy.fft on the 2/3 band only; its axis
    # order pins scipy.fft's bits there, so artifacts match those written with
    # scipy.fft and a mask; n = 4 puts the band edges next to each other
    import scipy.fft

    from twofluid.solver import _irfft, _rfft

    grid = Grid(dim=len(shape), n=shape[0], length=1.0)
    mask = dealias_mask(grid)
    f = np.random.default_rng(len(shape)).standard_normal(shape)
    full = scipy.fft.rfftn(f)
    band = grid.band(full)
    # the band layout: the masked modes in ravel order
    assert band.shape == grid.band_shape
    assert np.array_equal(band.ravel(), full[mask])
    assert np.array_equal(unband(grid, band), full * mask)
    assert np.array_equal(_rfft(f), band)
    # the inverse into an array holding garbage
    field = np.full(shape, np.nan)
    assert _irfft(band, shape, out=field) is field
    assert np.array_equal(field, scipy.fft.irfftn(full * mask, s=shape))
    assert np.array_equal(_irfft(band, shape), field)


def _count_ffts(monkeypatch, grid):
    """Rows through the solver's forward and inverse transforms, appended as they happen.

    A call on a stack of rows counts each of its rows.
    """
    from twofluid import solver

    calls = []
    for name, points in (("_rfft", np.prod(grid.band_shape)), ("_irfft", np.prod(grid.shape))):
        def counted(*args, _fn=getattr(solver, name), _points=points, **kwargs):
            out = _fn(*args, **kwargs)
            calls.extend([_fn] * (out.size // _points))
            return out
        monkeypatch.setattr(solver, name, counted)
    return calls


@pytest.mark.parametrize("dim,budget", [(1, 40), (2, 68), (3, 116), (3, 108)])
def test_step_fft_budget(monkeypatch, dim, budget):
    grid = Grid(dim=dim, n=16, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=1, band=(1, 3)))
    calls = _count_ffts(monkeypatch, grid)
    # cold: a freshly constructed state transforms its fields
    cur = step(FieldState(grid, st.n_plus, st.n_minus, st.u_plus, st.u_minus), 0.01, SYM)
    assert 0 < len(calls) <= budget
    del calls[:]
    step(cur, 0.01, SYM)   # warm: a stepped state carries its spectra
    assert 0 < len(calls) <= budget - 2 * (1 + dim)


def _step_calls(dim):
    """Python (``call``) and builtin (``c_call``) calls of one warm step at n = 16.

    The step is the second of a run, so the physical twin and the cached
    grid tables already exist.  The caches start empty, so that their keys
    are this run's grid and params and a lookup calls no ``__eq__``.
    """
    from twofluid import closure, solver

    for cached in (solver._waves, solver._linear_propagator, closure.equilibrium_state,
                   closure.linear_coefficients):
        cached.cache_clear()
    grid = Grid(dim=dim, n=16, length=2 * np.pi)
    st = step(init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=1, band=(1, 3))),
              0.01, SYM)
    st.physical
    events = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in events:
            events[event] += 1

    sys.setprofile(count)
    try:
        step(st, 0.01, SYM)
    finally:
        sys.setprofile(None)
    return events["call"], events["c_call"]


# (call, c_call) budgets per dim; keyed by dim so that lowering one keeps the test ids
_STEP_CALL_BUDGETS = {1: (498, 260), 2: (814, 401), 3: (1354, 674)}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_step_call_budget(dim):
    # most of a small-grid step is a fixed cost per call, so the call counts
    # are pinned as budgets, as test_step_fft_budget pins the transforms
    calls, c_calls = _STEP_CALL_BUDGETS[dim]
    counted = _step_calls(dim)
    assert 0 < counted[0] <= calls
    assert 0 < counted[1] <= c_calls


@pytest.mark.parametrize("shape, count", [((1024,), 70), ((128, 128), 5), ((16, 16, 16), 11)])
def test_grouped_rows_are_row_by_row_bits(shape, count):
    # blocks of rows go through numpy.fft in one call per axis pass, each row
    # by its own line transforms; the last block here is a partial one
    from twofluid.solver import _blocks, _irfft, _irfft_rows, _rfft, _rfft_rows

    grid = Grid(dim=len(shape), n=shape[0], length=1.0)
    blocks = _blocks(count, shape)
    assert len(blocks) > 1 and count % (blocks[0].stop - blocks[0].start) != 0
    rows = np.random.default_rng(count).standard_normal((count,) + shape)
    spectra = _rfft_rows(grid, rows)
    assert np.array_equal(spectra, np.stack([_rfft(f) for f in rows]))
    per_row = np.stack([_irfft(spec, shape) for spec in spectra])
    for size in (1, 2):
        assert np.array_equal(_irfft_rows(spectra.__getitem__, count, shape, size), per_row)


def test_rows_larger_than_a_block_go_one_per_call(monkeypatch):
    # a 64^3 row exceeds the block: every numpy.fft call, inline or on the
    # pool, transforms one row, so the temporaries stay one row deep
    from twofluid.solver import _irfft, _irfft_rows, _rfft, _rfft_rows

    grid = Grid(dim=3, n=64, length=1.0)
    rows = np.random.default_rng(64).standard_normal((3,) + grid.shape)
    calls = []
    for name in ("rfft", "fft", "ifft", "irfft"):
        def counted(a, *args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(a.shape)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    spectra = _rfft_rows(grid, rows)
    assert len(calls) == 3 * 3 and all(np.prod(shape[:-3]) == 1 for shape in calls)
    for size in (1, 2):
        del calls[:]
        back = _irfft_rows(spectra.__getitem__, 3, grid.shape, size)
        assert len(calls) == 3 * 3 and all(np.prod(shape[:-3]) == 1 for shape in calls)
    monkeypatch.undo()
    assert np.array_equal(spectra, np.stack([_rfft(f) for f in rows]))
    assert np.array_equal(back, np.stack([_irfft(spec, grid.shape) for spec in spectra]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_constructed_state_is_band_limited(tmp_path, dim):
    # fields with content up to the grid's Nyquist index: the state keeps the
    # band of their transforms and the arrays it was given
    import scipy.fft

    grid = Grid(dim=dim, n=16, length=2 * np.pi)
    rows = np.random.default_rng(dim).standard_normal((2 + 2 * dim,) + grid.shape)
    assert np.abs(scipy.fft.rfftn(rows[0])[~dealias_mask(grid)]).max() > 1.0
    st = FieldState(grid, *FieldState.split(rows), time=0.5)
    assert st.spectra.shape == (2 + 2 * dim,) + grid.band_shape
    for row, spec in zip(rows, st.spectra):
        assert np.array_equal(spec, grid.band(scipy.fft.rfftn(row)))
    assert np.array_equal(st.physical, rows)
    path = tmp_path / "state.tfck"
    write_checkpoint(st, SYM, path)
    back = read_checkpoint(path, SYM)
    assert back.time == st.time
    assert np.array_equal(back.physical, st.physical)
    assert np.array_equal(back.spectra, st.spectra)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_from_spectra_rejects_a_layout_other_than_the_band(dim):
    # a full rfft-layout stack would broadcast wrongly or fail deep in a step
    grid = Grid(dim=dim, n=16, length=2 * np.pi)
    rows = 2 + 2 * dim
    full = np.zeros((rows,) + grid.spectral_shape, dtype=complex)
    expected = (rows,) + grid.band_shape
    with pytest.raises(ValueError, match=rf"^spectra must have shape {re.escape(str(expected))}"
                                         rf".*got {re.escape(str(full.shape))}$"):
        FieldState.from_spectra(grid, full, 0.0)
    with pytest.raises(ValueError, match="spectra"):
        FieldState.from_spectra(grid, np.zeros(expected[1:], dtype=complex), 0.0)
    assert FieldState.from_spectra(grid, np.zeros(expected, dtype=complex), 0.0).time == 0.0


def test_stepped_state_caches_consistent_spectra():
    grid = Grid(dim=2, n=32, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=6))
    cur = step(st, 0.01, SYM)
    assert cur.rho_ratio is not None and cur.rho_ratio.shape == grid.shape
    with pytest.raises(ValueError):
        cur.n_plus[0, 0] = 1.0   # read-only: cannot drift from the cached spectra
    rebuilt = FieldState(grid, cur.n_plus, cur.n_minus, cur.u_plus, cur.u_minus, cur.time)
    for sp, fresh in zip(FieldState.split(cur.spectra), FieldState.split(rebuilt.spectra)):
        assert np.abs(sp - fresh).max() <= 1e-14 * max(1.0, np.abs(fresh).max())
    warm = step(cur, 0.01, SYM)
    cold = step(rebuilt, 0.01, SYM)
    assert np.abs(warm.n_plus - cold.n_plus).max() <= 1e-12 * np.abs(cold.n_plus).max()


def test_guards_relative_to_background():
    low = FluidParams(rbar_plus=0.3)
    grid = Grid(dim=1, n=64, length=2 * np.pi)
    # R+ = 0.3 + n+ dips to -0.1: rejected up front, not at the first step
    with pytest.raises(BlowUpError):
        init_state(grid, InitSpec(kind="mode", amplitude=0.4, mode=(1,)), low)
    init_state(grid, InitSpec(kind="mode", amplitude=0.4, mode=(1,)))  # fine at rbar = 1
    # the blow-up threshold scales with rbar too: |n+| = 0.2 > 0.5 * 0.3
    st = FieldState(grid, np.full(grid.shape, 0.2), np.zeros(grid.shape),
                    np.zeros((1,) + grid.shape), np.zeros((1,) + grid.shape))
    with pytest.raises(BlowUpError):
        step(st, 1e-3, low)
    assert np.abs(step(st, 1e-3, SYM).n_plus - 0.2).max() <= 1e-15


def test_states_are_read_only_and_own_their_arrays(tmp_path):
    grid = Grid(dim=2, n=16, length=2 * np.pi)
    rng = np.random.default_rng(3)
    n_p, n_m = 1e-3 * rng.normal(size=(2,) + grid.shape)
    u_p, u_m = 1e-3 * rng.normal(size=(2, 2) + grid.shape)
    built = FieldState(grid, n_p, n_m, u_p, u_m, time=0.5)
    path = tmp_path / "state.tfck"
    write_checkpoint(built, SYM, path)
    states = (built, init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=4)),
              read_checkpoint(path, SYM))
    for st in states:
        fields = (st.n_plus, st.n_minus, st.u_plus, st.u_minus, st.physical, st.spectra)
        assert not any(arr.flags.writeable for arr in fields)
    # the caller's arrays stay writable and are not shared with the state
    for given, held in ((n_p, built.n_plus), (n_m, built.n_minus),
                        (u_p, built.u_plus), (u_m, built.u_minus)):
        assert given.flags.writeable and not np.shares_memory(given, held)
    n_p[...] = 0.0
    assert np.abs(built.n_plus).max() > 0.0 and built.time == 0.5


def test_consecutive_steps_warm_start_the_closure(monkeypatch):
    from twofluid import kernels

    grid = Grid(dim=1, n=64, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=8))
    linear_coefficients(SYM)  # background closure solved outside the count
    cold = []
    solve = kernels.solve_rho_plus_batch

    def counted(Rp, Rm, gp, gm, x0=None):
        cold.append(x0 is None)
        return solve(Rp, Rm, gp, gm, x0=x0)

    monkeypatch.setattr(kernels, "solve_rho_plus_batch", counted)
    first = step(st, 0.01, SYM)
    assert cold == [True, False]
    del cold[:]
    step(first, 0.01, SYM)
    assert cold == [False, False]


@pytest.mark.parametrize("draw", [None, 2], ids=["readme", "validity-draw-2"])
def test_warm_stages_converge_at_once(monkeypatch, draw):
    # at gamma+ = gamma- the root is R+ + R-, so the carried ratio
    # rho+/(R+ + R-) is exactly 1 and every warm stage starts on its root: one
    # residual pass suffices.  A start from the previous stage's root needs 2-3
    from test_spectral import VALIDITY_DRAWS
    from twofluid import kernels

    params = SYM if draw is None else VALIDITY_DRAWS[draw]
    assert params.gamma_plus == params.gamma_minus
    grid = Grid(dim=1, n=64, length=2 * np.pi * 4)
    st = step(init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=8), params),
              0.01, params)  # the first stage solves cold
    monkeypatch.setattr(kernels, "MAX_ITER", 1)
    for _ in range(2):
        st = step(st, 0.01, params)
    assert np.isfinite(st.physical).all() and np.all(st.rho_ratio == 1.0)


def test_checkpoint_byte_layout(tmp_path):
    # the header, then n+, n-, the u+ rows and the u- rows as '<f8'
    from twofluid.solver import (
        _CHECKPOINT_HEADER,
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        params_digest,
    )

    grid = Grid(dim=2, n=8, length=3.0)
    rng = np.random.default_rng(5)
    n_p, n_m = 1e-3 * rng.normal(size=(2,) + grid.shape)
    u_p, u_m = 1e-3 * rng.normal(size=(2, 2) + grid.shape)
    path = tmp_path / "state.tfck"
    write_checkpoint(FieldState(grid, n_p, n_m, u_p, u_m, time=0.25), SYM, path)
    expected = _CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 2, 8, 3.0,
                                       params_digest(SYM), 0.25)
    for field in (n_p, n_m, u_p[0], u_p[1], u_m[0], u_m[1]):
        expected += field.astype("<f8").tobytes()
    assert path.read_bytes() == expected


def _solver_threads(monkeypatch, cpus):
    """Run the solver on ``cpus`` threads at every grid size."""
    from twofluid import solver, threads

    monkeypatch.setattr(threads, "CPUS", cpus)
    monkeypatch.setattr(solver, "_PARALLEL_POINTS", 0)


NONSYM = FluidParams(mu_plus=0.8, mu_minus=1.3, lambda_plus=0.4, lambda_minus=0.1,
                     sigma_plus=0.9, sigma_minus=1.2, gamma_plus=1.6, gamma_minus=2.2,
                     rbar_plus=1.4, rbar_minus=0.7)


def per_phase_linear_step(state, dt, params):
    """Reference linear half-step: one Hodge split and generator sums per phase."""
    from twofluid.solver import _linear_propagator

    S, heat = _linear_propagator(state.grid, params, dt)
    khat = _waves(state.grid).khat
    n_p, n_m, u_p, u_m = FieldState.split(state.spectra)
    phi_p, rem_p = _hodge(u_p, khat)
    phi_m, rem_m = _hodge(u_m, khat)
    V = (n_p, phi_p, n_m, phi_m)
    new = [sum(S[i, j] * V[j] for j in range(4)) for i in range(4)]
    return np.concatenate([new[0][None], new[2][None], -1j * khat * new[1] + heat[0] * rem_p,
                           -1j * khat * new[3] + heat[1] * rem_m])


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_phase_axis_linear_step_is_the_per_phase_arithmetic(monkeypatch, dim, n):
    # one Hodge split over the phase axis and one einsum give the bytes of
    # the per-phase splits and sums (signed zeros too, hence tobytes),
    # inline and in slabs on 2 and 5 threads
    grid = Grid(dim=dim, n=n, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-2, seed=4, band=(0, n)), NONSYM)
    for state in (step(st, 0.01, NONSYM), init_state(grid, InitSpec(), NONSYM)):
        expected = per_phase_linear_step(state, 0.3, NONSYM)
        for cpus in (1, 2, 5):
            _solver_threads(monkeypatch, cpus)
            got = linear_propagator_step(state, 0.3, NONSYM).spectra
            assert np.array_equal(got, expected) and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_pool_and_inline_give_the_same_bits(monkeypatch, dim, n):
    params = FluidParams(mu_plus=0.8, mu_minus=1.3, lambda_plus=0.4, lambda_minus=0.1,
                         gamma_plus=1.6, gamma_minus=2.2)
    grid = Grid(dim=dim, n=n, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-2, seed=9, band=(1, 3)), params)
    results = []
    switch = sys.getswitchinterval()
    try:
        # 5 threads on fewer cores, switching often: uneven shares and slabs
        sys.setswitchinterval(1e-5)
        for cpus in (1, 2, 5):
            _solver_threads(monkeypatch, cpus)
            F, ratio = nonlinear_rhs(st, params)
            warm_F, _ = nonlinear_rhs(st, params, rho_ratio=ratio)
            nxt = step(st, 0.01, params)
            results.append((F, ratio, warm_F, nxt.spectra, nxt.rho_ratio, nxt.physical))
    finally:
        sys.setswitchinterval(switch)
    for inline, *pooled in zip(*results):
        for arr in pooled:
            assert np.array_equal(inline, arr)


LINEAR_DECAY = "task: linear-decay\ndecay:\n  samples: 8\n  k_max: 0\n"


def _lab_threads(monkeypatch, cpus):
    """Run the solver and the linear lab on ``cpus`` threads, projections in chunks of <= 64 rows."""
    from twofluid import spectral

    _solver_threads(monkeypatch, cpus)
    monkeypatch.setattr(spectral, "_CHUNK_ROWS", 64)


def test_slices_cover_the_range_in_order(monkeypatch):
    from twofluid import threads

    _solver_threads(monkeypatch, 2)
    for length, count in ((10, 3), (10, 1), (3, 5), (0, 2)):
        parts = threads.slices(lambda s: list(range(length))[s], length, count, 2)
        assert sum(parts, []) == list(range(length))
        assert len(parts) == max(1, min(count, length))
        assert max(map(len, parts)) - min(map(len, parts)) <= 1


def test_one_cpu_creates_no_pool(monkeypatch, tmp_path):
    from twofluid import solver, threads
    from twofluid.cli import parse_config, run_campaign

    def refuse(size):
        raise AssertionError("one CPU must not create a pool")

    _lab_threads(monkeypatch, 1)
    monkeypatch.setattr(threads, "_pool", refuse)
    grid = Grid(dim=3, n=16, length=2 * np.pi)
    assert solver.workers(grid) == 1
    step(init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=2)), 0.01, SYM)
    assert run_campaign(parse_config(LINEAR_DECAY), out_dir=tmp_path, quiet=True) == 0


def test_pool_tasks_never_submit_to_the_pool(monkeypatch, tmp_path):
    # with two threads, a task that waits on work it queued can deadlock the
    # pool; two steps and a linear-decay campaign run in a joined thread so a
    # hang fails instead
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from twofluid import threads
    from twofluid.cli import parse_config, run_campaign

    nested = []
    spare = ThreadPoolExecutor(2)
    pool = threads._pool

    def guarded(size):
        if threading.current_thread().name.startswith("twofluid-pool"):
            nested.append(threading.current_thread().name)
            return spare  # record the nested submission and run it elsewhere
        return pool(size)

    _lab_threads(monkeypatch, 2)
    monkeypatch.setattr(threads, "_pool", guarded)
    grid = Grid(dim=3, n=16, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=3))
    done = []

    def work():
        done.append(step(step(st, 0.01, SYM), 0.01, SYM))
        done.append(run_campaign(parse_config(LINEAR_DECAY), out_dir=tmp_path, quiet=True))

    runner = threading.Thread(target=work, daemon=True)
    try:
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "work did not finish: the pool deadlocked"
        assert len(done) == 2 and np.isfinite(done[0].physical).all() and done[1] == 0
        assert nested == []
    finally:
        spare.shutdown()
