import numpy as np
import pytest

from twofluid.closure import FluidParams, closure_state, linear_coefficients
from twofluid.solver import (
    BlowUpError,
    FieldState,
    Grid,
    InitSpec,
    energy_report,
    hodge_split_grid,
    init_state,
    linear_propagator_step,
    nonlinear_rhs,
    gradient_l2sq,
    read_checkpoint,
    step,
    weighted_sup_functionals,
    write_checkpoint,
)

SYM = FluidParams()


def physical_rhs(state, params, **kwargs):
    """``nonlinear_rhs`` with the tendencies transformed to physical space."""
    *F, rho = nonlinear_rhs(state, params, **kwargs)
    shape = state.grid.shape
    return (*(np.fft.irfftn(f, s=shape, axes=range(-state.grid.dim, 0)) for f in F), rho)


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


def test_init_positivity_guard():
    grid = Grid(dim=1, n=64, length=2 * np.pi)
    with pytest.raises(ValueError):
        init_state(grid, InitSpec(kind="mode", amplitude=1.2, mode=(1,)))


def test_hodge_split_gradient_and_solenoidal():
    grid = Grid(dim=2, n=32, length=2 * np.pi)
    ks = grid.k_axes()
    rng = np.random.default_rng(0)
    psi = rng.normal(size=grid.shape)
    psi_hat = np.fft.rfftn(psi)
    grad = np.stack([1j * ks[d] * psi_hat for d in range(2)])
    phi, rem = hodge_split_grid(grad, grid)
    assert np.abs(rem).max() <= 1e-12 * max(1.0, np.abs(grad).max())
    # solenoidal single mode: u = (cos(y), 0)
    x = grid.axes()
    X, Y = np.meshgrid(*x, indexing="ij")
    u = np.stack([np.cos(Y), np.zeros(grid.shape)])
    u_hat = np.stack([np.fft.rfftn(c) for c in u])
    phi, rem = hodge_split_grid(u_hat, grid)
    assert np.abs(phi).max() <= 1e-12 * np.abs(u_hat).max()


def test_hodge_split_divergence_free_remainder():
    grid = Grid(dim=3, n=16, length=2 * np.pi)
    rng = np.random.default_rng(1)
    u = rng.normal(size=(3,) + grid.shape)
    u_hat = np.stack([np.fft.rfftn(c) for c in u])
    phi, rem = hodge_split_grid(u_hat, grid)
    ks = grid.k_axes()
    div = sum(1j * ks[d] * rem[d] for d in range(3))
    assert np.abs(div).max() <= 1e-12 * np.abs(u_hat).max()
    back = np.stack([1j * ks[d] * phi * np.where(grid.k_mag() > 0, 1 / np.where(grid.k_mag() > 0, grid.k_mag(), 1), 0) for d in range(3)]) + rem
    assert np.abs(back - u_hat).max() <= 1e-11 * np.abs(u_hat).max()


def test_nonlinear_rhs_zero_and_constant():
    grid = Grid(dim=1, n=64, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="zero"))
    F1, F2, F3, F4, _ = physical_rhs(st, SYM)
    for F in (F1, F2, F3, F4):
        assert np.abs(F).max() == 0.0
    # constant n+ perturbation, everything else zero: every term carries a
    # derivative of the constant or a factor of u
    st = FieldState(grid, np.full(grid.shape, 0.05), np.zeros(grid.shape),
                    np.zeros((1,) + grid.shape), np.zeros((1,) + grid.shape))
    F1, F2, F3, F4, _ = physical_rhs(st, SYM)
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


def test_nonlinear_rhs_matches_finite_differences():
    params = FluidParams(mu_plus=0.8, mu_minus=1.3, lambda_plus=0.4, lambda_minus=0.1,
                         sigma_plus=0.9, sigma_minus=1.2, gamma_plus=1.6, gamma_minus=2.2)
    grid = Grid(dim=2, n=128, length=2 * np.pi)
    x = grid.axes()
    X, Y = np.meshgrid(*x, indexing="ij")
    a = 0.01
    st = FieldState(
        grid,
        a * np.cos(2 * X + Y),
        a * np.sin(X - Y),
        np.stack([a * np.sin(X + 2 * Y), a * np.cos(X)]),
        np.stack([a * np.cos(Y), a * np.sin(2 * X)]),
    )
    F1, F2, F3, F4, _ = physical_rhs(st, params)

    dx = grid.dx
    from twofluid.closure import nonlinear_coefficients

    nc = nonlinear_coefficients(st.n_plus, st.n_minus, params)
    dn_p = [fd_derivative(st.n_plus, d, dx) for d in range(2)]
    dn_m = [fd_derivative(st.n_minus, d, dx) for d in range(2)]
    du_p = [[fd_derivative(st.u_plus[i], j, dx) for j in range(2)] for i in range(2)]
    du_m = [[fd_derivative(st.u_minus[i], j, dx) for j in range(2)] for i in range(2)]
    div_p = du_p[0][0] + du_p[1][1]
    div_m = du_m[0][0] + du_m[1][1]
    lap_u_p = [sum(fd_derivative(fd_derivative(st.u_plus[i], j, dx), j, dx) for j in range(2))
               for i in range(2)]
    lap_u_m = [sum(fd_derivative(fd_derivative(st.u_minus[i], j, dx), j, dx) for j in range(2))
               for i in range(2)]
    grad_div_p = [fd_derivative(div_p, i, dx) for i in range(2)]
    grad_div_m = [fd_derivative(div_m, i, dx) for i in range(2)]

    ref1 = -(fd_derivative(st.n_plus * st.u_plus[0], 0, dx)
             + fd_derivative(st.n_plus * st.u_plus[1], 1, dx))
    ref3 = -(fd_derivative(st.n_minus * st.u_minus[0], 0, dx)
             + fd_derivative(st.n_minus * st.u_minus[1], 1, dx))
    scale = max(np.abs(F1).max(), np.abs(F2).max(), np.abs(F4).max())
    assert np.abs(F1 - ref1).max() <= 1e-6 * scale
    assert np.abs(F3 - ref3).max() <= 1e-6 * scale

    mu_p, la_p = params.mu_plus, params.lambda_plus
    mu_m, la_m = params.mu_minus, params.lambda_minus
    for i in range(2):
        conv = st.u_plus[0] * du_p[i][0] + st.u_plus[1] * du_p[i][1]
        cross = sum(nc.h_plus * dn_p[j] * (du_p[i][j] + du_p[j][i])
                    + nc.k_plus * dn_m[j] * (du_p[i][j] + du_p[j][i]) for j in range(2))
        ref = (-nc.g_plus * dn_p[i] - nc.gbar_plus * dn_m[i] - conv
               + mu_p * cross
               + la_p * (nc.h_plus * dn_p[i] + nc.k_plus * dn_m[i]) * div_p
               + mu_p * nc.l_plus * lap_u_p[i]
               + (mu_p + la_p) * nc.l_plus * grad_div_p[i])
        assert np.abs(F2[i] - ref).max() <= 1e-6 * scale
        conv = st.u_minus[0] * du_m[i][0] + st.u_minus[1] * du_m[i][1]
        cross = sum(nc.h_minus * dn_p[j] * (du_m[i][j] + du_m[j][i])
                    + nc.k_minus * dn_m[j] * (du_m[i][j] + du_m[j][i]) for j in range(2))
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
    spec = cur.spectra()
    assert np.abs(spec["n+"][0, 0].imag) <= 1e-12


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
    f = np.cos(3 * x)
    assert gradient_l2sq(grid, np.fft.rfftn(f), 0) == pytest.approx(grid.volume / 2, rel=1e-12)


def test_closure_cache_speedup_consistency():
    # warm-started rhs must agree with cold evaluation
    grid = Grid(dim=1, n=256, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=0.05, seed=8))
    F1a, F2a, _, _, rho = physical_rhs(st, SYM)
    F1b, F2b, _, _, _ = physical_rhs(st, SYM, rho_guess=rho)
    assert np.allclose(F1a, F1b, rtol=1e-12, atol=1e-16)
    assert np.allclose(F2a, F2b, rtol=1e-9, atol=1e-14)


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_propagator_dedup_matches_full_decomposition(dim, n):
    from twofluid.solver import _linear_propagator
    from twofluid.spectral import decompose_batch

    grid = Grid(dim=dim, n=n, length=2 * np.pi * 4)
    dt = 0.3
    S, heat_p, heat_m = _linear_propagator(grid, SYM, dt)
    co = linear_coefficients(SYM)
    full = decompose_batch(grid.k_mag().ravel(), co).semigroup(dt).real
    sign = np.array([1.0, -1.0, 1.0, -1.0])  # the propagator acts on phi = -w
    full = np.moveaxis(full * np.multiply.outer(sign, sign), 0, -1)
    assert np.abs(S - full.reshape(S.shape)).max() <= 1e-14
    assert np.abs(heat_p - np.exp(-co.nu1_plus * grid.k_mag() ** 2 * dt)).max() <= 1e-14


def _count_ffts(monkeypatch):
    import scipy.fft

    calls = []
    for mod in (scipy.fft, np.fft):
        for name in ("rfftn", "irfftn", "fftn", "ifftn"):
            def counted(*args, _fn=getattr(mod, name), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("dim,budget", [(1, 40), (3, 116)])
def test_step_fft_budget(monkeypatch, dim, budget):
    grid = Grid(dim=dim, n=16, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=1, band=(1, 3)))
    calls = _count_ffts(monkeypatch)
    # cold: a freshly constructed state transforms its fields
    cur = step(FieldState(grid, st.n_plus, st.n_minus, st.u_plus, st.u_minus), 0.01, SYM)
    assert len(calls) <= budget
    del calls[:]
    step(cur, 0.01, SYM)   # warm: a stepped state carries its spectra
    assert len(calls) <= budget - 2 * (1 + dim)


def test_stepped_state_caches_consistent_spectra():
    grid = Grid(dim=2, n=32, length=2 * np.pi)
    st = init_state(grid, InitSpec(kind="random", amplitude=1e-3, seed=6))
    cur = step(st, 0.01, SYM)
    assert cur.rho_plus is not None and cur.rho_plus.shape == grid.shape
    with pytest.raises(ValueError):
        cur.n_plus[0, 0] = 1.0   # read-only: cannot drift from the cached spectra
    sp = cur.spectra()
    rebuilt = FieldState(grid, cur.n_plus, cur.n_minus, cur.u_plus, cur.u_minus, cur.time)
    fresh = rebuilt.spectra()
    for key in ("n+", "n-", "u+", "u-"):
        assert np.abs(sp[key] - fresh[key]).max() <= 1e-14 * max(1.0, np.abs(fresh[key]).max())
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
        fields = (st.n_plus, st.n_minus, st.u_plus, st.u_minus, *st.spectra().values())
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
