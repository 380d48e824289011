import numpy as np
import pytest

from twofluid.closure import (
    ConvergenceError,
    FluidParams,
    closure_state,
    linear_coefficients,
    linearized_density_perturbation,
    nonlinear_coefficients,
    pressure_and_sound_speed,
    solve_rho_plus,
)

SYM = FluidParams()  # gamma=2, mu=1, lambda=0, sigma=1, rbar=1 on both phases


def bisect_rho_plus(Rp, Rm, gp, gm, lo=None, hi=None, iters=200):
    """Independent oracle: plain bisection on the pressure-equilibrium residual."""
    def phi(x):
        return x**gp - (Rm * x / (x - Rp)) ** gm

    lo = Rp + 1e-9 if lo is None else lo
    hi = Rp + 1e3 if hi is None else hi
    assert phi(lo) < 0 < phi(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_pressure_and_sound_speed_units():
    assert pressure_and_sound_speed(1.0, 2.0) == (1.0, 2.0)
    assert pressure_and_sound_speed(2.0, 2.0) == (4.0, 4.0)


def test_pressure_and_sound_speed_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    P, s2 = pressure_and_sound_speed(1.7, 1.4)
    P_ref = float(mp.power(mp.mpf("1.7"), mp.mpf("1.4")))
    s2_ref = float(mp.mpf("1.4") * mp.power(mp.mpf("1.7"), mp.mpf("0.4")))
    assert abs(P - P_ref) <= 1e-14 * P_ref
    assert abs(s2 - s2_ref) <= 1e-14 * s2_ref


def test_pressure_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        pressure_and_sound_speed(0.0, 2.0)
    with pytest.raises(ValueError):
        pressure_and_sound_speed(-1.0, 1.4)


def test_solve_rho_plus_symmetric_state():
    assert solve_rho_plus(1.0, 1.0, SYM) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("Rp,Rm,gp,gm", [
    (1.0, 1.0, 2.0, 3.0),
    (0.3, 1.8, 1.4, 1.4),
])
def test_solve_rho_plus_against_bisection(Rp, Rm, gp, gm):
    params = FluidParams(gamma_plus=gp, gamma_minus=gm)
    ref = bisect_rho_plus(Rp, Rm, gp, gm)
    assert solve_rho_plus(Rp, Rm, params) == pytest.approx(ref, rel=1e-10)


def test_solve_rho_plus_random_grid_vs_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        Rp, Rm = rng.uniform(0.1, 3.0, 2)
        gp, gm = rng.uniform(1.0, 3.0, 2)
        params = FluidParams(gamma_plus=gp, gamma_minus=gm)
        got = solve_rho_plus(Rp, Rm, params)
        ref = bisect_rho_plus(Rp, Rm, gp, gm, hi=Rp + Rm + 10 * max(Rp, Rm, 100.0))
        assert got == pytest.approx(ref, rel=1e-10)
        # residual and monotonicity at the root
        Pp = got**gp
        assert abs(Pp - (Rm * got / (got - Rp)) ** gm) <= 1e-12 * max(1.0, Pp)
        assert got > Rp


def test_solve_rho_plus_rejects_vacuum():
    with pytest.raises(ValueError):
        solve_rho_plus(1e-9, 1.0, SYM)
    with pytest.raises(ValueError):
        solve_rho_plus(1.0, -0.5, SYM)


def test_closure_state_symmetric_constants():
    st = closure_state(1.0, 1.0, SYM)
    assert st.rho_plus == pytest.approx(2.0, abs=1e-12)
    assert st.rho_minus == pytest.approx(2.0, abs=1e-12)
    assert st.alpha_plus == pytest.approx(0.5, abs=1e-13)
    assert st.s2_plus == pytest.approx(4.0, abs=1e-12)
    assert st.s2_minus == pytest.approx(4.0, abs=1e-12)
    assert st.c2 == pytest.approx(2.0, abs=1e-12)


def test_closure_state_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        Rp, Rm = rng.uniform(0.1, 3.0, 2)
        gp, gm = rng.uniform(1.0, 3.0, 2)
        params = FluidParams(gamma_plus=gp, gamma_minus=gm)
        st = closure_state(Rp, Rm, params)
        assert st.alpha_plus + st.alpha_minus == pytest.approx(1.0, abs=1e-14)
        assert st.alpha_plus * st.rho_plus == pytest.approx(Rp, rel=1e-10)
        assert st.alpha_minus * st.rho_minus == pytest.approx(Rm, rel=1e-10)
        Pp, _ = pressure_and_sound_speed(st.rho_plus, gp)
        Pm, _ = pressure_and_sound_speed(st.rho_minus, gm)
        assert abs(Pp - Pm) <= 1e-10 * max(1.0, Pp)
        assert st.c2 > 0


def test_closure_state_batch_matches_scalar():
    rng = np.random.default_rng(3)
    Rp = rng.uniform(0.2, 2.0, 17)
    Rm = rng.uniform(0.2, 2.0, 17)
    params = FluidParams(gamma_plus=1.4, gamma_minus=2.2)
    batch = closure_state(Rp, Rm, params)
    for i in range(17):
        st = closure_state(Rp[i], Rm[i], params)
        assert batch.rho_plus[i] == pytest.approx(st.rho_plus, rel=1e-14)
        assert batch.c2[i] == pytest.approx(st.c2, rel=1e-13)


def test_linear_coefficients_symmetric():
    co = linear_coefficients(SYM)
    for b in (co.beta1, co.beta2, co.beta3, co.beta4):
        assert b == pytest.approx(2.0, abs=1e-12)
    assert co.beta_plus == pytest.approx(1.0, abs=1e-13)
    assert co.beta_minus == pytest.approx(1.0, abs=1e-13)
    assert co.nu1_plus == pytest.approx(0.5, abs=1e-13)
    assert co.nu2_plus == pytest.approx(0.5, abs=1e-13)
    assert co.nu_plus == pytest.approx(1.0, abs=1e-13)


def test_beta_identities_random_params():
    rng = np.random.default_rng(11)
    for _ in range(20):
        mu = rng.uniform(0.2, 2.0, 2)
        lam = rng.uniform(-0.2, 1.0, 2)
        lam = np.maximum(lam, -2 * mu / 3 + 0.01)
        params = FluidParams(mu_plus=mu[0], mu_minus=mu[1],
                             lambda_plus=lam[0], lambda_minus=lam[1],
                             sigma_plus=rng.uniform(0.2, 2.0), sigma_minus=rng.uniform(0.2, 2.0),
                             gamma_plus=rng.uniform(1.0, 3.0), gamma_minus=rng.uniform(1.0, 3.0),
                             rbar_plus=rng.uniform(0.5, 2.0), rbar_minus=rng.uniform(0.5, 2.0))
        co = linear_coefficients(params)
        scale = co.beta1 * co.beta4
        assert abs(co.beta1 * co.beta4 - co.beta2 * co.beta3) <= 1e-13 * scale
        assert abs(co.beta2**2 - co.beta2 * co.beta3) <= 1e-13 * scale
        assert co.beta_plus == pytest.approx(np.sqrt(co.rhobar_minus / co.rhobar_plus), rel=1e-12)
        assert co.beta_minus == pytest.approx(np.sqrt(co.rhobar_plus / co.rhobar_minus), rel=1e-12)
        assert co.nu2_plus > 0 and co.nu2_minus > 0


def test_params_validation():
    with pytest.raises(ValueError):
        FluidParams(mu_plus=0.0)
    with pytest.raises(ValueError):
        FluidParams(lambda_plus=-1.0)  # 2*1 + 3*(-1) < 0
    with pytest.raises(ValueError):
        FluidParams(gamma_minus=0.9)
    with pytest.raises(ValueError):
        FluidParams(sigma_plus=0.0)


def test_nonlinear_coefficients_vanish_at_equilibrium():
    nc = nonlinear_coefficients(0.0, 0.0, SYM)
    assert nc.g_plus == 0.0
    assert nc.g_minus == 0.0
    assert nc.gbar_plus == 0.0
    assert nc.gbar_minus == 0.0
    assert nc.l_plus == 0.0
    assert nc.l_minus == 0.0


def test_nonlinear_coefficients_symmetric_values():
    nc = nonlinear_coefficients(0.0, 0.0, SYM)
    assert nc.h_plus == pytest.approx(0.25, abs=1e-13)   # C^2 alpha- / s-^2
    assert nc.h_minus == pytest.approx(-0.25, abs=1e-13)
    assert nc.k_plus == pytest.approx(-0.25, abs=1e-13)
    assert nc.k_minus == pytest.approx(-0.25, abs=1e-13)


def test_nonlinear_coefficients_consistency_with_direct_closure():
    np_, nm_ = 0.05, -0.03
    nc = nonlinear_coefficients(np_, nm_, SYM)
    st = closure_state(1.0 + np_, 1.0 + nm_, SYM)
    eq = closure_state(1.0, 1.0, SYM)
    g_p = st.c2 * st.rho_minus / st.rho_plus - eq.c2 * eq.rho_minus / eq.rho_plus
    assert nc.g_plus == pytest.approx(g_p, abs=1e-8)
    assert nc.gbar_plus == pytest.approx(st.c2 - eq.c2, abs=1e-8)
    assert nc.gbar_plus == nc.gbar_minus


def test_density_perturbation_trivial_and_symmetric():
    assert linearized_density_perturbation(0.0, 0.0, SYM) == (0.0, 0.0)
    dp, dm = linearized_density_perturbation(0.01, 0.01, SYM)
    assert dp == pytest.approx(0.02, abs=1e-14)
    assert dm == pytest.approx(0.02, abs=1e-14)


def test_density_perturbation_keeps_complex_spectra():
    # the linear lab feeds complex spectra: the map is linear over C
    params = FluidParams(rbar_plus=1.3, rbar_minus=0.8, gamma_plus=1.7, gamma_minus=2.4)
    n_p = np.array([0.02 + 0.01j, -0.03j])
    n_m = np.array([0.005 - 0.02j, 0.01 + 0.0j])
    dp, dm = linearized_density_perturbation(n_p, n_m, params)
    re_p, re_m = linearized_density_perturbation(n_p.real, n_m.real, params)
    im_p, im_m = linearized_density_perturbation(n_p.imag, n_m.imag, params)
    assert np.abs(dp - (re_p + 1j * im_p)).max() <= 1e-16
    assert np.abs(dm - (re_m + 1j * im_m)).max() <= 1e-16
    assert np.abs(dp.imag).min() > 0


def test_density_perturbation_kernel_of_combination():
    params = FluidParams(rbar_plus=1.3, rbar_minus=0.8, gamma_plus=1.7, gamma_minus=2.4)
    co = linear_coefficients(params)
    n_p = 0.02
    n_m = -co.beta_plus * n_p / co.beta_minus
    dp, dm = linearized_density_perturbation(n_p, n_m, params)
    assert abs(dp) < 1e-16 and abs(dm) < 1e-16


def test_density_perturbation_ratio_is_sound_speed_ratio():
    params = FluidParams(rbar_plus=1.5, rbar_minus=0.7, gamma_plus=1.4, gamma_minus=2.0)
    from twofluid.closure import equilibrium_state

    dp, dm = linearized_density_perturbation(0.01, 0.004, params)
    eq = equilibrium_state(params)
    assert dp / dm == pytest.approx(eq.s2_minus / eq.s2_plus, rel=1e-12)


def test_closure_from_root_matches_closure_state():
    from twofluid.closure import closure_from_root

    params = FluidParams(gamma_plus=1.6, gamma_minus=2.4, rbar_plus=1.3, rbar_minus=0.6)
    rng = np.random.default_rng(4)
    Rp = params.rbar_plus + 0.1 * rng.normal(size=500)
    Rm = params.rbar_minus + 0.05 * rng.normal(size=500)
    ref = closure_state(Rp, Rm, params)
    got = closure_from_root(Rp, Rm, solve_rho_plus(Rp, Rm, params, x0=ref.rho_plus), params)
    for name in ref.__dataclass_fields__:
        a, b = getattr(ref, name), getattr(got, name)
        assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max(), name
    scalar = closure_from_root(1.0, 1.0, solve_rho_plus(1.0, 1.0, SYM), SYM)
    assert scalar == closure_state(1.0, 1.0, SYM)
