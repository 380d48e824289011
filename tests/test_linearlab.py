import sys

import numpy as np
import pytest

from twofluid.closure import FluidParams, linear_coefficients
from twofluid import linearlab, spectral
from twofluid.linearlab import (
    AccuracyError,
    ModeEvolution,
    NormSeries,
    RadialQuadrature,
    band_ratio,
    expected_exponent,
    fit_power_law,
    make_generic_data,
    make_lower_bound_data,
    radial_norm,
)
from twofluid.spectral import batch_green, decompose_batch

SYM = FluidParams()


def clear_lab_caches():
    """Empty the lab's process-wide caches: bases and cutoff radii."""
    linearlab._evolution_basis.cache_clear()
    spectral.choose_eta.cache_clear()


@pytest.fixture(scope="module")
def sym_evolution():
    return ModeEvolution(SYM, t_max=1.2e4)


def test_radial_norm_gaussian_moments():
    f = lambda r: np.exp(-np.asarray(r) ** 2 / 2.0)
    assert radial_norm(f, 0, r_max=12.0) == pytest.approx(np.pi**0.75, rel=1e-8)
    assert radial_norm(f, 1, r_max=12.0) == pytest.approx(np.sqrt(1.5) * np.pi**0.75, rel=1e-8)


def test_radial_norm_indicator_ball():
    f = lambda r: np.where(np.asarray(r) <= 1.0, 1.0, 0.0)
    # discontinuous integrand: the jump sits on a panel edge, so doubling converges
    assert radial_norm(f, 0, r_max=2.0) == pytest.approx(
        np.sqrt(4 * np.pi / 3), rel=1e-5)


def test_radial_norm_inverse_order():
    # k = -1 weighs the spectrum by the inverse frequency magnitude
    f = lambda r: np.exp(-np.asarray(r) ** 2 / 2.0)
    assert radial_norm(f, -1, r_max=12.0) == pytest.approx(np.sqrt(2.0) * np.pi**0.75, rel=1e-8)


def test_radial_norm_rejects_bad_order():
    with pytest.raises(ValueError):
        radial_norm(lambda r: np.exp(-np.asarray(r) ** 2), -2, r_max=12.0)


def test_evolve_mode_identity_and_eigenvector():
    co = linear_coefficients(SYM)
    d = decompose_batch([0.7], co)
    U0 = np.array([0.3, -0.1, 0.2, 0.5])
    assert np.allclose(d.apply(0.0, U0[None])[0], U0, atol=1e-12)
    lam, vecs = np.linalg.eig(batch_green([0.7], co)[0])
    v = vecs[:, 0]
    got = d.apply(1.3, v.real[None])[0] + 1j * d.apply(1.3, v.imag[None])[0]
    assert np.abs(got - np.exp(lam[0] * 1.3) * v).max() <= 1e-10


def test_evolve_mode_vs_rk4_oracle():
    co = linear_coefficients(FluidParams(mu_plus=0.7, mu_minus=1.4, sigma_plus=0.8,
                                         sigma_minus=1.3, gamma_plus=1.6, gamma_minus=2.3))
    d = decompose_batch([1.1], co)
    rng = np.random.default_rng(0)
    U0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    t_end = 1.0
    steps = 4000
    dt = t_end / steps
    U = U0.copy()
    A = batch_green([1.1], co)[0]
    for _ in range(steps):
        k1 = A @ U
        k2 = A @ (U + 0.5 * dt * k1)
        k3 = A @ (U + 0.5 * dt * k2)
        k4 = A @ (U + dt * k3)
        U = U + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    got = d.apply(t_end, U0.real[None])[0] + 1j * d.apply(t_end, U0.imag[None])[0]
    assert np.abs(got - U).max() <= 1e-7


def test_heat_variable_closed_form(sym_evolution):
    # Gaussian spectrum under the heat factor has an explicit norm:
    # ||f||^2 = pi^(3/2) * a^3 * (1 + 2 nu1 t / a^2)^(-3/2) for width a = 1
    data = make_generic_data(1.0)
    amp = data.profile_fns[1](0.0)
    width = 0.95
    co = linear_coefficients(SYM)
    times = np.array([0.0, 0.5, 2.0, 10.0])
    got = sym_evolution.norms(data, times, ks=(0,), variables=("heat+",))["heat+"][0]
    expect = np.abs(amp) * np.pi**0.75 * width**1.5 / (1.0 + 2 * co.nu1_plus * times * width**2) ** 0.75
    assert np.allclose(got, expect, rtol=1e-8)


def test_norm_series_t0_matches_radial_norm(sym_evolution):
    data = make_generic_data(0.7)
    got = sym_evolution.norms(data, np.array([0.0, 1.0]), ks=(0,), variables=("n+",))["n+"][0]
    direct = radial_norm(data.profile_fns[0], 0, r_max=12.0)
    assert got[0] == pytest.approx(direct, rel=1e-8)


def test_symmetric_difference_matches_reduced_system(sym_evolution):
    # with identical phases the difference (n+ - n-, phi+ - phi-) closes on a
    # 2x2 system with no pressure coupling; evolve it independently
    import scipy.linalg

    co = linear_coefficients(SYM)
    data = make_generic_data(1.0)
    ev = sym_evolution
    U0 = data.sampled(ev.quad.nodes)
    t = 3.7
    U = ev.decomp.apply(t, U0)
    for idx in (5, 100, 400):
        r = ev.quad.nodes[idx]
        M2 = np.array([[0.0, -r], [co.sigma_plus * r**3, -co.nu_plus * r**2]])
        d0 = np.array([U0[idx, 0] - U0[idx, 2], U0[idx, 1] - U0[idx, 3]])
        ref = scipy.linalg.expm(t * M2) @ d0
        got = np.array([U[idx, 0] - U[idx, 2], U[idx, 1] - U[idx, 3]])
        assert np.abs(got - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


def test_make_generic_data_scaling_and_zero():
    d0 = make_generic_data(0.0)
    assert all(np.all(fn(np.linspace(0, 5, 11)) == 0.0) for fn in d0.profile_fns)
    d1 = make_generic_data(0.4)
    d2 = make_generic_data(0.8)
    r = np.linspace(0.0, 6.0, 37)
    for f1, f2 in zip(d1.profile_fns, d2.profile_fns):
        assert np.allclose(2.0 * f1(r), f2(r), rtol=1e-12)
    assert all(abs(fn(0.0)) > 0 for fn in d1.profile_fns)


def test_generic_data_norm_decays(sym_evolution):
    # the state norm decays; individual density components may first grow
    # while the slow channel feeds them
    data = make_generic_data(1.0)
    times = np.array([0.0, 100.0])
    table = sym_evolution.norms(data, times, ks=(0,),
                                variables=("n+", "n-", "phi+", "phi-"))
    total = sum(table[v][0] for v in ("n+", "n-", "phi+", "phi-"))
    assert total[-1] < total[0]


def test_make_lower_bound_data_construction():
    data = make_lower_bound_data(0.1, 1.0, 1.0, 0.4)
    assert data.c0 == pytest.approx(0.1)
    assert data.profile_fns[3](0.0) == pytest.approx(0.1)
    r = np.linspace(0.0, 1.0, 101)
    assert np.all(data.profile_fns[0](r) == 0.0)
    assert np.all(data.profile_fns[1](r) == 0.0)
    assert np.all(data.profile_fns[2](r) == 0.0)
    assert np.all(data.profile_fns[3](r)[r >= 0.4] == 0.0)


def test_make_lower_bound_data_validation():
    with pytest.raises(ValueError):
        make_lower_bound_data(1.5, 1.0, 1.0, 0.4)
    with pytest.raises(ValueError):
        make_lower_bound_data(0.5, 2.5, 1.0, 0.4)
    with pytest.raises(ValueError):
        make_lower_bound_data(0.5, 1.0, -1.0, 0.4)


def test_fit_power_law_exact_and_constant():
    t = np.geomspace(1.0, 1e3, 20)
    series = NormSeries(times=t, values=3.0 * (1 + t) ** -0.75, k=0, variable="n+")
    fit = fit_power_law(series)
    assert fit.exponent == pytest.approx(-0.75, abs=1e-12)
    assert fit.amplitude == pytest.approx(3.0, rel=1e-10)
    assert fit.residual < 1e-12
    const = NormSeries(times=t, values=np.full_like(t, 2.0), k=0, variable="n+")
    assert fit_power_law(const).exponent == pytest.approx(0.0, abs=1e-13)


def test_fit_power_law_perturbed():
    t = np.geomspace(1.0, 1e4, 50)
    vals = (1 + t) ** -0.25 * (1 + 0.1 * np.sin(np.log1p(t)))
    fit = fit_power_law(NormSeries(times=t, values=vals, k=0, variable="n+"))
    assert abs(fit.exponent + 0.25) <= 0.05


def test_fit_power_law_guards():
    t = np.geomspace(1.0, 100.0, 6)
    series = NormSeries(times=t, values=np.ones(6), k=0, variable="n+")
    with pytest.raises(ValueError):
        fit_power_law(series)
    t = np.geomspace(1.0, 100.0, 12)
    with pytest.raises(ValueError):
        fit_power_law(NormSeries(times=t, values=np.zeros(12), k=0,
                                 variable="n+"), window=(1.0, 100.0))


def test_linear_rates_generic_k0(sym_evolution):
    data = make_generic_data(1.0)
    times = np.geomspace(1e2, 1e4, 24)
    fits = {}
    table = sym_evolution.norms(data, times, ks=(0,),
                                variables=("n+", "combo", "drho+", "heat+"))
    for v in ("n+", "combo", "drho+", "heat+"):
        fits[(v, 0)] = fit_power_law(NormSeries(times=times, values=table[v][0],
                                                k=0, variable=v))
    assert -0.30 <= fits[("n+", 0)].exponent <= -0.20
    assert -0.80 <= fits[("combo", 0)].exponent <= -0.70
    for (v, k), fit in fits.items():
        assert abs(fit.exponent - expected_exponent(v, k)) <= 0.05, v
    combo_fit = fits[("combo", 0)].exponent
    drho_fit = fits[("drho+", 0)].exponent
    assert abs(combo_fit - drho_fit) <= 0.03


def test_k_ladder_and_combination_gap(sym_evolution):
    data = make_generic_data(1.0)
    times = np.geomspace(1e2, 1e4, 24)
    table = sym_evolution.norms(data, times, ks=(0, 1, 2, 3), variables=("n+", "combo"))
    exps = {}
    for v in ("n+", "combo"):
        for k in (0, 1, 2, 3):
            exps[(v, k)] = fit_power_law(
                NormSeries(times=times, values=table[v][k], k=k, variable=v)).exponent
    for k in (0, 1, 2):
        assert abs(exps[("n+", k + 1)] - exps[("n+", k)] + 0.5) <= 0.07
        assert abs(exps[("combo", k + 1)] - exps[("combo", k)] + 0.5) <= 0.07
    for k in (0, 1, 2, 3):
        assert abs(exps[("combo", k)] - exps[("n+", k)] + 0.5) <= 0.07


def test_lower_bound_band(sym_evolution):
    data = make_lower_bound_data(0.5, 1.0, 2.0, 0.4)
    times = np.geomspace(1e2, 1e4, 24)
    table = sym_evolution.norms(data, times, ks=(0,),
                                variables=("n+", "n-", "phi+", "phi-", "combo"))
    for v in ("n+", "n-"):
        s = NormSeries(times=times, values=table[v][0], k=0, variable=v)
        assert band_ratio(s, 0.25) <= 3.0
    for v in ("phi+", "phi-", "combo"):
        s = NormSeries(times=times, values=table[v][0], k=0, variable=v)
        assert band_ratio(s, 0.75) <= 3.0


def test_expected_exponent_table():
    assert expected_exponent("n+", 0) == -0.25
    assert expected_exponent("n-", 2) == -1.25
    assert expected_exponent("combo", 0) == -0.75
    assert expected_exponent("phi+", 1) == -1.25
    assert expected_exponent("drho-", 0) == -0.75
    assert expected_exponent("heat+", 3) == -2.25


def test_plancherel_against_cartesian_grid():
    # the radial formula must agree with a plain 3-D Riemann sum
    f = lambda r: np.exp(-np.asarray(r) ** 2 / 2.0)
    L, n = 8.0, 96
    ax = np.linspace(-L, L, n, endpoint=False)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    R = np.sqrt(X**2 + Y**2 + Z**2)
    dV = (2 * L / n) ** 3
    for k in (0, 1):
        cart = np.sum(R ** (2 * k) * f(R) ** 2) * dV
        rad = radial_norm(f, k, r_max=12.0) ** 2
        assert cart == pytest.approx(rad, rel=1e-4)


def test_unknown_variable_rejected(sym_evolution):
    data = make_generic_data(1.0)
    with pytest.raises(ValueError, match="'vorticity'"):
        sym_evolution.norms(data, np.array([0.0, 1.0]), ks=(0,), variables=("n+", "vorticity"))


def test_negative_times_rejected(sym_evolution):
    data = make_generic_data(1.0)
    with pytest.raises(ValueError, match="times must be >= 0"):
        sym_evolution.norms(data, np.array([-1.0, 1.0]), ks=(0,), variables=("n+",))


def test_norms_match_per_time_contraction(sym_evolution):
    # reference: the semigroup applied to the data at every time, then one
    # quadrature sum per (time, variable, order)
    ev = sym_evolution
    assert ev.decomp.confluent.sum() > 0  # rows with a near-double pair are exercised
    data = make_generic_data(0.5)
    times = np.geomspace(1.0, 1e4, 12)
    ks = range(4)
    nodes, weights = ev.quad.nodes, ev.quad.weights
    U0 = data.sampled(nodes)
    table = ev.norms(data, times, ks=ks)
    for it, t in enumerate(times):
        U = np.einsum("njk,nk->nj", ev.decomp.semigroup(t), U0)
        vals = ev._variable_values(U, U0, nodes, t)
        for v in linearlab.VARIABLES:
            for k in ks:
                ref = np.sqrt(4.0 * np.pi * np.sum(weights * nodes ** (2 * k + 2)
                                                   * np.abs(vals[v]) ** 2))
                assert table[v][k][it] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_live_panel_check_matches_full_refinement(monkeypatch):
    clear_lab_caches()  # a fresh basis: no refined decomposition yet
    ev = ModeEvolution(SYM, t_max=1.2e4)
    data = make_generic_data(0.5)
    t, k = 1e4, 3
    variables = linearlab.VARIABLES

    def squares(nodes, weights, dec):
        U0 = data.sampled(nodes)
        vals = ev._variable_values(dec.apply(t, U0), U0, nodes, t)
        a2 = np.stack([np.abs(vals[v]) ** 2 for v in variables])
        return a2, a2 @ (4.0 * np.pi * weights * nodes ** (2 * k + 2))

    fine_quad = ev.quad.refined()
    _, full = squares(fine_quad.nodes, fine_quad.weights,
                      decompose_batch(fine_quad.nodes, ev.coeffs))
    a2, _ = squares(ev.quad.nodes, ev.quad.weights, ev.decomp)
    sizes = []

    def counted(nodes, coeffs):
        sizes.append(len(nodes))
        return decompose_batch(nodes, coeffs)

    monkeypatch.setattr(linearlab, "decompose_batch", counted)
    live = ev._refined_squares(data, t, k, variables, a2)
    assert len(sizes) == 1 and 0 < sizes[0] < len(fine_quad.nodes) / 2
    assert np.allclose(live, full, rtol=1e-12, atol=0.0)


def test_refined_panels_are_the_full_refinements_blocks(sym_evolution):
    # the check refines exactly as the full rule does: a panel subset's nodes
    # and weights are bitwise the matching 2 * order blocks of quad.refined()
    quad = sym_evolution.quad
    n_panels = len(quad.lo)
    panels = np.sort(np.random.default_rng(5).choice(n_panels, n_panels // 3, replace=False))
    sub, full = quad.refined(panels), quad.refined()
    blocks = (2 * panels[:, None] + np.arange(2))[..., None] * quad.order + np.arange(quad.order)
    assert sub.nodes.tobytes() == full.nodes[blocks.ravel()].tobytes()
    assert sub.weights.tobytes() == full.weights[blocks.ravel()].tobytes()
    # and the full refinement is the rule on the midpoint-doubled edges
    edges = np.geomspace(1e-3, 12.0, 17)
    doubled = np.empty(2 * len(edges) - 1)
    doubled[::2], doubled[1::2] = edges, 0.5 * (edges[:-1] + edges[1:])
    got = RadialQuadrature.from_edges(edges, 16).refined()
    want = RadialQuadrature.from_edges(doubled, 16)
    for name in ("lo", "hi", "nodes", "weights"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_norms_never_build_the_projector_array(monkeypatch):
    # the linear lab projects data through the adjugate; the (n, 4, 4, 4)
    # projector array is only built when read, and norms never reads it
    clear_lab_caches()
    built = []

    def recorded(nodes, coeffs):
        built.append(decompose_batch(nodes, coeffs))
        return built[-1]

    monkeypatch.setattr(linearlab, "decompose_batch", recorded)
    ev = ModeEvolution(FluidParams())
    ev.norms(make_generic_data(0.5), np.geomspace(1e2, 1e4, 40), range(4))
    assert len(built) == 2  # the evolution's and the quadrature check's
    assert all("projectors" not in vars(d) for d in built)


def test_quadrature_check_runs_at_the_latest_time_in_any_order():
    # a rule sized for t <= 100 passes the check at t = 100 but not at 1e4,
    # wherever 1e4 stands among the times
    ev = ModeEvolution(SYM, t_max=1e2)
    for times in ([1e2, 1e4], [1e4, 1e2]):
        with pytest.raises(AccuracyError, match="t=10000"):
            ev.norms(make_generic_data(0.5), times, ks=range(4))


def test_norms_of_descending_times_are_the_ascending_table_reversed(sym_evolution):
    data = make_generic_data(0.5)
    times = np.geomspace(1e2, 1e4, 12)
    up = sym_evolution.norms(data, times, ks=range(4))
    down = sym_evolution.norms(data, times[::-1], ks=range(4))
    for v in up:
        for k in range(4):
            assert down[v][k][::-1].tobytes() == up[v][k].tobytes()


@pytest.mark.parametrize("times,ks,name", [([], range(4), "times"), ([1.0, 2.0], (), "ks")])
def test_norms_reject_empty_times_and_orders(sym_evolution, times, ks, name):
    with pytest.raises(ValueError, match=f"^{name} must hold at least one"):
        sym_evolution.norms(make_generic_data(0.5), times, ks=ks)


def test_equal_keys_share_one_read_only_basis():
    clear_lab_caches()
    ev = ModeEvolution(SYM, t_max=1.2e4)
    ev.norms(make_generic_data(0.5), np.geomspace(1e2, 1e4, 12), ks=range(4))
    twin = ModeEvolution(FluidParams(), t_max=12000)
    assert twin.quad is ev.quad and twin.decomp is ev.decomp
    _, fine, refined = ev._refined[0]
    arrays = [ev.quad.lo, ev.quad.hi, ev.quad.nodes, ev.quad.weights, fine.nodes, fine.weights]
    for dec in (ev.decomp, refined):
        arrays += [a for a in vars(dec).values() if isinstance(a, np.ndarray)]
    assert len(arrays) == 6 + 2 * 6
    arrays += list(vars(ev.decomp._clusters).values())  # built by the first evolution
    arrays.append(ev.decomp.projectors)  # built on first read, shared like the rest
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = a
    # the process keeps the latest key's basis only
    assert ModeEvolution(SYM, t_max=1e3).decomp is not ev.decomp
    assert linearlab._evolution_basis.cache_info().currsize == 1
    assert ModeEvolution(SYM, t_max=1.2e4).decomp is not ev.decomp


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", ["readme", "confluent", "draw0"])
def test_shared_basis_gives_the_bits_of_a_fresh_one(monkeypatch, case, cpus):
    from test_acceptance import tuned_confluent_params
    from test_spectral import FALLBACK_PARAMS
    from twofluid import threads

    monkeypatch.setattr(threads, "CPUS", cpus)
    params = {"readme": SYM, "confluent": tuned_confluent_params(),
              "draw0": FALLBACK_PARAMS}[case]
    data = make_generic_data(0.5)
    times = np.geomspace(1e2, 1e4, 12)

    def table():
        ev = ModeEvolution(params)
        t = ev.norms(data, times, ks=range(4))
        return ev.decomp, [t[v][k].tobytes() for v in t for k in range(4)]

    clear_lab_caches()
    built, fresh = table()
    shared, again = table()  # the cached basis and its check's refinement
    assert shared is built and again == fresh


def test_quadrature_check_reuses_its_refinement_for_equal_live_panels(monkeypatch):
    # on the README set the generic and slow-channel data keep the same 135
    # panels live at t = 1e4; an earlier latest time keeps more, and the
    # basis's one slot then holds those until the next change
    clear_lab_caches()
    sizes = []

    def counted(nodes, coeffs):
        sizes.append(len(nodes))
        return decompose_batch(nodes, coeffs)

    monkeypatch.setattr(linearlab, "decompose_batch", counted)
    ev = ModeEvolution(SYM, t_max=1.2e4)
    times = np.geomspace(1e2, 1e4, 40)
    generic, slow = make_generic_data(0.5), make_lower_bound_data(0.5, 1.0, 2.0, 0.4)
    ev.norms(generic, times, ks=range(4))
    ev.norms(slow, times, ks=range(4), variables=("n+", "n-", "phi+", "phi-", "combo"))
    ModeEvolution(SYM, t_max=1.2e4).norms(generic, times[::-1], ks=range(4))
    assert sizes == [11328, 135 * 48]
    ev.norms(generic, times[:20], ks=range(4))
    ev.norms(generic, times, ks=range(4))
    assert len(sizes) == 4 and sizes[2] > sizes[1] and sizes[3] == sizes[1]


@pytest.mark.parametrize("kwargs", [
    dict(t_max=1e2),               # panels sized for a far shorter time
    dict(t_max=1.2e4, order=8),    # too few nodes per panel
])
def test_norms_quadrature_check_fails_on_underresolved_rule(monkeypatch, kwargs):
    kwargs = dict(kwargs)
    if "order" in kwargs:  # the basis key holds no order: build this rule afresh
        monkeypatch.setattr(linearlab, "_ORDER", kwargs.pop("order"))
        clear_lab_caches()
    try:
        ev = ModeEvolution(SYM, **kwargs)
        with pytest.raises(AccuracyError):
            ev.norms(make_generic_data(0.5), np.geomspace(1e2, 1e4, 40), ks=range(4))
    finally:
        clear_lab_caches()  # no later test may share a basis of another order


@pytest.mark.parametrize("case", ["readme", "confluent", "draw0"])
def test_pool_and_inline_norm_tables_give_the_same_bits(monkeypatch, case):
    # the evolution's decomposition, projection and sample times, and the
    # quadrature check's decomposition, inline on one CPU and on 2 and 5
    # threads in chunks of at most 1000 rows, switching often
    from test_acceptance import tuned_confluent_params
    from test_spectral import FALLBACK_PARAMS, row_threads

    params = {"readme": SYM, "confluent": tuned_confluent_params(),
              "draw0": FALLBACK_PARAMS}[case]
    data = make_generic_data(0.5)
    times = np.geomspace(1e2, 1e4, 12)
    tables = []
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for cpus in (1, 2, 5):
            row_threads(monkeypatch, cpus, 1000)
            table = ModeEvolution(params).norms(data, times, ks=range(4))
            tables.append([table[v][k].tobytes() for v in table for k in range(4)])
    finally:
        sys.setswitchinterval(switch)
    assert tables[0] == tables[1] == tables[2]
