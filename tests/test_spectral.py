import dataclasses
import functools
import sys

import numpy as np
import pytest

from twofluid.closure import FluidParams, linear_coefficients
from twofluid import spectral
from twofluid.spectral import (
    batch_char_coeffs,
    batch_green,
    choose_eta,
    decompose_batch,
    eigenvalues_asymptotic,
    eigenvalues_exact,
    heat_factor,
    matrix_exp_oracle,
    smooth_step_down,
    spectral_constants,
)

SYM = linear_coefficients(FluidParams())  # beta_i = 2, nu = 1, sigma = 1
README = FluidParams(gamma_plus=2.0, gamma_minus=2.0)
NONSYM = FluidParams(mu_plus=0.8, mu_minus=1.3, lambda_plus=0.4, lambda_minus=0.1,
                     sigma_plus=0.9, sigma_minus=1.2, gamma_plus=1.6, gamma_minus=2.2,
                     rbar_plus=1.4, rbar_minus=0.7)


def random_coeffs(rng):
    mu = rng.uniform(0.2, 2.0, 2)
    lam = np.maximum(rng.uniform(-0.2, 1.0, 2), -2 * mu / 3 + 0.01)
    params = FluidParams(
        mu_plus=mu[0], mu_minus=mu[1], lambda_plus=lam[0], lambda_minus=lam[1],
        sigma_plus=rng.uniform(0.2, 2.0), sigma_minus=rng.uniform(0.2, 2.0),
        gamma_plus=rng.uniform(1.0, 3.0), gamma_minus=rng.uniform(1.0, 3.0),
        rbar_plus=rng.uniform(0.5, 2.0), rbar_minus=rng.uniform(0.5, 2.0))
    return linear_coefficients(params)


def char_coeffs(xi, co):
    """(c3, c2, c1, c0) of one frequency as floats."""
    return tuple(float(c[0]) for c in batch_char_coeffs([xi], co))


def test_mode_system_zero_frequency():
    assert np.all(batch_green([0.0], SYM)[0] == 0.0)


def test_mode_system_symmetric_row():
    a1 = batch_green([1.0], SYM)[0]
    assert np.allclose(a1[1], [3.0, -1.0, 2.0, 0.0])
    assert np.allclose(a1[0], [0.0, -1.0, 0.0, 0.0])


def test_mode_system_trace():
    xis = np.array([0.3, 1.0, 7.0])
    for xi, a1 in zip(xis, batch_green(xis, SYM)):
        assert np.trace(a1) == pytest.approx(-(SYM.nu_plus + SYM.nu_minus) * xi**2, rel=1e-14)


def test_characteristic_coeffs_zero_and_symmetric():
    assert char_coeffs(0.0, SYM) == (0, 0, 0, 0)
    c3, c2, c1, c0 = char_coeffs(1.0, SYM)
    assert c3 == pytest.approx(2.0)
    assert c0 == pytest.approx(5.0)  # beta1*sigma- + beta4*sigma+ + sigma+sigma-


def test_characteristic_coeffs_match_determinant():
    rng = np.random.default_rng(0)
    for _ in range(10):
        co = random_coeffs(rng)
        xi = rng.uniform(0.05, 5.0)
        c3, c2, c1, c0 = char_coeffs(xi, co)
        for lam in (0.37, -1.2, 2.5 + 0.3j):
            det = np.linalg.det(lam * np.eye(4) - batch_green([xi], co)[0])
            poly = ((lam + c3) * lam + c2) * lam**2 + c1 * lam + c0
            assert abs(det - poly) <= 1e-12 * max(1.0, abs(det))


def test_characteristic_coeffs_vieta_from_roots():
    rng = np.random.default_rng(1)
    for _ in range(10):
        co = random_coeffs(rng)
        xi = rng.uniform(0.01, 10.0)
        c3, c2, c1, c0 = char_coeffs(xi, co)
        lam = np.linalg.eigvals(batch_green([xi], co)[0])
        scale = max(1.0, np.abs(lam).max() ** 4)
        assert abs(np.sum(lam) + c3) <= 1e-9 * max(1.0, abs(c3))
        assert abs(np.prod(lam) - c0) <= 1e-9 * scale


def test_eigenvalues_exact_zero_and_sum():
    assert np.all(eigenvalues_exact([0.0], SYM) == 0)
    for xi in (1e-3, 0.3, 4.0):
        lam = eigenvalues_exact([xi], SYM)[0]
        c3 = char_coeffs(xi, SYM)[0]
        assert abs(lam.sum() + c3) <= 1e-10 * max(1.0, abs(c3))


def test_eigenvalues_exact_small_xi_asymptotics():
    xi = 1e-3
    lam = eigenvalues_exact([xi], SYM)[0]
    # acoustic: -(b1 nu+ + b4 nu-)/(2(b1+b4)) xi^2 + i 2 xi, error O(xi^3)
    expect = -0.5 * xi**2 + 1j * 2.0 * xi
    assert abs(lam[0] - expect) <= 10 * xi**3
    assert abs(lam[1] - np.conj(expect)) <= 10 * xi**3


def test_eigenvalues_exact_vs_nproots_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        co = random_coeffs(rng)
        xi = 10 ** rng.uniform(-4, 2)
        got = list(eigenvalues_exact([xi], co)[0])
        ref = np.roots([1.0, *char_coeffs(xi, co)])
        scale = np.abs(ref).max()
        for r in ref:  # nearest-match the two unordered root sets
            j = int(np.argmin([abs(g - r) for g in got]))
            assert abs(got[j] - r) <= 1e-9 * scale
            got.pop(j)


# Pinned draws over the validity domain (mu in [0.05, 5], lambda in (-2 mu/3, 3],
# sigma in [0.01, 10], rbar in [0.1, 10], gamma in [1, 3]).  The first and
# third have all-real spectra at large xi, which decompose_batch orders by
# magnitude (``distinct-fallback``).
VALIDITY_DRAWS = (
    FluidParams(mu_plus=2.3, mu_minus=2.0, lambda_plus=-0.47, lambda_minus=1.9, sigma_plus=0.85,
                sigma_minus=1.5, gamma_plus=2.04, gamma_minus=1.85, rbar_plus=0.15, rbar_minus=0.5),
    FluidParams(mu_plus=0.06, mu_minus=4.2, lambda_plus=-0.039, lambda_minus=0.4, sigma_plus=8.0,
                sigma_minus=0.012, gamma_plus=1.1, gamma_minus=2.9, rbar_plus=8.5, rbar_minus=0.12),
    FluidParams(mu_plus=0.62, mu_minus=0.62, lambda_plus=2.5, lambda_minus=0.0, sigma_plus=0.02,
                sigma_minus=0.03, gamma_plus=1.4, gamma_minus=1.4, rbar_plus=0.83, rbar_minus=0.13),
    FluidParams(mu_plus=4.9, mu_minus=0.3, lambda_plus=-3.2, lambda_minus=2.8, sigma_plus=0.3,
                sigma_minus=6.0, gamma_plus=3.0, gamma_minus=1.0, rbar_plus=0.4, rbar_minus=9.0),
)
FALLBACK_PARAMS = VALIDITY_DRAWS[0]
FALLBACK_PARAMS_CO = linear_coefficients(FALLBACK_PARAMS)


def _polyroots40(mpmath, char_row):
    with mpmath.workdps(40):
        roots = mpmath.polyroots([1.0, *char_row], maxsteps=200, extraprec=60)
    return np.array([complex(z) for z in roots])


def _worst_rel_err(got, ref):
    """Worst per-root relative error after nearest-matching the two root sets."""
    got, worst = list(got), 0.0
    for r in ref:
        j = int(np.argmin([abs(g - r) for g in got]))
        worst = max(worst, abs(got.pop(j) - r) / abs(r))
    return worst


@functools.cache
def _first_panel():
    """Nodes of the linear lab quadrature's first panel, from xi ~ 1.7e-9."""
    from twofluid.linearlab import ModeEvolution

    quad = ModeEvolution(FluidParams()).quad
    return quad.nodes[:quad.order]


@pytest.mark.parametrize("case", ["readme", "confluent", "draw0", "draw1", "draw2", "draw3"])
def test_quartic_roots_match_40_digit_polyroots(case):
    mpmath = pytest.importorskip("mpmath")
    from test_acceptance import XI_GRID, tuned_confluent_params

    params = {"readme": FluidParams(), "confluent": tuned_confluent_params(),
              **{f"draw{i}": p for i, p in enumerate(VALIDITY_DRAWS)}}[case]
    co = linear_coefficients(params)
    xis = np.concatenate([[0.0], _first_panel()[[0, -1]], XI_GRID[::25]])
    char = batch_char_coeffs(xis, co)
    with np.errstate(all="raise"):
        lam = spectral._eigenvalues(batch_green(xis, co), char)
        assert spectral._quartic_roots(*char)[1].all()  # no row needs the eigensolve
    assert np.all(lam[0] == 0)
    pair = lam[:, ::2].imag != 0
    assert np.array_equal(lam[:, 1::2][pair], lam[:, ::2][pair].conj())
    assert np.all(lam[:, 1::2][~pair].imag == 0)
    eps = np.finfo(float).eps
    for row, got in zip(np.stack(char, axis=1)[1:], lam[1:]):
        ref = _polyroots40(mpmath, row)
        # relative condition number of each root in the rounded coefficients:
        # far below 1e-12 / eps except at a near-double pair (the confluent
        # draw), where the 40-digit roots of the quartic itself move by up to
        # ~1e-8 under a one-ulp change of one coefficient
        size = sum(np.abs(c) * np.abs(ref) ** k for k, c in enumerate(row[::-1]))
        slope = np.prod(ref[:, None] - ref[None, :] + np.eye(4), axis=1)
        tol = np.maximum(1e-12, 8.0 * eps * size / np.abs(slope * ref))
        got = list(got)
        for r, t in zip(ref, tol):
            j = int(np.argmin([abs(g - r) for g in got]))
            assert abs(got.pop(j) - r) <= t * abs(r)


def test_roots_keep_exact_zeros_at_xi_zero_without_warnings():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, converged = spectral._quartic_roots(*batch_char_coeffs([0.0, 0.0, 1.0], SYM))
        d = decompose_batch([0.0, 1.0], SYM)
        P = d.projectors  # the xi = 0 row joins the adjugate Horner
    assert converged.all() and np.all(lam[:2] == 0)
    assert d.xis[0] == 0 and not d.confluent[0] and np.all(d.eigenvalues[0] == 0)
    assert np.array_equal(P[0], np.stack([np.eye(4)] + [np.zeros((4, 4))] * 3))


def test_nonfinite_row_is_flagged_for_the_eigensolve():
    c3, c2, c1, c0 = batch_char_coeffs([0.5, 1.0, 2.0], SYM)
    c0[1] = np.nan
    assert spectral._quartic_roots(c3, c2, c1, c0)[1].tolist() == [True, False, True]


def test_guard_row_gets_the_polished_eigensolve(monkeypatch):
    # a row the factorisation did not converge on gets a real eigensolve
    # polished on the quartic; the other rows keep the factored roots
    xis = np.geomspace(1e-3, 1e2, 9)
    A, char = batch_green(xis, FALLBACK_PARAMS_CO), batch_char_coeffs(xis, FALLBACK_PARAMS_CO)
    free = spectral._eigenvalues(A, char)
    factor = spectral._quartic_roots

    def one_unconverged(*c):
        lam, converged = factor(*c)
        converged[4] = False
        return lam, converged

    monkeypatch.setattr(spectral, "_quartic_roots", one_unconverged)
    got = spectral._eigenvalues(A, char)
    eigensolve = spectral._polish_roots(np.linalg.eigvals(A[4:5]).astype(complex),
                                        *(c[4:5] for c in char))
    assert np.array_equal(got[4:5], eigensolve)
    keep = np.arange(9) != 4
    assert np.array_equal(got[keep], free[keep])
    assert _worst_rel_err(got[4], free[4]) <= 1e-12


def test_linear_lab_campaigns_never_reach_the_eigensolve(tmp_path, monkeypatch):
    # the benchmark's four linear-lab campaigns at full size: every quartic
    # row converges, so np.linalg.eigvals never runs
    from test_linearlab import clear_lab_caches
    from test_perfbench import load_perfbench
    from twofluid.cli import parse_config, run_campaign

    clear_lab_caches()
    rows, unconverged, eigvals_calls = [], [], []
    factor, eigvals = spectral._quartic_roots, np.linalg.eigvals

    def counted(*c):
        lam, converged = factor(*c)
        rows.append(len(converged))
        unconverged.append(int((~converged).sum()))
        return lam, converged

    def counted_eigvals(a):
        eigvals_calls.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(spectral, "_quartic_roots", counted)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    for name, _, text in load_perfbench("run").campaigns("linear-lab", 0, "full"):
        assert run_campaign(parse_config(text), out_dir=tmp_path / name, quiet=True) == 0
    # per parameter set one 200-mode table and one 160-frequency cutoff
    # search; linear-decay and lower-bound share one 11,328-node basis and its
    # check's refinement of 135 live panels (48 nodes each)
    assert sum(rows) == 2 * (200 + 160) + 11328 + 135 * 48
    assert sum(unconverged) == 0 and eigvals_calls == []


def test_eigenvalues_asymptotic_symmetric_R():
    co = SYM
    R, lt3, lt4, acoustic, nubar = spectral_constants(co)
    assert R.real == pytest.approx(0.0)
    assert R.imag == pytest.approx(np.sqrt(48.0), rel=1e-12)
    assert lt3 == pytest.approx((-4 + 1j * np.sqrt(48.0)) / 8, rel=1e-12)
    lam = eigenvalues_asymptotic(0.01, co)
    assert lam[2] == pytest.approx(lt3 * 1e-4, rel=1e-12)
    assert lam[3] == pytest.approx(lt4 * 1e-4, rel=1e-12)


def test_asymptotic_remainder_slopes():
    rng = np.random.default_rng(3)
    co = random_coeffs(rng)
    xis = np.geomspace(1e-4, 1e-2, 25)
    gap_ac, gap_di = [], []
    for xi, ex in zip(xis, eigenvalues_exact(xis, co)):
        ay = eigenvalues_asymptotic(xi, co)
        gap_ac.append(abs(ex[0] - ay[0]))
        gap_di.append(abs(ex[2] - ay[2]))
    s_ac = np.polyfit(np.log(xis), np.log(gap_ac), 1)[0]
    s_di = np.polyfit(np.log(xis), np.log(gap_di), 1)[0]
    assert s_ac >= 2.8
    assert s_di >= 3.8


def _log_uniform_draw(rng):
    """Parameters over VALIDITY_DRAWS' domain; mu, sigma and rbar log-uniform."""
    mu = 10.0 ** rng.uniform(np.log10(0.05), np.log10(5.0), 2)
    lam = rng.uniform(-2 * mu / 3, 3.0)
    sigma = 10.0 ** rng.uniform(-2.0, 1.0, 2)
    gamma = rng.uniform(1.0, 3.0, 2)
    rbar = 10.0 ** rng.uniform(-1.0, 1.0, 2)
    return FluidParams(*(float(v) for v in (*mu, *lam, *sigma, *gamma, *rbar)))


def test_eigenvalues_match_the_asymptotics_down_to_the_xi_floor():
    # below XI_FLOOR the quartic's O(xi^8) terms are subnormal or zero, and on
    # the non-symmetric set analyze-modes wrote growing modes (Re > 0) at 3.7e-40
    rng = np.random.default_rng(20261019)
    sets = (README, NONSYM, _log_uniform_draw(rng), _log_uniform_draw(rng))
    xis = np.geomspace(spectral.XI_FLOOR, 1e-20, 400)
    for params in sets:
        co = linear_coefficients(params)
        dec = decompose_batch(xis, co)
        want = eigenvalues_asymptotic(xis, co).real
        got, want = np.sort(dec.eigenvalues.real, axis=1), np.sort(want, axis=1)
        assert np.all(np.abs(got - want) <= 1e-3 * np.abs(want)), params


def test_semigroup_distinct_identities():
    rng = np.random.default_rng(4)
    for _ in range(5):
        co = random_coeffs(rng)
        for xi in (1e-3, 0.7, 20.0):
            d = decompose_batch([xi], co)
            if d.confluent[0]:
                continue
            P = d.projectors[0]
            assert np.abs(P.sum(axis=0) - np.eye(4)).max() <= 1e-10
            recon = np.einsum("i,ijk->jk", d.eigenvalues[0], P)
            A = batch_green([xi], co)[0]
            assert np.abs(recon - A).max() <= 1e-10 * (1 + np.abs(A).max())
            for i in range(4):
                assert np.abs(P[i] @ P[i] - P[i]).max() <= 1e-10 * (1 + np.abs(P[i]).max())
                for j in range(4):
                    if i != j:
                        denom = (1 + np.abs(P[i]).max()) * (1 + np.abs(P[j]).max())
                        assert np.abs(P[i] @ P[j]).max() <= 1e-10 * denom


def _lagrange_projectors(A, lam):
    """Reference: ``P_i = prod_{j != i} (lam_j I - A) / (lam_j - lam_i)``."""
    eye = np.eye(4)
    P = np.empty(lam.shape + (4, 4), dtype=complex)
    for i in range(4):
        M = np.broadcast_to(eye, A.shape).astype(complex)
        den = np.ones(len(lam), dtype=complex)
        for j in range(4):
            if j != i:
                M = M @ (lam[:, j, None, None] * eye - A)
                den = den * (lam[:, j] - lam[:, i])
        P[:, i] = M / den[:, None, None]
    return P


def test_distinct_projectors_match_lagrange_products():
    from test_acceptance import XI_GRID, acceptance_draws

    worst = 0.0
    for params in acceptance_draws():
        co = linear_coefficients(params)
        d = decompose_batch(XI_GRID, co)
        dist = ~d.confluent
        P = d.projectors[dist]
        ref = _lagrange_projectors(batch_green(XI_GRID[dist], co), d.eigenvalues[dist])
        err = np.abs(P - ref).max(axis=(1, 2, 3)) / (1.0 + np.abs(P).max(axis=(1, 2, 3)))
        worst = max(worst, float(err.max()))
    assert worst <= 1e-12


def test_acoustic_pair_is_exactly_conjugate():
    # a real Green matrix has its complex roots in exact conjugate pairs
    d = decompose_batch(np.geomspace(1e-4, 1e2, 400), linear_coefficients(FluidParams()))
    lam = d.eigenvalues[~d.confluent]
    assert len(lam) == 400
    assert np.array_equal(lam[:, 1], np.conj(lam[:, 0]))



def _project_rows(d, U0):
    """``d.project`` of mode vectors ``U0`` (n, 4), as (n, cluster, term, 4)."""
    return d.project(U0.T[:, None])[..., 0, :].transpose(3, 0, 1, 2)


def test_project_matches_projector_contraction():
    # each cluster's terms split the data into the clusters' invariant
    # subspaces: x0 + x1 = U0 and (A - r1)(A - r2) x = 0 for x = P_G U0; the
    # second term is (A - mu) x; and x is the report's per-root projectors
    # applied and summed back
    from test_acceptance import XI_GRID, acceptance_draws

    xis = np.concatenate([[0.0], XI_GRID])
    rng = np.random.default_rng(11)
    worst, confluent = 0.0, 0
    for params in acceptance_draws():
        co = linear_coefficients(params)
        d = decompose_batch(xis, co)
        A = batch_green(xis, co)
        norm = 1.0 + np.abs(A).max(axis=(1, 2))[:, None]
        slots = d._clusters.slots
        roots = np.take_along_axis(d.eigenvalues, slots, axis=1)
        P = np.take_along_axis(d.projectors, slots[:, :, None, None], axis=1)
        size = 1.0 + np.abs(P).max(axis=(1, 2, 3))
        real = rng.normal(size=(len(xis), 4))
        for U0 in (real, real + 1j * rng.normal(size=(len(xis), 4))):
            Q = _project_rows(d, U0)
            PU = np.einsum("nsjk,nk->nsj", P, U0)
            errs = [Q[:, 0, 0] + Q[:, 1, 0] - U0]
            for g in range(2):
                r1, r2 = roots[:, 2 * g, None], roots[:, 2 * g + 1, None]
                x, y = Q[:, g, 0], Q[:, g, 1]
                Ax = np.einsum("nij,nj->ni", A, x)
                v = Ax - r2 * x
                a, b = PU[:, 2 * g], PU[:, 2 * g + 1]
                tight = (np.abs(r1 - r2) <= spectral.EPS_CONFLUENT
                         * np.abs(d.eigenvalues).max(axis=1, keepdims=True))
                errs += [(np.einsum("nij,nj->ni", A, v) - r1 * v) / norm**2,
                         (y - Ax + 0.5 * (r1 + r2) * x) / norm,
                         x - np.where(tight, a, a + b)]
            err = np.max([np.abs(e).max(axis=1) for e in errs], axis=0)
            worst = max(worst, float((err / size).max()))
        confluent += int(d.confluent.sum())
    assert confluent > 0  # the confluent rows' (P_G, (A - mu) P_G) report is exercised
    assert worst <= 1e-12


def test_fallback_rows_evolve_and_project_like_the_projectors():
    # all-real spectra (ordered by magnitude, ``fallback``) evolve their two
    # real pairs by cosh and sinhc, next to rows that evolve conjugate pairs
    # by cos and sin; both match the semigroup, and on the fallback rows the
    # semigroup matches the oracle and the projection the per-root report
    xis = np.concatenate([[0.0], np.geomspace(1e-4, 1e2, 300)])
    d = decompose_batch(xis, FALLBACK_PARAMS_CO)
    fb = d.fallback
    dist = ~fb & ~d.confluent & (d.xis != 0)
    assert fb.sum() >= 50 and dist.sum() >= 50
    assert np.all(d.eigenvalues[fb].imag == 0)
    assert np.all(d.eigenvalues[dist, 0].imag != 0)
    rng = np.random.default_rng(13)
    U0 = rng.normal(size=(len(xis), 4))
    evolve = d.evolution(U0)
    for t in (0.0, 0.3, 10.0, 1e3):
        got = evolve(t)
        ref = np.einsum("njk,nk->nj", d.semigroup(t), U0)
        assert (np.abs(got - ref).max(axis=1) <= 1e-12 * _term_size(d, t, U0) + 1e-300).all()
    for t in (1e-3, 0.1):
        E = matrix_exp_oracle(d.green[fb], t)
        err = np.abs(d.semigroup(t)[fb] - E).max(axis=(1, 2)) / np.abs(E).max(axis=(1, 2))
        assert err.max() <= 1e-10
    P = d.projectors[fb]
    slots = d._clusters.slots[fb]
    for U in (U0, U0 + 1j * rng.normal(size=U0.shape)):
        PU = np.take_along_axis(np.einsum("nijk,nk->nij", P, U[fb]), slots[:, :, None], axis=1)
        err = np.abs(_project_rows(d, U)[fb, :, 0] - (PU[:, ::2] + PU[:, 1::2])).max(axis=(1, 2))
        assert (err / (1.0 + np.abs(P).max(axis=(1, 2, 3))) <= 1e-12).all()


def _documented_order(row):
    """Per-row reference of the root order ``decompose_batch`` documents."""
    row = [complex(z) for z in row]
    im = sorted((abs(z.imag) for z in row), reverse=True)
    if im[1] - im[2] <= 1e-9 * max(max(abs(z) for z in row), 1e-300):
        return sorted(row, key=lambda z: (-abs(z), -z.real, -z.imag)), True
    ranked = sorted(row, key=lambda z: -abs(z.imag))
    acoustic = sorted(ranked[:2], key=lambda z: -z.imag)
    return acoustic + sorted(ranked[2:], key=lambda z: (-z.real, -z.imag)), False


@pytest.mark.parametrize("case", ["readme", "confluent", "draw0", "draw1", "draw2", "draw3"])
def test_distinct_rows_follow_the_documented_root_order(case):
    from test_acceptance import XI_GRID, tuned_confluent_params

    params = {"readme": FluidParams(), "confluent": tuned_confluent_params(),
              **{f"draw{i}": p for i, p in enumerate(VALIDITY_DRAWS)}}[case]
    co = linear_coefficients(params)
    xis = np.concatenate([XI_GRID, np.geomspace(1e2, 1e3, 50)[1:]])
    d = decompose_batch(xis, co)
    roots = spectral._eigenvalues(batch_green(xis, co), batch_char_coeffs(xis, co))
    rows = np.nonzero(~d.confluent & (d.xis != 0))[0]
    assert rows.size >= 150
    for r in rows:
        order, fallback = _documented_order(roots[r])
        assert d.fallback[r] == fallback
        assert np.array_equal(d.eigenvalues[r], order)
    if case == "draw0":
        assert d.fallback[:200].sum() == 75


def row_threads(monkeypatch, cpus, rows):
    """Share batches of more than ``rows`` rows among ``cpus`` threads, at most ``rows`` at a time."""
    from twofluid import threads

    monkeypatch.setattr(threads, "CPUS", cpus)
    monkeypatch.setattr(spectral, "_CHUNK_ROWS", rows)


@pytest.mark.parametrize("case", ["readme", "confluent", "draw0"])
def test_pool_and_inline_decompositions_give_the_same_bits(monkeypatch, case):
    # a row's decomposition, projector report, projection and evolution are
    # the same bits in any batch and chunk: the whole batch inline on one CPU
    # and projected in chunks of at most 7 rows on 2 and 5 threads, switching
    # often, against batches of 7 rows; the quadrature's first panel puts
    # confluent rows in several chunks
    from test_acceptance import XI_GRID, tuned_confluent_params

    params = {"readme": FluidParams(), "confluent": tuned_confluent_params(),
              "draw0": FALLBACK_PARAMS}[case]
    co = linear_coefficients(params)
    xis = np.concatenate([[0.0], _first_panel(), XI_GRID, np.geomspace(1e2, 1e3, 50)[1:]])
    U0 = np.random.default_rng(3).normal(size=(len(xis), 4))

    def arrays(rows):
        d = decompose_batch(xis[rows], co)
        fields = [getattr(d, f.name) for f in dataclasses.fields(d)]
        return fields + [d.projectors, _project_rows(d, U0[rows]), d.semigroup(10.0),
                         d.apply(10.0, U0[rows])]

    results = []
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for cpus in (1, 2, 5):
            row_threads(monkeypatch, cpus, 7)
            results.append(arrays(slice(None)))
    finally:
        sys.setswitchinterval(switch)
    results.append([np.concatenate(a) for a in zip(*(arrays(slice(i, i + 7))
                                                      for i in range(0, len(xis), 7)))])
    d = decompose_batch(xis, co)
    assert d.confluent[:30].sum() > 14 and (d.fallback.sum() > 100) == (case == "draw0")
    for whole, *others in zip(*results):
        for arr in others:
            assert arr.dtype == whole.dtype and arr.shape == whole.shape
            assert arr.tobytes() == whole.tobytes()


def test_projector_leading_order_structure():
    # as xi -> 0 the wave projector P1 tends to an explicit matrix built from
    # the beta's alone, and P3 develops 1/xi entries in the velocity columns
    # with coefficients -beta4/R and +beta2/R; this pins the ordering and
    # sign conventions
    co = linear_coefficients(FluidParams(
        mu_plus=0.7, mu_minus=1.3, sigma_plus=0.9, sigma_minus=1.4,
        gamma_plus=1.6, gamma_minus=2.1, rbar_plus=1.2, rbar_minus=0.8))
    b1, b2, b4 = co.beta1, co.beta2, co.beta4
    S = b1 + b4
    xi = 1e-5
    P = decompose_batch([xi], co).projectors[0]
    lead = np.array([
        [b1 / (2 * S), 1j * b1 / (2 * S**1.5), b2 / (2 * S), 1j * b2 / (2 * S**1.5)],
        [-1j * b1 / (2 * S**0.5), b1 / (2 * S), -1j * b2 / (2 * S**0.5), b2 / (2 * S)],
        [b2 / (2 * S), 1j * b2 / (2 * S**1.5), b4 / (2 * S), 1j * b4 / (2 * S**1.5)],
        [-1j * b2 / (2 * S**0.5), b2 / (2 * S), -1j * b4 / (2 * S**0.5), b4 / (2 * S)],
    ])
    assert np.abs(P[0] - lead).max() <= 10 * xi
    R = spectral_constants(co)[0]
    P3 = P[2]
    assert abs(P3[0, 1] - (-b4 / (R * xi))) <= 10 * xi * abs(b4 / (R * xi))
    assert abs(P3[0, 3] - (b2 / (R * xi))) <= 10 * xi * abs(b2 / (R * xi))


def confluent_coeffs():
    """Asymmetric parameters with sigma+ tuned so the pair discriminant vanishes."""
    base = dict(mu_plus=0.8, mu_minus=1.5, lambda_plus=0.8, lambda_minus=0.5,
                gamma_plus=1.8, gamma_minus=2.4, rbar_plus=1.4, rbar_minus=0.7,
                sigma_minus=0.3)
    co0 = linear_coefficients(FluidParams(sigma_plus=1.0, **base))
    S = co0.beta1 + co0.beta4
    X = co0.beta1 * co0.nu_minus + co0.beta4 * co0.nu_plus
    sp = (X**2 / (4 * S) - co0.beta1 * base["sigma_minus"]) / co0.beta4
    assert sp > 0
    return linear_coefficients(FluidParams(sigma_plus=sp, **base))


def real_diffusive_coeffs():
    """Weak capillarity: ``X^2 > 4 S Y``, so the diffusive pair is real at every xi."""
    co = linear_coefficients(FluidParams(sigma_plus=0.1, sigma_minus=0.1))
    assert spectral_constants(co)[0].imag == 0.0
    return co


@pytest.mark.parametrize("make_coeffs", [lambda: SYM, confluent_coeffs, real_diffusive_coeffs],
                         ids=["symmetric", "confluent", "real-diffusive"])
def test_real_evolution_matches_projector_sum(make_coeffs):
    xis = np.concatenate([[0.0], np.geomspace(1e-4, 1e2, 300)])
    d = decompose_batch(xis, make_coeffs())
    if make_coeffs is confluent_coeffs:
        assert d.confluent.any()
    U0 = np.random.default_rng(12).normal(size=(len(xis), 4))
    evolve = d.evolution(U0)
    for t in (0.0, 0.3, 10.0, 1e3):
        got = evolve(t)
        ref = np.einsum("njk,nk->nj", d.semigroup(t), U0)
        # relative to the terms summed (small xi cancels 1/xi parts);
        # weights that underflow to subnormals keep no relative accuracy,
        # hence the absolute floor
        size = _term_size(d, t, U0)
        assert got.dtype == float
        assert (np.abs(got - ref).max(axis=1) <= 1e-12 * size + 1e-300).all()
        # xi = 0: all four roots are 0, cluster 0 is the identity
        assert np.array_equal(got[0], U0[0])


def _term_size(d, t, U0):
    """Per row, ``sum_i |w_i(t)| |P_i| |U0|`` over the per-root report, ``w_i = e^(l_i t)``,
    times ``t`` on a confluent row's nilpotent slot."""
    w = np.abs(np.exp(d.eigenvalues * t))
    w[d.confluent, 3] *= t
    pmax = 1.0 + np.abs(d.projectors).max(axis=(2, 3))
    return (w * pmax).sum(axis=1) * np.abs(U0).max(axis=1)


def test_confluent_branch_matches_oracle():
    co = confluent_coeffs()
    R = spectral_constants(co)[0]
    assert abs(R) <= 1e-7
    hit = False
    for xi in np.geomspace(1e-4, 1.0, 60):
        d = decompose_batch([xi], co)
        if not d.confluent[0]:
            continue
        hit = True
        for t in (0.1, 1.0, 10.0, 100.0):
            S = d.semigroup(t)[0]
            E = matrix_exp_oracle(batch_green([xi], co)[0], t)
            assert np.abs(S - E).max() <= 1e-12 * max(np.abs(E).max(), 1e-30)
        P = d.projectors[0]
        assert np.abs(P[0] + P[1] + P[2] - np.eye(4)).max() <= 1e-9
    assert hit, "no confluent mode found on the scan grid"


def test_projector_residuals_catch_a_wrong_confluent_mu():
    # P1 + P2 + P3 = I and the reconstruction hold for any mu on a confluent
    # row; N = (A - mu) P3 squares to delta^2 P3 only at the right one
    from test_acceptance import XI_GRID, tuned_confluent_params
    from twofluid.cli import PROJECTOR_GATE

    dec = decompose_batch(XI_GRID, linear_coefficients(tuned_confluent_params()))
    conf = dec.confluent
    assert conf.any() and spectral.projector_residuals(dec)[conf].max() <= PROJECTOR_GATE
    lam = dec.eigenvalues.copy()
    lam[conf, 2:] *= 1 + 1e-3
    wrong = dataclasses.replace(dec, eigenvalues=lam)
    assert spectral.projector_residuals(wrong)[conf].max() > PROJECTOR_GATE


def test_confluent_nilpotent_squares_to_its_half_gap_squared_projection():
    # past xi = 1107 on the README parameters one cluster of every row is
    # confluent with a nonzero gap: its N = (A - mu) P_G squares to delta^2
    # P_G, not to 0; the bound is 10x the largest residual measured
    d = decompose_batch(np.geomspace(1107.0, 2000.0, 200), linear_coefficients(README))
    assert d.confluent.all()
    assert spectral.projector_residuals(d).max() <= 5.3e-9


def test_decomposition_is_read_only_from_birth():
    # a decomposition may be shared (the lab caches its bases): its arrays are
    # read-only when decompose_batch returns, its cluster constants and
    # projector report from their first read; the caller's frequencies are copied
    xis = np.geomspace(1e-3, 10.0, 9)
    d = decompose_batch(xis, SYM)
    fresh = [a for a in vars(d).values() if isinstance(a, np.ndarray)]
    assert len(fresh) == len(dataclasses.fields(d))
    for a in fresh + list(vars(d._clusters).values()) + [d.projectors]:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = a
    assert xis.flags.writeable
    xis[0] = 2.0
    assert d.xis[0] == 1e-3


def test_semigroup_eval_identity_and_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        co = random_coeffs(rng)
        xi = 10 ** rng.uniform(-3, 1)
        d = decompose_batch([xi], co)
        assert np.abs(d.semigroup(0.0)[0] - np.eye(4)).max() <= 1e-10
        for t in (0.5, 5.0):
            S = d.semigroup(t)[0]
            E = matrix_exp_oracle(batch_green([xi], co)[0], t)
            assert np.abs(S - E).max() <= 1e-9 * max(np.abs(E).max(), 1e-30)


def test_semigroup_property():
    co = SYM
    d = decompose_batch([0.4], co)
    S1 = d.semigroup(0.7)[0]
    S2 = d.semigroup(1.9)[0]
    S12 = d.semigroup(2.6)[0]
    assert np.abs(S1 @ S2 - S12).max() <= 1e-8 * max(np.abs(S12).max(), 1e-30)


def test_matrix_exp_oracle_trivials():
    assert np.allclose(matrix_exp_oracle(np.zeros((4, 4)), 3.0), np.eye(4))
    D = np.diag([0.1, -0.5, 1.0, -2.0])
    assert np.allclose(matrix_exp_oracle(D, 2.0), np.diag(np.exp(2.0 * np.diag(D))), rtol=1e-12)
    N = np.zeros((4, 4))
    N[0, 1] = 1.0
    assert np.abs(matrix_exp_oracle(N, 0.37) - (np.eye(4) + 0.37 * N)).max() <= 1e-14


def test_matrix_exp_oracle_stack_is_bitwise_per_matrix():
    A = batch_green(np.geomspace(1e-4, 1e2, 50), confluent_coeffs())
    for t in (0.1, 1.0, 10.0, 100.0):
        E = matrix_exp_oracle(A, t)
        assert np.array_equal(E, np.stack([matrix_exp_oracle(a, t) for a in A]))


def test_matrix_exp_oracle_rejects_nonfinite():
    M = np.zeros((4, 4))
    M[0, 0] = np.inf
    with pytest.raises(ValueError):
        matrix_exp_oracle(M, 1.0)


def test_matrix_exp_oracle_matches_scipy_over_the_acceptance_sweep():
    # scipy.linalg.expm runs the full Algorithm 5.1 the oracle trims; its own distance to a
    # 40-digit expm reaches 6.3e-11 on these matrices (draw 9, xi 3.33,
    # t 100), where the oracle stays under 1e-11, hence the 1e-10 bound
    import scipy.linalg
    from test_acceptance import T_CHECK, XI_GRID, acceptance_draws

    for params in acceptance_draws():
        A = batch_green(XI_GRID, linear_coefficients(params))
        for t in T_CHECK:
            E, ref = matrix_exp_oracle(A, t), scipy.linalg.expm(t * A)
            scale = np.maximum(np.abs(ref).max(axis=(1, 2)), 1e-290)
            assert (np.abs(E - ref).max(axis=(1, 2)) <= 1e-10 * scale).all()


@pytest.mark.parametrize("i", [-2, -1])  # xi = 93.3 and 100 on the README modes grid
def test_matrix_exp_oracle_matches_40_digit_expm(i):
    mpmath = pytest.importorskip("mpmath")
    xi = np.geomspace(1e-4, 1e2, 200)[i]
    tA = 0.1 * batch_green([xi], SYM)[0]
    with mpmath.workdps(40):
        ref = np.array(mpmath.expm(mpmath.matrix(tA.tolist())).tolist(), dtype=float)
    E = matrix_exp_oracle(batch_green([xi], SYM)[0], 0.1)
    assert np.abs(E - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("case,xi,t,bound", [
    # below xi ~ 1e-6 the diffusive pair is confluent; the error of a
    # midpoint double root would grow like (gap t)^2
    ("readme", 1e-6, 1e8, 1.3e-12),
    ("nonsym", 1e-6, 1e8, 1.9e-12),
    ("confluent", 1e-3, 1e6, 3.8e-10),
    # roots of the two conjugate pairs meet near xi = 1107; t = 1/xi^2 keeps
    # every entry of exp(t A) (real parts ~ -xi^2/2) above the underflow
    ("readme", 500.0, 500.0**-2, 4.3e-15),
    ("readme", 1107.0, 1107.0**-2, 1.9e-15),
    ("readme", 1500.0, 1500.0**-2, 4.3e-15),
], ids=["readme-1e-6", "nonsym-1e-6", "confluent-1e-3", "readme-500", "readme-1107",
        "readme-1500"])
def test_semigroup_matches_60_digit_expm(case, xi, t, bound):
    # an independent reference: mpmath's expm of the same Green matrix times
    # t, exact in 60 digits; the bounds are 10x the errors measured
    mpmath = pytest.importorskip("mpmath")
    from test_acceptance import tuned_confluent_params

    params = {"readme": README, "nonsym": NONSYM, "confluent": tuned_confluent_params()}[case]
    A = batch_green([xi], linear_coefficients(params))[0]
    with mpmath.workdps(60):
        tA = mpmath.matrix([[mpmath.mpf(float(a)) * mpmath.mpf(t) for a in row]
                            for row in A.tolist()])
        ref = np.array(mpmath.expm(tA).tolist(), dtype=float)
    S = decompose_batch([xi], linear_coefficients(params)).semigroup(t)[0]
    assert np.abs(S - ref).max() <= bound * np.abs(ref).max()


def test_matrix_exp_oracle_keeps_small_entries_next_to_huge_ones():
    E = matrix_exp_oracle(np.diag([-1e40, -1.0, 0.0, 0.0]), 1.0)
    assert np.array_equal(E, np.diag([0.0, np.exp(-1.0), 1.0, 1.0]))
    # A^8 overflows here; the scaling stays capped by ||A||_1 and the
    # decaying exponential underflows to zero
    M = -1e40 * (np.eye(4) + np.diag(np.ones(3), 1))
    assert np.array_equal(matrix_exp_oracle(M, 1.0), np.zeros((4, 4)))


def test_matrix_exp_oracle_overflow_raises_without_warnings():
    import warnings

    full = np.diag([800.0, 0.0, 0.0, 0.0])
    full[0, 1] = 1.0
    for M in (np.diag([800.0, 0.0, 0.0, 0.0]), full):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                matrix_exp_oracle(M, 1.0)


def test_heat_factor():
    assert heat_factor(9.0, 0.5, 0.0) == 1.0
    assert heat_factor(0.0, 0.5, 100.0) == 1.0
    assert heat_factor(4.0, 0.5, 1.0) == pytest.approx(np.exp(-2.0), rel=1e-14)


def test_stability_and_decay_envelope():
    rng = np.random.default_rng(7)
    for co in [SYM, confluent_coeffs()] + [random_coeffs(rng) for _ in range(3)]:
        R, lt3, lt4, acoustic, nubar = spectral_constants(co)
        assert nubar > 0
        eta = choose_eta(co)
        xis = np.geomspace(1e-4, 100.0, 60)
        batch = decompose_batch(xis, co)
        assert np.all(batch.eigenvalues.real <= 1e-12)
        low = xis[xis <= eta]
        bl = decompose_batch(low, co)
        worst_C = 0.0
        for t in (0.1, 1.0, 10.0, 100.0):
            S = bl.semigroup(t)
            bound = (1.0 + t) * np.exp(-nubar * low**2 * t / 2.0)
            worst_C = max(worst_C, (np.abs(S).max(axis=(1, 2)) / bound).max())
        assert np.isfinite(worst_C) and worst_C < 100.0


def test_choose_eta_reasonable():
    eta = choose_eta(SYM)
    assert 1e-4 < eta <= 1.0


def test_choose_eta_matches_roots_to_asymptotics_by_distance():
    # the acoustic and diffusive |Im| come within 10% near xi ~ 1 here, so
    # matching through the shared root order would stop at eta = 0.529
    params = FluidParams(mu_plus=2.36, mu_minus=4.96, lambda_plus=1.43, lambda_minus=1.73,
                         sigma_plus=0.29, sigma_minus=8.5, gamma_plus=2.08, gamma_minus=1.08,
                         rbar_plus=7.14, rbar_minus=0.88)
    assert choose_eta(linear_coefficients(params)) == 1.0


def _decoupled_coeffs(nu_plus, nu_minus, sigma_plus, sigma_minus):
    """Nearly decoupled phases: each 2x2 channel has the roots of ``l^2 + nu l + sigma`` at xi = 1."""
    from twofluid.closure import LinearCoefficients

    b = 1e-30
    return LinearCoefficients(beta1=b, beta2=b, beta3=b, beta4=b,
                              beta_plus=1.0, beta_minus=1.0,
                              nu1_plus=0.5, nu1_minus=0.5, nu2_plus=0.5, nu2_minus=0.5,
                              nu_plus=nu_plus, nu_minus=nu_minus,
                              rhobar_plus=2.0, rhobar_minus=2.0,
                              sigma_plus=sigma_plus, sigma_minus=sigma_minus)


def test_doubly_degenerate_row_matches_the_oracle():
    # identical phases: both channels carry the same complex pair, so the
    # spectrum is doubly degenerate twice over; the clusters are the two
    # double roots, each the other's conjugate
    d = decompose_batch([1.0], _decoupled_coeffs(1.0, 1.0, 1.0, 1.0))
    assert d.confluent[0] and d._clusters.mirrored.tolist() == [0]
    for t in (0.1, 1.0, 10.0, 100.0):
        E = matrix_exp_oracle(d.green[0], t)
        assert np.abs(d.semigroup(t)[0] - E).max() <= 1e-12 * np.abs(E).max()


def test_unsupported_degeneracy_raises():
    # a triple root at -1 (a double one in the + channel, nu^2 = 4 sigma) and
    # a simple one at -2: no split keeps three roots apart
    with pytest.raises(spectral.UnsupportedDegeneracyError,
                       match="three eigenvalues in one cluster at xi=1$"):
        decompose_batch([1.0], _decoupled_coeffs(2.0, 3.0, 1.0, 2.0))


def test_cutoff_profile_is_the_shared_smooth_step():
    from twofluid import linearlab

    assert linearlab.smooth_step_down is smooth_step_down
    xi = np.linspace(0, 1.5, 301)
    data = linearlab.make_lower_bound_data(0.5, 0.0, 2.0, 0.8)  # c0 = 1
    prof = smooth_step_down(2.0 * xi / 0.8 - 1.0)
    assert np.array_equal(data.profile_fns[3](xi), (1.0 - xi**2) * prof)
    assert np.all((prof >= 0) & (prof <= 1))
    assert np.all(prof[xi <= 0.4] == 1.0) and np.all(prof[xi >= 0.8] == 0.0)
