"""Property tests: closure kernel, semigroup against the oracle, config round trip.

Every test is derandomized with a bounded example count, so the suite stays
deterministic and fast.
"""

import re
import typing
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twofluid.cli import (
    _SECTION_TYPES,
    CONFIG_RULES,
    PROJECTOR_GATE,
    TASKS,
    ConfigError,
    RunConfig,
    parse_config,
    serialize_config,
)
from twofluid.closure import FluidParams, linear_coefficients
from twofluid.kernels import TOL_PHI, solve_rho_plus_batch
from twofluid.solver import INIT_KINDS
from twofluid.spectral import (
    batch_green,
    decompose_batch,
    matrix_exp_oracle,
    projector_residuals,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
EPS = np.finfo(float).eps

# Fraction densities over six decades and the acceptance suite's exponents.
# Beyond these, states with alpha- below 1e-12 (e.g. gamma = (5, 1),
# R+ = 1e3, R- = 1e-3) have their root under the first bracket's lower end;
# test_closure pins the bisection that finds them.
densities = st.floats(1e-3, 1e3)
exponents = st.floats(1.0, 3.0)


def _phi(x, Rp, Rm, gp, gm):
    return x**gp - (Rm * x / (x - Rp)) ** gm


@PROPERTY
@given(st.lists(st.tuples(densities, densities), min_size=1, max_size=16), exponents, exponents)
@example(pairs=[(100.0, 1.0)], gp=3.0, gm=1.0)  # alpha+ near 1: once reported unconverged
def test_closure_kernel_root_residual_and_bracket(pairs, gp, gm):
    Rp, Rm = np.array(pairs).T
    x = solve_rho_plus_batch(Rp, Rm, gp, gm)
    assert np.all(np.isfinite(x)) and np.all(x > Rp)
    # residual down to its rounding floor: eps * x * phi'(x) at the root
    P = x**gp
    floor = 8 * EPS * P * (gp + gm * Rp / (x - Rp))
    assert np.all(np.abs(_phi(x, Rp, Rm, gp, gm)) <= TOL_PHI * np.maximum(1.0, P) + floor)
    # phi increases through its only root: negative inside (R+, x), positive beyond
    gap = x - Rp
    assert np.all(_phi(Rp + 0.5 * gap, Rp, Rm, gp, gm) < 0)
    assert np.all(_phi(x + 0.5 * gap, Rp, Rm, gp, gm) > 0)
    # more mass of either phase raises the common pressure, hence rho+
    for up in (solve_rho_plus_batch(Rp * 1.001, Rm, gp, gm),
               solve_rho_plus_batch(Rp, Rm * 1.001, gp, gm)):
        assert np.all(up >= x * (1 - 16 * EPS))


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def fluid_params(draw):
    """Valid parameters over the model's validity domain.

    Wider than the acceptance draws: it reaches the overdamped acoustic
    pairs and the all-real spectra that ``decompose_batch`` orders by
    magnitude (``distinct-fallback``).
    """
    mu = [draw(st.floats(0.05, 5.0)) for _ in range(2)]
    lam = [draw(st.floats(-2 * m / 3, 3.0, exclude_min=True)) for m in mu]
    return FluidParams(
        mu_plus=mu[0], mu_minus=mu[1], lambda_plus=lam[0], lambda_minus=lam[1],
        sigma_plus=draw(log_uniform(0.01, 10.0)), sigma_minus=draw(log_uniform(0.01, 10.0)),
        gamma_plus=draw(st.floats(1.0, 3.0)), gamma_minus=draw(st.floats(1.0, 3.0)),
        rbar_plus=draw(log_uniform(0.1, 10.0)), rbar_minus=draw(log_uniform(0.1, 10.0)))


@settings(PROPERTY, max_examples=30)
@given(fluid_params(), st.lists(st.floats(-4.0, 2.0), min_size=1, max_size=8),
       st.floats(0.0, 100.0))
def test_semigroup_matches_expm_oracle(params, log_xis, t):
    # criterion 1 of the acceptance suite, at its tolerance
    co = linear_coefficients(params)
    xis = 10.0 ** np.array(log_xis)
    S = decompose_batch(xis, co).semigroup(t)
    for Si, A in zip(S, batch_green(xis, co)):
        E = matrix_exp_oracle(A, t)
        assert np.abs(Si - E).max() <= 1e-8 * max(np.abs(E).max(), 1e-290)


@settings(PROPERTY, max_examples=30)
@given(fluid_params(), st.lists(st.floats(-4.0, 2.0), min_size=1, max_size=32))
def test_projector_residuals_within_gate(params, log_xis):
    # the analyze-modes gate, on either branch
    dec = decompose_batch(10.0 ** np.array(log_xis), linear_coefficients(params))
    assert projector_residuals(dec).max() <= PROJECTOR_GATE


finite = st.floats(allow_nan=False, allow_infinity=False)
small_ints = st.integers(-10**6, 10**6)


def _values(typ):
    """Any value of a config field's annotated type, in or out of its domain."""
    args = typing.get_args(typ)
    if typing.get_origin(typ) is tuple:
        return st.lists(_values(args[0]), max_size=4).map(tuple)
    if args:  # X | None
        return st.none() | _values(args[0])
    # strings include the init kinds, so sim.mode's and sim.width's rows get tested
    return {float: finite, int: small_ints, str: st.sampled_from(INIT_KINDS) | st.text()}[typ]


@st.composite
def section(draw, cls):
    """A config section: each field left at its default or given any value."""
    return {key: draw(_values(typ)) for key, typ in typing.get_type_hints(cls).items()
            if draw(st.booleans())}


@st.composite
def run_configs(draw):
    """A loaded config mapping; its fields may lie outside their domains."""
    raw = {"task": draw(st.sampled_from(TASKS)), "seed": draw(st.none() | st.integers(0, 2**63)),
           "output": draw(st.text()),
           "params": draw(fluid_params().map(asdict) | section(FluidParams))}
    for name in ("modes", "decay", "sim", "fit"):
        raw[name] = draw(section(_SECTION_TYPES[name]))
    if raw["task"] == "simulate" and raw["sim"].get("init", "random") == "random":
        raw["seed"] = raw["seed"] or 0  # the one rule outside the table
    return raw


@settings(PROPERTY, max_examples=100)
@given(run_configs())
@example({"task": "fit", "seed": None, "output": "out", "params": {}, "modes": {}, "decay": {},
          "sim": {}, "fit": {"t_min": 5.0, "t_max": 1.0}})
@example({"task": "simulate", "seed": 1, "output": "out", "params": {"mu_plus": -1.0},
          "modes": {}, "decay": {}, "sim": {"init": "gaussian", "width": 0.0}, "fit": {}})
def test_config_serialize_parse_round_trip(raw):
    # the drawn fields over each section's defaults, as parse_config sees them
    sections = {name: SimpleNamespace(**{**asdict(cls()), **raw[name]})
                for name, cls in _SECTION_TYPES.items()}
    # a row runs only while its field and the fields its domain shows have no error
    failing = set()
    for tasks, name, key, ok, domain in CONFIG_RULES:
        reads = {f"{name}.{k}" for k in (key, *re.findall(r"\{0\.(\w+)", domain))}
        if raw["task"] in tasks and not reads & failing and not ok(sections[name]):
            failing.add(f"{name}.{key}")
    try:
        config = parse_config(yaml.safe_dump(raw))
    except ConfigError as exc:
        assert sorted(error.split("'")[1] for error in exc.errors) == sorted(failing)
        return
    assert not failing
    assert config == RunConfig(task=raw["task"], seed=raw["seed"], output=raw["output"],
                               **{name: cls(**vars(sections[name]))
                                  for name, cls in _SECTION_TYPES.items()})
    text = serialize_config(config)
    back = parse_config(text)
    assert back == config
    assert serialize_config(back) == text
