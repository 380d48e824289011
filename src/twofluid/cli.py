"""Batch front-end: config parsing, campaign orchestration, persistence.

Subcommands: ``analyze-modes``, ``linear-decay``, ``lower-bound``,
``simulate`` and ``fit``.  Every run is driven by a YAML config (strictly
validated: unknown keys are rejected) and writes CSV artifacts plus a
metadata file into the output directory.  Identical config and seed give
byte-identical CSV output.  Exit codes: 0 success, 1 acceptance-style
check failed, 2 runtime error; ``run_campaign`` alone picks the code and
writes ``metadata.json``, on every ending once the output directory exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

from . import __version__
from .closure import PARAMS_DOMAIN, FluidParams, combination, linear_coefficients
from .linearlab import (
    LOWER_BOUND_DATA_DOMAIN,
    MIN_FIT_SAMPLES,
    VARIABLES,
    ModeEvolution,
    NormSeries,
    band_ratio,
    expected_exponent,
    fit_power_law,
    make_generic_data,
    make_lower_bound_data,
)
from .solver import (
    GRID_DOMAIN,
    INIT_KINDS,
    BlowUpError,
    FieldState,
    Grid,
    InitSpec,
    energy_report,
    gradient_l2sq,
    init_state,
    step,
    weighted_sup_functionals,
    workers,
    write_checkpoint,
)
from .spectral import (
    XI_FLOOR,
    choose_eta,
    decompose_batch,
    matrix_exp_oracle,
    projector_residuals,
)

TASKS = ("analyze-modes", "linear-decay", "lower-bound", "simulate", "fit")

PROJECTOR_GATE = 1e-10
SEMIGROUP_GATE = 1e-8
BAND_GATE = 3.0
MASS_DRIFT_GATE = 1e-10  # absolute, on either phase's mass


class ConfigError(ValueError):
    """Invalid run configuration; carries every violation found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class ModesSection:
    xi_min: float = 1e-4
    xi_max: float = 100.0
    count: int = 200
    t_check: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class DecaySection:
    K0: float = 0.5
    theta: float = 1.0
    s_exp: float = 2.0
    eta: float = 0.4
    k_max: int = 3
    t_min: float = 1e2
    t_max: float = 1e4
    samples: int = 40
    tolerance: float = 0.05


@dataclass(frozen=True)
class SimSection:
    dim: int = 1
    n: int = 256
    length: float = 2.0 * np.pi * 32.0
    init: str = "random"
    amplitude: float = 1e-3
    mode: tuple[int, ...] = (1,)
    width: float = 0.1
    band: tuple[int, ...] = (1, 4)
    dt: float = 0.05
    t_end: float = 10.0
    out_every: int = 10
    k_max: int = 3
    c_cfl: float = 0.5


@dataclass(frozen=True)
class FitSection:
    input: str = "norms.csv"
    t_min: float | None = None
    t_max: float | None = None
    tolerance: float = 0.05


@dataclass(frozen=True)
class RunConfig:
    task: str = "analyze-modes"
    seed: int | None = None
    params: FluidParams = field(default_factory=FluidParams)
    modes: ModesSection = field(default_factory=ModesSection)
    decay: DecaySection = field(default_factory=DecaySection)
    sim: SimSection = field(default_factory=SimSection)
    fit: FitSection = field(default_factory=FitSection)
    output: str = "out"


# every dataclass field of a RunConfig is a config section
_SECTION_TYPES = {name: typ for name, typ in typing.get_type_hints(RunConfig).items()
                  if is_dataclass(typ)}


MODES, DECAY, SIM = ("analyze-modes",), ("linear-decay", "lower-bound"), ("simulate",)


def _sample_times(decay):
    """The lab tasks' ``decay.samples`` geometric sample times from t_min to t_max."""
    return np.geomspace(decay.t_min, decay.t_max, decay.samples)


# (tasks, section, field, test, domain): the range of each config field the
# named tasks read.  A test takes the whole section, so cross-field rules are
# rows too, and ``{0.<field>}`` in a domain shows another field's value.  A row
# runs only while its field and the fields its domain shows have no error, so it
# states only its own test.  The library owns the rows for the values it
# consumes; the rest are written here.
CONFIG_RULES = (
    *((TASKS, "params", *row) for row in PARAMS_DOMAIN),
    *((("lower-bound",), "decay", *row) for row in LOWER_BOUND_DATA_DOMAIN),
    *((SIM, "sim", *row) for row in GRID_DOMAIN),
    (SIM, "sim", "init", lambda s: s.init in INIT_KINDS, f"one of {INIT_KINDS}"),
    (SIM, "sim", "dt", lambda s: s.dt > 0, "> 0"),
    (SIM, "sim", "t_end", lambda s: s.t_end >= 0, ">= 0"),
    (SIM, "sim", "out_every", lambda s: s.out_every >= 1, ">= 1"),
    (SIM, "sim", "k_max", lambda s: s.k_max >= 0, ">= 0"),
    (SIM, "sim", "c_cfl", lambda s: s.c_cfl > 0, "> 0"),
    (SIM, "sim", "width", lambda s: s.init != "gaussian" or s.width > 0,
     "> 0 when sim.init is 'gaussian'"),
    # init_state's r^2 / (2 w^2) is finite (Python floats)
    (SIM, "sim", "width", lambda s: s.init != "gaussian"
     or 0 < 2.0 * (s.width * s.length) * (s.width * s.length)
     >= s.dim * (s.length / 2.0) * (s.length / 2.0) / sys.float_info.max,
     "large enough for a finite gaussian exponent on the box (sim.length = {0.length!r})"),
    (SIM, "sim", "mode", lambda s: s.init != "mode" or len(s.mode) == s.dim,
     "one wave index per axis (sim.dim = {0.dim})"),
    # a mode the 2/3 band erases runs a zero state
    (SIM, "sim", "mode", lambda s: s.init != "mode" or all(abs(m) <= s.n // 3 for m in s.mode),
     "wave indices of modulus <= sim.n // 3 (sim.n = {0.n})"),
    (SIM, "sim", "band",
     lambda s: s.init != "random" or (len(s.band) == 2 and s.band[0] <= s.band[1]),
     "[low, high] with low <= high"),
    # so does a band that misses the 2/3 band
    (SIM, "sim", "band", lambda s: s.init != "random" or (s.band[1] >= 0 and s.band[0] <= s.n // 3),
     "[low, high] with high >= 0 and low <= sim.n // 3 (sim.n = {0.n})"),
    (MODES, "modes", "xi_min", lambda m: 0 < m.xi_min <= m.xi_max,
     "> 0 and <= modes.xi_max ({0.xi_max!r})"),
    (MODES, "modes", "xi_min", lambda m: m.xi_min >= XI_FLOOR,
     f">= {XI_FLOOR!r}, where the quartic's xi^8 terms are normal floats"),
    (MODES, "modes", "t_check", lambda m: len(m.t_check) > 0, "non-empty"),
    (MODES, "modes", "t_check", lambda m: all(t >= 0 for t in m.t_check),
     "a list of times >= 0"),
    (("linear-decay",), "decay", "K0", lambda d: d.K0 > 0, "> 0"),  # zero data has no rate
    (DECAY, "decay", "k_max", lambda d: d.k_max >= 0, ">= 0"),
    (DECAY, "decay", "t_min", lambda d: 0 < d.t_min < d.t_max,
     "> 0 and < decay.t_max ({0.t_max!r})"),
    (DECAY, "decay", "samples", lambda d: d.samples >= MIN_FIT_SAMPLES, f">= {MIN_FIT_SAMPLES}"),
    # the smallest norm, combo's at k_max and t_max, is 0.02-0.08 times this
    # product on the README parameters: its square stays above float_info.min
    (("linear-decay",), "decay", "K0",
     lambda d: d.t_max <= 0 or d.K0 * (1.0 + d.t_max) ** -(1.0 + d.k_max / 2.0) >= 1e-150,
     "large enough that the squared norms stay normal floats: K0 (1 + decay.t_max)^-(1 + "
     "decay.k_max / 2) >= 1e-150 (decay.t_max = {0.t_max!r}, decay.k_max = {0.k_max})"),
    (DECAY, "decay", "t_min", lambda d: (np.diff(_sample_times(d)) > 0).all(),
     "far enough below decay.t_max ({0.t_max!r}) for {0.samples} distinct sample times"),
    (DECAY, "decay", "tolerance", lambda d: d.tolerance >= 0, ">= 0"),
    (("fit",), "fit", "t_min", lambda f: None in (f.t_min, f.t_max) or f.t_min < f.t_max,
     "< fit.t_max ({0.t_max!r})"),
    (("fit",), "fit", "tolerance", lambda f: f.tolerance >= 0, ">= 0"),
)


def _type_name(typ) -> str:
    args = typing.get_args(typ)
    if typing.get_origin(typ) is tuple:
        return f"a list of {args[0].__name__}"
    if args:
        return f"{args[0].__name__} or null"
    return typ.__name__


def _coerce(value, typ):
    """``value`` converted to the annotated type ``typ``.

    Numbers may arrive as strings: YAML reads ``1.0e2`` (no exponent sign)
    as one.  Booleans are never numbers, an int field takes no float, and a
    float must be finite.  Raises TypeError or ValueError otherwise.
    """
    args = typing.get_args(typ)
    if typing.get_origin(typ) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError("not a list")
        return tuple(_coerce(v, args[0]) for v in value)
    if args:  # X | None
        return None if value is None else _coerce(value, args[0])
    if typ is str:
        if not isinstance(value, str):
            raise TypeError("not a string")
        return value
    if isinstance(value, bool) or (typ is int and isinstance(value, float)):
        raise TypeError(f"not {typ.__name__}")
    out = typ(value)
    if typ is float and not math.isfinite(out):
        raise ValueError("not finite")
    return out


def _build_section(name, cls, payload, errors, failed):
    """Field values of section ``name``: the defaults, updated from ``payload``."""
    values = {f.name: f.default for f in fields(cls)}
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        errors.append(f"section '{name}' must be a mapping")
        payload = {}
    types = typing.get_type_hints(cls)
    for key, value in payload.items():
        if key not in types:
            errors.append(f"unknown key '{name}.{key}'")
            continue
        try:
            values[key] = _coerce(value, types[key])
        except (TypeError, ValueError):
            errors.append(f"'{name}.{key}' must be {_type_name(types[key])}, got {value!r}")
            failed.add((name, key))
    return SimpleNamespace(**values)


def _load_mapping(text: str) -> dict:
    """Top-level mapping of a YAML config (empty text gives ``{}``)."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"not valid YAML: {exc}"])
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a mapping"])
    return raw


def _read_config_text(path: Path | None) -> str:
    """Text of the config file at ``path`` (empty when no file is given)."""
    if path is None:
        return ""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc.strerror}"]) from None
    except UnicodeDecodeError:
        raise ConfigError([f"config file {path} is not UTF-8 text"]) from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML config; collects every violation."""
    return _validate(_load_mapping(text))


def _validate(raw: dict) -> RunConfig:
    """Typed config from a loaded mapping; collects every violation."""
    errors = []
    top_known = {"task", "seed", "output"} | set(_SECTION_TYPES)
    for key in raw:
        if key not in top_known:
            errors.append(f"unknown key '{key}'")
    task = raw.get("task", "analyze-modes")
    if task not in TASKS:
        errors.append(f"task must be one of {TASKS}, got {task!r}")
    seed = raw.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        errors.append("seed must be an integer")
    output = raw.get("output", "out")
    if not isinstance(output, str):
        errors.append(f"'output' must be str, got {output!r}")
    failed = set()  # (section, field) of every error so far
    sections = {name: _build_section(name, cls, raw.get(name), errors, failed)
                for name, cls in _SECTION_TYPES.items()}
    if task == "simulate" and sections["sim"].init == "random" and seed is None:
        errors.append("seed is required when sim.init is 'random'")
    for tasks, name, key, ok, domain in CONFIG_RULES:
        reads = {(name, k) for k in (key, *re.findall(r"\{0\.(\w+)", domain))}
        if task in tasks and not reads & failed and not ok(sections[name]):
            errors.append(f"'{name}.{key}' must be {domain.format(sections[name])}, "
                          f"got {getattr(sections[name], key)!r}")
            failed.add((name, key))
    if errors:
        raise ConfigError(errors)
    return RunConfig(task=task, seed=seed, output=output,
                     **{name: cls(**vars(sections[name])) for name, cls in _SECTION_TYPES.items()})


# libyaml's emitter, where PyYAML has it, writes the pure-Python SafeDumper's text
# in about a third of the time
_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


def serialize_config(config: RunConfig) -> str:
    # the JSON round trip turns tuples into the lists YAML writes plainly
    return yaml.dump(json.loads(json.dumps(asdict(config))), Dumper=_DUMPER, sort_keys=True)


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, columns, rows, chash: str):
    lines = [f"# config_hash={chash} tool_version={__version__}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_norm_csv(path: Path):
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or line.startswith("t,"):
            continue
        t, variable, k, value = line.split(",")
        rows.append((float(t), variable, int(k), float(value)))
    return rows


# ---------------------------------------------------------------------------
# campaign tasks: each writes its CSVs, adds its facts to ``meta`` and returns
# ``(passed, summary)``; ``run_campaign`` writes ``metadata.json``


def _task_analyze_modes(config: RunConfig, out_dir: Path, chash: str, meta: dict):
    co = linear_coefficients(config.params)
    m = config.modes
    xis = np.geomspace(m.xi_min, m.xi_max, m.count)
    dec = decompose_batch(xis, co)
    residuals = projector_residuals(dec)

    # worst relative distance to the oracle per mode over the check times
    sg_res = np.zeros(len(xis))
    for t in m.t_check:
        E = matrix_exp_oracle(dec.green, t)
        scale = np.maximum(np.abs(E).max(axis=(1, 2)), 1e-290)
        sg_res = np.maximum(sg_res, np.abs(dec.semigroup(t) - E).max(axis=(1, 2)) / scale)

    rows = []
    for i, xi in enumerate(xis):
        lam = dec.eigenvalues[i]
        branch = "confluent" if dec.confluent[i] else (
            "distinct-fallback" if dec.fallback[i] else "distinct")
        rows.append((xi,
                     lam[0].real, lam[0].imag, lam[1].real, lam[1].imag,
                     lam[2].real, lam[2].imag, lam[3].real, lam[3].imag,
                     branch, residuals[i], sg_res[i]))
    write_csv(out_dir / "modes.csv",
              ["xi", "re_lambda1", "im_lambda1", "re_lambda2", "im_lambda2",
               "re_lambda3", "im_lambda3", "re_lambda4", "im_lambda4",
               "branch", "projector_residual", "semigroup_residual"],
              rows, chash)
    meta.update({
        "asymptotic_radius": choose_eta(co),
        "branch_counts": {
            "distinct": int((~dec.confluent & ~dec.fallback).sum()),
            "confluent": int(dec.confluent.sum()),
            "fallback": int(dec.fallback.sum()),
        },
        "max_projector_residual": float(residuals.max()),
        "max_semigroup_residual": float(sg_res.max()),
    })
    ok = (residuals.max() <= PROJECTOR_GATE) and (sg_res.max() <= SEMIGROUP_GATE)
    return ok, (f"analyze-modes: {len(xis)} modes, max projector residual "
                f"{residuals.max():.3e}, max semigroup residual {sg_res.max():.3e}")


NORM_COLUMNS = ["t", "variable", "k", "norm"]
FIT_COLUMNS = ["variable", "k", "exponent", "amplitude", "residual", "status",
               "expected_exponent"]


def _write_fit_summary(out_dir: Path, fits: dict, chash: str, tolerance: float | None):
    """``fit_summary.csv`` from {(variable, k): DecayFit}; returns its rows.

    A fit passes when its exponent lies within ``tolerance`` of the
    predicted one.  With ``tolerance`` None no rate is predicted: every
    status is ``n/a`` and ``expected_exponent`` is empty.
    """
    rows = []
    for (v, k), fit in sorted(fits.items()):
        exp, status = "", "n/a"
        if tolerance is not None:
            exp = expected_exponent(v, k)
            status = "pass" if abs(fit.exponent - exp) <= tolerance else "fail"
        rows.append((v, k, fit.exponent, fit.amplitude, fit.residual, status, exp))
    write_csv(out_dir / "fit_summary.csv", FIT_COLUMNS, rows, chash)
    return rows


def _norm_rows_and_fits(config: RunConfig, data, variables, out_dir: Path, chash: str):
    """Norms of ``data`` at the sample times, by a quadrature sized for 1.2 ``decay.t_max``, and
    their fits; writes both CSVs and returns ``(times, table, fits, fit summary rows)``."""
    d = config.decay
    times = _sample_times(d)
    ks = tuple(range(d.k_max + 1))
    evolution = ModeEvolution(config.params, t_max=d.t_max * 1.2)
    table = evolution.norms(data, times, ks=ks, variables=variables)
    rows = []
    fits = {}
    for v in variables:
        for k in ks:
            for t, val in zip(times, table[v][k]):
                rows.append((t, v, k, val))
            series = NormSeries(times=times, values=table[v][k], k=k, variable=v)
            fits[(v, k)] = fit_power_law(series)
    write_csv(out_dir / "norms.csv", NORM_COLUMNS, rows, chash)
    return times, table, fits, _write_fit_summary(out_dir, fits, chash, d.tolerance)


def _task_linear_decay(config: RunConfig, out_dir: Path, chash: str, meta: dict):
    d = config.decay
    _, _, fits, fit_rows = _norm_rows_and_fits(config, make_generic_data(d.K0), VARIABLES,
                                               out_dir, chash)
    meta.update({"asymptotic_radius": choose_eta(linear_coefficients(config.params)),
                 "K0": d.K0, "fit_window": [d.t_min, d.t_max]})
    worst = max(abs(f.exponent - expected_exponent(v, k)) for (v, k), f in fits.items())
    return (all(r[5] == "pass" for r in fit_rows),
            f"linear-decay: {len(fits)} fits, worst exponent deviation {worst:.4f}")


def _task_lower_bound(config: RunConfig, out_dir: Path, chash: str, meta: dict):
    d = config.decay
    variables = ("n+", "n-", "phi+", "phi-", "combo")
    data = make_lower_bound_data(d.K0, d.theta, d.s_exp, d.eta)
    times, table, _, _ = _norm_rows_and_fits(config, data, variables, out_dir, chash)
    band_rows = []
    all_ok = True
    for v in sorted(variables):
        exp = expected_exponent(v, 0)
        series = NormSeries(times=times, values=table[v][0], k=0, variable=v)
        ratio = band_ratio(series, -exp)
        band_ok = ratio <= BAND_GATE
        all_ok &= band_ok
        band_rows.append((v, -exp, ratio, "pass" if band_ok else "fail"))
    write_csv(out_dir / "band_summary.csv",
              ["variable", "weight_power", "max_over_min", "status"], band_rows, chash)
    meta.update({
        "asymptotic_radius": choose_eta(linear_coefficients(config.params)), "eta": d.eta,
        "c0": data.c0, "s_exp": data.s_exp, "theta": data.theta,
        "band_gate": BAND_GATE,
    })
    return all_ok, (f"lower-bound: worst band ratio "
                    f"{max(r[2] for r in band_rows):.3f} (gate {BAND_GATE})")


def _task_simulate(config: RunConfig, out_dir: Path, chash: str, meta: dict):
    s = config.sim
    grid = Grid(dim=s.dim, n=s.n, length=s.length)
    spec = InitSpec(kind=s.init, amplitude=s.amplitude, mode=s.mode,
                    width=s.width, band=s.band, seed=config.seed or 0)
    co = linear_coefficients(config.params)
    n_steps = int(round(s.t_end / s.dt))
    meta.update({"grid": {"dim": s.dim, "n": s.n, "length": s.length}, "steps": n_steps,
                 "solver_workers": workers(grid)})
    norm_rows = []
    times = []
    history = {}  # (variable, k) -> norm at each of ``times``
    energy_columns = ["t", "e0", "d0", "mass_plus", "mass_minus"]
    energy_rows = []

    def record(st):
        n_p, n_m, u_p, u_m = FieldState.split(st.spectra)
        fields = {"n+": n_p, "n-": n_m, "u+": u_p, "u-": u_m, "combo": combination(n_p, n_m, co)}
        for v, spec in fields.items():
            k_hi = s.k_max + 1 if v in ("n+", "n-") else s.k_max
            for k, sq in enumerate(gradient_l2sq(grid, spec, order=range(k_hi + 1))):
                val = np.sqrt(sq)
                norm_rows.append((st.time, v, k, val))
                history.setdefault((v, k), []).append(val)
        times.append(st.time)
        rep = energy_report(st, config.params)
        energy_rows.append((st.time, rep.e0, rep.d0, rep.mass_plus, rep.mass_minus))

    try:
        state = init_state(grid, spec, config.params)
        record(state)
        for i in range(n_steps):
            state = step(state, s.dt, config.params, c_cfl=s.c_cfl)
            if (i + 1) % s.out_every == 0 or i == n_steps - 1:
                record(state)
    except BlowUpError as exc:
        if exc.state is not None:
            write_checkpoint(exc.state, config.params, out_dir / "state_blowup.tfck")
        raise
    finally:  # every ending keeps the records made so far
        write_csv(out_dir / "norms.csv", NORM_COLUMNS, norm_rows, chash)
        write_csv(out_dir / "energy.csv", energy_columns, energy_rows, chash)
    write_checkpoint(state, config.params, out_dir / "state_final.tfck")
    mass_drift = max(abs(r[c] - energy_rows[0][c]) for r in energy_rows for c in (3, 4))
    failures = []
    if not mass_drift <= MASS_DRIFT_GATE:
        failures.append(f"mass drift {mass_drift:.3e} above {MASS_DRIFT_GATE:g}")
    rises = [b[0] for a, b in zip(energy_rows, energy_rows[1:]) if b[1] > a[1]]
    if rises:
        failures.append(f"e0 rises between records, first at t={rises[0]:g}")
    e_k, e_0 = weighted_sup_functionals(times, history, ell=s.k_max)
    meta.update({
        "final_time": state.time,
        "mass_drift": mass_drift,
        "weighted_functionals": {
            "E_k": {str(k): float(arr[-1]) for k, arr in e_k.items()},
            "E_0": float(e_0[-1]),
        },
        **({"failure": "; ".join(failures)} if failures else {}),
    })
    return not failures, (f"simulate: {n_steps} steps to t={state.time:g}, "
                          f"mass drift {mass_drift:.3e}")


def _task_fit(config: RunConfig, out_dir: Path, chash: str, meta: dict):
    f = config.fit
    src = Path(f.input)
    if not src.is_absolute():
        src = out_dir / src
    # the task that wrote the norms, through any refits of them; a periodic
    # box (simulate) has no whole-space rate to judge a refit against
    written = src.with_name("metadata.json")
    source = json.loads(written.read_text(encoding="utf-8")) if written.is_file() else {}
    meta["source_task"] = source.get("source_task" if source.get("task") == "fit" else "task")
    rows = read_norm_csv(src)
    series_map = {}
    for t, v, k, val in rows:
        series_map.setdefault((v, k), []).append((t, val))
    fits = {}
    for (v, k), pairs in sorted(series_map.items()):
        pairs.sort()
        times = np.array([p[0] for p in pairs])
        vals = np.array([p[1] for p in pairs])
        keep = vals > 0
        if keep.sum() < MIN_FIT_SAMPLES:
            continue
        series = NormSeries(times=times[keep], values=vals[keep], k=k, variable=v)
        window = (f.t_min if f.t_min is not None else float(series.times[0]),
                  f.t_max if f.t_max is not None else float(series.times[-1]))
        fits[(v, k)] = fit_power_law(series, window=window)
    fit_rows = _write_fit_summary(out_dir, fits, chash,
                                  None if meta["source_task"] in SIM else f.tolerance)
    meta["source"] = str(src)
    return True, f"fit: {len(fit_rows)} series fitted from {src}"


def run_campaign(config: RunConfig, out_dir=None, quiet: bool = False) -> int:
    """Execute the configured task and write ``metadata.json``; returns the exit code.

    0: the task passed its gates; 1: a gate failed; 2: the task raised, and
    ``metadata.json`` records ``"passed": false`` with the ``failure``.
    """
    out = Path(out_dir if out_dir is not None else config.output)
    chash = config_hash(config)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"{config.task}: error: {exc}", file=sys.stderr)
        return 2
    co = linear_coefficients(config.params)
    meta = {"config_hash": chash, "tool_version": __version__, "task": config.task,
            "seed": config.seed, "combination_ratio": float(np.sqrt(co.beta1 * co.beta2))}
    task = {
        "analyze-modes": _task_analyze_modes,
        "linear-decay": _task_linear_decay,
        "lower-bound": _task_lower_bound,
        "simulate": _task_simulate,
        "fit": _task_fit,
    }[config.task]
    try:
        passed, summary = task(config, out, chash, meta)
        code = 0 if passed else 1
    except Exception as exc:  # runtime failure contract: exit 2, metadata kept
        kind = "blow-up" if isinstance(exc, BlowUpError) else "error"
        passed, code, meta["failure"] = False, 2, f"{kind}: {exc}"
    meta["passed"] = bool(passed)
    out.joinpath("metadata.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    if code == 2:
        print(f"{config.task}: {meta['failure']}", file=sys.stderr)
    elif not quiet:
        print(summary)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twofluid",
        description="Two-fluid model laboratory: mode analysis, decay "
                    "campaigns, nonlinear runs.")
    parser.add_argument("task", choices=TASKS, help="campaign to run")
    parser.add_argument("--config", type=Path, default=None, help="YAML config path")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        raw = _load_mapping(_read_config_text(args.config))
        raw["task"] = args.task  # the subcommand owns the task
        if args.seed is not None:
            raw["seed"] = args.seed
        config = _validate(raw)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        return run_campaign(config, out_dir=args.out, quiet=args.quiet)
    except Exception as exc:  # pragma: no cover - final safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
