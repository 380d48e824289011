"""Batch front-end: config parsing, campaign orchestration, persistence.

Subcommands: ``analyze-modes``, ``linear-decay``, ``lower-bound``,
``simulate`` and ``fit``.  Every run is driven by a YAML config (strictly
validated: unknown keys are rejected) and writes CSV artifacts plus a
metadata file into the output directory.  Identical config and seed give
byte-identical CSV output.  Exit codes: 0 success, 1 acceptance-style
check failed, 2 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .closure import FluidParams, linear_coefficients
from .linearlab import (
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
    BlowUpError,
    Grid,
    InitSpec,
    energy_report,
    gradient_l2sq,
    init_state,
    step,
    weighted_sup_functionals,
    write_checkpoint,
)
from .spectral import (
    batch_green,
    choose_eta,
    decompose_batch,
    matrix_exp_oracle,
    projector_residuals,
)

TASKS = ("analyze-modes", "linear-decay", "lower-bound", "simulate", "fit")

PROJECTOR_GATE = 1e-10
SEMIGROUP_GATE = 1e-8
BAND_GATE = 3.0


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


_SECTION_TYPES = {
    "params": FluidParams,
    "modes": ModesSection,
    "decay": DecaySection,
    "sim": SimSection,
    "fit": FitSection,
}


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


def _build_section(name, cls, payload, errors):
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        errors.append(f"section '{name}' must be a mapping")
        return cls()
    types = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in payload.items():
        if key not in types:
            errors.append(f"unknown key '{name}.{key}'")
            continue
        try:
            kwargs[key] = _coerce(value, types[key])
        except (TypeError, ValueError):
            errors.append(f"'{name}.{key}' must be {_type_name(types[key])}, got {value!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"section '{name}': {exc}")
        return None


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
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        built = _build_section(name, cls, raw.get(name), errors)
        if built is not None:
            sections[name] = built
    if task == "simulate":
        sim_raw = raw.get("sim") or {}
        if sim_raw.get("init", SimSection().init) == "random" and seed is None:
            errors.append("seed is required when sim.init is 'random'")
    if task == "lower-bound" and "decay" in sections and not 0.0 < sections["decay"].K0 < 1.0:
        errors.append("decay.K0 must lie in (0, 1) for the lower-bound task")
    if errors:
        raise ConfigError(errors)
    return RunConfig(task=task, seed=seed, output=str(output),
                     params=sections["params"], modes=sections["modes"],
                     decay=sections["decay"], sim=sections["sim"],
                     fit=sections["fit"])


def serialize_config(config: RunConfig) -> str:
    doc = {
        "task": config.task,
        "seed": config.seed,
        "output": config.output,
        "params": asdict(config.params),
        "modes": {**asdict(config.modes), "t_check": list(config.modes.t_check)},
        "decay": asdict(config.decay),
        "sim": {**asdict(config.sim), "mode": list(config.sim.mode),
                "band": list(config.sim.band)},
        "fit": asdict(config.fit),
    }
    return yaml.safe_dump(doc, sort_keys=True)


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


def _write_metadata(out_dir: Path, config: RunConfig, chash: str, extra: dict):
    co = linear_coefficients(config.params)
    doc = {
        "config_hash": chash,
        "tool_version": __version__,
        "task": config.task,
        "seed": config.seed,
        "combination_ratio": float(np.sqrt(co.beta1 * co.beta2)),
        **extra,
    }
    out_dir.joinpath("metadata.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# campaign tasks


def _task_analyze_modes(config: RunConfig, out_dir: Path, chash: str, quiet: bool) -> int:
    co = linear_coefficients(config.params)
    m = config.modes
    xis = np.geomspace(m.xi_min, m.xi_max, m.count)
    dec = decompose_batch(xis, co)
    residuals = projector_residuals(dec)

    def semigroup_residual(idx):
        worst = 0.0
        A = batch_green(np.asarray([xis[idx]]), co)[0]
        for t in m.t_check:
            S = np.einsum("i,ijk->jk", dec.weights(t)[idx], dec.projectors[idx])
            E = matrix_exp_oracle(A, t)
            scale = max(np.abs(E).max(), 1e-290)
            worst = max(worst, float(np.abs(S - E).max() / scale))
        return worst

    sg_res = [semigroup_residual(i) for i in range(len(xis))]

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
    eta = choose_eta(co)
    ok = (residuals.max() <= PROJECTOR_GATE) and (max(sg_res) <= SEMIGROUP_GATE)
    _write_metadata(out_dir, config, chash, {
        "eta": eta,
        "branch_counts": {
            "distinct": int((~dec.confluent & ~dec.fallback).sum()),
            "confluent": int(dec.confluent.sum()),
            "fallback": int(dec.fallback.sum()),
        },
        "max_projector_residual": float(residuals.max()),
        "max_semigroup_residual": float(max(sg_res)),
        "passed": bool(ok),
    })
    if not quiet:
        print(f"analyze-modes: {len(xis)} modes, max projector residual "
              f"{residuals.max():.3e}, max semigroup residual {max(sg_res):.3e}")
    return 0 if ok else 1


def _norm_rows_and_fits(evolution, data, decay: DecaySection, variables):
    times = np.geomspace(decay.t_min, decay.t_max, decay.samples)
    ks = tuple(range(decay.k_max + 1))
    table = evolution.norms(data, times, ks=ks, variables=variables)
    rows = []
    fits = {}
    for v in variables:
        for k in ks:
            for t, val in zip(times, table[v][k]):
                rows.append((t, v, k, val))
            series = NormSeries(times=times, values=table[v][k], k=k, variable=v)
            fits[(v, k)] = fit_power_law(series)
    return times, table, rows, fits


FIT_COLUMNS = ["variable", "k", "exponent", "amplitude", "residual", "status",
               "expected_exponent"]


def _write_fit_summary(out_dir: Path, fits: dict, chash: str, tolerance=None):
    """``fit_summary.csv`` from {(variable, k): DecayFit}; returns its rows.

    A fit passes when its exponent lies within ``tolerance`` of the
    predicted one; without a tolerance the status is ``n/a``.
    """
    rows = []
    for (v, k), fit in sorted(fits.items()):
        exp = expected_exponent(v, k)
        status = "n/a" if tolerance is None else (
            "pass" if abs(fit.exponent - exp) <= tolerance else "fail")
        rows.append((v, k, fit.exponent, fit.amplitude, fit.residual, status, exp))
    write_csv(out_dir / "fit_summary.csv", FIT_COLUMNS, rows, chash)
    return rows


def _task_linear_decay(config: RunConfig, out_dir: Path, chash: str, quiet: bool) -> int:
    d = config.decay
    evolution = ModeEvolution(config.params, t_max=d.t_max * 1.2)
    data = make_generic_data(d.K0)
    times, table, rows, fits = _norm_rows_and_fits(evolution, data, d, VARIABLES)
    write_csv(out_dir / "norms.csv", ["t", "variable", "k", "norm"], rows, chash)
    fit_rows = _write_fit_summary(out_dir, fits, chash, d.tolerance)
    all_ok = all(r[5] == "pass" for r in fit_rows)
    _write_metadata(out_dir, config, chash, {
        "eta": choose_eta(linear_coefficients(config.params)),
        "K0": d.K0,
        "fit_window": [d.t_min, d.t_max],
        "passed": bool(all_ok),
    })
    if not quiet:
        worst = max(abs(f.exponent - expected_exponent(v, k))
                    for (v, k), f in fits.items())
        print(f"linear-decay: {len(fits)} fits, worst exponent deviation {worst:.4f}")
    return 0 if all_ok else 1


def _task_lower_bound(config: RunConfig, out_dir: Path, chash: str, quiet: bool) -> int:
    d = config.decay
    variables = ("n+", "n-", "phi+", "phi-", "combo")
    evolution = ModeEvolution(config.params, t_max=d.t_max * 1.2)
    data = make_lower_bound_data(d.K0, d.theta, d.s_exp, d.eta)
    times, table, rows, fits = _norm_rows_and_fits(evolution, data, d, variables)
    write_csv(out_dir / "norms.csv", ["t", "variable", "k", "norm"], rows, chash)
    _write_fit_summary(out_dir, fits, chash, d.tolerance)
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
    _write_metadata(out_dir, config, chash, {
        "eta": choose_eta(linear_coefficients(config.params)),
        "c0": data.c0, "s_exp": data.s_exp, "theta": data.theta,
        "band_gate": BAND_GATE,
        "passed": bool(all_ok),
    })
    if not quiet:
        print(f"lower-bound: worst band ratio "
              f"{max(r[2] for r in band_rows):.3f} (gate {BAND_GATE})")
    return 0 if all_ok else 1


def _task_simulate(config: RunConfig, out_dir: Path, chash: str, quiet: bool) -> int:
    s = config.sim
    grid = Grid(dim=s.dim, n=s.n, length=s.length)
    spec = InitSpec(kind=s.init, amplitude=s.amplitude, mode=s.mode,
                    width=s.width, band=s.band, seed=config.seed or 0)
    co = linear_coefficients(config.params)
    n_steps = int(round(s.t_end / s.dt))
    run_info = {"grid": {"dim": s.dim, "n": s.n, "length": s.length}, "steps": n_steps}
    norm_rows = []
    times = []
    history = {}  # (variable, k) -> norm at each of ``times``
    energy_columns = ["t", "e0", "d0", "mass_plus", "mass_minus"]
    energy_rows = []

    def record(st):
        sp = st.spectra()
        combo = co.beta_plus * sp["n+"] + co.beta_minus * sp["n-"]
        fields = {"n+": [sp["n+"]], "n-": [sp["n-"]],
                  "u+": list(sp["u+"]), "u-": list(sp["u-"]), "combo": [combo]}
        for v, comps in fields.items():
            k_hi = s.k_max + 1 if v in ("n+", "n-") else s.k_max
            for k in range(k_hi + 1):
                val = np.sqrt(sum(gradient_l2sq(grid, c, order=k) for c in comps))
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
        write_csv(out_dir / "norms.csv", ["t", "variable", "k", "norm"], norm_rows, chash)
        write_csv(out_dir / "energy.csv", energy_columns, energy_rows, chash)
        _write_metadata(out_dir, config, chash, {
            **run_info, "failure": f"blow-up: {exc}", "passed": False})
        print(f"simulate: blow-up: {exc}", file=sys.stderr)
        return 2
    write_csv(out_dir / "norms.csv", ["t", "variable", "k", "norm"], norm_rows, chash)
    write_csv(out_dir / "energy.csv", energy_columns, energy_rows, chash)
    write_checkpoint(state, config.params, out_dir / "state_final.tfck")
    mass_drift = max(abs(r[3] - energy_rows[0][3]) for r in energy_rows)
    e_k, e_0 = weighted_sup_functionals(times, history, ell=s.k_max)
    _write_metadata(out_dir, config, chash, {
        **run_info,
        "final_time": state.time,
        "mass_drift": mass_drift,
        "weighted_functionals": {
            "E_k": {str(k): float(arr[-1]) for k, arr in e_k.items()},
            "E_0": float(e_0[-1]),
        },
        "passed": True,
    })
    if not quiet:
        print(f"simulate: {n_steps} steps to t={state.time:g}, "
              f"mass drift {mass_drift:.3e}")
    return 0


def _task_fit(config: RunConfig, out_dir: Path, chash: str, quiet: bool) -> int:
    f = config.fit
    src = Path(f.input)
    if not src.is_absolute():
        src = out_dir / src
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
        if keep.sum() < 8:
            continue
        series = NormSeries(times=times[keep], values=vals[keep], k=k, variable=v)
        window = (f.t_min if f.t_min is not None else float(series.times[0]),
                  f.t_max if f.t_max is not None else float(series.times[-1]))
        fits[(v, k)] = fit_power_law(series, window=window)
    fit_rows = _write_fit_summary(out_dir, fits, chash)
    _write_metadata(out_dir, config, chash, {"source": str(src), "passed": True})
    if not quiet:
        print(f"fit: {len(fit_rows)} series fitted from {src}")
    return 0


def run_campaign(config: RunConfig, out_dir=None, quiet: bool = False) -> int:
    """Execute the configured task; returns the process exit code."""
    out = Path(out_dir if out_dir is not None else config.output)
    chash = config_hash(config)
    try:
        out.mkdir(parents=True, exist_ok=True)
        task = {
            "analyze-modes": _task_analyze_modes,
            "linear-decay": _task_linear_decay,
            "lower-bound": _task_lower_bound,
            "simulate": _task_simulate,
            "fit": _task_fit,
        }[config.task]
        return task(config, out, chash, quiet)
    except BlowUpError:
        raise
    except ConfigError:
        raise
    except Exception as exc:  # runtime failure contract: exit 2 with message
        print(f"{config.task}: error: {exc}", file=sys.stderr)
        return 2


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
        raw = _load_mapping(args.config.read_text(encoding="utf-8") if args.config else "")
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
