import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from twofluid.cli import (
    ConfigError,
    RunConfig,
    config_hash,
    main,
    parse_config,
    read_norm_csv,
    run_campaign,
    serialize_config,
)
from twofluid.closure import linear_coefficients
from twofluid.linearlab import expected_exponent
from twofluid.spectral import XI_FLOOR, batch_green, decompose_batch, matrix_exp_oracle

MINIMAL = """
params:
  gamma_plus: 2.0
  gamma_minus: 2.0
"""


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.task == "analyze-modes"
    assert cfg.params.mu_plus == 1.0
    assert cfg.modes.count == 200
    assert cfg.seed is None


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config("params:\n  mu_plus: 1.0\n  viscosity: 2.0\nextra: 1\n")
    msg = str(exc.value)
    assert "params.viscosity" in msg
    assert "unknown key 'extra'" in msg


def test_parse_rejects_unphysical_viscosity():
    with pytest.raises(ConfigError) as exc:
        parse_config("params:\n  mu_plus: 1.0\n  lambda_plus: -1.0\n")
    assert "2*mu_plus + 3*lambda_plus >= 0" in str(exc.value)
    # every violation is named by its field, not only the first
    with pytest.raises(ConfigError) as exc:
        parse_config("params:\n  mu_plus: -1\n  sigma_minus: -1\n")
    assert exc.value.errors == [
        "'params.mu_plus' must be > 0, got -1.0",
        "'params.lambda_plus' must be such that 2*mu_plus + 3*lambda_plus >= 0, got 0.0",
        "'params.sigma_minus' must be > 0, got -1.0"]


def test_parse_requires_seed_for_random_simulate():
    with pytest.raises(ConfigError) as exc:
        parse_config("task: simulate\nsim:\n  init: random\n")
    assert "seed is required" in str(exc.value)
    cfg = parse_config("task: simulate\nseed: 7\nsim:\n  init: random\n")
    assert cfg.seed == 7


def test_parse_lower_bound_k0_window():
    with pytest.raises(ConfigError):
        parse_config("task: lower-bound\ndecay:\n  K0: 1.5\n")


def test_config_round_trip():
    cfg = parse_config("""
task: linear-decay
seed: 3
params:
  mu_plus: 0.8
  sigma_minus: 1.3
decay:
  K0: 0.7
  samples: 12
""")
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_analyze_modes_campaign(tmp_path):
    cfg = parse_config("task: analyze-modes\nmodes:\n  count: 40\n")
    code = run_campaign(cfg, out_dir=tmp_path, quiet=True)
    assert code == 0
    modes = (tmp_path / "modes.csv").read_text().splitlines()
    assert modes[0].startswith("# config_hash=")
    assert modes[1].split(",")[0] == "xi"
    assert len(modes) == 40 + 2
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["passed"] is True
    assert meta["max_projector_residual"] < 1e-10
    assert 0 < meta["eta"] <= 1.0
    assert "combination_ratio" in meta


def test_analyze_modes_semigroup_residual_matches_per_mode_loop(tmp_path):
    from test_acceptance import tuned_confluent_params

    cfg = replace(parse_config("task: analyze-modes\nmodes:\n  count: 60\n"),
                  params=tuned_confluent_params())
    assert run_campaign(cfg, out_dir=tmp_path, quiet=True) == 0
    rows = (tmp_path / "modes.csv").read_text().splitlines()[2:]
    co = linear_coefficients(cfg.params)
    xis = np.geomspace(cfg.modes.xi_min, cfg.modes.xi_max, cfg.modes.count)
    dec = decompose_batch(xis, co)
    assert any(r.split(",")[9] == "confluent" for r in rows)
    want = []
    for i, xi in enumerate(xis):
        A = batch_green([xi], co)[0]
        worst = 0.0
        for t in cfg.modes.t_check:
            S = np.einsum("i,ijk->jk", dec.weights(t)[i], dec.projectors[i])
            E = matrix_exp_oracle(A, t)
            worst = max(worst, float(np.abs(S - E).max() / max(np.abs(E).max(), 1e-290)))
        want.append(worst)
    assert [float(r.split(",")[-1]) for r in rows] == want


def test_analyze_modes_labels_the_fallback_rows(tmp_path):
    from test_spectral import FALLBACK_PARAMS

    cfg = replace(parse_config("task: analyze-modes\n"), params=FALLBACK_PARAMS)
    assert run_campaign(cfg, out_dir=tmp_path, quiet=True) == 0
    rows = [r.split(",") for r in (tmp_path / "modes.csv").read_text().splitlines()[2:]]
    meta = json.loads((tmp_path / "metadata.json").read_text())
    fallback = [r for r in rows if r[9] == "distinct-fallback"]
    assert len(fallback) >= 50 and meta["branch_counts"]["fallback"] == len(fallback)
    # four real roots, by descending magnitude
    for r in fallback:
        re = [float(r[k]) for k in (1, 3, 5, 7)]
        assert [float(r[k]) for k in (2, 4, 6, 8)] == [0.0] * 4
        assert [abs(x) for x in re] == sorted((abs(x) for x in re), reverse=True)
    assert meta["passed"] is True


def test_linear_decay_campaign_small(tmp_path):
    cfg = parse_config("""
task: linear-decay
decay:
  samples: 16
  k_max: 1
""")
    code = run_campaign(cfg, out_dir=tmp_path, quiet=True)
    assert code == 0
    rows = read_norm_csv(tmp_path / "norms.csv")
    assert len(rows) == 9 * 2 * 16  # variables x k x samples
    fit_lines = (tmp_path / "fit_summary.csv").read_text().splitlines()
    assert all(line.split(",")[5] == "pass" for line in fit_lines[2:])


def test_lower_bound_campaign_small(tmp_path):
    cfg = parse_config("""
task: lower-bound
decay:
  K0: 0.5
  s_exp: 2.0
  eta: 0.4
  samples: 16
  k_max: 0
""")
    code = run_campaign(cfg, out_dir=tmp_path, quiet=True)
    assert code == 0
    band = (tmp_path / "band_summary.csv").read_text().splitlines()
    assert len(band) == 5 + 2
    for line in band[2:]:
        cols = line.split(",")
        assert float(cols[2]) <= 3.0
        assert cols[3] == "pass"


def test_simulate_campaign_zero_amplitude(tmp_path):
    cfg = parse_config("""
task: simulate
seed: 1
sim:
  n: 64
  dim: 1
  init: random
  amplitude: 0.0
  dt: 0.1
  t_end: 1.0
  out_every: 5
""")
    code = run_campaign(cfg, out_dir=tmp_path, quiet=True)
    assert code == 0
    rows = read_norm_csv(tmp_path / "norms.csv")
    assert all(r[3] == 0.0 for r in rows)
    assert (tmp_path / "state_final.tfck").exists()
    energy = (tmp_path / "energy.csv").read_text().splitlines()
    assert len(energy) > 3
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["weighted_functionals"]["E_0"] == 0.0
    assert all(v == 0.0 for v in meta["weighted_functionals"]["E_k"].values())


def test_simulate_campaign_deterministic(tmp_path):
    text = """
task: simulate
seed: 5
sim:
  n: 64
  dim: 1
  init: random
  amplitude: 1.0e-3
  dt: 0.05
  t_end: 0.5
  out_every: 2
"""
    cfg = parse_config(text)
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    assert run_campaign(cfg, out_dir=a_dir, quiet=True) == 0
    assert run_campaign(cfg, out_dir=b_dir, quiet=True) == 0
    assert (a_dir / "norms.csv").read_bytes() == (b_dir / "norms.csv").read_bytes()
    assert (a_dir / "energy.csv").read_bytes() == (b_dir / "energy.csv").read_bytes()
    c_cfg = parse_config(text.replace("seed: 5", "seed: 6"))
    c_dir = tmp_path / "c"
    assert run_campaign(c_cfg, out_dir=c_dir, quiet=True) == 0
    assert (a_dir / "norms.csv").read_bytes() != (c_dir / "norms.csv").read_bytes()


def test_fit_task_on_simulated_output(tmp_path):
    sim = parse_config("""
task: simulate
seed: 2
sim:
  n: 64
  dim: 1
  init: mode
  amplitude: 1.0e-4
  mode: [1]
  dt: 0.1
  t_end: 2.0
  out_every: 2
""")
    assert run_campaign(sim, out_dir=tmp_path, quiet=True) == 0
    fit = parse_config("task: fit\nfit:\n  input: norms.csv\n")
    # into the source's own directory, as the README runs it: the second refit
    # reads the first's metadata, which names the same source task
    summaries = []
    for _ in range(2):
        assert run_campaign(fit, out_dir=tmp_path, quiet=True) == 0  # fit only reports
        summaries.append((tmp_path / "fit_summary.csv").read_text())
        assert json.loads((tmp_path / "metadata.json").read_text())["source_task"] == "simulate"
    assert summaries[0] == summaries[1]
    lines = summaries[0].splitlines()
    assert lines[1].startswith("variable,")
    assert len(lines) > 2
    # a periodic box has no whole-space rate to judge the refit against
    assert all(ln.split(",")[5:] == ["n/a", ""] for ln in lines[2:])


def test_fit_task_on_linear_decay_output(tmp_path):
    src = parse_config("task: linear-decay\ndecay:\n  samples: 16\n  k_max: 1\n")
    assert run_campaign(src, out_dir=tmp_path / "decay", quiet=True) == 0
    # combo and drho+- at 0.003-0.004 from their rates, the rest within 0.001
    fit = parse_config("task: fit\nfit:\n  input: ../decay/norms.csv\n  tolerance: 0.001\n")
    assert run_campaign(fit, out_dir=tmp_path / "fit", quiet=True) == 0
    assert json.loads((tmp_path / "fit" / "metadata.json").read_text())["source_task"] == (
        "linear-decay")
    lines = (tmp_path / "fit" / "fit_summary.csv").read_text().splitlines()
    assert len(lines) == 2 + 9 * 2  # variables x k
    statuses = set()
    for v, k, exponent, _, _, status, expected in (ln.split(",") for ln in lines[2:]):
        assert float(expected) == expected_exponent(v, int(k))
        assert status == ("pass" if abs(float(exponent) - float(expected)) <= 0.001 else "fail")
        statuses.add(status)
    assert statuses == {"pass", "fail"}


def test_main_entrypoint(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("modes:\n  count: 12\n")
    out = tmp_path / "out"
    code = main(["analyze-modes", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 0
    assert (out / "modes.csv").exists()


def test_main_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("params:\n  mu_plus: -1\n")
    out = tmp_path / "out"
    code = main(["analyze-modes", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert not out.exists()  # no artifact on validation failure
    assert "mu_plus" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("- task\n- simulate\n", "top level must be a mapping"),
    ("42\n", "top level must be a mapping"),
    ("params: [1, 2\n", "not valid YAML"),
], ids=["list", "scalar", "malformed"])
def test_main_rejects_config_it_cannot_load(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["analyze-modes", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind,message", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("binary", "is not UTF-8 text"),
])
def test_main_rejects_config_it_cannot_read(tmp_path, capsys, kind, message):
    cfg_path = tmp_path / "cfg.yaml"
    if kind == "directory":
        cfg_path.mkdir()
    elif kind == "binary":
        cfg_path.write_bytes(b"\xff\xfe\x00modes")
    out = tmp_path / "out"
    assert main(["analyze-modes", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(cfg_path) in err and message in err


def test_main_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("""
task: simulate
sim:
  n: 64
  dim: 1
  init: random
  amplitude: 1.0e-3
  dt: 0.1
  t_end: 0.2
  out_every: 1
""")
    out = tmp_path / "out"
    # config alone is invalid (no seed), but --seed fills it
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "9", "--quiet"])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["seed"] == 9


def test_cli_help_smoke(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "analyze-modes" in capsys.readouterr().out


def test_every_artifact_names_config_hash(tmp_path):
    cfg = parse_config("task: analyze-modes\nmodes:\n  count: 10\n")
    assert run_campaign(cfg, out_dir=tmp_path, quiet=True) == 0
    chash = config_hash(cfg)
    for name in ("modes.csv",):
        assert chash in (tmp_path / name).read_text().splitlines()[0]
    assert json.loads((tmp_path / "metadata.json").read_text())["config_hash"] == chash


def _readme_config():
    import re

    readme = Path(__file__).resolve().parents[1] / "README.md"
    return re.search(r"```yaml\n(.*?)```", readme.read_text(encoding="utf-8"), re.S).group(1)


def test_readme_config_parses_with_typed_fields():
    cfg = parse_config(_readme_config())
    assert cfg.task == "linear-decay"
    assert cfg.decay.t_min == 100.0 and isinstance(cfg.decay.t_min, float)
    assert cfg.decay.t_max == 1e4 and isinstance(cfg.decay.samples, int)
    assert cfg.sim.amplitude == 1e-3 and cfg.sim.band == (1, 4)


@pytest.mark.parametrize("task", ["linear-decay", "lower-bound"])
def test_readme_config_runs(tmp_path, task):
    cfg_path = tmp_path / "examples.yaml"
    cfg_path.write_text(_readme_config(), encoding="utf-8")
    assert main([task, "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0


def test_readme_commands_run_as_written(tmp_path, monkeypatch):
    # the README's command block, run on its minimal config saved as examples.yaml
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    Path("examples.yaml").write_text(_readme_config(), encoding="utf-8")
    runs = [line.split("#")[0].split() for line in commands.splitlines()]
    assert [run[:2] for run in runs] == [["twofluid", task] for task in
                                         ("analyze-modes", "linear-decay", "lower-bound",
                                          "simulate", "fit")]
    for run in runs:
        assert main(run[1:] + ["--quiet"]) == 0, run
        out = Path(run[run.index("--out") + 1])
        assert {p.name for p in out.iterdir()} == ARTIFACTS[run[1]] | {"metadata.json"}


def test_lower_bound_keeps_its_bytes_alone_and_next_to_linear_decay(tmp_path):
    # in one process the second campaign on a parameter set reuses the first's
    # quadrature, decompositions and cutoff radius
    from test_linearlab import clear_lab_caches

    cfg = parse_config(_readme_config())
    runs = {"linear-decay": [], "lower-bound": []}
    for order in (("lower-bound",), ("linear-decay", "lower-bound"),
                  ("lower-bound", "linear-decay")):
        clear_lab_caches()
        for task in order:
            out = tmp_path / "-".join(order) / task
            assert run_campaign(replace(cfg, task=task), out_dir=out, quiet=True) == 0
            runs[task].append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    lower, decay = runs["lower-bound"], runs["linear-decay"]
    assert len(lower[0]) >= 4 and lower[0] == lower[1] == lower[2]
    assert len(decay[0]) >= 3 and decay[0] == decay[1]


@pytest.mark.parametrize("text,field", [
    ("decay:\n  samples: 4.5\n", "decay.samples"),
    ('sim:\n  n: "abc"\n', "sim.n"),
    ("sim:\n  band: 3\n", "sim.band"),
    ("params:\n  mu_plus: true\n", "params.mu_plus"),
    ("modes:\n  xi_max: .inf\n", "modes.xi_max"),
    # these three ran into a directory named "None", "['a', 'b']" or "5"
    ("output: null\n", "output"),
    ("output: [a, b]\n", "output"),
    ("output: 5\n", "output"),
])
def test_parse_rejects_mistyped_fields(text, field):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert f"'{field}' must be" in str(exc.value)


@pytest.mark.parametrize("field,value,message", [
    ("dt", -0.05, "'sim.dt' must be > 0, got -0.05"),
    ("dt", 0, "'sim.dt' must be > 0, got 0.0"),
    ("t_end", -1.0, "'sim.t_end' must be >= 0, got -1.0"),
    ("out_every", 0, "'sim.out_every' must be >= 1, got 0"),
    ("out_every", -3, "'sim.out_every' must be >= 1, got -3"),
], ids=["dt-negative", "dt-zero", "t_end-negative", "out_every-zero", "out_every-negative"])
def test_parse_rejects_simulate_time_fields_out_of_domain(tmp_path, capsys, field, value,
                                                         message):
    # these ran with negative step counts and passed, or died inside the run
    # with a division or modulo by zero
    text = f"seed: 1\nsim:\n  {field}: {value}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config("task: simulate\n" + text)
    assert exc.value.errors == [message]
    cfg_path, out = tmp_path / "cfg.yaml", tmp_path / "out"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_simulate_time_field_boundaries_parse_and_other_tasks_ignore_them():
    cfg = parse_config("task: simulate\nseed: 1\nsim:\n  t_end: 0\n  out_every: 1\n")
    assert (cfg.sim.t_end, cfg.sim.out_every) == (0.0, 1)
    for task in ("analyze-modes", "linear-decay", "lower-bound", "fit"):
        cfg = parse_config(f"task: {task}\nsim:\n  dt: -0.05\n  t_end: -1.0\n  out_every: 0\n")
        assert cfg.sim.dt == -0.05


@pytest.mark.parametrize("task,text,message", [
    ("simulate", "sim:\n  band: [4, 1]\n",
     "'sim.band' must be [low, high] with low <= high, got (4, 1)"),
    ("simulate", "sim:\n  init: mode\n  mode: [1, 2]\n",
     "'sim.mode' must be one wave index per axis (sim.dim = 1), got (1, 2)"),
    ("simulate", "sim:\n  k_max: -1\n", "'sim.k_max' must be >= 0, got -1"),
    ("analyze-modes", "modes:\n  t_check: []\n", "'modes.t_check' must be non-empty, got ()"),
    ("linear-decay", "decay:\n  tolerance: -0.01\n",
     "'decay.tolerance' must be >= 0, got -0.01"),
    ("lower-bound", "decay:\n  tolerance: -1.0\n", "'decay.tolerance' must be >= 0, got -1.0"),
    ("simulate", "sim:\n  n: 100\n", "'sim.n' must be a power of two >= 4, got 100"),
    ("simulate", "sim:\n  n: 2\n", "'sim.n' must be a power of two >= 4, got 2"),
    ("simulate", "sim:\n  dim: 4\n", "'sim.dim' must be 1, 2 or 3, got 4"),
    ("simulate", "sim:\n  length: 0\n", "'sim.length' must be > 0, got 0.0"),
    ("simulate", "sim:\n  init: bump\n",
     "'sim.init' must be one of ('zero', 'mode', 'gaussian', 'random'), got 'bump'"),
    ("simulate", "sim: [1]\n", "section 'sim' must be a mapping"),
    ("analyze-modes", "modes:\n  xi_min: -1\n",
     "'modes.xi_min' must be > 0 and <= modes.xi_max (100.0), got -1.0"),
    ("analyze-modes", "modes:\n  xi_min: 10\n  xi_max: 1\n",
     "'modes.xi_min' must be > 0 and <= modes.xi_max (1.0), got 10.0"),
    ("analyze-modes", "modes:\n  t_check: [1, -1]\n",
     "'modes.t_check' must be a list of times >= 0, got (1.0, -1.0)"),
    ("linear-decay", "decay:\n  samples: 0\n", "'decay.samples' must be >= 8, got 0"),
    ("lower-bound", "decay:\n  samples: 7\n", "'decay.samples' must be >= 8, got 7"),
    ("linear-decay", "decay:\n  k_max: -1\n", "'decay.k_max' must be >= 0, got -1"),
    ("linear-decay", "decay:\n  t_min: 0\n",
     "'decay.t_min' must be > 0 and < decay.t_max (10000.0), got 0.0"),
    ("lower-bound", "decay:\n  t_min: 100\n  t_max: 100\n",
     "'decay.t_min' must be > 0 and < decay.t_max (100.0), got 100.0"),
    ("linear-decay", "decay:\n  t_min: 9999.9999999999\n",
     "'decay.t_min' must be far enough below decay.t_max (10000.0) for 40 distinct sample "
     "times, got 9999.9999999999"),
    ("linear-decay", "decay:\n  K0: 0\n", "'decay.K0' must be > 0, got 0.0"),
    ("linear-decay", "decay:\n  K0: -1\n", "'decay.K0' must be > 0, got -1.0"),
    ("lower-bound", "decay:\n  K0: 1.5\n", "'decay.K0' must be in (0, 1), got 1.5"),
    ("lower-bound", "decay:\n  theta: 2\n", "'decay.theta' must be < 2, got 2.0"),
    ("lower-bound", "decay:\n  s_exp: 0\n", "'decay.s_exp' must be > 0, got 0.0"),
    ("lower-bound", "decay:\n  eta: 0\n", "'decay.eta' must be > 0, got 0.0"),
    ("simulate", "sim:\n  c_cfl: -1\n", "'sim.c_cfl' must be > 0, got -1.0"),
    ("simulate", "sim:\n  init: gaussian\n  width: 0\n",
     "'sim.width' must be > 0 when sim.init is 'gaussian', got 0.0"),
    ("simulate", "sim:\n  init: gaussian\n  width: 1.0e-300\n",
     "'sim.width' must be large enough for a finite gaussian exponent on the box "
     "(sim.length = 201.06192982974676), got 1e-300"),
    ("simulate", "sim:\n  init: gaussian\n  width: 1.0e-160\n",
     "'sim.width' must be large enough for a finite gaussian exponent on the box "
     "(sim.length = 201.06192982974676), got 1e-160"),
    ("fit", "fit:\n  t_min: 5\n  t_max: 1\n", "'fit.t_min' must be < fit.t_max (1.0), got 5.0"),
    ("fit", "fit:\n  tolerance: -1\n", "'fit.tolerance' must be >= 0, got -1.0"),
    ("simulate", "sim:\n  n: 16\n  init: mode\n  mode: [7]\n",
     "'sim.mode' must be wave indices of modulus <= sim.n // 3 (sim.n = 16), got (7,)"),
    ("simulate", "sim:\n  dim: 2\n  n: 16\n  band: [6, 8]\n",
     "'sim.band' must be [low, high] with high >= 0 and low <= sim.n // 3 (sim.n = 16), "
     "got (6, 8)"),
    ("simulate", "sim:\n  dim: 2\n  n: 16\n  band: [-5, -1]\n",
     "'sim.band' must be [low, high] with high >= 0 and low <= sim.n // 3 (sim.n = 16), "
     "got (-5, -1)"),
    ("analyze-modes", "modes:\n  xi_min: 1.0e-40\n",
     "'modes.xi_min' must be >= 3.4947656141084224e-39, where the quartic's xi^8 terms are "
     "normal floats, got 1e-40"),
], ids=["band-reversed", "mode-longer-than-dim", "sim-k_max-negative", "t_check-empty",
        "decay-tolerance-negative", "lower-bound-tolerance-negative", "n-not-power-of-two",
        "n-below-4", "dim-4", "length-zero", "init-unknown", "sim-not-a-mapping",
        "xi_min-negative", "xi_min-above-xi_max", "t_check-negative", "samples-zero",
        "samples-below-fit-minimum", "decay-k_max-negative", "decay-t_min-zero",
        "decay-window-empty", "sample-times-collide", "linear-decay-K0-zero",
        "linear-decay-K0-negative", "lower-bound-K0-above-1", "theta-2", "s_exp-zero",
        "eta-zero", "c_cfl-negative", "gaussian-width-zero", "gaussian-width-underflows",
        "gaussian-exponent-overflows", "fit-window-reversed", "fit-tolerance-negative",
        "mode-above-the-band", "band-above-the-band", "band-below-zero", "xi_min-below-floor"])
def test_parse_rejects_fields_out_of_their_task_domain(tmp_path, capsys, task, text, message):
    # the first six ran to exit 0 or 1 whatever the run did, the next five died
    # inside the run with exit 2, and a list for the section crashed the parser.
    # From xi_min on: a reversed xi sweep ran to exit 0, and the rest died inside
    # the run with a message that named no field.  The mode and band cases at the
    # end ran a zero state (the 2/3 band erases their data) to exit 0, and
    # xi_min-below-floor wrote eigenvalues with a positive real part to exit 0
    text = "seed: 1\n" + text
    with pytest.raises(ConfigError) as exc:
        parse_config(f"task: {task}\n" + text)
    assert exc.value.errors == [message]
    cfg_path, out = tmp_path / "cfg.yaml", tmp_path / "out"
    cfg_path.write_text(text)
    assert main([task, "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("task,text,message", [
    ("simulate", "sim: {dim: 4, init: mode, mode: [1]}", "'sim.dim' must be 1, 2 or 3, got 4"),
    ("simulate", "sim: {length: 0, init: gaussian}", "'sim.length' must be > 0, got 0.0"),
    ("simulate", "sim: {n: 6, init: mode, mode: [5]}",
     "'sim.n' must be a power of two >= 4, got 6"),
    ("simulate", "sim: {n: 12, band: [6, 8]}", "'sim.n' must be a power of two >= 4, got 12"),
    ("simulate", "sim: {n: abc, init: mode, mode: [100]}", "'sim.n' must be int, got 'abc'"),
    ("linear-decay", "decay: {t_max: abc, t_min: 20000}",
     "'decay.t_max' must be float, got 'abc'"),
    ("simulate", "sim: {length: abc, init: gaussian, width: 1.0e-160}",
     "'sim.length' must be float, got 'abc'"),
], ids=["dim", "length", "n-for-mode", "n-for-band", "n-mistyped", "t_max-mistyped",
        "length-mistyped"])
def test_parse_reports_one_error_per_cause(task, text, message):
    # each also reported a row that shows the failing field, the last three
    # quoting a default the config never wrote
    with pytest.raises(ConfigError) as exc:
        parse_config(f"task: {task}\nseed: 1\n{text}\n")
    assert exc.value.errors == [message]


# the in-domain value nearest each bound, where a run near it completes (CHANGES.md
# records the open bounds that still fail late): (task, config text)
TINY = 5e-324  # the smallest positive float
BOUNDARIES = {
    "xi_min-at-xi_max": ("analyze-modes", "modes:\n  count: 4\n  xi_min: 1.0\n  xi_max: 1.0\n"),
    "xi_min-small": ("analyze-modes", f"modes:\n  count: 4\n  xi_min: {XI_FLOOR!r}\n"),
    "t_check-zero": ("analyze-modes", "modes:\n  count: 4\n  t_check: [0]\n"),
    "samples-and-k_max-at-minimum": ("linear-decay", "decay:\n  samples: 8\n  k_max: 0\n"),
    "t_min-smallest": ("linear-decay", f"decay:\n  samples: 8\n  k_max: 0\n  t_min: {TINY}\n"),
    "t_min-near-t_max": ("linear-decay",
                         "decay:\n  samples: 8\n  k_max: 0\n  t_min: 9999.999999999\n"),
    "K0-small": ("linear-decay", "decay:\n  samples: 8\n  k_max: 0\n  K0: 1.0e-150\n"),
    "theta-below-2": ("lower-bound",
                      "decay:\n  samples: 8\n  k_max: 0\n  theta: 1.9999999999999998\n"),
    "s_exp-smallest": ("lower-bound", f"decay:\n  samples: 8\n  k_max: 0\n  s_exp: {TINY}\n"),
    "eta-small": ("lower-bound", "decay:\n  samples: 8\n  k_max: 0\n  eta: 0.01\n"),
    # a state at rest has no advective bound; a moving one fails its first step
    "c_cfl-smallest": ("simulate", f"sim:\n  n: 16\n  t_end: 0.1\n  init: zero\n  c_cfl: {TINY}\n"),
    "gaussian-width-small": ("simulate", "sim:\n  n: 16\n  t_end: 0.1\n  init: gaussian\n"
                                         "  amplitude: 1.0e-3\n  width: 1.0e-150\n"),
    # the highest mode and band the 2/3 band keeps at n = 16
    "mode-at-the-band-edge": ("simulate", "sim:\n  n: 16\n  t_end: 0.1\n  init: mode\n"
                                          "  mode: [5]\n"),
    "band-reaching-the-band-edge": ("simulate", "sim:\n  dim: 2\n  n: 16\n  t_end: 0.1\n"
                                                "  band: [5, 8]\n"),
    # eight records at t = 0.05 .. 0.4 inside the window, the fit's minimum
    "fit-window-minimum": ("fit", "sim:\n  n: 16\n  t_end: 0.4\n  out_every: 1\n"
                                  "fit:\n  t_min: 0.025\n  t_max: 0.425\n"),
}
ARTIFACTS = {
    "analyze-modes": {"modes.csv"},
    "linear-decay": {"norms.csv", "fit_summary.csv"},
    "lower-bound": {"norms.csv", "fit_summary.csv", "band_summary.csv"},
    "simulate": {"norms.csv", "energy.csv", "state_final.tfck"},
    "fit": {"norms.csv", "energy.csv", "state_final.tfck", "fit_summary.csv"},
}


@pytest.mark.parametrize("task,text", BOUNDARIES.values(), ids=BOUNDARIES)
def test_task_field_boundaries_run_to_their_artifacts(tmp_path, task, text):
    cfg_path, out = tmp_path / "cfg.yaml", tmp_path / "out"
    cfg_path.write_text("seed: 1\n" + text)
    run = ["--config", str(cfg_path), "--out", str(out), "--quiet"]
    if task == "fit":  # refit a simulate run's norms.csv
        assert main(["simulate"] + run) == 0
    assert main([task] + run) in (0, 1)
    assert {p.name for p in out.iterdir()} == ARTIFACTS[task] | {"metadata.json"}
    assert "failure" not in json.loads((out / "metadata.json").read_text())


def test_task_field_boundaries_parse_and_other_tasks_ignore_them():
    cfg = parse_config("task: simulate\nseed: 1\nsim:\n  dim: 2\n  n: 4\n  k_max: 0\n"
                       "  band: [1, 1]\n  mode: [3]\n")
    assert (cfg.sim.n, cfg.sim.k_max, cfg.sim.band) == (4, 0, (1, 1))
    cfg = parse_config("task: simulate\nsim:\n  init: mode\n  dim: 2\n  mode: [1, 0]\n"
                       "  band: [4, 1]\n")
    assert cfg.sim.mode == (1, 0)
    assert parse_config("task: linear-decay\ndecay:\n  tolerance: 0\n").decay.tolerance == 0.0
    for task, text in BOUNDARIES.values():
        parse_config(f"task: {task}\nseed: 1\n{text}")
    parse_config("task: simulate\nseed: 1\nsim:\n  width: 0\n")  # no gaussian, no width
    parse_config("task: fit\nfit:\n  t_min: 5\n")  # an open window
    others = {"modes:\n  t_check: []\n": ("linear-decay", "simulate"),
              "decay:\n  tolerance: -1.0\n": ("analyze-modes", "fit"),
              "sim:\n  n: 100\n  dim: 4\n  init: bump\n  k_max: -1\n": ("lower-bound", "fit"),
              "modes:\n  xi_min: 10\n  xi_max: 1\n  t_check: [-1]\n": ("linear-decay", "fit"),
              "decay:\n  samples: 0\n  k_max: -1\n  t_min: 0\n  K0: 0\n  theta: 2\n"
              "  s_exp: 0\n  eta: 0\n": ("analyze-modes", "simulate", "fit"),
              "sim:\n  c_cfl: -1\n  init: gaussian\n  width: 0\n": ("linear-decay", "fit"),
              "fit:\n  t_min: 5\n  t_max: 1\n": ("analyze-modes", "simulate"),
              "fit:\n  tolerance: -1\n": ("linear-decay", "simulate"),
              "sim:\n  n: 16\n  band: [6, 8]\n  mode: [7]\n": ("analyze-modes", "fit")}
    for text, tasks in others.items():
        for task in tasks:
            parse_config(f"task: {task}\nseed: 1\n{text}")


def test_parse_coerces_numeric_strings():
    cfg = parse_config("decay:\n  t_min: 1.0e2\n  samples: '12'\nmodes:\n  t_check: [1, 2.0e1]\n")
    assert cfg.decay.t_min == 100.0 and cfg.decay.samples == 12
    assert cfg.modes.t_check == (1.0, 20.0)


def test_simulate_records_solver_workers_and_threads_keep_bits(tmp_path, monkeypatch):
    from twofluid import solver, threads

    cfg = parse_config("task: simulate\nseed: 3\nsim:\n  dim: 3\n  n: 16\n  dt: 0.02\n"
                       "  t_end: 0.1\n  amplitude: 1.0e-3\n")
    runs = []
    # one CPU; two threads at every size; two CPUs on a grid below the threshold
    for cpus, threshold, used in ((1, 0, 1), (2, 0, 2), (2, 2**30, 1)):
        monkeypatch.setattr(threads, "CPUS", cpus)
        monkeypatch.setattr(solver, "_PARALLEL_POINTS", threshold)
        out = tmp_path / f"{cpus}-{threshold}"
        assert run_campaign(cfg, out_dir=out, quiet=True) == 0
        assert json.loads((out / "metadata.json").read_text())["solver_workers"] == used
        runs.append([(out / name).read_bytes()
                     for name in ("norms.csv", "energy.csv", "state_final.tfck")])
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("task", ["analyze-modes", "linear-decay", "lower-bound"])
def test_linear_lab_artifacts_keep_their_bytes_on_any_thread_count(tmp_path, monkeypatch, task):
    from twofluid import spectral, threads

    cfg = parse_config(f"task: {task}\n")
    runs = []
    # one CPU; two threads in chunks of the default size; two in chunks of at most 64 rows
    for cpus, rows in ((1, spectral._CHUNK_ROWS), (2, spectral._CHUNK_ROWS), (2, 64)):
        monkeypatch.setattr(threads, "CPUS", cpus)
        monkeypatch.setattr(spectral, "_CHUNK_ROWS", rows)
        out = tmp_path / f"{cpus}-{rows}"
        assert run_campaign(cfg, out_dir=out, quiet=True) == 0
        runs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert len(runs[0]) >= 2 and runs[0] == runs[1] == runs[2]


def test_simulate_warm_starts_the_closure(tmp_path, monkeypatch):
    from twofluid import kernels, linear_coefficients

    cfg = parse_config("task: simulate\nseed: 2\nsim:\n  n: 64\n  dt: 0.05\n  t_end: 0.5\n")
    linear_coefficients(cfg.params)  # background closure solved outside the count
    cold = []
    solve = kernels.solve_rho_plus_batch

    def counted(Rp, Rm, gp, gm, x0=None):
        cold.append(x0 is None)
        return solve(Rp, Rm, gp, gm, x0=x0)

    monkeypatch.setattr(kernels, "solve_rho_plus_batch", counted)
    assert run_campaign(cfg, out_dir=tmp_path, quiet=True) == 0
    assert len(cold) == 2 * 10 and sum(cold) == 1  # one solve per stage, one cold start


SMALL_SIM = "task: simulate\nseed: 4\nsim:\n  n: 32\n  dt: 0.05\n  t_end: 0.3\n  out_every: 2\n"


def _drift(monkeypatch, field, rate):
    """Make ``simulate`` record ``field`` drifting by ``rate`` per unit time."""
    from twofluid import cli

    report = cli.energy_report

    def drifting(state, params):
        rep = report(state, params)
        return replace(rep, **{field: getattr(rep, field) + rate * state.time})

    monkeypatch.setattr(cli, "energy_report", drifting)


def test_simulate_mass_drift_covers_both_phases(tmp_path, monkeypatch):
    _drift(monkeypatch, "mass_minus", 1e-12)  # below the gate
    assert run_campaign(parse_config(SMALL_SIM), out_dir=tmp_path, quiet=True) == 0
    rows = [ln.split(",") for ln in (tmp_path / "energy.csv").read_text().splitlines()[2:]]
    drift = max(abs(float(r[c]) - float(rows[0][c])) for r in rows for c in (3, 4))
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["mass_drift"] == drift and drift >= 0.29e-12
    assert meta["passed"] is True and "failure" not in meta


@pytest.mark.parametrize("field, rate, reason", [
    ("mass_minus", 1e-9, "mass drift"),  # reaches 3e-10 at t = 0.3, gate 1e-10
    ("e0", 1.0, "e0 rises"),
])
def test_simulate_fails_its_mass_and_energy_gate(tmp_path, monkeypatch, field, rate, reason):
    _drift(monkeypatch, field, rate)
    assert run_campaign(parse_config(SMALL_SIM), out_dir=tmp_path, quiet=True) == 1
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["passed"] is False
    assert meta["failure"].startswith(reason) and ";" not in meta["failure"]
    assert (tmp_path / "state_final.tfck").exists()


def test_simulate_inadmissible_init_exits_2_with_checkpoint(tmp_path):
    cfg = parse_config("task: simulate\nparams:\n  rbar_plus: 0.3\n"
                       "sim:\n  n: 64\n  init: mode\n  amplitude: 0.4\n")
    assert run_campaign(cfg, out_dir=tmp_path, quiet=True) == 2
    assert (tmp_path / "state_blowup.tfck").exists()
    # the init fails before the first record: energy.csv is header only
    energy = (tmp_path / "energy.csv").read_text().splitlines()
    assert energy[0].startswith("# config_hash=") and energy[1:] == ["t,e0,d0,mass_plus,mass_minus"]
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["passed"] is False and meta["failure"].startswith("blow-up: ")
    assert "positivity" in meta["failure"]
    assert set(meta) == {"combination_ratio", "config_hash", "failure", "grid", "passed",
                         "seed", "solver_workers", "steps", "task", "tool_version"}


def test_simulate_runtime_error_keeps_records_and_metadata(tmp_path, monkeypatch, capsys):
    from twofluid import kernels
    from twofluid.closure import ConvergenceError

    cfg = parse_config(SMALL_SIM)
    assert run_campaign(cfg, out_dir=tmp_path / "full", quiet=True) == 0
    calls = []
    solve = kernels.solve_rho_plus_batch

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 9:  # two solves per step: step 5, after the records at steps 0, 2, 4
            raise ConvergenceError("pressure-equilibrium root solve did not converge")
        return solve(*args, **kwargs)

    monkeypatch.setattr(kernels, "solve_rho_plus_batch", failing)
    out = tmp_path / "failed"
    assert run_campaign(cfg, out_dir=out, quiet=True) == 2
    kept, full = ({name: (where / name).read_text().splitlines()
                   for name in ("energy.csv", "norms.csv")} for where in (out, tmp_path / "full"))
    assert len(kept["energy.csv"]) == 2 + 3  # header lines and the records at steps 0, 2, 4
    times = {line.split(",")[0] for line in kept["energy.csv"][2:]}
    assert {line.split(",")[0] for line in kept["norms.csv"][2:]} == times
    for name, lines in kept.items():
        assert lines == full[name][:len(lines)]
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["passed"] is False
    assert meta["failure"] == "error: pressure-equilibrium root solve did not converge"
    assert meta["config_hash"] == config_hash(cfg) and meta["steps"] == 6
    assert not (out / "state_final.tfck").exists()
    assert capsys.readouterr() == ("", f"simulate: {meta['failure']}\n")


def test_analyze_modes_without_modes_exits_2_with_metadata(tmp_path):
    # this left a modes.csv without metadata
    cfg = parse_config("task: analyze-modes\nmodes:\n  count: 0\n")
    assert run_campaign(cfg, out_dir=tmp_path, quiet=True) == 2
    assert len((tmp_path / "modes.csv").read_text().splitlines()) == 2  # comment and header
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["passed"] is False and meta["failure"].startswith("error: ")
    assert meta["config_hash"] == config_hash(cfg) and "eta" not in meta


def test_run_campaign_prints_summary_unless_quiet_and_fails_on_unmakeable_dir(tmp_path,
                                                                            capsys):
    cfg = parse_config("task: analyze-modes\nmodes:\n  count: 10\n")
    assert run_campaign(cfg, out_dir=tmp_path / "a", quiet=True) == 0
    assert capsys.readouterr() == ("", "")
    assert run_campaign(cfg, out_dir=tmp_path / "b") == 0
    out, err = capsys.readouterr()
    assert out.startswith("analyze-modes: 10 modes, max projector residual") and err == ""
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert run_campaign(cfg, out_dir=blocker / "out", quiet=True) == 2
    assert capsys.readouterr().err.startswith("analyze-modes: error: ")
    assert blocker.read_text() == "x"


_IMPORT_PROBE = """
import json
import sys
from twofluid import solver, spectral, threads
from twofluid.cli import parse_config, run_campaign

if sys.argv[1] == "pooled":
    threads.CPUS, solver._PARALLEL_POINTS, spectral._CHUNK_ROWS = 2, 0, 64
configs = [
    "task: analyze-modes\\nmodes:\\n  count: 10\\n",
    "task: linear-decay\\ndecay:\\n  samples: 8\\n  k_max: 0\\n",
    "task: lower-bound\\ndecay:\\n  eta: 0.4\\n  samples: 8\\n  k_max: 0\\n",
    "task: simulate\\nseed: 1\\nsim:\\n  n: 64\\n  dt: 0.1\\n  t_end: 0.2\\n",
    "task: simulate\\nseed: 1\\nsim:\\n  dim: 3\\n  n: 16\\n  dt: 0.1\\n  t_end: 0.2\\n",
]
codes = [run_campaign(parse_config(text), out_dir=sys.argv[2] + str(i), quiet=True)
         for i, text in enumerate(configs)]
heavy = [name for name in sys.modules
         if name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "ma"]]
print(json.dumps([codes, sorted(heavy)]))
"""


def test_campaigns_never_import_scipy(tmp_path):
    # every check of the paper's claims is a fresh process, which should not
    # pay the 0.3-0.4 s scipy import, inline or on the package's pool (every
    # grid, node batch and sample time pooled), nor numpy.ma's 13 ms (plain
    # np.unique and np.isin import it)
    import os
    import subprocess
    import sys

    import twofluid

    src = str(Path(twofluid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = {}
    for mode in ("inline", "pooled"):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, mode, str(tmp_path / mode)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        codes, modules = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0] * 5
        loaded[mode] = set(modules)
    assert loaded == {"inline": set(), "pooled": set()}
