import json
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
    assert run_campaign(fit, out_dir=tmp_path, quiet=True) == 0
    lines = (tmp_path / "fit_summary.csv").read_text().splitlines()
    assert lines[1].startswith("variable,")
    assert len(lines) > 2


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


@pytest.mark.parametrize("text,field", [
    ("decay:\n  samples: 4.5\n", "decay.samples"),
    ('sim:\n  n: "abc"\n', "sim.n"),
    ("sim:\n  band: 3\n", "sim.band"),
    ("params:\n  mu_plus: true\n", "params.mu_plus"),
    ("modes:\n  xi_max: .inf\n", "modes.xi_max"),
])
def test_parse_rejects_mistyped_fields(text, field):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert f"'{field}' must be" in str(exc.value)


def test_parse_coerces_numeric_strings():
    cfg = parse_config("decay:\n  t_min: 1.0e2\n  samples: '12'\nmodes:\n  t_check: [1, 2.0e1]\n")
    assert cfg.decay.t_min == 100.0 and cfg.decay.samples == 12
    assert cfg.modes.t_check == (1.0, 20.0)


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


def test_simulate_inadmissible_init_exits_2_with_checkpoint(tmp_path):
    cfg = parse_config("task: simulate\nparams:\n  rbar_plus: 0.3\n"
                       "sim:\n  n: 64\n  init: mode\n  amplitude: 0.4\n")
    assert run_campaign(cfg, out_dir=tmp_path, quiet=True) == 2
    assert (tmp_path / "state_blowup.tfck").exists()
    # the init fails before the first record: energy.csv is header only
    energy = (tmp_path / "energy.csv").read_text().splitlines()
    assert energy[0].startswith("# config_hash=") and energy[1:] == ["t,e0,d0,mass_plus,mass_minus"]
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["passed"] is False and "positivity" in meta["failure"]
