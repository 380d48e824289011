"""Tooling checks for the benchmark harness under ``perfbench/``."""

import importlib
import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_layertrace():
    return load_perfbench("layertrace")


def test_layertrace_specs_resolve():
    # the tracer reports a missing name as absent and its counters read 0,
    # so a rename in the package must fail here instead
    unresolved = []
    for _, module_name, path, only_in, _ in load_layertrace().SPECS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.append(f"{module_name}.{path}")
        elif only_in and not any(value is owner
                                 for value in vars(importlib.import_module(only_in)).values()):
            unresolved.append(f"{module_name}.{path} in {only_in}")
    assert unresolved == []


def traced_tiny_sample(workload, tmp_path):
    """One cold traced sample of ``workload`` at smoke-test size, on this tree's ``src``."""
    run = load_perfbench("run")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return run.run_sample(run.campaigns(workload, 1, "tiny"), tmp_path, 0, env,
                          spans=tmp_path / "spans.jsonl")


def test_traced_tiny_linear_lab_sample(tmp_path):
    # one cold traced sample: every hook runs (the decomposition hook reads
    # the lazily built projectors), no traced name is missing, and every
    # campaign passes its output checks
    result = traced_tiny_sample("linear-lab", tmp_path)
    assert result.get("errors") == []
    assert result["hook_errors"] == {}
    assert result["absent"] == []
    assert result["codes"] == [0] * 4
    assert [problems for _, problems, _ in result["checks"]] == [[]] * 4
    assert result["layers"]["spectral.decompose.projector_mb"] > 0


def test_traced_tiny_sim_1d_sample_sees_the_warm_starts(tmp_path):
    # the tracer tells cold solves from warm ones by the kernel's x0: only the
    # background closure and the run's first stage start cold, every later
    # stage from the ratio its state carries, and every point converges
    result = traced_tiny_sample("sim-1d", tmp_path)
    assert result.get("errors") == []
    assert result["absent"] == []
    assert result["codes"] == [0]
    assert result["layers"]["kernels.solve.cold_calls"] == 2
    assert result["layers"]["kernels.solve.unconverged_points"] == 0
