"""Tooling checks for the benchmark harness under ``perfbench/``."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
