"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced with ``--size tiny`` and checks that
the last line carries exactly the metrics BENCHMARK.json names, with their
units, and that every campaign passed its output checks.  It also checks
that the output checks catch broken simulation artifacts, that a tracer
asked to wrap names the package lacks reports them absent instead of
failing, and that the benchmark refuses to run without the package sources.
Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from layertrace import SPECS, Tracer  # noqa: E402


def expect(ok, message):
    if not ok:
        sys.exit(f"smoke: FAIL {message}")
    print(f"smoke: ok   {message}")


def run_benchmark(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_runs(spec):
    for workload in run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_benchmark(workload, trace)
            lines = proc.stdout.strip().splitlines()
            tag = f"{workload} trace={trace}"
            expect(proc.returncode == 0 and lines, f"{tag} exits 0 with output")
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag} result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 3,
                   f"{tag} every campaign passed its checks")
            units = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == units, f"{tag} emits every declared metric with its unit")


def check_output_checks(tmp):
    out = tmp / "broken-sim"
    out.mkdir(parents=True)
    (out / "metadata.json").write_text('{"passed": true}')
    (out / "norms.csv").write_text("# h\nt,variable,k,norm\n0.0,n+,0,1.0\n1.0,n+,0,nan\n")
    (out / "energy.csv").write_text("# h\nt,e0,d0,mass_plus,mass_minus\n"
                                    "0.0,1.0,0.1,0.0,0.0\n1.0,1.5,0.1,1e-6,0.0\n")
    problems, digests = run.check_campaign("simulate", out, 0)
    expect(len(problems) == 3 and set(digests) == {"norms.csv", "energy.csv"},
           f"output checks flag NaN, rising e0 and mass drift: {problems}")
    problems, _ = run.check_campaign("simulate", out, 2)
    expect(problems == ["exit code 2"], "a non-zero exit code fails the campaign")


def check_absent_names(layer_names):
    missing = (("x", "twofluid.solver", "no_such_function", None, None),
               ("y", "twofluid.solver", "FieldState.no_such_method", None, None),
               ("z", "twofluid.no_such_module", "f", None, None))
    tracer = Tracer(SPECS + missing)
    tracer.install()
    expect(tracer.absent == ["twofluid.solver.no_such_function",
                             "twofluid.solver.FieldState.no_such_method",
                             "twofluid.no_such_module.f"],
           "names missing from the package are reported absent")
    expect(set(tracer.metrics()) == layer_names - {"trace.wall_s", "trace.overhead_s"},
           "an empty trace still yields every per-layer metric")


def check_bare_directory(tmp):
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_benchmark("sim-1d", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the package sources the benchmark exits non-zero, printing no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = ROOT / ".perfbench_work" / "smoke"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        check_output_checks(tmp)
        check_bare_directory(tmp)
        check_absent_names({m["name"] for m in spec["per_layer"]})
        check_runs(spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
