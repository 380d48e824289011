"""Campaign benchmark for twofluid: cold CLI campaigns, checked and timed.

    python3 perfbench/run.py --workload sim-1d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/twofluid`` must exist).  One
closed loop, one client, one worker at a time: every sample starts a fresh
interpreter (``perfbench/worker.py``) that imports ``twofluid.cli``, builds
each ``RunConfig`` with ``parse_config`` and runs the workload's campaigns
through ``run_campaign``.  Samples start until ``--seconds`` have passed
(at least three).  Every campaign's output is checked; a campaign that
exits non-zero, reports ``passed: false``, fails an output check or writes
CSVs that differ from an earlier sample with the same seed counts as
failed and never stops the other samples.

With ``--trace 0`` the last line reports the end-to-end metrics (medians
over the samples).  With ``--trace 1`` the untraced samples are followed by
two traced samples (``perfbench/layertrace.py``); the last line reports the
per-layer metrics and the tracing overhead, and the run is marked incorrect
if the two traced samples disagree on an exact counter.  Lines before the
last one give the human-readable report, tail percentiles, sample counts,
CPU time and the environment facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

MIN_SAMPLES = 3
TRACED_SAMPLES = 2
SAMPLE_TIMEOUT_S = 150.0
MASS_DRIFT_MAX = 1e-10  # absolute; the measured phase-mass drift is ~1e-14
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS", "TWOFLUID_THREADS", "TWOFLUID_NO_NUMBA")

# The README's config: params, decay section and sim section.
README_PARAMS = dict(mu_plus=1.0, mu_minus=1.0, lambda_plus=0.0, lambda_minus=0.0,
                     sigma_plus=1.0, sigma_minus=1.0, gamma_plus=2.0, gamma_minus=2.0)
README_DECAY = dict(K0=0.5, k_max=3, t_min=1.0e2, t_max=1.0e4, samples=40)
README_SIM = dict(dim=1, n=1024, length=2.0 * math.pi * 32.0, init="random",
                  amplitude=1.0e-3, dt=0.05, t_end=10.0)

# Per workload: the campaigns' sizes at full scale and at smoke-test scale.
SIZES = {
    "full": {"modes": {}, "decay": README_DECAY,
             "sim-1d": dict(t_end=20.0), "sim-3d": dict(dim=3, n=64, t_end=0.2)},
    "tiny": {"modes": {"count": 40}, "decay": dict(README_DECAY, t_max=1.0e3, samples=12),
             "sim-1d": dict(n=16, t_end=0.5), "sim-3d": dict(dim=3, n=16, t_end=0.1)},
}
WORKLOADS = ("linear-lab", "sim-1d", "sim-3d")


def tuned_confluent_params():
    """The acceptance suite's asymmetric draw, sigma+ solved onto confluence."""
    from twofluid.closure import FluidParams, linear_coefficients

    base = dict(mu_plus=0.8, mu_minus=1.5, lambda_plus=0.8, lambda_minus=0.5,
                gamma_plus=1.8, gamma_minus=2.4, rbar_plus=1.4, rbar_minus=0.7,
                sigma_minus=0.3)
    co = linear_coefficients(FluidParams(sigma_plus=1.0, **base))
    S = co.beta1 + co.beta4
    X = co.beta1 * co.nu_minus + co.beta4 * co.nu_plus
    sigma_plus = (X**2 / (4 * S) - co.beta1 * base["sigma_minus"]) / co.beta4
    return dict(base, sigma_plus=float(sigma_plus))


def campaigns(workload, seed, size):
    """(name, task, typed config) for each campaign of one sample."""
    import yaml

    sz = SIZES[size]
    if workload == "linear-lab":
        # Fixed inputs: seeded parameter draws fail the rate gate for some
        # seeds and vary the run time ~3x, so the seed does not enter here.
        specs = [
            ("modes-readme", {"task": "analyze-modes", "params": README_PARAMS,
                              "modes": sz["modes"]}),
            ("modes-confluent", {"task": "analyze-modes", "params": tuned_confluent_params(),
                                 "modes": sz["modes"]}),
            ("linear-decay", {"task": "linear-decay", "params": README_PARAMS,
                              "decay": sz["decay"]}),
            ("lower-bound", {"task": "lower-bound", "params": README_PARAMS,
                             "decay": sz["decay"]}),
        ]
    else:
        specs = [("simulate", {"task": "simulate", "seed": seed, "params": README_PARAMS,
                               "sim": dict(README_SIM, **sz[workload])})]
    return [(name, doc["task"], yaml.safe_dump(doc)) for name, doc in specs]


# ---------------------------------------------------------------------------
# output checks


def _csv_rows(path):
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def check_campaign(task, out_dir, code):
    """Problems found in one campaign's artifacts, and its CSV digests."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    meta_path = out_dir / "metadata.json"
    if not meta_path.is_file():
        problems.append("metadata.json missing")
    elif json.loads(meta_path.read_text(encoding="utf-8")).get("passed") is not True:
        problems.append("metadata.json has passed != true")
    csvs = sorted(out_dir.glob("*.csv"))
    if not csvs:
        problems.append("no CSV written")
    if task == "simulate" and not problems:
        try:
            problems += _check_simulation(out_dir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"unreadable simulation output: {exc!r}")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in csvs}
    return problems, digests


def _check_simulation(out_dir):
    problems = []
    norms = [float(r["norm"]) for r in _csv_rows(out_dir / "norms.csv")]
    if not all(math.isfinite(v) for v in norms):
        problems.append("norms.csv has a non-finite value")
    energy = _csv_rows(out_dir / "energy.csv")
    e0 = [float(r["e0"]) for r in energy]
    if any(b > a for a, b in zip(e0, e0[1:])):
        problems.append("energy.csv e0 increases between records")
    for col in ("mass_plus", "mass_minus"):
        mass = [float(r[col]) for r in energy]
        drift = max(abs(m - mass[0]) for m in mass)
        if not drift <= MASS_DRIFT_MAX:
            problems.append(f"{col} drift {drift:.3e} above {MASS_DRIFT_MAX:g}")
    return problems


# ---------------------------------------------------------------------------
# sampling


def run_sample(specs, work, index, env, facts=False, spans=None):
    """One cold worker; returns its measurements and per-campaign checks.

    With ``spans`` (a path) the worker traces and writes its spans there.
    """
    sample_dir = work / f"s{index}"
    sample_dir.mkdir(parents=True)
    job = {
        "campaigns": [{"name": name, "config": text, "out": str(sample_dir / name)}
                      for name, _, text in specs],
        "trace": spans is not None,
        "spans": str(spans),
        "facts": facts,
        "result": str(sample_dir / "result.json"),
    }
    job_path = sample_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), str(job_path)], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
        crashed = proc.returncode != 0
        stderr = proc.stderr
    except subprocess.TimeoutExpired:
        crashed, stderr = True, f"worker exceeded {SAMPLE_TIMEOUT_S:g} s"
    result_path = Path(job["result"])
    if crashed or not result_path.is_file():
        result = {"codes": [None] * len(specs), "errors": [stderr.strip()[-2000:]]}
    else:
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result.pop("setup_done") - t_spawn
    result["checks"] = []
    for (name, task, _), code in zip(specs, result["codes"]):
        if code is None:
            result["checks"].append((name, ["worker crashed"], {}))
        else:
            problems, digests = check_campaign(task, sample_dir / name, code)
            result["checks"].append((name, problems, digests))
    shutil.rmtree(sample_dir)
    return result


def sample_loop(specs, work, seconds, env):
    samples = []
    start = time.monotonic()
    while len(samples) < MIN_SAMPLES or time.monotonic() - start < seconds:
        samples.append(run_sample(specs, work, len(samples), env, facts=not samples))
    return samples


def account(samples):
    """Attempted and failed campaigns; CSVs must match the first good sample."""
    reference, attempted, failures = {}, 0, []
    for i, s in enumerate(samples):
        for name, problems, digests in s["checks"]:
            attempted += 1
            if not problems and name in reference and digests != reference[name]:
                problems = problems + ["CSV digests differ from an earlier sample"]
            if not problems:
                reference.setdefault(name, digests)
            else:
                failures.append(f"sample {i} {name}: {'; '.join(problems)}")
    return attempted, failures


# ---------------------------------------------------------------------------
# reporting


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


def describe(name, unit, values):
    med = statistics.median(values)
    t = tail(values)
    tail_txt = f"p{t[0]:.0f} {t[1]:.6g} {unit}" if t else "tail n/a (needs > 10 samples)"
    return f"{name:<14} median {med:.6g} {unit:<5} {tail_txt}  (n={len(values)})"


def cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes or "unknown"


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed, workload, size, worker_facts):
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "caches": cache_sizes(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        **(worker_facts or {}),
    }


def layer_unit(name):
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB"), ("_mb_per_step", "MB"),
                         ("us_per_mode", "us"), ("ns_per_point", "ns"), ("_ratio", "ratio"),
                         ("_share", "ratio"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


TIME_SUFFIXES = ("self_s", "_ms", "us_per_mode", "ns_per_point")


def traced_metrics(traced, untraced):
    """Per-layer metrics (medians of the traced samples) and counter mismatches."""
    layers = [s["layers"] for s in traced if "layers" in s]
    if len(layers) < len(traced):
        return None, ["a traced sample produced no layer metrics"]
    metrics, mismatches = {}, []
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name.endswith(TIME_SUFFIXES):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                mismatches.append(f"{name} differs between traced samples: {values}")
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(
        s["wall_s"] for s in untraced)
    return metrics, mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="campaign sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "twofluid" / "cli.py").is_file():
        print(f"perfbench: no twofluid sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    specs = campaigns(args.workload, args.seed, args.size)

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Compile the package's bytecode once, outside any sample: users do not
        # pay that on every invocation.
        subprocess.run([sys.executable, "-c", "import twofluid.cli"], env=env, cwd=ROOT,
                       check=True, timeout=SAMPLE_TIMEOUT_S)
        samples = sample_loop(specs, work, args.seconds, env)
        span_dir = ROOT / ".perfbench_spans"
        if args.trace:
            span_dir.mkdir(exist_ok=True)
        traced = [run_sample(specs, work, len(samples) + i, env,
                             spans=span_dir / f"{args.workload}-{i}.jsonl")
                  for i in range(TRACED_SAMPLES if args.trace else 0)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted, failures = account(samples + traced)
    timed = [s for s in samples if "wall_s" in s]
    print(f"perfbench: workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} seconds={args.seconds:g} campaigns/sample={len(specs)} "
          f"(closed loop, 1 client, 1 worker)")
    print(json.dumps({"environment": environment(args.seed, args.workload, args.size,
                                                 samples[0].get("facts"))}))
    for failure in failures:
        print(f"FAILED {failure}")
    for s in samples + traced:
        for err in s.get("errors", []):
            print(f"worker error: {err}")

    correct = not failures and bool(timed)
    metrics = {}
    if timed:
        e2e = {
            "wall_s": ("s", [s["wall_s"] for s in timed]),
            "setup_s": ("s", [s["setup_s"] for s in timed]),
            "peak_rss_mb": ("MB", [s["peak_rss_mb"] for s in timed]),
        }
        for name, (unit, values) in e2e.items():
            print(describe(name, unit, values))
        print(describe("cpu_s (fact)", "s", [s["cpu_s"] for s in timed]))
        print("wall_s per sample: " + " ".join(f"{s['wall_s']:.4g}" for s in timed))
        print(f"failed_share   {len(failures)}/{attempted} = {len(failures) / attempted:.6g} "
              f"(campaigns failed / attempted)")
        if not args.trace:
            metrics = {name: {"value": statistics.median(values), "unit": unit}
                       for name, (unit, values) in e2e.items()}
            metrics["ok_share"] = {"value": 1.0 - len(failures) / attempted, "unit": "ratio"}
    if args.trace and timed:
        layer, mismatches = traced_metrics(traced, timed)
        for s in traced:
            if s.get("absent"):
                print(f"absent from the package (not traced): {', '.join(s['absent'])}")
                break
        for s in traced:
            for name, err in s.get("hook_errors", {}).items():
                print(f"trace hook {name} failed: {err}")
        for m in mismatches:
            print(f"COUNTER {m}")
        if traced and "spans" in traced[0]:
            print(f"spans of the first traced sample, by self time "
                  f"(all spans in {span_dir.relative_to(ROOT)}/):")
            for name, entry in sorted(traced[0]["spans"].items(),
                                      key=lambda kv: -kv[1]["self_s"]):
                print(f"  {name:<32} calls {entry['calls']:>7}  self {entry['self_s']:.6g} s")
        correct = correct and layer is not None and not mismatches
        if layer is not None:
            for name, value in layer.items():
                print(f"{name:<40} {value:.6g} {layer_unit(name)}")
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in layer.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
