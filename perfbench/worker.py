"""One cold benchmark sample: a fresh interpreter running twofluid campaigns.

Usage: ``python perfbench/worker.py JOB.json`` with ``src`` on PYTHONPATH.
The job names the campaigns (YAML config text and output directory), whether
to trace, and where to write the result.  The worker imports the CLI, builds
every ``RunConfig`` with ``parse_config``, runs each campaign through
``run_campaign`` and writes exit codes, timings, resource usage and, when
traced, the per-layer metrics to the result file.
"""

import json
import resource
import sys
import time


def environment_facts():
    import numpy
    import scipy
    import yaml

    from twofluid import kernels

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "have_numba": bool(getattr(kernels, "HAVE_NUMBA", False)),
        "blas": blas,
    }


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)

    from twofluid import cli

    configs = [cli.parse_config(c["config"]) for c in job["campaigns"]]
    t_setup = time.monotonic()

    tracer = None
    if job["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    codes, errors = [], []
    t0 = time.perf_counter()
    for config, campaign in zip(configs, job["campaigns"]):
        try:
            # looked up at call time, so a traced worker calls the wrapper
            codes.append(cli.run_campaign(config, out_dir=campaign["out"], quiet=True))
        except Exception as exc:  # one failed campaign must not stop the others
            codes.append(2)
            errors.append(f"{campaign['name']}: {exc!r}")
    wall = time.perf_counter() - t0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_done": t_setup,
        "wall_s": wall,
        "codes": codes,
        "errors": errors,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        tracer.write_spans(job["spans"])
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.summary()
        result["absent"] = tracer.absent
        result["hook_errors"] = tracer.hook_errors
    if job["facts"]:
        result["facts"] = environment_facts()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
