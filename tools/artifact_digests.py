"""Digests of a fixed campaign set's artifacts, for byte-identity checks.

    python tools/artifact_digests.py OUT > digests.txt

Runs the checkout's ``src/twofluid`` on the campaigns below, one after
another in one process through ``cli.run_campaign``, each into its own
directory under OUT (the working directory while they run, so every recorded
path is relative), and prints
``sha256  path`` for every file they wrote, sorted by path.  ``metadata.json``
is hashed without ``solver_workers``, the one key that depends on the CPU
count, so a listing made under ``taskset -c 0`` must equal the pooled one:
threads never change bits.  Each campaign's exit code goes to stderr; its
``passed`` and ``failure`` are in the hashed metadata.

The campaigns: ``analyze-modes`` on the README, non-symmetric and
tuned-confluent parameters; ``linear-decay`` and ``lower-bound`` on the README
and non-symmetric parameters, each set's two back to back, so the second
reuses the first's cached basis; ``simulate`` with seed 7 on seven grids on
the README parameters, and on three on the non-symmetric ones (gamma+ != gamma-,
so each closure stage's start misses the tolerance and the root solve iterates);
and ``fit`` on the 1D n = 64 run's ``norms.csv`` (statuses ``n/a``: a periodic box has
no whole-space rate) and on the README ``linear-decay`` run's (the rows of that
run's own ``fit_summary.csv``).
"""

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import README_DECAY, README_PARAMS, README_SIM, tuned_confluent_params  # noqa: E402

from twofluid.cli import parse_config, run_campaign  # noqa: E402

NONSYM_PARAMS = dict(mu_plus=0.8, mu_minus=1.3, lambda_plus=0.4, lambda_minus=0.1,
                     sigma_plus=0.9, sigma_minus=1.2, gamma_plus=1.6, gamma_minus=2.2,
                     rbar_plus=1.4, rbar_minus=0.7)
# (dim, n, t_end) of the simulate runs; the larger 3D grids run fewer steps
SIM_GRIDS = ((1, 64, 10.0), (1, 1024, 10.0), (2, 32, 10.0), (2, 128, 10.0),
             (3, 16, 10.0), (3, 32, 1.0), (3, 64, 0.2))
NONSYM_SIM_GRIDS = ((1, 64, 10.0), (2, 32, 10.0), (3, 32, 1.0))


def campaigns():
    """(directory, config document) per campaign, in the order they run."""
    sets = {"readme": README_PARAMS, "nonsym": NONSYM_PARAMS}
    out = [(f"modes-{name}", {"task": "analyze-modes", "params": params})
           for name, params in dict(sets, confluent=tuned_confluent_params()).items()]
    for name, params in sets.items():
        out += [(f"{task}-{name}", {"task": task, "params": params, "decay": README_DECAY})
                for task in ("linear-decay", "lower-bound")]
    out += [(f"sim-{dim}d-{n}", {"task": "simulate", "seed": 7, "params": README_PARAMS,
                                 "sim": dict(README_SIM, dim=dim, n=n, t_end=t_end)})
            for dim, n, t_end in SIM_GRIDS]
    out += [(f"sim-nonsym-{dim}d-{n}", {"task": "simulate", "seed": 7, "params": NONSYM_PARAMS,
                                        "sim": dict(README_SIM, dim=dim, n=n, t_end=t_end)})
            for dim, n, t_end in NONSYM_SIM_GRIDS]
    out += [(f"fit-{name}", {"task": "fit", "params": README_PARAMS,
                             "fit": {"input": f"../{source}/norms.csv"}})
            for name, source in (("1d-64", "sim-1d-64"), ("decay-readme", "linear-decay-readme"))]
    return out


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "metadata.json":
        meta = json.loads(data)
        meta.pop("solver_workers", None)
        data = (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for directory, doc in campaigns():
        code = run_campaign(parse_config(json.dumps(doc)), out_dir=directory, quiet=True)
        print(f"{code}  {directory}", file=sys.stderr)
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        print(f"{digest(path)}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
