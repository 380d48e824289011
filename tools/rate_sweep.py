"""The linear-decay rate table on seeded draws of general coefficients.

    python tools/rate_sweep.py BOX SEED COUNT

Draws COUNT parameter sets with ``numpy.random.default_rng(SEED)``.  Per
phase (+, then -) it draws mu log-uniform in [1/BOX, BOX], lambda uniform in
[-2 mu/3, 2 mu], sigma log-uniform in [1/BOX, BOX], gamma uniform in [1, 3] and
rbar log-uniform in [1/BOX, BOX].  Each set runs ``linear-decay`` with the
README's ``decay`` section through ``cli.run_campaign``, in one process, into
a temporary directory.  Per draw it prints the exit code, the parameters and
each failing (variable, k) with its signed deviation, fitted minus predicted
exponent (negative: the norm decays faster than predicted).  A summary
follows: the passes, the exit-1 draws per channel and sign, and the exit-2
draws per failure message (up to its second colon, so without the numbers).
The tool reports only; it gates nothing.
"""

import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from twofluid.cli import parse_config, run_campaign  # noqa: E402

README_DECAY = {"K0": 0.5, "k_max": 3, "t_min": 1.0e2, "t_max": 1.0e4, "samples": 40}


def draw(rng, box):
    """One parameter set, phase + then phase -, in the documented order."""
    params = {}
    for phase in ("plus", "minus"):
        mu = float(np.exp(rng.uniform(-np.log(box), np.log(box))))
        params[f"mu_{phase}"] = mu
        params[f"lambda_{phase}"] = float(rng.uniform(-2.0 * mu / 3.0, 2.0 * mu))
        params[f"sigma_{phase}"] = float(np.exp(rng.uniform(-np.log(box), np.log(box))))
        params[f"gamma_{phase}"] = float(rng.uniform(1.0, 3.0))
        params[f"rbar_{phase}"] = float(np.exp(rng.uniform(-np.log(box), np.log(box))))
    return params


def failing_fits(out_dir):
    """(variable, k, fitted - predicted exponent) of each failing row of fit_summary.csv."""
    lines = [ln for ln in (out_dir / "fit_summary.csv").read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return [(r["variable"], int(r["k"]), float(r["exponent"]) - float(r["expected_exponent"]))
            for r in rows if r["status"] == "fail"]


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    box, seed, count = float(argv[0]), int(argv[1]), int(argv[2])
    rng = np.random.default_rng(seed)
    passes, by_channel, by_message = 0, Counter(), Counter()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(count):
            params = draw(rng, box)
            text = json.dumps({"task": "linear-decay", "params": params, "decay": README_DECAY})
            out_dir = Path(tmp) / f"draw{i}"
            code = run_campaign(parse_config(text), out_dir=out_dir, quiet=True)
            print(f"draw {i}: exit {code} "
                  + " ".join(f"{k}={v:.6g}" for k, v in params.items()))
            if code == 0:
                passes += 1
            elif code == 1:
                fails = failing_fits(out_dir)
                for v, k, dev in fails:
                    print(f"  {v} k={k} {dev:+.4f}")
                by_channel.update({(v, "+" if dev > 0 else "-") for v, _, dev in fails})
            else:
                failure = json.loads((out_dir / "metadata.json").read_text(
                    encoding="utf-8")).get("failure", "")
                by_message[": ".join(failure.split(": ")[:2])] += 1  # without the numbers
                print(f"  {failure}")
    exit1 = count - passes - sum(by_message.values())
    print(f"\n{count} draws (box {box:g}, seed {seed}) in {time.perf_counter() - start:.1f} s: "
          f"{passes} pass, {exit1} exit 1, {sum(by_message.values())} exit 2")
    for (v, sign), n in sorted(by_channel.items()):
        print(f"  exit 1, {v} {sign}: {n} draws")
    for message, n in sorted(by_message.items()):
        print(f"  exit 2, {message}: {n} draws")


if __name__ == "__main__":
    main(sys.argv[1:])
