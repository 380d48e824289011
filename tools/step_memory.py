"""Time, page faults and memory of warm solver steps, in one process.

    python tools/step_memory.py DIM N

Runs the checkout's ``src/twofluid`` on the README simulate setup (its
parameters, box, amplitude and dt; random data, seed 1) on a DIM-dimensional
grid of N points per axis, with the solver's own thread count.  Two steps warm
the caches; then it prints, one per line:

- ``step_ms``: the median time of ``STEPS`` warm steps;
- ``minflt_per_step``: minor page faults per warm step (``ru_minflt``);
- ``live_peak_rows``: the tracemalloc peak of one more warm step above its
  entry, in grid rows (one float64 array of the grid's shape); the step
  before it runs traced too, so the incoming state's physical twin, which
  the caller holds, is traced memory that the step may release;
- ``maxrss_mb``: the process's ``ru_maxrss``, read before tracing starts;
- ``pool_threads``: the live ``twofluid-pool`` threads after the steps,
  ``CPUS - 1`` on a pooled grid (the caller works the remaining share) and 0
  inline.
"""

import resource
import statistics
import sys
import threading
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import README_PARAMS, README_SIM  # noqa: E402

from twofluid.closure import FluidParams  # noqa: E402
from twofluid.solver import Grid, InitSpec, init_state, step, workers  # noqa: E402

STEPS = 10


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    dim, n = map(int, argv)
    grid = Grid(dim=dim, n=n, length=README_SIM["length"])
    params, dt = FluidParams(**README_PARAMS), README_SIM["dt"]
    state = init_state(grid, InitSpec(kind="random", amplitude=README_SIM["amplitude"], seed=1),
                       params)
    for _ in range(2):
        state = step(state, dt, params)
    times, faults = [], resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(STEPS):
        start = time.perf_counter()
        state = step(state, dt, params)
        times.append(time.perf_counter() - start)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    tracemalloc.start()
    state = step(state, dt, params)
    entry = tracemalloc.get_traced_memory()[0]
    state = step(state, dt, params)
    peak = tracemalloc.get_traced_memory()[1] - entry
    tracemalloc.stop()
    row = 8 * grid.n**grid.dim
    print(f"grid {dim}D n={n}, {workers(grid)} thread(s), {STEPS} warm steps")
    print(f"step_ms {1e3 * statistics.median(times):.2f}")
    print(f"minflt_per_step {(usage.ru_minflt - faults) / STEPS:.1f}")
    print(f"live_peak_rows {peak / row:.2f} (grid row {row / 1e6:.3f} MB)")
    print(f"maxrss_mb {usage.ru_maxrss * 1024 / 1e6:.1f}")
    print("pool_threads", sum(t.name.startswith("twofluid-pool") for t in threading.enumerate()))


if __name__ == "__main__":
    main(sys.argv[1:])
