"""The package's one thread pool.

The solver's steps on large grids, the linear lab's sample times and the
projections of large node batches split independent work among the CPUs this
process may use.
The threads never change the arithmetic of a row, slab or time, so results
are bitwise the same whatever the number of CPUs.  A pool task never submits
to the pool.
"""

from __future__ import annotations

import functools
import os

# The CPUs this process may run on; ``taskset`` narrows them.
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)


@functools.cache
def _pool(size: int):
    # imported here, so runs that never share work do not load it (and logging)
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(size, thread_name_prefix="twofluid-pool")


def each(task, count: int, size: int):
    """``task(i)`` for every ``i < count``: inline on one thread or one task, else on the pool.

    Tasks run their own work inline: a task that submitted to the pool and
    waited could hold the last free thread its work needs.
    """
    if size == 1 or count <= 1:
        for i in range(count):
            task(i)
        return

    def share(first):  # one hand-off per thread: every size-th item
        for i in range(first, count, size):
            task(i)

    for _ in _pool(size).map(share, range(min(size, count))):
        pass  # reading each result re-raises a task's exception


def freeze(*arrays):
    """Make arrays read-only: whoever shares them cannot change them."""
    for a in arrays:
        a.flags.writeable = False


def slices(task, length: int, count: int, size: int) -> list:
    """``[task(s), ...]`` over ``count`` contiguous, near-equal slices ``s`` of
    ``range(length)`` (at most ``length``, at least one), on ``size`` threads."""
    count = min(count, length) or 1
    parts = [None] * count

    def run(i):
        parts[i] = task(slice(i * length // count, (i + 1) * length // count))

    each(run, count, size)
    return parts
