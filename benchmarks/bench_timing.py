"""Timing helpers shared by the benchmark modules."""

import time


def interleaved(fns, repeats: int):
    """Wall times of each of ``fns`` over ``repeats`` rounds.

    Within a round the functions take turns, so host drift lands on all
    of them alike.  Returns one list of times per function.
    """
    times = [[] for _ in fns]
    for _ in range(repeats):
        for fn, into in zip(fns, times):
            start = time.perf_counter()
            fn()
            into.append(time.perf_counter() - start)
    return times


def best_of(fn, repeats: int) -> float:
    """Minimum wall time of ``fn()`` over ``repeats`` runs (noise-robust)."""
    return min(interleaved([fn], repeats)[0])
