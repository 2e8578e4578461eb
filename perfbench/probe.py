"""A fixed stdlib loop that measures how fast the host runs Python right now."""

from time import perf_counter


def loop_seconds(iterations: int) -> float:
    """Time one pass of a fixed pure-Python arithmetic loop."""
    start = perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return perf_counter() - start


def best_seconds(iterations: int, reps: int) -> float:
    return min(loop_seconds(iterations) for _ in range(reps))
