"""Bounded worker parallelism for Monte Carlo loops.

Replicates carry their own random streams, so results are identical
for any thread count; collection order follows submission order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def check_mc_reps(mc_reps: int) -> None:
    """Reject a Monte Carlo replicate count below one."""
    if mc_reps < 1:
        raise ValueError(f"need mc_reps >= 1, got {mc_reps}")


def parallel_map(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))
